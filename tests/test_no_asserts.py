"""Source-level invariant: the package raises InvariantError instead of
using ``assert``, which ``python -O`` strips."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polygroth"


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
