import json
import subprocess
import sys
from pathlib import Path

import jsonschema

from polygroth.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(kind, payload):
    schema = json.loads((DOCS / f"{kind}.schema.json").read_text())
    jsonschema.validate(payload, schema)


# -- documented example invocations ----------------------------------------------


def test_chi_halfline(capsys):
    code, out, err = run_cli(capsys, "chi", "-e", "dim 1; x1 >= 0")
    assert code == 0 and err == ""
    assert out == "chi=0 chi_b=1\n"


def test_class_square(capsys):
    code, out, _ = run_cli(
        capsys, "class", "-e", "dim 2; x1 >= 0 & -x1 >= -1 & x2 >= 0 & -x2 >= -1")
    assert code == 0
    assert out == "u^2 + v^2\n"


def test_chi_gamma_half_point(capsys):
    code, out, _ = run_cli(
        capsys, "chi-gamma", "--gamma", "1", "-e", "dim 1; x1 >= 1/2 & -x1 >= -1/2")
    assert code == 0
    assert out == "0\n"


def test_chi_gamma_divisible(capsys):
    code, out, _ = run_cli(
        capsys, "chi-gamma", "--gamma", "div", "-e", "dim 1; x1 >= 0")
    assert code == 0
    assert out == "1\n"


# -- polyhedron commands -----------------------------------------------------------


SQUARE_TEXT = "1 0 >= 0\n-1 0 >= -1\n0 1 >= 0\n0 -1 >= -1"


def test_faces_square(capsys, tmp_path):
    path = tmp_path / "square.poly"
    path.write_text(SQUARE_TEXT)
    code, out, _ = run_cli(capsys, "faces", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    code, out, _ = run_cli(capsys, "faces", "--json", str(path))
    payload = json.loads(out)
    validate("faces", payload)
    assert len(payload["faces"]) == 9


def test_recession_strip(capsys):
    code, out, _ = run_cli(capsys, "recession", "-e", "0 1 >= 0\n0 -1 >= -1")
    assert code == 0
    assert "ell = 1" in out
    code, out, _ = run_cli(capsys, "recession", "--json",
                           "-e", "0 1 >= 0\n0 -1 >= -1")
    payload = json.loads(out)
    validate("recession", payload)
    assert payload["ell"] == 1


def test_tangent_square_corner(capsys):
    code, out, _ = run_cli(capsys, "tangent", "--point", "0,0", "-e", SQUARE_TEXT)
    assert code == 0
    assert set(out.strip().splitlines()) == {"1 0 >= 0", "0 1 >= 0"}
    code, out, _ = run_cli(capsys, "tangent", "--point", "1/2,1/2",
                           "--json", "-e", SQUARE_TEXT)
    payload = json.loads(out)
    validate("tangent", payload)
    assert payload["rows"] == []


def test_bg_segment(capsys):
    code, out, _ = run_cli(capsys, "bg", "-e", "1 >= 0\n-1 >= -1")
    assert code == 0
    assert "ell = 0" in out
    code, out, _ = run_cli(capsys, "bg", "--json", "-e", "1 >= 0\n-1 >= -1")
    payload = json.loads(out)
    validate("bg", payload)
    assert sorted(t["sign"] for t in payload["terms"]) == [-1, 1, 1]
    assert payload["ell"] == 0


def test_bg_whole_space_needs_dim(capsys):
    code, out, err = run_cli(capsys, "bg", "-e", "")
    assert code == 2 and "dimension" in err
    code, out, _ = run_cli(capsys, "bg", "--dim", "2", "-e", "")
    assert code == 0


# -- cells / ungraded / motivic -------------------------------------------------------


def test_cells_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "cells", "--json", "-e",
        "dim 2; x1 >= 0 & x2 >= 0 & x1 - x2 >= 0")
    payload = json.loads(out)
    validate("cells", payload)
    assert len(payload["cells"]) == 13


def test_cells_deterministic(capsys):
    argv = ["cells", "-e", "dim 1; x1 >= 0 & x1 < 1"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert "cells (5):" in out1


def test_ungraded(capsys):
    code, out, _ = run_cli(capsys, "ungraded", "-e", "dim 1; x1 >= 0")
    assert code == 0
    assert out == "(0, 1)\n"
    code, out, _ = run_cli(capsys, "ungraded", "--json", "-e", "dim 1; x1 >= 0")
    validate("ungraded", json.loads(out))


def test_chi_json_schema(capsys):
    code, out, _ = run_cli(capsys, "chi", "--json", "-e", "dim 1; x1 > 0")
    payload = json.loads(out)
    validate("chi", payload)
    assert payload == {"chi": -1, "chi_b": 0}


def test_class_json_schema(capsys):
    code, out, _ = run_cli(capsys, "class", "--json", "-e", "dim 1; x1 > 0")
    payload = json.loads(out)
    validate("class", payload)
    assert payload["terms"] == [[1, -1, 0]]


def test_chi_gamma_json_schema(capsys):
    code, out, _ = run_cli(capsys, "chi-gamma", "--json", "--gamma", "1",
                           "-e", "dim 1; x1 = 0")
    payload = json.loads(out)
    validate("chi_gamma", payload)
    assert payload == {"chi_gamma": 2}


def test_motivic_closed_ball(capsys):
    code, out, _ = run_cli(
        capsys, "motivic", "-e", "torus 1; val(x1) >= 0; point;")
    assert code == 0
    assert "class = (L, 1)" in out
    assert "psi = L" in out
    assert "in_kernel = false" in out


def test_motivic_json(capsys):
    code, out, _ = run_cli(
        capsys, "motivic", "--json", "-e", "torus 1; val(x1) > 0; point;")
    payload = json.loads(out)
    validate("motivic", payload)
    assert payload["f"] == [1]
    assert payload["g"] == [0, 1]
    assert payload["in_kernel"] is False


# -- verify-suite ------------------------------------------------------------------


def test_verify_suite_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-suite", "--filter", "cell_*")
    assert code == 0
    assert "PASS cell_counts_fixtures" in out
    assert "passed 1/1" in out


def test_verify_suite_filter_bg_single(capsys):
    code, out, _ = run_cli(capsys, "verify-suite", "--filter", "bg_strip")
    assert code == 0
    assert "PASS bg_strip" in out


def test_verify_suite_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify-suite", "--json",
                           "--filter", "generator_values")
    payload = json.loads(out)
    validate("verify", payload)
    assert payload["passed"] == payload["total"] == 1


def test_verify_suite_unknown_filter(capsys):
    code, out, err = run_cli(capsys, "verify-suite", "--filter", "nope_*")
    assert code == 2


# -- error handling ------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "chi", "-e", "dim 1; x1 >=")
    assert code == 2
    assert out == "" and "parse error" in err


def test_two_inputs_rejected(capsys, tmp_path):
    path = tmp_path / "x"
    path.write_text("dim 1; x1 >= 0")
    code, _, err = run_cli(capsys, "chi", str(path), "-e", "dim 1; x1 >= 0")
    assert code == 2 and "exactly one input" in err


def test_no_input_rejected(capsys):
    code, _, err = run_cli(capsys, "chi")
    assert code == 2


def test_resource_cap_exit_code(capsys):
    atoms = " & ".join(f"x1 >= {k}" for k in range(16))
    code, _, err = run_cli(capsys, "cells", "-e", f"dim 1; {atoms}")
    assert code == 3 and "resource cap" in err
    code, _, _ = run_cli(capsys, "cells", "--max-hyperplanes", "16",
                         "-e", f"dim 1; {atoms}")
    assert code == 0


def test_max_dim_flag(capsys):
    code, _, err = run_cli(capsys, "chi", "--max-dim", "2",
                           "-e", "dim 3; x1 >= 0")
    assert code == 3


def test_max_dim_flag_above_engine_cap(capsys):
    code, out, err = run_cli(capsys, "chi", "--max-dim", "9",
                             "-e", "dim 7; 0 >= 0")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "hard cap is 6" in err


def test_header_dimension_capped_before_allocation(capsys):
    huge = "99999999999999999999"
    for argv in (["chi", "-e", f"dim {huge}; 0>=0"],
                 ["motivic", "-e", f"torus {huge}; val(x1) >= 0;"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "hard cap is 6" in err


def test_nesting_depth_capped(capsys):
    code, out, err = run_cli(capsys, "chi", "-e", "dim 1; " + "!" * 1200 + "x1 >= 0")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "nested deeper" in err
    deep = "(" * 50 + "!" * 50 + "x1 >= 0" + ")" * 50
    code, out, _ = run_cli(capsys, "chi", "-e", f"dim 1; {deep}")
    assert code == 0 and out == "chi=0 chi_b=1\n"


def test_stdout_write_error_exit_code(capsys, monkeypatch):
    class FullStdout:
        def write(self, text):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["cells", "-e", "dim 1; x1 >= 0"])
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 3
    assert err == "polygroth: cannot write output: [Errno 28] No space left on device\n"


def test_chi_own_hyperplanes_count_against_cap(capsys):
    # 3 and 7 hyperplanes: within the cap of 14, so answered exactly
    code, out, _ = run_cli(capsys, "chi", "-e", "dim 6; x1>=0 & x2>=0 & x3>=0")
    assert code == 0 and out == "chi=0 chi_b=1\n"
    code, out, _ = run_cli(
        capsys, "chi", "-e",
        "dim 4; x1>=0 & x2>=0 & x3>=0 & x4>=0 & x1+x2+x3+x4<=1 & x1<=2 & x2<=2")
    assert code == 0 and out == "chi=1 chi_b=1\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polygroth.cli", "chi", "-e", "dim 1; x1 >= 0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "chi=0 chi_b=1\n"


# -- round trips ----------------------------------------------------------------------


def test_polyhedron_roundtrip_through_cli(capsys):
    from polygroth.polyhedron import format_polyhedron, parse_polyhedron
    Q = parse_polyhedron(SQUARE_TEXT)
    assert parse_polyhedron(format_polyhedron(Q)) == Q


def test_constructible_roundtrip_through_render():
    from polygroth.constructible import parse_constructible, render_constructible
    text = "dim 2; 2x1 - 3x2 >= 5/2 & (x1 > 0 | !(x2 >= 1))"
    C = parse_constructible(text)
    assert parse_constructible(render_constructible(C)) == C
