"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

They check that a tiny run of each workload prints every metric that
BENCHMARK.json names, that each oracle rejects corrupted answers, and that
the tracer leaves every polygroth binding as it found it.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import workloads  # noqa: E402
from polygroth.grothendieck import GradedClass  # noqa: E402
from tracer import ENTRY_POINTS, Tracer, _package_modules  # noqa: E402
from worker import run_loop  # noqa: E402

WORKLOADS = ["scissor", "polytope", "cli"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    res = _tiny_run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert res["metrics"]["ops_ok_share"]["value"] == 1.0


def test_predicted_bypasses_hold():
    counts = {}
    for workload in WORKLOADS:
        tracer = Tracer()
        tracer.install()
        try:
            run_loop(workload, 5, ops=16, tracer=tracer)
        finally:
            tracer.uninstall()
        counts[workload] = tracer.layer_metrics()
    assert counts["scissor"]["exactq.lp_optimize.calls"] == 0
    assert counts["scissor"]["grothendieck.class_of.calls"] == 3 * 16
    assert counts["polytope"]["euler.gamma_star.calls"] == 0
    assert counts["polytope"]["euler.chi_b.calls"] == 0
    assert counts["cli"]["cli.build_parser.calls"] == counts["cli"]["cli.main.calls"] == 16


def _answered(workload, seed, count):
    prepare, run, check = workloads.WORKLOADS[workload]
    out = []
    for i in range(count):
        op = gen.OPS[workload](seed, i)
        answer = run(prepare(op))
        assert check(op, answer) is None, (op, answer)
        out.append((op, answer))
    return out


def test_scissor_oracle_rejects_corruption():
    check = workloads.scissor_check
    zero = GradedClass()
    hit = 0
    for op, (c, d, rest) in _answered("scissor", 7, 12):
        n = op["n"]
        bumped = GradedClass(0, ((n,) + tuple(x + 1 for x in workloads.graded_pair(c, n)),))
        assert check(op, (bumped, d, rest)) is not None  # breaks the relation
        if workloads.tree_pair(op["C"], n) != (0, 0):
            # an all-zero answer keeps the relation; only the oracle sees it
            assert check(op, (zero, zero, zero)) is not None
            hit += 1
    assert hit > 0


def test_polytope_oracle_rejects_corruption():
    check = workloads.polytope_check
    for op, (ok, bounded, visible) in _answered("polytope", 7, 6):
        assert check(op, (False, bounded, visible)) is not None
        assert check(op, (ok, -bounded, visible)) is not None
        assert check(op, (ok, bounded, visible[:-1] + [-visible[-1]])) is not None


def _bump_first_digit(text):
    for k, ch in enumerate(text):
        if ch.isdigit():
            return text[:k] + str((int(ch) + 1) % 10) + text[k + 1:]
    return None


def test_cli_oracle_rejects_corruption():
    check = workloads.cli_check
    cycle = len(gen._CLI_CYCLE)
    corrupted = 0
    for op, (code, out, err) in _answered("cli", 7, 2 * cycle):
        assert check(op, (code + 1, out, err)) is not None
        bumped = _bump_first_digit(out)
        if code == 0 and bumped is not None:
            assert check(op, (code, bumped, err)) is not None, (op["argv"], out)
            corrupted += 1
    assert corrupted >= len(gen._CLI_VALID)


def test_tracer_restores_every_binding():
    def snapshot():
        return {(m.__name__, k): v for m in _package_modules() for k, v in vars(m).items()}

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        during = snapshot()
        rebound = {key for key, v in during.items() if v is not before[key]}
        assert {f"polygroth.{name.split('.')[0]}" for name in ENTRY_POINTS} <= \
            {mod for mod, _ in rebound}
        for workload in WORKLOADS:
            run_loop(workload, 9, ops=3, tracer=tracer)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.span_count() > 0
