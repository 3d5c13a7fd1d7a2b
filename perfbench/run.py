"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload scissor --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; nothing needs building.  Every measurement happens in fresh
worker interpreters (``perfbench/worker.py``), one at a time:

- with ``--trace 0``, one untraced closed-loop client measured for
  ``--seconds`` of busy time, which gives the end-to-end metrics, and then
  set-up probes: interpreters that only import ``polygroth`` and
  ``polygroth.cli``; ``setup_s`` is the median of the measured probes;
- with ``--trace 1``, the same untraced client and then a traced client that
  repeats exactly the ops the first one completed, which gives the per-layer
  metrics and the tracing overhead; spans go to ``.perfbench/``.

Times are scaled to a nominal host speed: each worker process also times a
fixed reference computation between ops, and its seconds are multiplied by
``REF_NOMINAL_S`` over its mean reference time.  That removes most of the
drift of a shared host; the unscaled figures are printed on a ``#`` line.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is nonzero, with no JSON line, when the benchmark itself cannot run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
# Timings are reported at a nominal host speed: a process's seconds are
# scaled by REF_NOMINAL_S / (its mean reference-slice time), see worker.py.
REF_NOMINAL_S = 0.0016


class BenchError(Exception):
    pass


def _worker(args, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded {timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scale(res):
    """Factor that turns this process's seconds into nominal seconds."""
    return REF_NOMINAL_S / res["ref_s"]


def setup_seconds():
    """Median scaled import time over fresh interpreters, and the raw
    median; the first probe, which may still compile bytecode, is
    discarded."""
    probes = [_worker(["--probe-setup"], 60) for _ in range(SETUP_PROBES + 1)][1:]
    return (statistics.median(p["setup_s"] * _scale(p) for p in probes),
            statistics.median(p["setup_s"] for p in probes))


def _client(workload, seed, seconds=None, ops=None, trace_out=None):
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds)] if ops is None else ["--ops", str(ops)]
    if trace_out:
        args += ["--trace-out", trace_out]
    return _worker(args, WORKER_TIMEOUT_S)


def timings(res, scale):
    """ops/s, p50 ms and p90 ms of a client, its seconds multiplied by scale."""
    lat = sorted(res["latencies_s"])
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    ok = res["attempted"] - res["failed"]
    return (ok / (res["busy_s"] * scale), statistics.median(lat) * scale * 1e3,
            p90 * scale * 1e3)


def end_to_end(res, setup_s):
    ops_per_s, p50, p90 = timings(res, _scale(res))
    return {
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ops_ok_share": (res["attempted"] - res["failed"]) / res["attempted"],
        "setup_s": setup_s,
        "peak_rss_mb": res["rss_mb"],
    }


def per_layer(plain, traced):
    out = dict(traced["layers"])
    base = plain["busy_s"] * _scale(plain)
    out["trace.overhead_share"] = (traced["busy_s"] * _scale(traced) - base) / base
    out["trace.base_s"] = base
    out["trace.spans"] = traced["spans"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["scissor", "polytope", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polygroth", "__init__.py")):
        print(f"run.py: no polygroth sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        plain = _client(args.workload, args.seed, seconds=args.seconds)
        runs = [plain]
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
            traced = _client(args.workload, args.seed, ops=plain["attempted"],
                             trace_out=spans)
            runs.append(traced)
            metrics = per_layer(plain, traced)
        else:
            setup_s, raw_setup_s = setup_seconds()
            metrics = end_to_end(plain, setup_s)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed clients=1 nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    print(f"# ops={plain['attempted']} latency_samples={len(plain['latencies_s'])} "
          f"failed={plain['failed']} ops_failed_share={plain['failed'] / plain['attempted']:.4f}")
    raw = timings(plain, 1.0)
    print(f"# unscaled: ops_per_s={raw[0]:.6g} op_p50_ms={raw[1]:.6g} "
          f"op_p90_ms={raw[2]:.6g} busy_s={plain['busy_s']:.6g} "
          f"ref_slice_s={plain['ref_s']:.6g} (nominal {REF_NOMINAL_S})"
          + ("" if args.trace else f" setup_s={raw_setup_s:.6g}"))
    for r in runs:
        for reason in r["reasons"]:
            print(f"# FAILED {reason}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
