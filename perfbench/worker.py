"""One benchmark client in a fresh interpreter.

    python3 perfbench/worker.py --probe-setup
    python3 perfbench/worker.py --workload W --seed N (--seconds S | --ops K) [--trace-out FILE]

``--probe-setup`` only imports polygroth and polygroth.cli and prints the
seconds that took, with the mean time of 20 reference slices.

Otherwise the worker runs a closed loop with one client: op i is generated
(untimed), prepared (untimed) and run (timed), and the next op starts only
when the previous one has returned.  The loop stops once the timed busy
time reaches ``--seconds``, or after ``--ops`` ops.  After every 50 ms of
busy time it times one reference slice, outside the op timings, to gauge the
host's current speed.  Then it reads its peak resident memory, and only then
runs the oracles.  With ``--trace-out`` the loop runs under the outside
tracer and the spans are written to that file.  The last stdout line is one
JSON object.
"""

import os
import sys
import time

_t0 = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
import polygroth  # noqa: E402
import polygroth.cli  # noqa: E402
_SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def _check_source():
    """Refuse to measure a polygroth that is not this checkout's."""
    want = os.path.realpath(os.path.join(_ROOT, "src", "polygroth"))
    got = os.path.dirname(os.path.realpath(polygroth.__file__))
    if got != want:
        sys.exit(f"worker: imported polygroth from {got}, expected {want}")


# Host speed drifts by up to +-25% from one minute to the next on a shared
# machine, for any code.  Each process therefore times a fixed computation
# of the same kind as polygroth's (exact rational row reduction, no
# polygroth code) between ops, and run.py scales its timings by that speed.
_REF = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
        for i in range(8)]
REF_EVERY_S = 0.05  # busy time between two reference slices


def reference_slice():
    """Seconds to row-reduce one fixed 8x9 rational matrix.  The garbage
    collector is held off meanwhile, so the program's heap does not leak
    into the host-speed figure."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _reduce_reference()
    finally:
        if was_enabled:
            gc.enable()


def _reduce_reference():
    t0 = time.perf_counter()
    m = [row[:] for row in _REF]
    r = 0
    for col in range(9):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return time.perf_counter() - t0


def run_loop(workload, seed, seconds=None, ops=None, tracer=None):
    """The timed closed loop.  Returns the ops, answers, per-op latencies,
    busy seconds and reference-slice seconds."""
    import gen
    from workloads import WORKLOADS

    prepare, run, _ = WORKLOADS[workload]
    make = gen.OPS[workload]
    done, answers, latencies, refs = [], [], [], [reference_slice()]
    busy = ref_busy = 0.0
    clock = time.perf_counter
    i = 0
    while (busy < seconds) if ops is None else (i < ops):
        op = make(seed, i)
        prepared = prepare(op)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            answer = run(prepared)
        except Exception as exc:  # a failed op is counted, the loop goes on
            answer = exc
        dt = clock() - t0
        busy += dt
        done.append(op)
        answers.append(answer)
        latencies.append(dt)
        if busy - ref_busy >= REF_EVERY_S:
            ref_busy = busy
            refs.append(reference_slice())
        i += 1
    return done, answers, latencies, busy, refs


def check_all(workload, done, answers):
    """Oracle verdicts, after the timed loop: (failed count, first reasons)."""
    from workloads import WORKLOADS

    check = WORKLOADS[workload][2]
    failed, reasons = 0, []
    for i, (op, answer) in enumerate(zip(done, answers)):
        if isinstance(answer, Exception):
            reason = f"raised {answer!r}"
        else:
            try:
                reason = check(op, answer)
            except Exception as exc:  # a malformed answer fails its op
                reason = f"oracle could not read the answer: {exc!r}"
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"op {i}: {reason}")
    return failed, reasons


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe-setup", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    _check_source()
    if args.probe_setup:
        refs = [reference_slice() for _ in range(20)]
        print(json.dumps({"setup_s": _SETUP_S, "ref_s": sum(refs) / len(refs)}))
        return 0
    import workloads  # noqa: F401  (imports every module the ops use)

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        done, answers, latencies, busy, refs = run_loop(
            args.workload, args.seed, args.seconds, args.ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons = check_all(args.workload, done, answers)
    result = {"attempted": len(done), "failed": failed, "reasons": reasons,
              "latencies_s": latencies, "busy_s": busy, "rss_mb": rss_mb,
              "ref_s": sum(refs) / len(refs),
              "setup_s": _SETUP_S}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.span_count()
        tracer.write_spans(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
