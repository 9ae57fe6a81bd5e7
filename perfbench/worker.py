"""Run one cycle of a workload in a fresh Python process.

Usage: python3 worker.py JOB.json RESULT.json SPAWN_NS

JOB.json names the checkout's ``src`` directory, the operations (argv lists
for ``ringlab.cli.main``), how long the warm passes should last at least and
whether to trace. SPAWN_NS is the parent's ``time.monotonic_ns()`` just
before it started this process, so that the set-up time covers interpreter
start and ``import ringlab``. The first pass over the operations is cold
(fresh process, empty caches); the passes after it, in the same process, are
warm. Each operation's time, stdout and exit code go into RESULT.json for the
parent to check, together with calibration chunks: the time of a fixed
pure-Python loop, run between operations, which the parent uses to rescale
the operation times to a reference machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


CALIBRATION_ITERATIONS = 50_000
CALIBRATION_EVERY_S = 0.1


def calibration_chunk() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed
    for interpreter work, sampled next to the operations it rescales."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return time.perf_counter() - start


def run_op(cli, argv):
    """Run one command line in-process; return (seconds, code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # an uncaught exception is a failed operation
        code = None
        error = traceback.format_exc(limit=4)
    return time.perf_counter() - start, code, out.getvalue(), error


def run_pass(cli, ops) -> dict:
    """One pass over the operations, with a calibration chunk before the
    first, after the last, and between any two that are more than
    CALIBRATION_EVERY_S apart."""
    results, calibration = [], []
    start = time.perf_counter()
    for op in ops:
        now = time.perf_counter()
        if not calibration or now - calibration[-1][0] > CALIBRATION_EVERY_S:
            calibration.append((now, calibration_chunk()))
        began = time.perf_counter()
        seconds, code, out, error = run_op(cli, op["argv"])
        results.append({"t": began, "s": seconds, "code": code, "out": out,
                        "error": error})
    calibration.append((time.perf_counter(), calibration_chunk()))
    return {"wall_s": time.perf_counter() - start, "ops": results,
            "calibration": calibration}


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result_path = Path(argv[2])
    spawn_ns = int(argv[3])

    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import ringlab
    import ringlab.cli as cli
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    if Path(ringlab.__file__).resolve().parent.parent != src:
        print(f"ringlab imported from {ringlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    result = {"setup_s": setup_s,
              "setup_calibration_s": sorted(calibration_chunk() for _ in range(3))[1],
              "passes": []}
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(ringlab)
    # one cold pass, then warm passes until they add up to warm_min_s
    warm_s = 0.0
    while job["ops"] and (len(result["passes"]) < 2 or warm_s < job["warm_min_s"]):
        ps = run_pass(cli, job["ops"])
        if result["passes"]:
            warm_s += ps["wall_s"]
        result["passes"].append(ps)
    if tracer is not None:
        result["trace"] = {"functions": tracer.functions(),
                           "counters": tracer.counters,
                           "spans": tracer.span_count(),
                           "span_mb": tracer.span_bytes() / 2**20}
        tracer.write_spans(job["spans_path"])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
