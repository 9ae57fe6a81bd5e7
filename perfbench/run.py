"""ringlab benchmark: time-boxed runs of one workload, checked against goldens.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify|census-ladder|witness-cli|all \
        --seed N --seconds S --trace 0|1

A run starts fresh single-threaded worker processes (perfbench/worker.py),
one after another, until the next one would end past --seconds. Each worker
imports ringlab from the checkout's src/, makes a cold pass and then warm
passes over the workload's operations, and reports every operation's time,
stdout and exit code. The run checks each output against the goldens in
perfbench/golden/ and prints a report, then one JSON line: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.

Times in the JSON line are rescaled to a reference machine speed (see
scaled_ops); the report prints the raw times next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CENSUS_BANDS, WORKLOADS, operations

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 3        # import-only workers per run, besides the cycles
MIN_CYCLES = 3          # untraced cycles per run, even past --seconds
MIN_TRACED_CYCLES = 2   # traced cycles, so that counts can be compared
WARM_MIN_S = 0.5        # warm passes per cycle add up to at least this
WORKER_TIMEOUT_S = 150
# A calibration chunk (worker.calibration_chunk) takes this long at the
# reference speed, about the fastest this loop ran on the 2-core machine the
# benchmark was built on (Python 3.11.7).
CALIBRATION_REF_S = 0.006

LAYERS = ("cli", "construct", "core", "structure", "deciders", "harness")
# Per-layer metrics that are defined on every workload (harness does nothing
# in witness-cli, so only its call count is declared; the report shows all).
TIMED_LAYERS = ("cli", "construct", "core", "structure", "deciders")
SELF_TIMED = ("cli.main", "cli.parse_spec", "core.validate_axioms",
              "core.power_seq", "deciders.wncl_witness")
COUNTED = (
    "cli.parse_spec", "construct.build", "construct.matrix_ring",
    "construct.opposite", "core.validate_axioms", "core.power_seq",
    "structure.idempotents", "structure.nilpotents", "structure.units",
    "structure.center", "structure.jacobson_radical",
    "structure.ideal_generated", "structure.make_ideal", "deciders.classify",
)
COUNTERS = (
    "construct.tabled_cells", "core.validated_cells",
    "construct.build_cached.hits", "construct.build_cached.misses",
    "structure.memo_lookups", "deciders.witness_memo_lookups",
    "deciders.witness_attempted",
)
RATIOS = (  # name, numerator, base
    ("structure.memo_hit_ratio", "structure.memo_hits", "structure.memo_lookups"),
    ("deciders.witness_memo_hit_ratio", "deciders.witness_memo_hits",
     "deciders.witness_memo_lookups"),
    ("deciders.witness_found_ratio", "deciders.witness_found",
     "deciders.witness_attempted"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, no goldens, a worker died)."""


def spawn_worker(job: dict, work_dir: Path, tag: str) -> dict:
    """Run perfbench/worker.py on job in a fresh process; return its result."""
    work_dir.mkdir(parents=True, exist_ok=True)
    job_path = work_dir / f"job-{tag}.json"
    result_path = work_dir / f"result-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path),
           str(result_path), str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} ran over {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker {tag} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    job_path.unlink()
    result_path.unlink()
    return result


# ---------------------------------------------------------------------------
# goldens


def load_goldens(workload: str) -> dict:
    """Golden (exit code, stdout) per pass kind ("cold"/"warm") and key."""
    try:
        if workload == "verify":
            data = json.loads((GOLDEN_DIR / "verify.json").read_text())
            return {kind: {k: (v["code"], v["stdout"]) for k, v in data[kind].items()}
                    for kind in ("cold", "warm")}
        table = {}
        if workload == "census-ladder":
            for band, specs in CENSUS_BANDS.items():
                lines = (GOLDEN_DIR / f"census-{band}.csv").read_text().splitlines()
                header, rows = lines[0], lines[1:]
                if len(rows) != len(specs):
                    raise BenchError(f"census-{band}.csv has {len(rows)} rows "
                                     f"for {len(specs)} specs")
                for spec, row in zip(specs, rows):
                    table[spec] = (0, f"{header}\n{row}\n")
        else:
            with open(GOLDEN_DIR / "witness.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    table[rec["query"]] = (rec["code"], rec["stdout"])
        return {"cold": table, "warm": table}
    except OSError as exc:
        raise BenchError(f"cannot read goldens: {exc}") from None


def check_outputs(cycles, ops, goldens) -> tuple:
    """(attempted, failed, first few mismatches) over every pass of every
    cycle; an operation fails when its stdout or exit code differs from the
    golden or it raised."""
    attempted = failed = 0
    notes = []
    for cycle in cycles:
        for n, ps in enumerate(cycle["passes"]):
            kind = "warm" if n else "cold"
            for op, res in zip(ops, ps["ops"]):
                attempted += 1
                want = goldens[kind].get(op["key"])
                if (res["error"] is None and want is not None
                        and (res["code"], res["out"]) == want):
                    continue
                failed += 1
                if len(notes) < 5:
                    why = res["error"] or ("no golden" if want is None else
                                           f"exit {res['code']}, stdout "
                                           f"{res['out'][:120]!r}")
                    notes.append(f"{kind} {' '.join(op['argv'])}: {why}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# timing


def run_cycles(job: dict, work_dir: Path, seconds: float, t0: float,
               minimum: int, tag: str) -> list:
    """Start workers one after another until the next would end past the
    time box, but at least `minimum` of them."""
    cycles = []
    while True:
        start = time.monotonic()
        cycles.append(spawn_worker(job, work_dir, f"{tag}{len(cycles)}"))
        took = time.monotonic() - start
        if len(cycles) >= minimum and time.monotonic() - t0 + took > seconds:
            return cycles


def scaled_ops(ps: dict) -> list:
    """Operation times of one pass at the reference speed.

    On a shared host the speed of interpreter-bound code drifts by 20% and
    more within seconds, as other tenants load the machine; a fixed
    pure-Python loop (worker.calibration_chunk) timed just before and just
    after an operation slows down with it. Each operation's time is
    multiplied by CALIBRATION_REF_S over the mean of those two chunks. The
    loop is the benchmark's own code, so no change to ringlab moves it.
    """
    cal = ps["calibration"]
    out, j = [], 0
    for op in ps["ops"]:
        while j + 1 < len(cal) and cal[j + 1][0] <= op["t"]:
            j += 1
        k = j + 1  # the first chunk after the operation ended
        while cal[k][0] < op["t"] + op["s"]:
            k += 1
        out.append(op["s"] * 2 * CALIBRATION_REF_S / (cal[j][1] + cal[k][1]))
    return out


def setup_scaled(result: dict) -> float:
    return result["setup_s"] * CALIBRATION_REF_S / result["setup_calibration_s"]


def percentile(values, q: int) -> float:
    """q-th percentile (0 < q < 100), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(setups, cold, warm, rss) -> dict:
    """setups: seconds; cold: per cycle, op seconds; warm: per cycle, per
    warm pass, op seconds; rss: MB per cycle."""
    op_ms = [s * 1e3 for ops in cold for s in ops]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(ops) for ops in cold), "s"),
        "warm_s": (statistics.median(sum(ops) for c in warm for ops in c), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p99_ms": (percentile(op_ms, 99), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def end_to_end(cycles, probes, ops) -> tuple:
    """The end-to-end metrics at the reference speed, and report lines that
    also give the raw values, the census bands and the verify checks."""
    everyone = probes + cycles
    rss = [c["peak_rss_mb"] for c in cycles]
    scaled = latency_metrics(
        [setup_scaled(c) for c in everyone],
        [scaled_ops(c["passes"][0]) for c in cycles],
        [[scaled_ops(ps) for ps in c["passes"][1:]] for c in cycles], rss)
    raw = latency_metrics(
        [c["setup_s"] for c in everyone],
        [[o["s"] for o in c["passes"][0]["ops"]] for c in cycles],
        [[[o["s"] for o in ps["ops"]] for ps in c["passes"][1:]] for c in cycles],
        rss)
    warm_passes = sum(len(c["passes"]) - 1 for c in cycles)
    lines = [f"cycles: {len(cycles)} (worker processes; each a cold pass and "
             f"warm passes over {len(ops)} operations); warm passes: "
             f"{warm_passes}; setup samples: {len(everyone)}; op latency "
             f"samples: {len(cycles) * len(ops)} cold operations"]
    for name, (value, unit) in scaled.items():
        lines.append(f"{name}: {value:.6g} {unit} (raw {raw[name][0]:.6g} {unit})")

    def by_key(idx, n_pass):
        """Median over cycles of the scaled time of ops idx in pass n."""
        return statistics.median(
            sum(scaled_ops(c["passes"][n_pass])[i] for i in idx) for c in cycles)

    if ops[0]["group"] in CENSUS_BANDS:
        for band in CENSUS_BANDS:
            idx = [i for i, op in enumerate(ops) if op["group"] == band]
            lines.append(f"{band}_s: {by_key(idx, 0):.6g} s (cold, median "
                         "over cycles)")
    elif ops[0]["group"] == "verify":
        for i, op in enumerate(ops):
            lines.append(f"check {op['key']:<11} cold {by_key([i], 0):.6g} s, "
                         f"warm {by_key([i], 1):.6g} s")
    return {k: {"value": v, "unit": u} for k, (v, u) in scaled.items()}, lines


def per_layer(traced, untraced) -> tuple:
    """Per-layer metrics of the traced cycles (medians of times, counts of
    the first cycle), whether the counts repeat exactly, and report lines."""
    def counts(cycle):
        tr = cycle["trace"]
        return ({k: v["calls"] for k, v in tr["functions"].items()},
                tr["counters"])

    repeat = all(counts(c) == counts(traced[0]) for c in traced[1:])
    calls, counters = counts(traced[0])

    def med(field, name=None, layer=None):
        return statistics.median(
            sum(v[field] for k, v in c["trace"]["functions"].items()
                if k == name or k.split(".", 1)[0] == layer) for c in traced)

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer)

    m = {}
    for layer in LAYERS:
        if layer in TIMED_LAYERS:
            m[f"{layer}.self_s"] = (med("self_s", layer=layer), "s")
        m[f"{layer}.calls"] = (layer_calls(layer), "count")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (med("self_s", name), "s")
    m["construct.build.total_s"] = (med("total_s", "construct.build"), "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTERS:
        m[name] = (counters[name], "count")
    for name, num, base in RATIOS:
        m[name] = (counters[num] / counters[base] if counters[base] else 0.0,
                   "ratio")
    traced_wall = statistics.median(sum(scaled_ops(c["passes"][0])) for c in traced)
    plain_wall = statistics.median(sum(scaled_ops(c["passes"][0])) for c in untraced)
    m["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    m["trace.spans"] = (traced[0]["trace"]["spans"], "count")
    m["trace.span_mb"] = (traced[0]["trace"]["span_mb"], "MB")
    m["trace.peak_rss_mb"] = (
        statistics.median(c["peak_rss_mb"] for c in traced), "MB")

    lines = [f"traced cycles: {len(traced)} (one cold and one warm pass each); "
             f"untraced cycles: {len(untraced)}; counts repeat exactly across "
             f"traced cycles: {repeat}",
             "per layer (self time in s, median over traced cycles; calls):"]
    for layer in LAYERS:
        lines.append(f"  {layer:<10} self {med('self_s', layer=layer):10.4f}  "
                     f"calls {layer_calls(layer)}")
    lines.append(f"{'function':<44} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name in sorted(calls, key=lambda n: -med("self_s", n)):
        lines.append(f"{name:<44} {calls[name]:>9} "
                     f"{med('total_s', name):>10.4f} {med('self_s', name):>10.4f}")
    for name, value in counters.items():
        lines.append(f"counter {name}: {value}")
    for name, (value, unit) in m.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, repeat, lines


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; prints the report and returns the result object."""
    t0 = time.monotonic()
    src = str(ROOT / "src")
    work_dir = OUT_DIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        goldens = load_goldens(workload)
        ops = operations(workload, seed, work_dir / "inputs")
        job = {"src": src, "ops": ops, "trace": False, "warm_min_s": WARM_MIN_S}
        if trace:
            untraced = [spawn_worker(job, work_dir, "plain")]
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
            # one warm pass only, so that every traced cycle does the same work
            traced = run_cycles(dict(job, trace=True, warm_min_s=0,
                                     spans_path=str(spans_path)),
                                work_dir, seconds, t0, MIN_TRACED_CYCLES, "traced")
            cycles = untraced + traced
            metrics, repeat, lines = per_layer(traced, untraced)
            lines.append(f"spans of the last traced cycle: "
                         f"{spans_path.relative_to(ROOT)}")
        else:
            probes = [spawn_worker(dict(job, ops=[]), work_dir, f"probe{i}")
                      for i in range(SETUP_PROBES)]
            cycles = run_cycles(job, work_dir, seconds, t0, MIN_CYCLES, "cycle")
            metrics, lines = end_to_end(cycles, probes, ops)
            repeat = True
        attempted, failed, notes = check_outputs(cycles, ops, goldens)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}"
          f" run of {time.monotonic() - t0:.1f} s")
    for line in lines + [f"mismatch: {note}" for note in notes]:
        print(line)
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} "
          "operations differ from the goldens)")
    return {"correct": failed == 0 and repeat, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ringlab" / "__init__.py").is_file():
        print(f"error: no ringlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
