"""Write perfbench/golden/ from the checkout's current src/.

Usage (from the root of a checkout): python3 perfbench/capture_goldens.py

The goldens were captured from the seed commit of the benchmark; rerun this
only when a change to ringlab's output is intended.

* verify.json: exit code and stdout of every check, cold and warm pass.
* census-<band>.csv: the CSV of each census-ladder band.
* witness.jsonl: exit code and stdout of every witness-cli query any seed
  can generate (every element of every spec, every property).
"""

from __future__ import annotations

import json
import shutil

from run import GOLDEN_DIR, OUT_DIR, ROOT, spawn_worker
from workloads import (CENSUS_BANDS, WITNESS_PROPS, WITNESS_SPECS, operations)


def capture(workload: str, ops: list) -> list:
    """Cold and warm pass of ops in one fresh worker process."""
    work_dir = OUT_DIR / f"capture-{workload}"
    try:
        result = spawn_worker({"src": str(ROOT / "src"), "ops": ops,
                               "trace": False, "warm_min_s": 0},
                              work_dir, "capture")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for ps in result["passes"]:
        for op, res in zip(ops, ps["ops"]):
            if res["error"] is not None:
                raise SystemExit(f"{' '.join(op['argv'])} raised:\n{res['error']}")
    return result["passes"]


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    inputs = OUT_DIR / "capture-inputs"

    ops = operations("verify", 0, inputs)
    cold, warm = capture("verify", ops)
    verify = {name: {op["key"]: {"code": r["code"], "stdout": r["out"]}
                     for op, r in zip(ops, ps["ops"])}
              for name, ps in (("cold", cold), ("warm", warm))}
    (GOLDEN_DIR / "verify.json").write_text(
        json.dumps(verify, indent=1) + "\n", encoding="utf-8")

    ops = operations("census-ladder", 0, inputs)
    cold, _ = capture("census-ladder", ops)
    for band in CENSUS_BANDS:
        outs = [r["out"].splitlines() for op, r in zip(ops, cold["ops"])
                if op["group"] == band]
        header = {lines[0] for lines in outs}
        if len(header) != 1 or any(len(lines) != 2 for lines in outs):
            raise SystemExit(f"unexpected census output in band {band}")
        rows = [header.pop()] + [lines[1] for lines in outs]
        (GOLDEN_DIR / f"census-{band}.csv").write_text(
            "".join(r + "\n" for r in rows), encoding="utf-8")

    queries = [[spec, str(a), prop] for spec, order in WITNESS_SPECS
               for a in range(order) for prop in WITNESS_PROPS]
    ops = [{"key": " ".join(q), "group": "query", "argv": ["witness", *q]}
           for q in queries]
    cold, _ = capture("witness-cli", ops)
    with open(GOLDEN_DIR / "witness.jsonl", "w", encoding="utf-8") as fh:
        for op, r in zip(ops, cold["ops"]):
            fh.write(json.dumps({"query": op["key"], "code": r["code"],
                                 "stdout": r["out"]}) + "\n")
    shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    main()
