"""Inputs of the three benchmark workloads.

Every workload is a list of operations. An operation is one in-process
``ringlab`` command line (the argv list handed to ``ringlab.cli.main``) whose
standard output and exit code are checked against a golden:

* ``verify``: one ``verify --props ID --corpus FILE`` per check id, in the
  ``--props all`` order, over a fixed sub-corpus of the default corpus.
* ``census-ladder``: one ``census --csv --specs FILE`` per ring, band by band
  (``small``, ``tabled``, ``lazy``).
* ``witness-cli``: seeded ``witness SPEC A PROP`` queries.

Only ``witness-cli`` depends on the seed; the other two have fixed inputs.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List

WORKLOADS = ("verify", "census-ladder", "witness-cli")

# Same ids and order as ringlab.harness.CHECK_IDS, which `verify --props all`
# runs; kept here so that inputs can be generated without importing ringlab.
CHECK_IDS = (
    "P_OSNOVE", "P_PRVA", "P_NILIDEAL", "P_RADIKAL", "L_MOCNA", "P_PIREG",
    "P_ABEL", "P_BOUNDED", "C_PI", "P_KOTI", "P_CENTER", "P_UNQ1", "P_UNQ2",
    "Q_SYMMETRY", "Q_CORNER", "P_EXPIREG",
)

# The default corpus (ringlab.harness.DEFAULT_CORPUS) without Z4, Z2xZ2,
# Triv(Z2), Z2[x]/(x^2), Z4[x]/(x^2), M2(Z2) and M2(Z4). With them a cold
# pass takes ~33 s, a single pass per run. P_KOTI puts the order-256 M2 ring
# of each order-4 member through validate_axioms once per element; that
# numpy work hardly slows down when the machine does, so the rescaling in
# run.py would add noise to it, and the small census band measures it
# instead. Z4[x]/(x^2) and M2(Z2) put order-65536 lazy M2 rings through
# C_PI, 4 s each. What stays: C_PI on lazy M2 rings of order 1296 to 20736
# (over Z6, Z8, Z12, Z2xZ4, T2(Z2)), and P_KOTI rebuilding M2(Z2), M2(Z3)
# and M2(Z6) for every element it extracts.
VERIFY_CORPUS = (
    "Z2", "Z3", "Z6", "Z8", "Z12", "Z2xZ4", "T2(Z2)", "T2(Z4)", "M2(Z3)",
    "Ideal(Z4,2)",
)

# Ring orders: small <= 256 (tables validated, brute classify), tabled
# 257..1024 (tables, no validation), lazy > 1024 (no tables, trajectory
# deciders).
CENSUS_BANDS: Dict[str, tuple] = {
    "small": ("M2(Z3)", "T2(Z4)", "Z2xZ2xZ2xZ2xZ2xZ2", "Z2[x]/(x^6)",
              "Triv(Z16)"),
    "tabled": ("Triv(Z17)", "M2(Z5)", "T2(Z7)"),
    "lazy": ("M2(Z6)", "M2(Z8)", "M2(Z9)", "Triv(Z64)", "T2(Z16)"),
}

WITNESS_PROPS = ("wnc", "wnc-alt", "clean", "nilclean", "exchange", "pireg",
                 "spireg", "sreg")

# The default corpus in declaration order, with each member's order, less
# M2(Z4): its queries spend ~0.75 s each rebuilding and validating an
# order-256 table, so 1/17 of the queries would take 90% of the time and a
# run would hold too few queries for a p99. That cost is measured by the
# small census band and by P_KOTI in verify.
WITNESS_SPECS = (
    ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z6", 6), ("Z8", 8), ("Z12", 12),
    ("Z2xZ2", 4), ("Z2xZ4", 8), ("Triv(Z2)", 4), ("Z2[x]/(x^2)", 4),
    ("Z4[x]/(x^2)", 16), ("T2(Z2)", 8), ("T2(Z4)", 64), ("M2(Z2)", 16),
    ("M2(Z3)", 81), ("Ideal(Z4,2)", 2),
)

# Queries per batch: WITNESS_ROUNDS rounds, each a seeded permutation of
# WITNESS_SPECS, so every spec appears equally often whatever the seed.
WITNESS_ROUNDS = 16


def witness_queries(seed: int) -> List[List[str]]:
    """The seeded query batch: (spec, element, property) as argv strings."""
    rng = random.Random(seed)
    queries = []
    for _ in range(WITNESS_ROUNDS):
        specs = list(WITNESS_SPECS)
        rng.shuffle(specs)
        for spec, order in specs:
            queries.append([spec, str(rng.randrange(order)),
                            rng.choice(WITNESS_PROPS)])
    return queries


def operations(workload: str, seed: int, input_dir: Path) -> List[dict]:
    """Write the workload's input files under input_dir and return its
    operations as {"key", "group", "argv"} dicts. "key" names the golden an
    operation is checked against; "group" is the census band."""
    input_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        corpus = input_dir / "corpus.txt"
        corpus.write_text("".join(s + "\n" for s in VERIFY_CORPUS))
        return [{"key": cid, "group": "verify",
                 "argv": ["verify", "--props", cid, "--corpus", str(corpus)]}
                for cid in CHECK_IDS]
    if workload == "census-ladder":
        ops = []
        for band, specs in CENSUS_BANDS.items():
            for i, spec in enumerate(specs):
                path = input_dir / f"{band}-{i}.txt"
                path.write_text(spec + "\n")
                ops.append({"key": spec, "group": band,
                            "argv": ["census", "--csv", "--specs", str(path)]})
        return ops
    if workload == "witness-cli":
        return [{"key": " ".join(q), "group": "query", "argv": ["witness", *q]}
                for q in witness_queries(seed)]
    raise ValueError(f"unknown workload {workload!r}")
