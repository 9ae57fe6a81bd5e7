"""The named-check harness and the census over the default corpus."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import ringlab as rl
from ringlab import harness as hn
from ringlab import cli, construct as ct, core, deciders as dc, structure as st

from conftest import fresh_build_cache, list_rows, with_cell


def test_check_ids_exact_order():
    assert rl.CHECK_IDS == (
        "P_OSNOVE", "P_PRVA", "P_NILIDEAL", "P_RADIKAL", "L_MOCNA", "P_PIREG",
        "P_ABEL", "P_BOUNDED", "C_PI", "P_KOTI", "P_CENTER", "P_UNQ1",
        "P_UNQ2", "Q_SYMMETRY", "Q_CORNER", "P_EXPIREG",
    )


def test_default_corpus_shape():
    assert len(rl.DEFAULT_CORPUS) == 17
    names = [str(s) for s in rl.DEFAULT_CORPUS]
    assert names[0] == "Z2"
    assert "M2(Z4)" in names
    assert "Ideal(Z4,2)" in names


def test_run_all_passes():
    checks = rl.run_all()
    assert [c.id for c in checks] == list(rl.CHECK_IDS)
    by_id = {c.id: c for c in checks}
    for cid, chk in by_id.items():
        expected = "experiment" if cid in ("Q_SYMMETRY", "Q_CORNER") else "pass"
        assert chk.status == expected, f"{cid}: {chk.detail}"
        assert chk.counterexample is None
        assert chk.corpus == [str(s) for s in rl.DEFAULT_CORPUS]
    # the experiments currently observe full agreement
    assert "100.0%" in by_id["Q_SYMMETRY"].detail
    assert "100.0%" in by_id["Q_CORNER"].detail
    # skipped members are named, not silently dropped
    assert "T2(Z4)" in by_id["C_PI"].detail


def test_run_all_details_on_a_mixed_corpus():
    # one member without a unity (Ideal(Z4,2)), one above PAIR_SCAN_LIMIT and
    # with an over-cap matrix ring (M2(Z3)), two non-abelian (T2(Z2), M2(Z3))
    corpus = [rl.parse_spec(text) for text in ("Z6", "T2(Z2)", "M2(Z3)", "Ideal(Z4,2)")]
    assert [(c.id, c.status, c.detail) for c in rl.run_all(corpus)] == [
        ("P_OSNOVE", "pass", "95 elements across 3 unital rings"),
        ("P_PRVA", "pass", "95 elements across 3 unital rings"),
        ("P_NILIDEAL", "pass",
         "8 cosets lifted on T2(Z2); lift paths agree on all liftable elements"),
        ("P_RADIKAL", "pass", "radical verified on 4 rings"),
        ("L_MOCNA", "pass", "39 (a, e) pairs across 2 rings"),
        ("P_PIREG", "pass", "95 elements across 3 unital rings"),
        ("P_ABEL", "pass", "2 abelian rings agree"),
        ("P_BOUNDED", "pass", "index bounded on 4 rings, implication holds"),
        ("C_PI", "pass", "six verdicts agree on 3 rings; matrix ring over cap for: M2(Z3)"),
        ("P_KOTI", "pass", "6 elements on Z6"),
        ("P_CENTER", "pass", "11 central elements across 3 rings"),
        ("P_UNQ1", "pass", "verdicts equal on 3 unital rings"),
        ("P_UNQ2", "pass", "verdicts equal on 3 unital rings"),
        ("Q_SYMMETRY", "experiment", "opposite-ring agreement 97/97 elements (100.0%)"),
        ("Q_CORNER", "experiment", "corner rings weakly nil clean 24/24 (100.0%)"),
        ("P_EXPIREG", "pass", "11 principal ideals across 3 rings"),
    ]


def test_empty_member_lists_and_large_non_unital_matrix_rings_are_named():
    # Z6 carries no canonical nil ideal and Z8 is over P_KOTI's order bound;
    # M2(T2(Ideal(Z4,2))), of order 4096, has no unity to decide it by
    assert rl.run_check("P_NILIDEAL", [rl.Zn(6)]).detail == (
        "0 cosets lifted on no rings; lift paths agree on all liftable elements")
    assert rl.run_check("P_KOTI", [rl.Zn(8)]).detail == "0 elements on no rings"
    chk = rl.run_check("C_PI", [rl.Zn(2), rl.parse_spec("T2(Ideal(Z4,2))")])
    assert (chk.status, chk.detail) == (
        "pass", "six verdicts agree on 1 rings; "
        "large matrix ring without a unity for: T2(Ideal(Z4,2))")


def test_run_all_is_deterministic():
    first = rl.run_all(ids=("P_ABEL", "P_RADIKAL", "Q_SYMMETRY"))
    second = rl.run_all(ids=("P_ABEL", "P_RADIKAL", "Q_SYMMETRY"))
    assert first == second


def test_run_check_unknown_id():
    with pytest.raises(ValueError):
        rl.run_check("P_NONSENSE")


def test_run_check_reports_build_failures():
    chk = rl.run_check("P_ABEL", corpus=[rl.Zn(4), rl.Matrix(3, rl.Zn(8))])
    assert chk.status == "pass"
    assert "build failures:" in chk.detail
    assert "M3(Z8)" in chk.detail


def test_check_failure_carries_counterexample():
    ring = ct.build(ct.Zn(2))  # fresh object, private cache
    ring.shared[("ring_verdict", "unique_idempotent")] = False
    with mock.patch.object(hn, "_build_corpus", return_value=([(ct.Zn(2), ring)], [])):
        chk = hn.run_check("P_UNQ1", [ct.Zn(2)])
    assert chk.status == "fail"
    assert "mismatch" in chk.detail
    assert chk.counterexample == ("Z2", ())


def test_experiments_never_fail_on_odd_corpora():
    # an experiment over a corpus with a non weakly nil clean member still
    # reports statistics instead of failing
    chk = rl.run_check("Q_CORNER", corpus=[rl.Zn(5)])
    assert chk.status == "experiment"
    assert "/" in chk.detail


def test_canonical_nil_ideal(corpus):
    t2 = corpus["T2(Z2)"]
    ideal = rl.canonical_nil_ideal(rl.Triangular(2, rl.Zn(2)), t2)
    assert ideal.members == (0, 2)
    triv = corpus["Triv(Z2)"]
    ideal = rl.canonical_nil_ideal(rl.TrivialExt(rl.Zn(2)), triv)
    assert ideal.members == (0, 1)
    poly = corpus["Z2[x]/(x^2)"]
    ideal = rl.canonical_nil_ideal(rl.PolyMod(rl.Zn(2), 2), poly)
    assert ideal.members == (0, 1)
    assert rl.canonical_nil_ideal(rl.Zn(4), corpus["Z4"]) is None
    assert rl.canonical_nil_ideal(rl.Matrix(2, rl.Zn(2)), corpus["M2(Z2)"]) is None


def test_census_default_corpus():
    rows = rl.census(rl.DEFAULT_CORPUS)
    assert len(rows) == 17
    assert [r.spec for r in rows] == [str(s) for s in rl.DEFAULT_CORPUS]
    for row in rows:
        assert row.error is None
        assert row.report is not None
        assert row.report.timings is None
    by_spec = {r.spec: r.report for r in rows}
    m2 = by_spec["M2(Z2)"]
    assert m2.counts["id"] == 8
    assert m2.counts["nil"] == 4
    assert m2.counts["unit"] == 6
    assert m2.bounded_index == 2
    assert by_spec["Z8"].bounded_index == 3
    assert by_spec["Z6"].counts["id"] == 4
    assert by_spec["Z3"].properties["nil_clean"] is False
    assert by_spec["Z4"].properties["nil_clean"] is True


def test_census_embeds_error_rows():
    rows = rl.census([rl.Zn(6), rl.Zn(10 ** 9)])
    assert rows[0].error is None
    assert rows[1].report is None
    assert "cap" in rows[1].error


def test_census_with_timings():
    rows = rl.census([rl.Zn(4)], with_timings=True)
    assert rows[0].report.timings
    assert all(t >= 0 for t in rows[0].report.timings.values())


def _count_calls(monkeypatch, name):
    """Wrap construct.<name> and count its calls by the label of the first
    argument."""
    calls = {}
    original = getattr(ct, name)

    def counting(ring, *args, **kwargs):
        calls[ring.label] = calls.get(ring.label, 0) + 1
        return original(ring, *args, **kwargs)

    monkeypatch.setattr(ct, name, counting)
    return calls


def test_symmetry_builds_each_opposite_once(monkeypatch):
    corpus = [rl.Zn(6), rl.Triangular(2, rl.Zn(2)), rl.Matrix(2, rl.Zn(2))]
    for spec in corpus:
        rl.build_cached(spec).cache.pop("opposite", None)
    calls = _count_calls(monkeypatch, "opposite")
    first = hn.run_check("Q_SYMMETRY", corpus)
    second = hn.run_check("Q_SYMMETRY", corpus)
    assert first.detail == second.detail
    assert calls == {str(spec): 1 for spec in corpus}


def test_koti_builds_each_matrix_ring_at_most_once(monkeypatch):
    calls = _count_calls(monkeypatch, "matrix_ring")
    check = hn.run_check("P_KOTI", [rl.Zn(2), rl.Zn(3), rl.Zn(6)])
    assert check.status == "pass"
    assert all(count <= 1 for count in calls.values()), calls


@pytest.mark.parametrize("check_id", ["P_NILIDEAL", "P_RADIKAL", "P_EXPIREG"])
def test_derived_rings_are_built_once(monkeypatch, check_id):
    corpus = [rl.Zn(12), rl.Triangular(2, rl.Zn(2)), rl.IdealRing(rl.Zn(4), (2,))]
    first = hn.run_check(check_id, corpus)
    calls = {name: _count_calls(monkeypatch, name) for name in ("quotient", "ideal_subring")}
    second = hn.run_check(check_id, corpus)
    assert (first.status, first.detail) == (second.status, second.detail)
    assert calls == {"quotient": {}, "ideal_subring": {}}


def test_census_of_tabled_rings_makes_no_list_rows():
    # the census reads only the flat tables of rings above the brute limit
    built = []

    def build(spec):
        built.append(rl.build(spec))
        return built[-1]

    with mock.patch.object(ct, "build_cached", build):
        rows = hn.census([rl.parse_spec("M2(Z5)"), rl.parse_spec("T2(Z7)")])
    assert [row.error for row in rows] == [None, None]
    assert [ring.order for ring in built] == [625, 343]
    for ring in built:
        assert ring.mul_table is not None
        assert list_rows(ring) == set(), ring.label


@pytest.mark.parametrize("check_id", ["P_NILIDEAL", "P_RADIKAL"])
def test_cold_checks_build_each_quotient_once(monkeypatch, check_id):
    # the lift of quotient witnesses and the checks share one cached
    # quotient per (ring, ideal)
    specs = ["Z12", "T2(Z2)", "T2(Z4)", "Triv(Z2)", "Z2[x]/(x^2)", "M2(Z3)", "Ideal(Z4,2)"]
    # fresh rings, empty caches: new top rings, and bases (Z2, Z3, Z4) from
    # an empty build cache rather than the process's
    monkeypatch.setattr(ct, "build_cached", ct.build)
    calls = {}
    original = ct.quotient

    def counting(ring, ideal, *args, **kwargs):
        key = (ring.label, ideal.members)
        calls[key] = calls.get(key, 0) + 1
        return original(ring, ideal, *args, **kwargs)

    monkeypatch.setattr(ct, "quotient", counting)
    with fresh_build_cache():
        check = hn.run_check(check_id, [rl.parse_spec(text) for text in specs])
    assert check.status == "pass", check.detail
    assert calls and all(count == 1 for count in calls.values()), calls


def test_radikal_names_members_whose_quotient_is_over_the_table_cap():
    # J(Z2084) has order 2, so R/J is Z1042; its nil clause is still checked
    check = hn.run_check("P_RADIKAL", [rl.Zn(2084)])
    assert (check.status, check.detail) == (
        "pass", "radical verified on 0 rings; R/J over the table cap for: Z2084")


def test_center_of_a_commutative_member_over_the_table_cap_is_the_member():
    check = hn.run_check("P_CENTER", [rl.Zn(1025)])
    assert (check.status, check.detail) == ("pass", "1025 central elements across 1 rings")


@pytest.mark.parametrize("names,expected", [
    (("Z4", "M2(Z6)"), [
        ("P_OSNOVE", "pass", "1300 elements across 2 unital rings"),
        ("P_PRVA", "pass", "1300 elements across 2 unital rings"),
        ("P_CENTER", "pass", "10 central elements across 2 rings"),
        ("Q_SYMMETRY", "experiment", "opposite-ring agreement 1300/1300 elements (100.0%)")]),
    (("Z2", "Triv(Z64)"), [("P_PIREG", "pass", "4098 elements across 2 unital rings"),
                           ("P_CENTER", "pass", "4098 central elements across 2 rings")]),
])
def test_element_walks_over_lazy_members(names, expected):
    # lazy members (order over 1024), whose witness tables are read off the
    # passes; P_PIREG's witnesses come from kernel.pi_regular_pass
    corpus = [rl.parse_spec(name) for name in names]
    checks = rl.run_all(corpus, [cid for cid, _, _ in expected])
    assert [(c.id, c.status, c.detail) for c in checks] == expected


# Product cells of T2(Z4) and Z2^6, and the statuses of L_MOCNA and P_PIREG
# there. On T2(Z4): at (16, 43) both first fail at a = 43, in the mu-power
# loop; at (13, 20) at different elements; at (13, 31) the corner at f = 13
# is not closed under negation, and at (16, 16) f = 16 is no idempotent, so
# L_MOCNA fails where its scalar loop builds that corner; at (5, 17) a later
# corner is not closed either, but L_MOCNA fails at the pair (5, 0) before
# its loop reaches that corner. On Z2^6, whose corners fRf have order 32, and
# read the witness pass, where e = 1 - f has one nonzero coordinate: at
# (37, 2) both fail, L_MOCNA in its final check; at (61, 31) L_MOCNA fails in
# the mu-power loop; at (48, 27) L_MOCNA fails where it builds a corner, and
# P_PIREG fails at a = 48
_WALK_CORRUPTIONS = [
    ("T2(Z4)", (16, 43), 14, ("fail", "fail")), ("T2(Z4)", (13, 20), 50, ("fail", "fail")),
    ("T2(Z4)", (13, 31), 1, ("fail", "pass")), ("T2(Z4)", (5, 17), 37, ("fail", "pass")),
    ("Z2xZ2xZ2xZ2xZ2xZ2", (37, 2), 53, ("fail", "fail")),
    ("Z2xZ2xZ2xZ2xZ2xZ2", (61, 31), 51, ("fail", "pass")),
    ("Z2xZ2xZ2xZ2xZ2xZ2", (48, 27), 54, ("fail", "fail")),
    ("T2(Z4)", (16, 16), 0, ("fail", "fail"))]

# L_MOCNA's line where the corner at f = 1 - e cannot be built: the error of
# construct.corner_ring, on the pair (a, e) that reaches it first
_CORNER_BUILD_FAILS = {
    ("T2(Z4)", (13, 31)): ("no corner ring at a=17, e=20 of T2(Z4): subset not closed under "
                           "negation at 1", (17, 20)),
    ("T2(Z4)", (16, 16)): ("no corner ring at a=1, e=1 of T2(Z4): corner needs an idempotent, "
                           "16 is not one", (1, 1)),
    ("Z2xZ2xZ2xZ2xZ2xZ2", (48, 27)): ("no corner ring at a=4, e=4 of Z2xZ2xZ2xZ2xZ2xZ2: subset "
                                      "not closed under multiplication at (48, 27)", (4, 4)),
}


@pytest.mark.parametrize("name,cell,value,statuses", _WALK_CORRUPTIONS)
def test_batched_walks_fail_with_the_scalar_lines(name, cell, value, statuses):
    base = rl.build_cached(rl.parse_spec(name))

    def run(ring):
        with mock.patch.object(hn, "_build_corpus", return_value=([(base.spec, ring)], [])):
            checks = [hn.run_check(cid, [base.spec]) for cid in ("L_MOCNA", "P_PIREG")]
        return [(check.status, check.detail, check.counterexample) for check in checks]

    with mock.patch.object(dc, "PASS_MIN_ORDER", base.order + 1):
        scalar = run(with_cell(base, "mul", cell, value))
    assert tuple(status for status, *_ in scalar) == statuses
    if (name, cell) in _CORNER_BUILD_FAILS:
        detail, pair = _CORNER_BUILD_FAILS[name, cell]
        assert scalar[0][1:] == (detail, (name, pair))
    ring = with_cell(base, "mul", cell, value)
    with mock.patch.object(hn, "_mocna_failures", wraps=hn._mocna_failures) as mocna, \
            mock.patch.object(hn, "_pireg_failures", wraps=hn._pireg_failures) as pireg:
        assert run(ring) == scalar
    assert (mocna.call_count, pireg.call_count) == (1, 1)
    # a pass or a fail is kept on the ring and read back without a walk
    assert {("L_MOCNA",), ("P_PIREG",)} <= set(ring.cache)
    with mock.patch.object(hn, "_mocna_pairs", side_effect=AssertionError), \
            mock.patch.object(hn, "_pireg_walk", side_effect=AssertionError):
        assert run(ring) == scalar


def test_batched_walk_flags_that_the_scalar_step_passes_raise():
    ring = ct.build(ct.Triangular(2, ct.Zn(4)))  # fresh object, private cache
    a, e, c, bad = hn._mocna_failures(ring)
    bad[7] = True
    pair = f"a={a[7]}, e={e[7]}, c={c[7]}"
    pireg = hn._pireg_failures(ring)
    pireg[5] = True
    with mock.patch.object(hn, "_build_corpus", return_value=([(ring.spec, ring)], [])), \
            mock.patch.object(hn, "_mocna_failures", return_value=(a, e, c, bad)), \
            mock.patch.object(hn, "_pireg_failures", return_value=pireg):
        with pytest.raises(rl.WitnessError, match=r"batched P_PIREG pass failed at a=5 of "
                                                  r"T2\(Z4\) but the scalar step passed"):
            hn.run_check("P_PIREG", [ring.spec])
        with pytest.raises(rl.WitnessError, match=f"batched L_MOCNA pass failed at {pair} of"):
            hn.run_check("L_MOCNA", [ring.spec])


# --- tooling that calls the library ----------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _workloads_constant(name: str):
    """A constant of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name])


def test_bench_workloads_list_the_harness_check_ids():
    # perfbench/workloads.py keeps its own copy, to make inputs without ringlab
    assert _workloads_constant("CHECK_IDS") == rl.CHECK_IDS


def test_a_cold_bench_verify_pass_proves_each_table_set_about_once(tmp_path, capsys, monkeypatch):
    # the bench's verify workload: one verify call per check in one process.
    # Its 42 table sets took 155 proofs before the rings given equal tables
    # (ideal rings, quotients, corners, opposites) came to share one core.
    path = tmp_path / "corpus.txt"
    path.write_text("".join(f"{spec}\n" for spec in _workloads_constant("VERIFY_CORPUS")))
    proofs = []  # orders only: a record holding the rings would keep their cores alive
    monkeypatch.setattr(core, "_proof",
                        lambda ring, _proof=core._proof: proofs.append(ring.order) or _proof(ring))
    with fresh_build_cache():
        assert [cli.main(["verify", "--props", cid, "--corpus", str(path)])
                for cid in rl.CHECK_IDS] == [0] * len(rl.CHECK_IDS)
    assert len(proofs) <= 60


def test_twins_keep_their_own_outcomes_and_ideals():
    # rings given equal tables share their scans, never what names one of them
    base = rl.build_cached(rl.parse_spec("T2(Z2)"))
    with fresh_build_cache():
        first, second = (rl.FiniteRing(base.order, base.add_table, base.mul_table,
                                       base.neg_table, one=base.one, label=label)
                         for label in ("first", "second"))
    assert first.shared is second.shared

    def fail():
        raise hn._Fail("first fails", "first")

    with pytest.raises(hn._Fail):
        hn._kept(first, ("L_MOCNA",), fail)
    assert hn._kept(second, ("L_MOCNA",), lambda: 7) == 7
    with pytest.raises(hn._Fail, match="first fails"):
        hn._kept(first, ("L_MOCNA",), lambda: 7)
    for ring in (first, second):
        assert st.jacobson_radical(ring).ring is ring
        assert st.ideal_generated(ring, (1,)).ring is ring
        assert dc.center_ring(ring).meta["base"] is ring
    assert st.idempotents(first) is st.idempotents(second)


_T2Z2_SCRIPT_OUTPUT = {
    "opposite_symmetry.py": [
        "ring    order    wnc    agree",
        "T2(Z2)      8      8  8/8",
        "",
        "overall agreement: 8/8 (100.0%)",
    ],
    "corner_scan.py": [
        "T2(Z2): order 8, weakly nil clean: True",
        "    corner at e=1: order 2, weakly nil clean: True",
        "    corner at e=3: order 2, weakly nil clean: True",
        "    corner at e=4: order 2, weakly nil clean: True",
        "    corner at ambient unity: order 8, weakly nil clean: True",
        "    corner at e=6: order 2, weakly nil clean: True",
    ],
}


@pytest.mark.parametrize("script", ["opposite_symmetry.py", "corner_scan.py"])
def test_scripts_run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "T2(Z2)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == _T2Z2_SCRIPT_OUTPUT[script]


def test_experiment_rows_sum_to_the_experiment_details():
    built = [(spec, ct.build_cached(spec)) for spec in rl.DEFAULT_CORPUS]
    agree = sum(rl.opposite_agreement(ring)[0] for _, ring in built)
    total = sum(ring.order for _, ring in built)
    assert (f"opposite-ring agreement {agree}/{total} elements"
            in hn.run_check("Q_SYMMETRY").detail)
    rows = [row for _, ring in built if ring.unital for row in rl.corner_verdicts(ring)]
    wncl = sum(wnc for _, _, wnc in rows)
    assert (f"corner rings weakly nil clean {wncl}/{len(rows)}"
            in hn.run_check("Q_CORNER").detail)
    # every idempotent gives one row, the zero corner included
    assert len(rows) == sum(len(rl.idempotents(ring)) for _, ring in built if ring.unital)
