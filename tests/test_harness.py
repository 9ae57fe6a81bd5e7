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
from ringlab import construct as ct

from conftest import fresh_build_cache, list_rows


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
    ring.cache[("ring_verdict", "unique_idempotent")] = False
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


# --- tooling that calls the library ----------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_bench_workloads_list_the_harness_check_ids():
    # perfbench/workloads.py keeps its own copy, to make inputs without ringlab
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    copy = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["CHECK_IDS"])
    assert copy == rl.CHECK_IDS


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
