"""Acceptance gate: one test per required behavior, each printing a verdict
line. These exercise the package end to end on the default corpus."""

import time

import pytest

import ringlab as rl
from ringlab import construct as ct
from ringlab import deciders as dc
from ringlab import harness as hn
from ringlab import structure as st

UNITAL = [spec for spec in rl.DEFAULT_CORPUS
          if rl.build_cached(spec).unital]


def _rings():
    return [(str(spec), rl.build_cached(spec)) for spec in rl.DEFAULT_CORPUS]


def _unital_rings():
    return [(name, ring) for name, ring in _rings() if ring.unital]


def test_criterion_01_axiom_validation():
    t0 = time.perf_counter()
    for name, ring in _rings():
        report = rl.validate_axioms(ring)
        assert report.ok, f"{name}: {report.failure}"
    base = rl.zn_ring(4)
    mul = base.mul_table.tolist()
    mul[2][3] = 1
    corrupted = rl.FiniteRing(
        4, add=base.add_table.tolist(), mul=mul,
        neg=base.neg_table.tolist(), one=1, validate=False)
    report = rl.validate_axioms(corrupted)
    assert not report.ok
    assert report.failure.axiom == "mul-associativity"
    assert len(report.failure.elements) == 3
    x, y, z = report.failure.elements
    assert corrupted.mul(corrupted.mul(x, y), z) != corrupted.mul(x, corrupted.mul(y, z))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS - corpus validated and corrupted table rejected "
          f"with counterexample in {elapsed:.2f}s")


def test_criterion_02_witness_totality():
    t0 = time.perf_counter()
    elements = 0
    for name, ring in _unital_rings():
        for a in range(ring.order):
            w = rl.wncl_witness(ring, a)
            assert w is not None, f"{name} element {a} has no witness"
            assert rl.check_wncl(ring, a, w)
            cw = rl.wncl_from_pi_regular(ring, a, rl.pi_regular_witness(ring, a))
            assert rl.check_wncl(ring, a, cw), f"{name} element {a}"
            elements += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(f"criterion 2: PASS - search and construction both certify "
          f"{elements} elements in {elapsed:.2f}s")


def test_criterion_03_primal_alternate_equivalence():
    elements = 0
    for name, ring in _unital_rings():
        for a in range(ring.order):
            primal = rl.wncl_witness(ring, a)
            alt = rl.wncl_witness_alt(ring, a)
            assert (primal is None) == (alt is None), f"{name} element {a}"
            if alt is not None:
                assert rl.check_wncl(ring, a, alt)
                elements += 1
    print(f"criterion 3: PASS - primal and alternate forms agree on "
          f"{elements} elements")


def test_criterion_04_exchange_totality():
    elements = 0
    for name, ring in _unital_rings():
        for a in range(ring.order):
            if rl.wncl_witness(ring, a) is None:
                continue
            w = rl.exchange_witness(ring, a)
            assert w is not None, f"{name} element {a}"
            assert rl.check_exchange(ring, a, w)
            elements += 1
    print(f"criterion 4: PASS - every certified element admits an exchange "
          f"witness ({elements} elements)")


def test_criterion_05_radical():
    assert rl.jacobson_radical(rl.build_cached(rl.Zn(4))).members == (0, 2)
    assert rl.jacobson_radical(rl.build_cached(rl.Zn(6))).members == (0,)
    t2 = rl.build_cached(rl.Triangular(2, rl.Zn(2)))
    strict_upper = tuple(sorted(
        m for m in range(t2.order)
        if (lambda d: d[0] == 0 and d[2] == 0)(rl.ring_unpack(t2, m))))
    assert rl.jacobson_radical(t2).members == strict_upper
    for name, ring in _rings():
        jac = rl.jacobson_radical(ring)
        assert rl.is_nil_ideal(ring, jac), name
        qring, _ = rl.quotient(ring, jac)
        assert dc.ring_weakly_nil_clean(qring), name
        assert rl.jacobson_radical(qring).members == (qring.zero,), name
    print("criterion 5: PASS - radicals match, are nil, and quotients are "
          "semiprimitive and weakly nil clean")


def test_criterion_06_nil_ideal_lifting():
    lifted = 0
    for spec_name in ("T2(Z2)", "T2(Z4)", "Triv(Z2)"):
        spec = rl.parse_spec(spec_name)
        ring = rl.build_cached(spec)
        ideal = rl.canonical_nil_ideal(spec, ring)
        assert rl.is_nil_ideal(ring, ideal)
        qring, proj = rl.quotient(ring, ideal)
        for a in range(ring.order):
            qw = rl.wncl_witness(qring, proj[a])
            assert qw is not None, (spec_name, a)
            w = rl.lift_wncl_witness(ring, ideal, a, qw)
            assert rl.check_wncl(ring, a, w), (spec_name, a)
            lifted += 1
        members = set(ideal.members)
        for x in range(ring.order):
            if ring.sub(ring.mul(x, x), x) not in members:
                continue
            scan = rl.lift_idempotent(ring, ideal, x, method="scan")
            newton = rl.lift_idempotent(ring, ideal, x, method="newton")
            assert scan == newton, (spec_name, x)
    print(f"criterion 6: PASS - {lifted} quotient witnesses lifted and "
          f"re-validated; both lift paths agree")


def test_criterion_07_uniqueness_characterizations():
    for name, ring in _unital_rings():
        assert dc.ring_unique_idempotent(ring) == rl.is_abelian(ring), name
        assert dc.ring_unique_nilpotent(ring) == dc.ring_strongly_regular(ring), name
    by_name = dict(_rings())
    assert dc.ring_unique_idempotent(by_name["Z4"]) is True
    assert dc.ring_unique_idempotent(by_name["T2(Z2)"]) is False
    assert dc.ring_unique_nilpotent(by_name["Z6"]) is True
    assert dc.ring_unique_nilpotent(by_name["Z4"]) is False
    print("criterion 7: PASS - witness-idempotent uniqueness tracks abelian, "
          "witness-nilpotent uniqueness tracks strong regularity")


def test_criterion_08_census_goldens():
    rows = rl.census(rl.DEFAULT_CORPUS)
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
    print("criterion 8: PASS - census counts and verdicts match the "
          "reference values")


def test_criterion_09_matrix_transfer():
    agreed = 0
    for spec in rl.DEFAULT_CORPUS:
        ring = rl.build_cached(spec)
        if ring.order > 16:
            continue
        mat = rl.build_cached(rl.Matrix(2, spec))
        verdicts = (
            dc.ring_weakly_nil_clean(ring),
            dc.ring_pi_regular(ring),
            dc.ring_strongly_pi_regular(ring),
            dc.ring_weakly_nil_clean(mat),
            dc.ring_pi_regular(mat),
            dc.ring_strongly_pi_regular(mat),
        )
        assert len(set(verdicts)) == 1, (str(spec), verdicts)
        agreed += 1
    assert agreed == 14
    print(f"criterion 9: PASS - six verdicts agree between R and M2(R) on "
          f"{agreed} rings")


def test_criterion_10_center_restriction():
    elements = 0
    for name in ("M2(Z2)", "M2(Z3)", "M2(Z4)", "T2(Z2)"):
        ring = rl.build_cached(rl.parse_spec(name))
        cring = dc.center_ring(ring)
        index_of = cring.index
        for a in rl.center(ring):
            w = rl.wncl_witness(ring, a)
            assert w is not None, (name, a)
            cw = rl.center_witness(ring, a, w)
            assert rl.check_wncl(cring, index_of[a], cw), (name, a)
            e_parent = cring.members[cw.e]
            assert all(ring.mul(e_parent, r) == ring.mul(r, e_parent)
                       for r in range(ring.order)), (name, a)
            elements += 1
    print(f"criterion 10: PASS - {elements} central elements restrict to "
          f"valid center-ring witnesses")


def test_criterion_11_matrix_extraction():
    elements = 0
    for n in (2, 4, 6):
        base = rl.build_cached(rl.Zn(n))
        mat = ct.matrix_ring(base, 2)
        for a in range(n):
            digits = [0, 0, 0, 0]
            digits[0] = a
            amat = ct.pack_digits(mat.meta["radices"], digits)
            mw = rl.wncl_witness_alt(mat, amat)
            assert mw is not None, (n, a)
            w = rl.extract_from_matrix(base, 2, a, mw)
            assert rl.check_wncl(base, a, w), (n, a)
            elements += 1
    print(f"criterion 11: PASS - matrix witnesses extract to base witnesses "
          f"for {elements} elements over Z2, Z4, Z6")


def test_criterion_12_experiments_report_statistics():
    checks = rl.run_all(ids=("Q_SYMMETRY", "Q_CORNER"))
    for chk in checks:
        assert chk.status == "experiment"
        assert "100.0%" in chk.detail
        assert chk.counterexample is None
    assert rl.main(["verify", "--props", "Q_SYMMETRY,Q_CORNER"]) == 0
    print("criterion 12: PASS - experiments report agreement statistics and "
          "leave the exit status untouched")


def test_criterion_13_determinism(capsys):
    first = rl.run_all()
    second = rl.run_all()
    assert first == second
    assert rl.main(["verify", "--props", "all"]) == 0
    out1 = capsys.readouterr().out
    assert rl.main(["verify", "--props", "all"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1  # sanity: the runs actually printed the ledger
    print("criterion 13: PASS - repeated verification runs are byte-identical")
