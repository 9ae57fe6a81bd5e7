"""Structure scans: special element sets, ideals, radical, and counts."""

import tracemalloc

import numpy as np
import pytest

import ringlab as rl
from ringlab import construct as ct, core, harness as hn, structure as st

import oracles
from conftest import assert_scans_match_oracles, lazy_rings, with_cell


@pytest.mark.parametrize("n", list(range(2, 17)))
def test_zn_scans_match_number_theory(n):
    ring = rl.zn_ring(n)
    assert list(rl.idempotents(ring)) == oracles.zn_idempotents(n)
    assert list(rl.nilpotents(ring)) == oracles.zn_nilpotents(n)
    assert list(rl.units(ring)) == oracles.zn_units(n)
    assert list(rl.jacobson_radical(ring).members) == oracles.zn_radical(n)


def test_inverse_map_is_two_sided(corpus):
    for ring in corpus.values():
        if not ring.unital or ring.order > 100:
            continue
        inv = rl.inverse_map(ring)
        assert set(inv) == set(rl.units(ring))
        for u, v in inv.items():
            assert ring.mul(u, v) == ring.one
            assert ring.mul(v, u) == ring.one


def test_center_of_matrix_rings(corpus):
    m2 = corpus["M2(Z2)"]
    identity = rl.ring_pack(m2, (1, 0, 0, 1))
    assert rl.center(m2) == (0, identity)
    m23 = corpus["M2(Z3)"]
    scalars = tuple(sorted(rl.ring_pack(m23, (c, 0, 0, c)) for c in range(3)))
    assert rl.center(m23) == scalars


def test_is_abelian_verdicts(corpus):
    expected = {
        "Z2": True, "Z4": True, "Z6": True, "Z12": True, "Z2xZ4": True,
        "Triv(Z2)": True, "Z2[x]/(x^2)": True, "Z4[x]/(x^2)": True,
        "T2(Z2)": False, "T2(Z4)": False, "M2(Z2)": False, "M2(Z3)": False,
    }
    for name, want in expected.items():
        assert rl.is_abelian(corpus[name]) == want, name


def test_is_abelian_matches_the_scalar_definition():
    specs = list(rl.DEFAULT_CORPUS) + [rl.parse_spec("Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2")]
    rings = [rl.build(spec) for spec in specs]
    with lazy_rings():
        rings += [rl.build(rl.parse_spec(name)) for name in ("Z12", "T2(Z2)", "M2(Z2)")]
    for ring in rings:
        n = ring.order
        assert rl.is_abelian(ring) == all(
            ring.mul(e, b) == ring.mul(b, e) for e in rl.idempotents(ring)
            for b in range(n)), ring.label


def test_jacobson_radical_values(corpus):
    assert corpus["Z4"].spec == rl.Zn(4)
    assert rl.jacobson_radical(corpus["Z4"]).members == (0, 2)
    assert rl.jacobson_radical(corpus["Z6"]).members == (0,)
    assert rl.jacobson_radical(rl.zn_ring(12)).members == (0, 6)
    assert rl.jacobson_radical(corpus["M2(Z2)"]).members == (0,)
    # T2(Z2): the strictly upper triangular matrices
    t2 = corpus["T2(Z2)"]
    strict_upper = tuple(sorted(
        i for i in range(t2.order)
        if (lambda d: d[0] == 0 and d[2] == 0)(rl.ring_unpack(t2, i))))
    assert rl.jacobson_radical(t2).members == strict_upper


def test_radical_of_nil_ring_is_everything(corpus):
    ideal = corpus["Ideal(Z4,2)"]
    assert not ideal.unital
    assert rl.jacobson_radical(ideal).members == tuple(range(ideal.order))


def test_radical_is_nil_on_corpus(corpus):
    for name, ring in corpus.items():
        if ring.order > 100:
            continue
        J = rl.jacobson_radical(ring)
        assert rl.is_nil_ideal(ring, J), name


def test_ideal_generated():
    z12 = rl.zn_ring(12)
    assert rl.ideal_generated(z12, (4,)).members == (0, 4, 8)
    assert rl.ideal_generated(z12, (4, 6)).members == (0, 2, 4, 6, 8, 10)
    m2 = rl.matrix_ring(rl.zn_ring(2), 2)
    e11 = rl.ring_pack(m2, (1, 0, 0, 0))
    assert len(rl.ideal_generated(m2, (e11,)).members) == m2.order  # simple ring
    t2 = rl.triangular_ring(rl.zn_ring(2), 2)
    e12 = rl.ring_pack(t2, (0, 1, 0))
    assert rl.ideal_generated(t2, (e12,)).members == (0, e12)


def test_left_ideal_generated():
    t2 = rl.triangular_ring(rl.zn_ring(2), 2)
    e22 = rl.ring_pack(t2, (0, 0, 1))
    assert rl.left_ideal_generated(t2, e22) == (0, 1, 2, 3)
    z6 = rl.zn_ring(6)
    assert rl.left_ideal_generated(z6, 2) == (0, 2, 4)


@pytest.mark.parametrize("pass_cells", [None, 32])
def test_closures_match_the_worklist(corpus, pass_cells, monkeypatch):
    """Left and two-sided closures of every element of the corpus rings of
    order <= 64 equal the scalar worklist, and so do those of rings without a
    unity, where R*a need not hold a and sums must be taken, and of two
    corruptions: in Ideal(T2(Z2),1), 1*0 = 1, and in Z4, -0 = 2. With 32
    cells a block, the frontier of a ring of order 16 or more spans several
    row blocks."""
    if pass_cells:
        monkeypatch.setattr(core, "_PASS_CELLS", pass_cells)
    rings = [ring for ring in corpus.values() if ring.order <= 64]
    rings += [rl.build(rl.parse_spec(s)) for s in
              ("Ideal(Z8,2)", "Ideal(Z2[x]/(x^3),2)", "Ideal(T2(Z4),2)", "Ideal(M2(Z2),1)")]
    rings += [with_cell(rl.build(rl.parse_spec("Ideal(T2(Z2),1)")), "mul", (1, 0), 1),
              with_cell(corpus["Z4"], "neg", (0, 0), 2)]
    for ring in rings:
        for two_sided in (False, True):
            for a in range(ring.order):
                expected = oracles.closure_worklist(ring.order, ring.add, ring.mul,
                                                    ring.neg, (a,), two_sided)
                assert st._closure(ring, (a,), two_sided) == expected, (ring.label, a)


def test_make_ideal_validation():
    z8 = rl.zn_ring(8)
    with pytest.raises(ValueError):
        rl.make_ideal(z8, [0, 2])  # 2+2=4 missing
    with pytest.raises(ValueError):
        rl.make_ideal(z8, [1, 2])  # zero missing
    z4 = rl.zn_ring(4)
    with pytest.raises(ValueError):
        rl.make_ideal(z4, [0, 1])  # not absorbing
    ideal = rl.make_ideal(rl.zn_ring(6), [0, 3])
    assert ideal.members == (0, 3)
    assert 3 in ideal
    assert len(ideal) == 2


def test_is_nil_ideal():
    z4 = rl.zn_ring(4)
    assert rl.is_nil_ideal(z4, rl.make_ideal(z4, [0, 2]))
    z6 = rl.zn_ring(6)
    assert not rl.is_nil_ideal(z6, rl.make_ideal(z6, [0, 3]))
    assert rl.is_nil_ideal(z6, [0])
    t2 = rl.triangular_ring(rl.zn_ring(2), 2)
    assert rl.is_nil_ideal(t2, rl.jacobson_radical(t2))


def test_nil_index_map():
    z8 = rl.zn_ring(8)
    assert rl.nil_index_map(z8) == {0: 1, 2: 3, 4: 2, 6: 3}


def test_bounded_index(corpus):
    assert rl.bounded_index(corpus["Z2"]) == 1
    assert rl.bounded_index(corpus["Z4"]) == 2
    assert rl.bounded_index(corpus["Z8"]) == 3
    assert rl.bounded_index(corpus["M2(Z2)"]) == 2
    assert rl.bounded_index(corpus["T2(Z4)"]) == 3
    assert rl.bounded_index(corpus["M2(Z4)"]) == 4


def test_structure_counts(corpus):
    counts = rl.structure_counts(corpus["M2(Z2)"])
    assert counts == {"id": 8, "nil": 4, "unit": 6, "center": 2, "radical": 1}
    non_unital = rl.structure_counts(corpus["Ideal(Z4,2)"])
    assert non_unital["unit"] is None
    assert non_unital["nil"] == 2


def test_units_need_unity(corpus):
    with pytest.raises(rl.NonUnitalRingError):
        rl.units(corpus["Ideal(Z4,2)"])


def test_scans_against_generic_oracles(corpus):
    for name, ring in corpus.items():
        if ring.order > 64:
            continue
        assert list(rl.idempotents(ring)) == oracles.idempotent_set(ring.order, ring.mul), name
        assert list(rl.nilpotents(ring)) == oracles.nilpotent_set(ring.order, ring.mul), name
        if ring.unital:
            assert list(rl.units(ring)) == oracles.unit_set(ring.order, ring.mul, ring.one), name


def test_make_ideal_and_center_match_the_scalar_scans(corpus, monkeypatch):
    draw = np.random.default_rng(11)
    errors = set()
    for name, ring in corpus.items():
        n = ring.order
        assert rl.center(ring) == tuple(
            a for a in range(n) if all(ring.mul(a, b) == ring.mul(b, a) for b in range(n)))
        if n > 64:
            continue
        subsets = [rl.ideal_generated(ring, (x,)).members for x in range(0, n, 3)]
        subsets += [rl.left_ideal_generated(ring, x) for x in range(0, n, 3)]
        subsets += [draw.integers(0, n, size).tolist() + [ring.zero] * bool(size % 2)
                    for size in (1, 2, 3, n // 2, n - 1)]
        for members in subsets:
            expected = oracles.ideal_check(n, ring.add, ring.mul, ring.neg, members)
            # blocks of a few members too, so first failures are compared across blocks
            for cells in (core._PASS_CELLS, 64):
                with monkeypatch.context() as patch:
                    patch.setattr(core, "_PASS_CELLS", cells)
                    try:
                        got = rl.make_ideal(ring, members)
                    except ValueError as exc:
                        assert str(exc) == expected, (name, members, cells)
                        errors.add(expected.split(" at ")[0])
                    else:
                        assert got.members == expected, (name, members, cells)
                        assert all((x in got) == (x in expected) for x in range(n))
    assert errors == {"ideal must contain zero", "not closed under negation",
                      "not closed under addition", "not absorbing"}


def test_make_ideal_stays_within_its_block_budget():
    # the 2,048 members of the radical of the order-4096 Triv(Z64): all
    # (k, k) sums and (k, n) products at once would take about 180 MB
    ring = rl.build_cached(rl.parse_spec("Triv(Z64)"))
    members = [m for m in range(ring.order) if (m // 64) % 2 == 0]
    tracemalloc.start()
    try:
        ideal = rl.make_ideal(ring, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ideal.members == tuple(members)
    assert peak < 16 * 2**20, peak


def _scan_rings():
    """Fresh builds of the valid rings the scan tests cover: the default
    corpus, derived specs, lazy rings, and Z2^10."""
    specs = ["Corner(M2(Z2),8)", "Corner(T2(Z4),1)", "Quot(Z8,4)", "Quot(T2(Z4),2)",
             "Quot(M2(Z4),130)", "Ideal(Z8,2)", "Ideal(T2(Z2),1)", "Ideal(M2(Z2),1)",
             "Ideal(Z2[x]/(x^3),2)", "Op(T2(Z2))"]
    rings = [rl.build(spec) for spec in rl.DEFAULT_CORPUS]
    rings += [rl.build(rl.parse_spec(s)) for s in specs]
    with lazy_rings():
        rings += [rl.build(rl.parse_spec(s)) for s in
                  ("Z12", "Z2xZ4", "Triv(Z4)", "T2(Z2)", "T2(Z3)", "M2(Z2)", "M2(Z3)",
                   "Z2[x]/(x^3)", "Op(T2(Z2))")]
    # n^2 = 2^20 cells: the scans run in four blocks of core._PASS_CELLS
    rings.append(rl.build(rl.parse_spec("x".join(["Z2"] * 10))))
    return rings


def test_scans_match_the_oracles(corpus):
    # unvalidated corruptions: in Z4, 2*3 = 1 but 3*2 = 2, so 2 has a right
    # inverse only; in Ideal(T2(Z2),1), 1*0 = 1 puts 1 in the left ideal of 0
    corrupted = [with_cell(corpus["Z4"], "mul", (2, 3), 1),
                 with_cell(rl.build(rl.parse_spec("Ideal(T2(Z2),1)")), "mul", (1, 0), 1)]
    for ring in _scan_rings() + corrupted:
        assert_scans_match_oracles(ring)


def test_radical_of_the_quotient_by_the_radical_vanishes():
    # J(R/J(R)) = 0 is stated here and in P_RADIKAL; the radical scan
    # itself builds no quotient
    for ring in _scan_rings():
        jac = rl.jacobson_radical(ring)
        assert not [key for key in ring.cache
                    if isinstance(key, tuple) and key[0] == "quotient"], ring.label
        q = ct.quotient(ring, jac)[0]
        assert st._radical_members(q) == (q.zero,), ring.label
    check = hn.run_check("P_RADIKAL", [rl.Zn(4), rl.Matrix(2, rl.Zn(6))])
    assert (check.status, check.detail) == ("pass", "radical verified on 2 rings")


@pytest.mark.parametrize("text", ["Ideal(Z8,2)", "Ideal(Z2[x]/(x^3),2)",
                                  "Ideal(T2(Z4),2)"])
def test_radical_rechecks_the_axioms_only_of_unvalidated_rings(text, monkeypatch):
    calls, axioms_hold = [], st._axioms_hold

    def counting(ring):
        calls.append(ring.label)
        return axioms_hold(ring)

    monkeypatch.setattr(st, "_axioms_hold", counting)
    ring = rl.build(rl.parse_spec(text))
    copy = rl.FiniteRing(ring.order, ring.add_table, ring.mul_table, ring.neg_table,
                         zero=ring.zero, label="copy", validate=False)
    assert not ring.unital and ring.validated and not copy.validated
    members = rl.jacobson_radical(ring).members
    assert calls == []
    assert rl.jacobson_radical(copy).members == members
    assert calls == ["copy"]
