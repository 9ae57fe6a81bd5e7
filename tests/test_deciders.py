"""Witness searches, checkers, constructive operations, and ring verdicts."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import ringlab as rl
from ringlab import core, deciders as dc, kernel, structure as st
from ringlab.core import power_from_seq
from ringlab.deciders import strong_pi_core_fast

import oracles
from conftest import (SMALL_BATCHED, assert_alt_search_matches_scalar,
                      assert_index_inverts_members, assert_passes_match_scalar,
                      assert_small_verdicts_match_scalar, assert_tables_match_searches,
                      sample_pairs, vector_mismatches, with_cell)
from conftest import outcome as _outcome

SMALL = ["Z2", "Z3", "Z4", "Z6", "Z8", "Z12", "Z2xZ2", "Z2xZ4", "Triv(Z2)",
         "Z2[x]/(x^2)", "T2(Z2)", "M2(Z2)"]


# --- searches against exhaustive oracles ----------------------------------------


def test_wncl_witness_is_lex_minimal(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            triples = oracles.wncl_triples(ring.order, ring.add, ring.mul, ring.neg, a)
            w = rl.wncl_witness(ring, a)
            if triples:
                assert w is not None, (name, a)
                assert (w.e, w.q, w.x) == min(triples), (name, a)
                assert rl.check_wncl(ring, a, w)
            else:
                assert w is None, (name, a)


def test_wncl_presence_matches_oracle_on_nonunital(corpus):
    ring = corpus["Ideal(Z4,2)"]
    for a in range(ring.order):
        expected = oracles.has_wncl(ring.order, ring.add, ring.mul, ring.neg, a)
        assert (rl.wncl_witness(ring, a) is not None) == expected


def test_alt_witness_agrees_with_primal_presence(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            primal = rl.wncl_witness(ring, a)
            alt = rl.wncl_witness_alt(ring, a)
            assert (primal is None) == (alt is None), (name, a)
            if alt is not None:
                assert alt.form == "alternate"
                assert rl.check_wncl(ring, a, alt), (name, a)
                assert ring.mul(alt.x, a) == alt.e


def test_nil_clean_witness_matches_oracle(corpus):
    for name in SMALL + ["Ideal(Z4,2)"]:
        ring = corpus[name]
        for a in range(ring.order):
            expected = oracles.has_nil_clean(ring.order, ring.add, ring.mul, ring.neg, a)
            w = rl.nil_clean_witness(ring, a)
            assert (w is not None) == expected, (name, a)
            if w is not None:
                assert w.kind == "nilpotent"
                assert rl.check_sum(ring, a, w)


def test_clean_witness_matches_oracle(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            expected = oracles.has_clean(ring.order, ring.add, ring.mul,
                                         ring.neg, ring.one, a)
            w = rl.clean_witness(ring, a)
            assert (w is not None) == expected, (name, a)
            if w is not None:
                assert w.kind == "unit"
                assert rl.check_sum(ring, a, w)


def test_exchange_witness_matches_oracle(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            expected = oracles.has_exchange(ring.order, ring.add, ring.mul,
                                            ring.neg, ring.one, a)
            w = rl.exchange_witness(ring, a)
            assert (w is not None) == expected, (name, a)
            if w is not None:
                assert rl.check_exchange(ring, a, w)


def test_exchange_pinned_example(corpus):
    w = rl.exchange_witness(corpus["Z6"], 2)
    assert (w.e, w.r, w.s) == (0, 0, 5)
    # a larger valid witness for the same element still checks out
    assert rl.check_exchange(corpus["Z6"], 2, rl.ExchangeWitness(4, 2, 3))


def test_pi_regular_witness_is_first_hit(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            pairs = oracles.pi_regular_pairs(ring.order, ring.mul, a)
            w = rl.pi_regular_witness(ring, a)
            assert pairs, (name, a)  # finite rings are pi-regular
            assert (w.n, w.r) == pairs[0], (name, a)
            assert rl.check_pi_regular(ring, a, w)


def test_strongly_regular_witness_matches_oracle(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            expected = oracles.has_strongly_regular(ring.order, ring.mul, a)
            r = rl.strongly_regular_witness(ring, a)
            assert (r is not None) == expected, (name, a)
            if r is not None:
                assert rl.check_strongly_regular(ring, a, r)


def test_strong_pi_witness_everywhere(corpus):
    for name in SMALL:
        ring = corpus[name]
        for a in range(ring.order):
            w = rl.strong_pi_witness(ring, a)
            assert w is not None, (name, a)  # finite rings are strongly pi-regular
            assert rl.check_strong_pi(ring, a, w)


# --- checkers reject corrupted witnesses -----------------------------------------


def test_check_wncl_rejections(corpus):
    z6 = corpus["Z6"]
    w = rl.wncl_witness(z6, 2)
    assert rl.check_wncl(z6, 2, w)
    assert not rl.check_wncl(z6, 2, rl.WnclWitness(2, w.q, w.x))  # e not idempotent
    assert not rl.check_wncl(z6, 2, rl.WnclWitness(w.e, 1, w.x))  # q not nilpotent
    assert not rl.check_wncl(z6, 3, w)  # wrong element
    with pytest.raises(ValueError):
        rl.check_wncl(z6, 2, rl.WnclWitness(0, 0, 0, form="sideways"))


def test_check_wncl_alternate_needs_unity(corpus):
    ideal = corpus["Ideal(Z4,2)"]
    assert not rl.check_wncl(ideal, 0, rl.WnclWitness(0, 0, 0, "alternate"))


def test_check_sum_and_pireg_rejections(corpus):
    z4 = corpus["Z4"]
    assert not rl.check_sum(z4, 3, rl.SumWitness(0, 2, "unit"))  # 0+2 != 3
    assert not rl.check_sum(z4, 2, rl.SumWitness(0, 2, "unit"))  # 2 not a unit
    with pytest.raises(ValueError):
        rl.check_sum(z4, 3, rl.SumWitness(1, 2, "banana"))
    assert not rl.check_pi_regular(z4, 2, rl.PiRegularWitness(0, 1))  # n < 1
    assert not rl.check_pi_regular(z4, 2, rl.PiRegularWitness(1, 1))
    w = rl.strong_pi_witness(z4, 2)
    assert not rl.check_strong_pi(z4, 2, rl.StrongPiWitness(w.n, w.r, e=1))


def test_check_exchange_rejections(corpus):
    z6 = corpus["Z6"]
    assert not rl.check_exchange(z6, 2, rl.ExchangeWitness(0, 1, 5))  # r*a != e
    assert not rl.check_exchange(z6, 2, rl.ExchangeWitness(0, 0, 4))  # wrong s


# --- fast trajectory paths agree with brute search --------------------------------


def test_fast_witnesses_are_valid(corpus):
    for name in ("Z12", "T2(Z4)", "M2(Z2)", "M2(Z4)"):
        ring = corpus[name]
        for a in range(ring.order):
            wf = rl.pi_regular_witness_fast(ring, a)
            assert rl.check_pi_regular(ring, a, wf), (name, a)
            ws = rl.strong_pi_witness_fast(ring, a)
            assert rl.check_strong_pi(ring, a, ws), (name, a)
            n, r = strong_pi_core_fast(ring, a)
            assert ring.mul(rl.power(ring, a, n + 1), r) == rl.power(ring, a, n)


# --- constructive operations -------------------------------------------------------


def test_wncl_from_corner_z6(corpus):
    z6 = corpus["Z6"]
    # a = 2 with e = 4 = 2*2, corner part (1-e)a(1-e) = 0
    w = rl.wncl_from_corner(z6, 2, e=4, c=2,
                            corner_witness=rl.WnclWitness(0, 0, 0))
    assert rl.check_wncl(z6, 2, w)


def test_wncl_from_corner_rejections(corpus):
    z6 = corpus["Z6"]
    with pytest.raises(rl.WitnessError):
        rl.wncl_from_corner(z6, 2, e=2, c=1, corner_witness=rl.WnclWitness(0, 0, 0))
    with pytest.raises(rl.WitnessError):
        rl.wncl_from_corner(z6, 2, e=3, c=0, corner_witness=rl.WnclWitness(0, 0, 0))
    # corner witness element outside fRf
    with pytest.raises(rl.WitnessError):
        rl.wncl_from_corner(z6, 2, e=4, c=2, corner_witness=rl.WnclWitness(0, 0, 1))


def test_wncl_from_pi_regular_totality(corpus):
    for name in ("Z6", "Z12", "T2(Z2)", "M2(Z2)"):
        ring = corpus[name]
        for a in range(ring.order):
            w = rl.wncl_from_pi_regular(ring, a, rl.pi_regular_witness(ring, a))
            assert w.form == "primal"
            assert rl.check_wncl(ring, a, w), (name, a)


def test_wncl_from_pi_regular_rejects_bad_witness(corpus):
    with pytest.raises(rl.WitnessError):
        rl.wncl_from_pi_regular(corpus["Z6"], 1, rl.PiRegularWitness(1, 0))


def test_corner_to_parent(corpus):
    m2 = corpus["M2(Z2)"]
    e11 = rl.ring_pack(m2, (1, 0, 0, 0))
    corner = rl.corner_ring(m2, e11)
    w = rl.wncl_witness(corner, corner.one)
    parent_w = rl.corner_to_parent(corner, w)
    assert parent_w.e == corner.members[w.e]
    # the re-indexed triple satisfies the identity inside the parent
    assert rl.check_wncl(m2, e11, parent_w)


# --- idempotent lifting ---------------------------------------------------------------


def test_lift_idempotent_z4():
    z4 = rl.zn_ring(4)
    ideal = rl.make_ideal(z4, [0, 2])
    assert rl.lift_idempotent(z4, ideal, 3, method="scan") == 1
    assert rl.lift_idempotent(z4, ideal, 3, method="newton") == 1
    assert rl.lift_idempotent(z4, ideal, 1) == 1  # already idempotent


def test_lift_idempotent_rejections():
    z6 = rl.zn_ring(6)
    with pytest.raises(rl.WitnessError):
        rl.lift_idempotent(z6, rl.make_ideal(z6, [0, 3]), 3)  # ideal not nil
    z8 = rl.zn_ring(8)
    with pytest.raises(rl.WitnessError):
        rl.lift_idempotent(z8, rl.make_ideal(z8, [0, 4]), 2)  # defect outside
    z4 = rl.zn_ring(4)
    for method in ("bogus", "auto"):  # "auto" went: the iteration always converges
        with pytest.raises(ValueError):
            rl.lift_idempotent(z4, rl.make_ideal(z4, [0, 2]), 3, method=method)


def test_lift_paths_can_disagree_off_canonical_ideals(corpus):
    # through the radical of T2(Z4) both lifts are valid but land on
    # different idempotents in the same coset
    t2 = corpus["T2(Z4)"]
    rad = rl.jacobson_radical(t2)
    x = 7
    scan = rl.lift_idempotent(t2, rad, x, method="scan")
    newton = rl.lift_idempotent(t2, rad, x, method="newton")
    assert scan != newton
    members = set(rad.members)
    for e in (scan, newton):
        assert t2.mul(e, e) == e
        assert t2.sub(e, x) in members


def test_lift_idempotent_validity_through_radicals(corpus):
    for name in ("Z4", "Z8", "Z12", "T2(Z2)", "T2(Z4)", "Z4[x]/(x^2)"):
        ring = corpus[name]
        rad = rl.jacobson_radical(ring)
        if not rl.is_nil_ideal(ring, rad):
            continue
        members = set(rad.members)
        for x in range(ring.order):
            if ring.sub(ring.mul(x, x), x) not in members:
                continue
            for method in ("scan", "newton"):
                e = rl.lift_idempotent(ring, rad, x, method=method)
                assert ring.mul(e, e) == e, (name, x, method)
                assert ring.sub(e, x) in members, (name, x, method)


# --- witness lifting through nil ideals ------------------------------------------------


def test_lift_wncl_witness_z4():
    z4 = rl.zn_ring(4)
    ideal = rl.make_ideal(z4, [0, 2])
    qring, proj = rl.quotient(z4, ideal)
    qw = rl.wncl_witness(qring, proj[3])
    w = rl.lift_wncl_witness(z4, ideal, 3, qw)
    assert (w.e, w.q, w.x) == (1, 2, 0)
    assert rl.check_wncl(z4, 3, w)


def test_second_lift_reuses_the_nil_ideal_check():
    z8 = rl.zn_ring(8)
    ideal = rl.make_ideal(z8, [0, 2, 4, 6])
    qring, proj = rl.quotient(z8, ideal)
    qw = rl.wncl_witness(qring, proj[3])
    first = (rl.lift_idempotent(z8, ideal, 3), rl.lift_wncl_witness(z8, ideal, 3, qw))
    with mock.patch.object(st, "nil_index_of", wraps=st.nil_index_of) as nil:
        again = (rl.lift_idempotent(z8, ideal, 3), rl.lift_wncl_witness(z8, ideal, 3, qw))
    assert again == first
    assert nil.call_count == 0


def test_lift_wncl_witness_t2z2(corpus):
    t2 = corpus["T2(Z2)"]
    e12 = rl.ring_pack(t2, (0, 1, 0))
    ideal = rl.make_ideal(t2, [0, e12])
    qring, proj = rl.quotient(t2, ideal)
    qw = rl.wncl_witness(qring, proj[e12])
    w = rl.lift_wncl_witness(t2, ideal, e12, qw)
    assert w.q == e12  # the strictly upper part survives as the nilpotent
    assert rl.check_wncl(t2, e12, w)


def test_lift_wncl_witness_rejects_invalid_quotient_witness():
    z4 = rl.zn_ring(4)
    ideal = rl.make_ideal(z4, [0, 2])
    with pytest.raises(rl.WitnessError):
        rl.lift_wncl_witness(z4, ideal, 3, rl.WnclWitness(0, 0, 1))


# --- matrix extraction ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_extract_from_matrix_every_element(n):
    base = rl.zn_ring(n)
    mat = rl.matrix_ring(base, 2)
    for a in range(n):
        digits = [0] * 4
        digits[0] = a
        amat = rl.ring_pack(mat, digits)
        mw = rl.wncl_witness_alt(mat, amat)
        assert mw is not None, a
        w = rl.extract_from_matrix(base, 2, a, mw)
        assert w.form == "alternate"
        assert rl.check_wncl(base, a, w)


def test_extract_from_matrix_edges():
    base = rl.zn_ring(4)
    mat = rl.matrix_ring(base, 2)
    mw = rl.wncl_witness_alt(mat, 0)
    assert rl.extract_from_matrix(base, 2, 0, mw) == rl.WnclWitness(0, 0, 0, "alternate")
    with pytest.raises(rl.WitnessError):
        rl.extract_from_matrix(base, 2, 0, rl.WnclWitness(0, 0, 0, "primal"))
    t2 = rl.triangular_ring(rl.zn_ring(2), 2)
    with pytest.raises(rl.WitnessError):
        rl.extract_from_matrix(t2, 2, 0, rl.WnclWitness(0, 0, 0, "alternate"))


# --- center restriction ---------------------------------------------------------------


def test_center_ring_of_m2z4(corpus):
    m24 = corpus["M2(Z4)"]
    cring = rl.center_ring(m24)
    assert cring.members == (0, 65, 130, 195)  # scalar matrices
    assert cring.one == 1
    assert rl.center_ring(m24) is cring  # cached


def test_center_witness_m2z4(corpus):
    m24 = corpus["M2(Z4)"]
    two_i = rl.ring_pack(m24, (2, 0, 0, 2))
    w = rl.wncl_witness(m24, two_i)
    cw = rl.center_witness(m24, two_i, w)
    assert (cw.e, cw.q, cw.x) == (0, 2, 3)
    cring = rl.center_ring(m24)
    assert rl.check_wncl(cring, cring.index[two_i], cw)


def test_center_witness_rejects_noncentral(corpus):
    m2 = corpus["M2(Z2)"]
    e11 = rl.ring_pack(m2, (1, 0, 0, 0))
    w = rl.wncl_witness(m2, e11)
    with pytest.raises(rl.WitnessError):
        rl.center_witness(m2, e11, w)


def test_center_witness_across_central_elements(corpus):
    for name in ("M2(Z2)", "M2(Z3)", "T2(Z2)"):
        ring = corpus[name]
        for a in rl.center(ring):
            w = rl.wncl_witness(ring, a)
            assert w is not None, (name, a)
            cw = rl.center_witness(ring, a, w)
            cring = rl.center_ring(ring)
            assert_index_inverts_members(cring)
            assert rl.check_wncl(cring, cring.index[a], cw)
            # the restricted idempotent is central in the parent
            e_parent = cring.members[cw.e]
            assert all(ring.mul(e_parent, b) == ring.mul(b, e_parent)
                       for b in range(ring.order))


# --- uniqueness counts -------------------------------------------------------------------


def test_uniqueness_counts(corpus):
    z4 = corpus["Z4"]
    count_e, samples = rl.unique_idempotent_wncl(z4, 1)
    assert count_e == 1
    assert all(rl.check_wncl(z4, 1, s) for s in samples)
    count_q, samples = rl.unique_nilpotent_wncl(z4, 1)
    assert count_q == 2  # both 0 and 2 appear in valid triples
    assert all(rl.check_wncl(z4, 1, s) for s in samples)
    # the limit keyword caps the scan
    capped, _ = rl.unique_nilpotent_wncl(z4, 1, limit=1)
    assert capped == 1


def test_ring_uniqueness_verdicts(corpus):
    assert rl.ring_unique_idempotent(corpus["Z4"])
    assert not rl.ring_unique_idempotent(corpus["T2(Z2)"])
    assert rl.ring_unique_nilpotent(corpus["Z6"])
    assert not rl.ring_unique_nilpotent(corpus["Z4"])


# --- ring verdicts and classification -------------------------------------------------------


def test_ring_verdicts_match_elementwise_oracles(corpus):
    for name in SMALL:
        ring = corpus[name]
        n, add, mul, neg = ring.order, ring.add, ring.mul, ring.neg
        assert rl.ring_weakly_nil_clean(ring) == all(
            oracles.has_wncl(n, add, mul, neg, a) for a in range(n)), name
        assert rl.ring_nil_clean(ring) == all(
            oracles.has_nil_clean(n, add, mul, neg, a) for a in range(n)), name
        assert rl.ring_clean(ring) == all(
            oracles.has_clean(n, add, mul, neg, ring.one, a) for a in range(n)), name
        assert rl.ring_strongly_regular(ring) == all(
            oracles.has_strongly_regular(n, mul, a) for a in range(n)), name


def test_classify_small_unital(corpus):
    report = rl.classify(corpus["Z6"])
    assert report.spec == "Z6"
    assert report.order == 6
    assert report.unital
    assert list(report.properties) == list(rl.PROPERTY_ORDER)
    assert all(v is not None for v in report.properties.values())
    assert report.properties["weakly_nil_clean"]
    assert report.properties["strongly_regular"]
    assert not report.properties["nil_clean"]  # 2 - e is never nilpotent in Z6
    assert report.counts == {"id": 4, "nil": 1, "unit": 2, "center": 6, "radical": 1}
    assert report.bounded_index == 1
    assert report.timings is None


def test_classify_with_timings(corpus):
    report = rl.classify(corpus["Z2"], with_timings=True)
    assert report.timings is not None
    assert "weakly_nil_clean" in report.timings
    assert all(t >= 0 for t in report.timings.values())


def test_classify_non_unital(corpus):
    report = rl.classify(corpus["Ideal(Z4,2)"])
    assert not report.unital
    assert report.properties["weakly_nil_clean"] is True
    assert report.properties["nil_clean"] is True
    for name in ("clean", "exchange", "pi_regular", "strongly_pi_regular",
                 "strongly_regular", "abelian", "unique_idempotent_all",
                 "unique_nilpotent_all"):
        assert report.properties[name] is None, name
    assert report.counts["unit"] is None


def test_classify_large_ring_shape():
    ring = rl.build(rl.PolyMod(rl.Zn(2), 9))  # order 512, above the scan limit
    report = rl.classify(ring)
    assert report.order == 512
    assert report.properties["weakly_nil_clean"] is True
    assert report.properties["pi_regular"] is True
    assert report.properties["strongly_pi_regular"] is True
    assert report.properties["clean"] is None
    assert report.counts is None
    assert report.bounded_index is None


def test_classify_non_unital_ring_above_the_limit():
    ring = rl.build(rl.parse_spec("Ideal(Z4,2)xM2(Z6)"))  # order 2592
    assert not ring.unital and ring.order > rl.BRUTE_ORDER_LIMIT
    report = rl.classify(ring, with_timings=True)
    assert report.properties == {name: None for name in rl.PROPERTY_ORDER}
    assert report.counts is None
    assert report.bounded_index is None
    assert report.timings == {}


def test_classify_as_dict_schema(corpus):
    d = rl.classify(corpus["Z4"]).as_dict()
    assert list(d) == ["spec", "order", "properties", "counts",
                      "bounded_index", "timings"]
    assert d["timings"] is None


def test_implication_lattice(corpus):
    implications = [
        ("strongly_regular", "strongly_pi_regular"),
        ("strongly_pi_regular", "pi_regular"),
        ("weakly_nil_clean", "exchange"),
        ("nil_clean", "weakly_nil_clean"),
        ("clean", "exchange"),
    ]
    for name, ring in corpus.items():
        if ring.order > 64 or not ring.unital:
            continue
        props = rl.classify(ring).properties
        for src, dst in implications:
            if props[src] and props[dst] is not None:
                assert props[dst], (name, src, dst)


# --- batched large-ring verdicts ---------------------------------------------------


def _scalar_verdicts(ring):
    """The three large-ring verdicts as element-by-element loops over the
    scalar trajectory witnesses and constructions."""
    def loop(chain):
        def run():
            for a in range(ring.order):
                chain(a)
            return True
        return run

    strong = rl.strong_pi_witness_fast if ring.unital else strong_pi_core_fast
    out = {
        "pi_regular": loop(lambda a: rl.pi_regular_witness_fast(ring, a)),
        "strongly_pi_regular": loop(lambda a: strong(ring, a)),
    }
    if ring.unital:
        out["weakly_nil_clean"] = loop(lambda a: rl.wncl_from_pi_regular(
            ring, a, rl.pi_regular_witness_fast(ring, a)))
    return out


_BATCHED = {
    "weakly_nil_clean": rl.ring_weakly_nil_clean,
    "pi_regular": rl.ring_pi_regular,
    "strongly_pi_regular": rl.ring_strongly_pi_regular,
}


@pytest.mark.parametrize("name", ["M2(Z6)", "Triv(Z17)", "Ideal(Z4,2)xM2(Z6)"])
def test_batched_verdicts_equal_the_scalar_loops(name):
    ring = rl.build(rl.parse_spec(name))
    assert ring.order > rl.BRUTE_ORDER_LIMIT
    scalar = _scalar_verdicts(ring)
    assert ("weakly_nil_clean" in scalar) == ring.unital
    for prop, run in scalar.items():
        assert _outcome(run) is True, prop
        assert _outcome(lambda: _BATCHED[prop](ring)) is True, prop
    if not ring.unital:
        with pytest.raises(rl.NonUnitalRingError):
            rl.ring_weakly_nil_clean(ring)


_PI_VERDICTS = ("pi_regular", "strongly_pi_regular")


# rings on both sides of PASS_MIN_ORDER, unital or not
@pytest.mark.parametrize("name", ["Z2", "Z12", "T2(Z2)", "Ideal(Z4,2)", "Z32", "T2(Z4)",
                                  "M2(Z3)", "Triv(Z16)", "Ideal(Z4,2)xZ16"])
def test_pi_regularity_verdicts_equal_the_scalar_loops_at_every_order(name):
    ring = rl.build(rl.parse_spec(name))
    scalar = _scalar_verdicts(rl.build(rl.parse_spec(name)))
    with mock.patch.object(dc, "pi_regular_witness") as brute, \
            mock.patch.object(dc, "strong_pi_witness") as strong_brute:
        for prop in _PI_VERDICTS:
            assert _outcome(scalar[prop]) is True, prop
            assert _outcome(lambda: _BATCHED[prop](ring)) is True, prop
    brute.assert_not_called()
    strong_brute.assert_not_called()
    assert (("large_ring_failures",) in ring.cache) == (ring.order >= dc.PASS_MIN_ORDER)


# (ring, batched wncl chain calls): up to BRUTE_ORDER_LIMIT witness_pass decides
# wncl, so the batched pass skips the wncl chain; above it the chain runs
# once per batch (M2(Z6), of order 1296, is one batch of _PASS_CELLS // 32
# elements)
@pytest.mark.parametrize("name,chain_calls", [
    ("Z32", 0), ("T2(Z4)", 0), ("M2(Z3)", 0), ("M2(Z6)", 1)])
def test_batched_pass_runs_the_wncl_chain_only_above_the_brute_limit(name, chain_calls):
    ring = rl.build(rl.parse_spec(name))
    scalar = _scalar_verdicts(rl.build(rl.parse_spec(name)))
    with mock.patch.object(kernel, "wncl_chain_failures",
                           wraps=kernel.wncl_chain_failures) as chain:
        for prop, verdict in _BATCHED.items():
            assert _outcome(scalar[prop]) is True, prop
            assert _outcome(lambda: verdict(ring)) is True, prop
    assert ("large_ring_failures",) in ring.cache
    assert chain.call_count == chain_calls


# (ring, product pair, value): unvalidated corruptions on both sides of
# PASS_MIN_ORDER that make a trajectory chain raise, some first at an
# element other than the pair's
_PI_CORRUPTIONS = [
    ("Z12", (1, 1), 0), ("Z12", (2, 2), 2), ("T2(Z4)", (1, 1), 0), ("T2(Z4)", (3, 3), 0)]


@pytest.mark.parametrize("name,pair,value", _PI_CORRUPTIONS)
def test_corrupted_ring_pi_regularity_verdicts_raise_the_scalar_error(name, pair, value):
    ring = _corrupted(rl.build_cached(rl.parse_spec(name)), {pair: value})
    scalar = _scalar_verdicts(ring)
    outcomes = [_outcome(scalar[prop]) for prop in _PI_VERDICTS]
    assert any(out is not True for out in outcomes)
    for prop, expected in zip(_PI_VERDICTS, outcomes):
        assert _outcome(lambda: _BATCHED[prop](ring)) == expected, prop


def _corrupted(ring, cells):
    """A lazy copy of ring whose product at each pair of cells is the value
    cells gives it; its vector product is ring's, with the corrupted cells
    patched in through a mask, so array passes over it run at ring's speed."""
    mul, mul_vec = ring.mul, ring.mul_vec

    def bad_mul(a, b):
        return cells[a, b] if (a, b) in cells else mul(a, b)

    def bad_mul_vec(a, b):
        a, b = np.broadcast_arrays(a, b)
        out = np.array(mul_vec(a, b), dtype=np.int64)
        for (x, y), value in cells.items():
            out[(a == x) & (b == y)] = value
        return out

    return rl.FiniteRing(ring.order, ring.add, bad_mul, ring.neg, one=ring.one,
                         label=f"{ring.label} corrupted at {sorted(cells)}", table_cap=0,
                         add_vec=ring.add_vec, mul_vec=bad_mul_vec, neg_vec=ring.neg_vec)


# (pair, value) in M2(Z6) digits; each breaks a different identity of the
# scalar chains, some first at an element other than the pair's
_CORRUPTIONS = [
    (((1, 0, 0, 1), (1, 0, 0, 1)), (0, 0, 0, 0)),
    (((1, 1, 0, 1), (1, 1, 0, 1)), (1, 0, 0, 1)),
    (((2, 0, 0, 3), (2, 0, 0, 3)), (0, 0, 0, 5)),
    (((0, 0, 0, 3), (0, 0, 0, 3)), (0, 0, 1, 1)),
    (((1, 1, 0, 1), (1, 0, 0, 1)), (1, 1, 0, 2)),
    (((1, 1, 0, 1), (1, 5, 0, 1)), (1, 0, 0, 2)),
    (((0, 0, 0, 0), (0, 0, 0, 0)), (0, 0, 0, 1)),
    (((0, 0, 0, 0), (3, 3, 3, 3)), (0, 0, 0, 1)),
]


@pytest.mark.parametrize("pair,value", _CORRUPTIONS)
def test_corrupted_product_raises_the_scalar_error(pair, value):
    ring = _corrupted_m2z6((pair, value))
    scalar = {prop: _outcome(run) for prop, run in _scalar_verdicts(ring).items()}
    assert any(outcome is not True for outcome in scalar.values())
    for prop, expected in scalar.items():
        assert _outcome(lambda: _BATCHED[prop](ring)) == expected, prop


def _corrupted_m2z6(*cells):
    """M2(Z6) corrupted at the (pair, value) cells, given in digits."""
    base = rl.build_cached(rl.parse_spec("M2(Z6)"))
    return _corrupted(base, {tuple(rl.ring_pack(base, d) for d in pair):
                             rl.ring_pack(base, value) for pair, value in cells})


def test_corrupted_rings_patch_their_vector_product():
    base = rl.build_cached(rl.parse_spec("M2(Z6)"))
    ring = _corrupted_m2z6(*_CORRUPTIONS[1:4])
    xs, ys = sample_pairs(ring.order)
    pairs = [rl.ring_pack(base, d) for pair, _ in _CORRUPTIONS for d in pair]
    assert vector_mismatches(ring, np.r_[xs, pairs[0::2]], np.r_[ys, pairs[1::2]]) == []


# (pair, value) in M2(Z6) digits whose chains first fail past element 256:
# all three at 650; strongly pi-regular at 259 and wncl at 777; both at 1295
_LATE_CORRUPTIONS = [
    (((3, 0, 0, 4), (3, 0, 0, 4)), (0, 0, 0, 0)),
    (((3, 3, 3, 3), (3, 3, 3, 3)), (0, 0, 0, 1)),
    (((5, 5, 5, 5), (5, 5, 5, 5)), (0, 0, 0, 1)),
]


def test_batched_trajectory_helpers_match_the_scalar_ones():
    # plain M2(Z6); Triv(Z17), with trajectories up to 273 long; M2(Z6) with
    # 1*1 = 0, where the powers of the unity reach 0 and repeated squaring
    # meets the corrupted pair; and M2(Z6) with u^12*u = 0 for the unit
    # u = [[0, 1], [1, 1]] of period 24, so u has nil index 13, past the 11
    # steps that nil_index multiplies before it reads a trajectory
    rings = [rl.build_cached(rl.parse_spec("M2(Z6)")),
             rl.build_cached(rl.parse_spec("Triv(Z17)")),
             _corrupted_m2z6(_CORRUPTIONS[0]),
             _corrupted_m2z6((((5, 0, 0, 5), (0, 1, 1, 1)), (0, 0, 0, 0)))]
    for ring in rings:
        a = np.arange(ring.order)
        traj = kernel.trajectories(ring, a)
        P, pre, per = traj
        # exponents 1 to 601, so rows finish their squaring at different bits
        exps = (a * 37) % 601 + 1
        at = kernel.power_at(traj, exps).tolist()
        sq = kernel.power(ring, a, exps).tolist()
        nil = kernel.nil_index(ring, a).tolist()
        for x in range(ring.order):
            seq = rl.power_seq(ring, x)
            powers, i, p = seq
            assert (pre[x], per[x]) == (i, p), (ring.label, x)
            assert P[x, :len(powers)].tolist() == powers, (ring.label, x)
            assert at[x] == power_from_seq(*seq, int(exps[x])), (ring.label, x)
            assert sq[x] == rl.power(ring, x, int(exps[x])), (ring.label, x)
            assert nil[x] == (rl.nil_index_of(ring, x) or 0), (ring.label, x)


# the scalar chain behind each row of chunk_failures
_CHAINS = {
    "pi_regular": dc.pi_regular_witness_fast,
    "strongly_pi_regular": dc.strong_pi_witness_fast,
    "wncl": lambda ring, a: dc.wncl_from_pi_regular(
        ring, a, dc.pi_regular_witness_fast(ring, a)),
}


# M2(Z6) cells, in digits, where the wncl chain of the unit u = [[1, 1], [0, 1]]
# fails only at its last power of mu. With e = 1 and f = 0, fae = 0*1 is set
# to w = E11, so mu = w; 0*w = w*w keeps mu^2 = q^2 + q*fae with q = 0; and
# (1 - u^-1)*u = u - 1 - w keeps the primal identity of the composed witness.
# Every other identity of the chain holds at u, but mu^2 = w is not 0.
_MU_NOT_NILPOTENT = [(((0, 0, 0, 0), (1, 0, 0, 1)), (1, 0, 0, 0)),
                     (((0, 0, 0, 0), (1, 0, 0, 0)), (1, 0, 0, 0)),
                     (((0, 1, 0, 0), (1, 1, 0, 1)), (5, 1, 0, 0))]


@pytest.mark.parametrize("corruption", [None] + [[cell] for cell in _CORRUPTIONS]
                         + [[cell] for cell in _LATE_CORRUPTIONS] + [_MU_NOT_NILPOTENT])
def test_every_row_of_a_batch_fails_where_its_scalar_chain_raises(corruption):
    ring = (rl.build_cached(rl.parse_spec("M2(Z6)")) if corruption is None
            else _corrupted_m2z6(*corruption))
    failed = kernel.chunk_failures(ring, np.arange(ring.order))
    assert failed.keys() == _CHAINS.keys()
    for name, chain in _CHAINS.items():
        raises = []
        for a in range(ring.order):
            try:
                chain(ring, a)
                raises.append(False)
            except rl.WitnessError:
                raises.append(True)
        assert failed[name].tolist() == raises, name


# (spec, first element, end): whole rings, with Triv(Z17)'s trajectories up
# to 273 long (several growths and compactions of the working table) and
# Z2^6's all finishing at the second power, the first batch of M2(Z12), one
# row (a 273-long trajectory) and no row; None is the ring's order
_TRAJECTORY_BATCHES = [("Triv(Z17)", 0, None), ("Triv(Z64)", 0, None), ("M2(Z12)", 0, 8192),
                       ("Z2xZ2xZ2xZ2xZ2xZ2", 0, None), ("Triv(Z17)", 52, 53), ("M2(Z6)", 0, 0)]


@pytest.mark.parametrize("name,start,stop", _TRAJECTORY_BATCHES)
def test_trajectories_equal_power_seq_with_its_products(name, start, stop):
    ring = rl.build_cached(rl.parse_spec(name))
    x = np.arange(start, ring.order if stop is None else stop, dtype=np.int64)
    assert_trajectories_equal_power_seq(ring, x)


@pytest.mark.parametrize("cells", [[_CORRUPTIONS[0]], [_LATE_CORRUPTIONS[1]], _MU_NOT_NILPOTENT])
def test_trajectories_equal_power_seq_on_corrupted_rings(cells):
    ring = _corrupted_m2z6(*cells)
    assert_trajectories_equal_power_seq(ring, np.arange(ring.order, dtype=np.int64))


def assert_trajectories_equal_power_seq(ring, x):
    """Every row of trajectories(ring, x) holds core.power_seq of its
    element, and the elements that reach the ring's mul_vec are the
    pre + per - 1 products of those power sequences."""
    products = []

    def counted(a, b, _mul=ring.mul_vec):
        products.append(len(a))
        return _mul(a, b)

    with mock.patch.object(ring, "mul_vec", counted):
        P, pre, per = kernel.trajectories(ring, x)
    assert len(pre) == len(per) == P.shape[0] == len(x)
    assert sum(products) == int((pre + per - 1).sum())
    for r, a in enumerate(x.tolist()):
        powers, i, p = rl.power_seq(ring, a)
        assert (pre[r], per[r]) == (i, p), (ring.label, a)
        assert P[r, :len(powers)].tolist() == powers, (ring.label, a)


@pytest.mark.parametrize("elements", [100, 256])
def test_first_failures_do_not_depend_on_the_batch_size(monkeypatch, elements):
    def rings():
        return ([rl.build(rl.parse_spec(name)) for name in ("M2(Z6)", "M2(Z8)")]
                + [_corrupted_m2z6(cell) for cell in _LATE_CORRUPTIONS])

    one_batch = rings()
    assert all(ring.order <= core._PASS_CELLS // 32 for ring in one_batch)
    whole = [kernel.first_failures(ring) for ring in one_batch]
    monkeypatch.setattr(core, "_PASS_CELLS", 32 * elements)
    for ring, expected in zip(rings(), whole):
        with mock.patch.object(kernel, "chunk_failures",
                               wraps=kernel.chunk_failures) as batch:
            assert kernel.first_failures(ring) == expected, ring.label
        assert batch.call_count == -(-ring.order // elements)


@pytest.mark.parametrize("pair,value", _LATE_CORRUPTIONS)
def test_corrupted_product_past_the_first_batch_raises_the_scalar_error(
        monkeypatch, pair, value):
    monkeypatch.setattr(core, "_PASS_CELLS", 32 * 256)
    ring = _corrupted_m2z6((pair, value))
    scalar = {prop: _outcome(run) for prop, run in _scalar_verdicts(ring).items()}
    assert any(outcome is not True for outcome in scalar.values())
    for prop, expected in scalar.items():
        assert _outcome(lambda: _BATCHED[prop](ring)) == expected, prop
    assert min(kernel.first_failures(ring).values()) >= 256


def test_one_verdict_batch_stays_within_its_working_set():
    """The tracemalloc peak of one batch of chunk_failures on the order-20736
    M2(Z12) stays under the _PASS_CELLS int64 values the batch rule allows."""
    ring = rl.build_cached(rl.parse_spec("M2(Z12)"))
    a = np.arange(core._PASS_CELLS // 32, dtype=np.int64)
    tracemalloc.start()
    try:
        kernel.chunk_failures(ring, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < core._PASS_CELLS * np.dtype(np.int64).itemsize, peak / len(a)


# --- batched small-ring passes ----------------------------------------------------


# the default corpus, the census small band and rings on both sides of
# PASS_MIN_ORDER, unital or not
_PASS_RINGS = [str(spec) for spec in rl.DEFAULT_CORPUS] + [
    "Z2xZ2xZ2xZ2xZ2xZ2", "Z2[x]/(x^6)", "Triv(Z16)", "Z2xZ2xZ2xZ2", "Z16",
    "Z2xZ2xZ2xZ2xZ2", "Z32", "Z3xZ9", "Ideal(Z4,2)xZ16"]


@pytest.mark.parametrize("name", _PASS_RINGS)
def test_small_ring_passes_equal_the_scalar_searches(name):
    spec = rl.parse_spec(name)
    assert_passes_match_scalar(rl.build(spec))
    assert_small_verdicts_match_scalar(lambda: rl.build(spec))


# (ring, product cell, value): unvalidated one-cell corruptions at or above
# PASS_MIN_ORDER, which turn some verdicts False and leave others True
_SMALL_CORRUPTIONS = [
    ("Z2xZ2xZ2xZ2xZ2", (14, 14), 29),
    ("Z2xZ2xZ2xZ2xZ2", (1, 1), 0),
    ("Z2xZ2xZ2xZ2xZ2", (8, 4), 16),
    ("T2(Z4)", (9, 9), 39),
    ("Z32", (16, 4), 28),
    ("Z32", (5, 26), 7),
]


@pytest.mark.parametrize("name,cell,value", _SMALL_CORRUPTIONS)
def test_corrupted_small_ring_gets_the_scalar_verdicts(name, cell, value):
    base = rl.build_cached(rl.parse_spec(name))
    assert base.order >= dc.PASS_MIN_ORDER
    scalar = assert_small_verdicts_match_scalar(
        lambda: with_cell(base, "mul", cell, value))
    assert False in scalar.values()
    # the pass reads {(e*x)*a : x} itself, which is eR ∩ Ra only for an
    # associative product: a pass built on that identity fails here
    assert_passes_match_scalar(with_cell(base, "mul", cell, value))


def test_pass_disagreeing_with_the_scalar_search_raises():
    ring = rl.build(rl.parse_spec("Z2xZ2xZ2xZ2xZ2"))
    found = kernel.witness_pass(ring)["wncl"]
    found["checked"][5] = False
    found["idempotents"][7] = 2
    with pytest.raises(rl.WitnessError, match="batched wncl pass failed at element 5"):
        rl.ring_weakly_nil_clean(ring)
    with pytest.raises(rl.WitnessError, match="idempotents uniqueness pass failed at "
                                              "element 5"):
        rl.ring_unique_idempotent(ring)
    found = kernel.witness_pass(ring)["exchange"]
    found["checked"][3] = False
    with pytest.raises(rl.WitnessError, match="exchange pass failed at element 3"):
        rl.ring_exchange(ring)


def test_memoized_witnesses_still_run_the_wncl_pass():
    # the verdict has one path from PASS_MIN_ORDER on, whatever is memoized
    ring = rl.build(rl.parse_spec("T2(Z4)"))
    for a in range(ring.order):
        rl.wncl_witness(ring, a)
    with mock.patch.object(kernel, "witness_pass", wraps=kernel.witness_pass) as witness_pass:
        assert rl.ring_weakly_nil_clean(ring) is True
    witness_pass.assert_called_once_with(ring)


@pytest.mark.parametrize("name", ["T2(Z4)", "M2(Z3)", "Z2xZ2xZ2xZ2xZ2xZ2", "Triv(Z16)"])
def test_small_ring_passes_do_not_depend_on_the_block_size(monkeypatch, name):
    spec = rl.parse_spec(name)
    ring = rl.build(spec)
    whole = kernel.witness_pass(ring)
    # blocks of 4 elements, and of one idempotent in the wncl triples
    monkeypatch.setattr(core, "_PASS_CELLS", 4 * ring.order)
    blocks = []

    def counting(count, row_cells):
        out = core.row_blocks(count, row_cells)
        blocks.append(len(out))
        return out

    monkeypatch.setattr(kernel, "row_blocks", counting)
    ring = rl.build(spec)
    split = kernel.witness_pass(ring)
    assert len(blocks) > 2 and min(blocks) > 1, blocks
    assert whole.keys() == split.keys() == {"wncl", "exchange"}
    for kind, expected in whole.items():
        got = split[kind]
        assert expected.keys() == got.keys()
        for key in expected:
            assert np.array_equal(expected[key], got[key]), (kind, key)


def test_tiny_rings_keep_the_scalar_loops():
    ring = rl.build(rl.parse_spec("M2(Z2)"))
    assert ring.order < dc.PASS_MIN_ORDER
    with mock.patch.object(kernel, "witness_pass") as witness_pass:
        for verdict in SMALL_BATCHED.values():
            verdict(ring)
    witness_pass.assert_not_called()


def test_unique_nilpotent_count_builds_each_map_on_first_use():
    ring = rl.build_cached(rl.parse_spec("Z2xZ2xZ2xZ2"))
    with mock.patch.object(dc, "_exa_value_map", wraps=dc._exa_value_map) as exa:
        count, samples = rl.unique_nilpotent_wncl(ring, 0, limit=1)
    assert (count, samples) == (1, [rl.WnclWitness(0, 0, 0, "primal")])
    assert exa.call_count == 1


def test_classify_z2_to_the_8_stays_fast():
    t0 = time.perf_counter()
    report = rl.classify(rl.build(rl.parse_spec("Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2")))
    elapsed = time.perf_counter() - t0
    assert all(report.properties.values())
    assert elapsed < 3.0, f"took {elapsed:.2f}s"


# --- array searches above the limit -----------------------------------------------


@pytest.mark.parametrize("name", _PASS_RINGS)
def test_alternate_array_search_equals_the_scalar_loop(name):
    # called directly: up to BRUTE_ORDER_LIMIT wncl_witness_alt keeps the loop
    ring = rl.build(rl.parse_spec(name))
    assert ring.order <= dc.BRUTE_ORDER_LIMIT
    if not ring.unital:
        with pytest.raises(rl.NonUnitalRingError):
            rl.wncl_witness_alt(ring, 0)
        return
    assert_alt_search_matches_scalar(ring)


def test_alternate_array_search_equals_the_scalar_loop_on_corrupted_rings():
    rings = [with_cell(rl.build_cached(rl.parse_spec(name)), "mul", cell, value)
             for name, cell, value in _SMALL_CORRUPTIONS]
    rings += [_corrupted(rl.build_cached(rl.parse_spec(name)), {pair: value})
              for name, pair, value in _PI_CORRUPTIONS]
    for ring in rings:
        assert_alt_search_matches_scalar(ring)
    # M2(Z6): the elements diag(a, 0) of P_KOTI, the corrupted pair and a sample
    m2z6 = rl.build_cached(rl.parse_spec("M2(Z6)"))
    for pair, value in _CORRUPTIONS + _LATE_CORRUPTIONS:
        elements = [rl.ring_pack(m2z6, digits) for digits in ([a, 0, 0, 0] for a in range(6))]
        elements += [rl.ring_pack(m2z6, d) for d in pair] + list(range(0, 1296, 97))
        assert_alt_search_matches_scalar(_corrupted_m2z6((pair, value)), elements)


def test_alternate_search_above_the_limit_reads_arrays(monkeypatch):
    ring = rl.build(rl.parse_spec("M2(Z6)"))
    elements = [rl.ring_pack(ring, [a, 0, 0, 0]) for a in range(6)] + list(range(0, 1296, 61))
    assert_alt_search_matches_scalar(rl.build(rl.parse_spec("M2(Z6)")), elements)
    found = [kernel.wncl_alt_first(ring, a) for a in elements]
    with mock.patch.object(ring, "mul", side_effect=AssertionError("scalar product")):
        got = [rl.wncl_witness_alt(ring, a) for a in elements]
    assert [(w.e, w.q, w.x, w.form) if w else None for w in got] == [
        (*t, "alternate") if t else None for t in found]
    # blocks of one candidate x each give the same first hits, and no
    # block's (x, q) table is larger than its budget
    nils = len(rl.nilpotents(ring))
    monkeypatch.setattr(core, "_PASS_CELLS", 32 * nils)
    sizes = []

    def sized(x, y, _mul=ring.mul_vec):
        out = _mul(x, y)
        if out.ndim == 2:
            sizes.append(out.size)
        return out

    monkeypatch.setattr(ring, "mul_vec", sized)
    assert [kernel.wncl_alt_first(ring, a) for a in elements] == found
    assert sizes and max(sizes) == nils


def test_witness_tables_above_the_limit_equal_the_scalar_searches():
    # a seeded sample of each ring, since one scalar search takes some ms an
    # element there; on the corrupted ring also its pair and 650, where its
    # chains first fail
    pair, value = _LATE_CORRUPTIONS[0]
    rings = [(rl.build(rl.parse_spec(name)), []) for name in ("M2(Z6)", "Triv(Z64)")]
    rings.append((_corrupted_m2z6((pair, value)),
                  [rl.ring_pack(rings[0][0], d) for d in pair] + [650]))
    rng = np.random.default_rng(24)
    for ring, extra in rings:
        assert ring.order > dc.BRUTE_ORDER_LIMIT
        sample = rng.choice(ring.order, 16, replace=False).tolist()
        assert_tables_match_searches(ring, sorted(set(sample + extra)))


@pytest.mark.parametrize("name,array", [
    ("M2(Z6)", True), ("Triv(Z17)", True), ("T2(Z4)", False), ("M2(Z3)", False)])
def test_nil_index_map_reads_the_array_pass_above_the_limit(name, array):
    ring = rl.build(rl.parse_spec(name))
    with mock.patch.object(kernel, "nil_index", wraps=kernel.nil_index) as batched:
        got = st.nil_index_map(ring)
    assert batched.called == array
    scalar = {a: rl.nil_index_of(ring, a) for a in range(ring.order)}
    assert got == {a: k for a, k in scalar.items() if k is not None}
    assert list(got) == sorted(got)


# --- memo keys -------------------------------------------------------------------------

SCAN_KEYS = {  # scan -> its ring.cache key
    st.idempotents: "idempotents", st.nilpotents: "nilpotents",
    st.nil_index_map: "nil_index", st.units: "units", st.inverse_map: "inverse",
    st.center: "center", st.is_abelian: "is_abelian",
    st.jacobson_radical: "jacobson_radical", st.bounded_index: "bounded_index",
}
SEARCHES = ("wncl_witness", "wncl_witness_alt", "pi_regular_witness", "exchange_witness")
VERDICTS = ("wncl", "clean", "nil_clean", "exchange", "pi_regular",
            "strongly_pi_regular", "strongly_regular", "unique_idempotent",
            "unique_nilpotent")


@pytest.mark.parametrize("text", ["T2(Z2)", "Z4"])
def test_scans_and_searches_keep_their_results_under_fixed_keys(text):
    # the bench tracer counts memo hits by these keys
    ring = rl.build(rl.parse_spec(text))  # a fresh ring, with an empty cache
    for scan, key in SCAN_KEYS.items():
        value = scan(ring)
        assert ring.cache[key] is value is scan(ring), key
    for name in SEARCHES:
        for a in range(ring.order):
            value = getattr(dc, name)(ring, a)
            assert (name, a) in ring.cache and ring.cache[name, a] is value, (name, a)
    # None, for an element without a result, is kept too
    nothing = core.memoized_per_element(lambda ring, a: None)
    assert nothing(ring, 1) is None and ring.cache[nothing.__name__, 1] is None
    dc.classify(ring)
    assert {("ring_verdict", name) for name in VERDICTS} <= set(ring.cache)
