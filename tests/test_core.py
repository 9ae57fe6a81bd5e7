"""Ring container, axiom validation, and power trajectory machinery."""

import itertools

import numpy as np
import pytest

import ringlab as rl
from ringlab.core import _additive_generators, index_dtype, power_from_seq

import oracles
from conftest import agrees_with_cubic, all_pairs, corpus_ring, vector_mismatches, with_cell


def test_validate_axioms_accepts_corpus(corpus):
    for name, ring in corpus.items():
        report = rl.validate_axioms(ring)
        assert report.ok, f"{name}: {report.failure}"


def _corrupted_z4(entry=(2, 3), value=1):
    base = rl.zn_ring(4)
    mul = [row[:] for row in base.mul_table]
    mul[entry[0]][entry[1]] = value
    return rl.FiniteRing(
        4,
        add=[row[:] for row in base.add_table],
        mul=mul,
        neg=list(base.neg_table),
        one=1,
        label="corrupted Z4",
        validate=False,
    )


def test_validate_axioms_rejects_corrupted_table():
    report = rl.validate_axioms(_corrupted_z4())
    assert not report.ok
    assert report.failure is not None
    assert report.failure.axiom
    assert len(report.failure.elements) >= 1
    # the named elements really do violate the named axiom
    assert "associativity" in report.failure.axiom or \
        "distributivity" in report.failure.axiom or "zero" in report.failure.axiom


def test_validate_axioms_failure_message_names_elements():
    report = rl.validate_axioms(_corrupted_z4())
    text = str(report.failure)
    assert report.failure.axiom in text


def test_validate_axioms_needs_tables():
    big = rl.build(rl.Matrix(2, rl.Zn(8)))  # order 4096, no tables
    assert big.mul_table is None
    with pytest.raises(rl.OrderCapError):
        rl.validate_axioms(big)


def test_unity_axioms_checked():
    base = rl.zn_ring(4)
    wrong_one = rl.FiniteRing(
        4,
        add=[row[:] for row in base.add_table],
        mul=[row[:] for row in base.mul_table],
        neg=list(base.neg_table),
        one=2,
        validate=False,
    )
    report = rl.validate_axioms(wrong_one)
    assert not report.ok
    assert "unity" in report.failure.axiom


# --- generator validation against the cubic oracle ---------------------------------


def test_generator_validator_matches_cubic_on_corrupted_tables():
    assert agrees_with_cubic(_corrupted_z4()).failure.axiom == "mul-associativity"
    base = rl.zn_ring(4)
    wrong_one = rl.FiniteRing(4, base.add_table, base.mul_table, base.neg_table, one=2,
                              validate=False)
    assert "unity" in agrees_with_cubic(wrong_one).failure.axiom


# Products on the additive group of Z2xZ2 (x + y is x XOR y) that break
# exactly one of the three identities tested on generators
_ONE_IDENTITY_BROKEN = [
    ([[0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 2, 2], [0, 3, 3, 3]], "left-distributivity"),
    ([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 3, 3, 0]], "right-distributivity"),
    ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 0, 2], [0, 2, 0, 2]], "mul-associativity"),
]


@pytest.mark.parametrize("mul,axiom", _ONE_IDENTITY_BROKEN)
def test_generator_validator_catches_each_identity(mul, axiom):
    group = corpus_ring("Z2xZ2")
    ring = rl.FiniteRing(4, group.add_table, mul, group.neg_table, validate=False)
    assert agrees_with_cubic(ring).failure.axiom == axiom


def test_generator_validator_needs_a_commutative_addition():
    # the symmetric group on 3 points has a zero and negatives and is
    # associative, but not commutative; the product is zero
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    add = [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]
    neg = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    ring = rl.FiniteRing(6, add, [[0] * 6] * 6, neg, validate=False)
    assert agrees_with_cubic(ring).failure.axiom == "add-commutativity"


def test_generator_validator_catches_entries_out_of_range():
    ring = corpus_ring("M2(Z2)")
    for table in ("add", "mul", "neg"):
        report = agrees_with_cubic(with_cell(ring, table, (3, 5), ring.order))
        assert report.failure.axiom == f"{table}-closure"


# (ring, table, cell): no element of a cell is in the ring's generating set
_OFF_GENERATOR_CELLS = [
    ("M2(Z2)", "mul", (3, 5)),
    ("M2(Z2)", "mul", (15, 15)),
    ("M2(Z2)", "add-sym", (3, 5)),
    ("M2(Z2)", "neg", (6, 6)),
    ("Z12", "mul", (5, 7)),
    ("Z12", "add-sym", (5, 7)),
    ("Z12", "neg", (9, 9)),
    ("T2(Z4)", "mul", (6, 39)),
    ("T2(Z4)", "add-sym", (21, 42)),
    ("Z2xZ4", "mul", (3, 7)),
]


@pytest.mark.parametrize("name,table,cell", _OFF_GENERATOR_CELLS)
def test_generator_validator_catches_off_generator_corruptions(name, table, cell):
    ring = corpus_ring(name)
    assert not set(cell) & set(_additive_generators(ring.add_table, ring.zero))
    x, y = cell
    current = {"mul": ring.mul(x, y), "add-sym": ring.add(x, y), "neg": ring.neg(x)}[table]
    report = agrees_with_cubic(with_cell(ring, table, cell, (current + 1) % ring.order))
    assert not report.ok


@pytest.mark.parametrize("name", [str(spec) for spec in rl.DEFAULT_CORPUS] + [
    "M3(Z2)", "T2(Z7)", "Triv(Z17)", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"])
def test_additive_generators_generate_by_left_bracketed_sums(name):
    ring = rl.build_cached(rl.parse_spec(name))
    gens = _additive_generators(ring.add_table, ring.zero)
    assert len(gens) <= ring.order.bit_length() - 1  # |G| <= log2 n
    reached, todo = {ring.zero}, [ring.zero]
    while todo:
        x = todo.pop()
        for g in gens:
            if ring.add(x, g) not in reached:
                reached.add(ring.add(x, g))
                todo.append(ring.add(x, g))
    assert reached == set(range(ring.order))


def test_additive_generators_of_matrix_ring_are_matrix_units():
    assert _additive_generators(corpus_ring("M2(Z3)").add_table, 0) == [1, 3, 9, 27]


def test_additive_generators_give_up_on_a_non_group():
    # 1 + 1 = 1 + 2 = 2 + 2 = 0: from 0, the sums of 1 and 2 reach {0, 1, 2}
    # and 3 would be a third generator of a set of 4
    table = [[0, 1, 2, 3], [1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]]
    assert _additive_generators(table, 0) is None


def test_sub_matches_add_neg(corpus):
    for ring in corpus.values():
        if ring.order > 16:
            continue
        for a in range(ring.order):
            for b in range(ring.order):
                assert ring.sub(a, b) == ring.add(a, ring.neg(b))


def test_power_matches_naive(corpus):
    for ring in corpus.values():
        if ring.order > 64:
            continue
        for a in range(ring.order):
            acc = a
            for k in range(1, 8):
                assert rl.power(ring, a, k) == acc
                acc = ring.mul(acc, a)


def test_power_requires_positive_exponent():
    ring = rl.zn_ring(6)
    with pytest.raises(ValueError):
        rl.power(ring, 2, 0)


def test_power_seq_trajectory():
    ring = rl.zn_ring(12)
    for a in range(12):
        powers, i, p = rl.power_seq(ring, a)
        assert len(powers) == i + p - 1
        # powers[t-1] == a^t, the sequence repeats with period p from index i
        naive = a
        for t in range(1, i + p):
            assert powers[t - 1] == naive
            naive = ring.mul(naive, a)
        assert rl.power(ring, a, i + p) == rl.power(ring, a, i)
        # reduction beyond the stored range is exact
        for t in range(1, 4 * (i + p)):
            assert power_from_seq(powers, i, p, t) == rl.power(ring, a, t)


def test_nil_index_of():
    z8 = rl.zn_ring(8)
    assert rl.nil_index_of(z8, 0) == 1
    assert rl.nil_index_of(z8, 4) == 2
    assert rl.nil_index_of(z8, 2) == 3
    assert rl.nil_index_of(z8, 3) is None
    for n in (4, 6, 9, 12):
        ring = rl.zn_ring(n)
        for a in range(n):
            expected = oracles._zn_is_nilpotent(a, n)
            assert (rl.nil_index_of(ring, a) is not None) == expected


def test_require_unital():
    ideal = rl.build(rl.IdealRing(rl.Zn(4), (2,)))
    assert not ideal.unital
    with pytest.raises(rl.NonUnitalRingError):
        ideal.require_unital("this test")


def test_element_labels(corpus):
    t2 = corpus["T2(Z2)"]
    labels = [t2.element_label(i) for i in range(t2.order)]
    assert len(set(labels)) == t2.order
    prod = corpus["Z2xZ4"]
    assert "(" in prod.element_label(3)


def test_lazy_ring_matches_tabled_ring():
    tabled = rl.matrix_ring(rl.zn_ring(2), 2)
    assert tabled.mul_table is not None
    lazy_ops = rl.FiniteRing(
        tabled.order,
        add=lambda x, y: tabled.add_table[x][y],
        mul=lambda x, y: tabled.mul_table[x][y],
        neg=lambda x: tabled.neg_table[x],
        one=tabled.one,
        table_cap=0,
        validate=False,
    )
    assert lazy_ops.mul_table is None
    for x in range(0, 16, 3):
        for y in range(16):
            assert lazy_ops.mul(x, y) == tabled.mul(x, y)
            assert lazy_ops.add(x, y) == tabled.add(x, y)


# --- vector operations ------------------------------------------------------------


def test_index_dtype():
    assert index_dtype(2) == np.uint16
    assert index_dtype(65536) == np.uint16
    assert index_dtype(65537) == np.uint32


def test_tables_filled_from_closures_are_cached_at_construction():
    ring = rl.zn_ring(6, validate=False)
    assert set(ring.cache) == {"add_table", "mul_table", "neg_table"}
    for name in ("add_table", "mul_table"):
        assert ring.cache[name].dtype == np.uint16
        assert ring.cache[name].reshape(6, 6).tolist() == getattr(ring, name)
    assert ring.cache["neg_table"].tolist() == ring.neg_table


def test_table_copy_is_made_on_first_use():
    base = rl.zn_ring(6)
    ring = rl.FiniteRing(6, base.add_table, base.mul_table, base.neg_table, one=1,
                         validate=False)
    assert not ring.cache
    assert ring.mul_vec(np.array([2, 3]), np.array([3, 5])).tolist() == [0, 3]
    assert set(ring.cache) == {"mul_table"}
    assert ring.cache["mul_table"].dtype == np.uint16
    ring.sub_vec(np.array([1]), np.array([2]))
    assert {"add_table", "mul_table", "neg_table"} <= set(ring.cache)


def test_tabled_vector_ops_match_scalar_on_all_pairs(corpus):
    for name, ring in corpus.items():
        assert ring.mul_table is not None, name
        assert vector_mismatches(ring, *all_pairs(ring.order)) == [], name


def test_default_vector_ops_map_the_scalar_ops():
    n = 10
    ring = rl.FiniteRing(n, lambda a, b: (a + b) % n, lambda a, b: (a * b) % n,
                         lambda a: (-a) % n, one=1, table_cap=0)
    assert ring.mul_table is None
    assert vector_mismatches(ring, *all_pairs(n)) == []
    xs = np.array([[1, 2], [3, 4]])
    assert ring.mul_vec(xs, xs).tolist() == [[1, 4], [9, 6]]
    assert ring.mul_vec(xs, 3).tolist() == [[3, 6], [9, 2]]  # broadcast


def test_subring_and_quotient_vector_ops(corpus):
    m2 = corpus["M2(Z2)"]
    corner = rl.corner_ring(m2, rl.ring_pack(m2, (1, 0, 0, 0)))
    ideal = rl.ideal_subring(corpus["Z8"], rl.ideal_generated(corpus["Z8"], (2,)).members)
    quot, _ = rl.quotient(corpus["T2(Z4)"], rl.ideal_generated(corpus["T2(Z4)"], (1,)))
    for ring in (corner, ideal, quot):
        assert vector_mismatches(ring, *all_pairs(ring.order)) == [], ring.label
