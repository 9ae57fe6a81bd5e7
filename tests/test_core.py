"""Ring container, axiom validation, and power trajectory machinery."""

import gc
import itertools
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ringlab as rl
from ringlab import core, deciders as dc, structure as st
from ringlab.core import (_PASS_CELLS, _generator_tree, _validate_cubic, index_dtype,
                          power_from_seq)

import oracles
from conftest import (agrees_with_cubic, all_pairs, corpus_ring, fresh_build_cache, list_rows,
                      op_rows, sample_pairs, vector_mismatches, with_cell)


def test_validate_axioms_accepts_corpus(corpus):
    for name, ring in corpus.items():
        report = rl.validate_axioms(ring)
        assert report.ok, f"{name}: {report.failure}"


def _corrupted_z4(entry=(2, 3), value=1):
    base = rl.zn_ring(4)
    mul = base.mul_table.tolist()
    mul[entry[0]][entry[1]] = value
    return rl.FiniteRing(
        4,
        add=base.add_table.tolist(),
        mul=mul,
        neg=base.neg_table.tolist(),
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


def test_every_ring_with_tables_is_validated_by_default():
    # Z1100 is over the table cap, but tables given as arrays are kept
    X = np.arange(1100)
    add, mul, neg = (X[:, None] + X) % 1100, (X[:, None] * X) % 1100, -X % 1100
    assert rl.FiniteRing(1100, add, mul, neg, one=1).validated
    mul[3][5] += 1
    with pytest.raises(rl.RingLabError, match=r"mul-associativity fails at \(2, 3, 5\)"):
        rl.FiniteRing(1100, add, mul, neg, one=1)


def test_validate_axioms_needs_tables():
    big = rl.build(rl.Matrix(2, rl.Zn(8)))  # order 4096, no tables
    assert big.mul_table is None
    with pytest.raises(rl.OrderCapError):
        rl.validate_axioms(big)


def test_unity_axioms_checked():
    base = rl.zn_ring(4)
    wrong_one = rl.FiniteRing(
        4,
        add=base.add_table.tolist(),
        mul=base.mul_table.tolist(),
        neg=base.neg_table.tolist(),
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


def _one_identity_broken(mul):
    group = corpus_ring("Z2xZ2")
    return rl.FiniteRing(4, group.add_table, mul, group.neg_table, validate=False)


@pytest.mark.parametrize("mul,axiom", _ONE_IDENTITY_BROKEN)
def test_generator_validator_catches_each_identity(mul, axiom):
    ring = _one_identity_broken(mul)
    assert agrees_with_cubic(ring).failure.axiom == axiom
    # as many phases hold as when the right law was checked on n^2 |G| cells
    assert core._proof(ring) == _old_phases(ring)


@pytest.mark.parametrize("name", ["Z4", "Z6", "Z2xZ2", "Triv(Z2)", "T2(Z2)"])
def test_generator_validator_matches_cubic_on_every_one_cell_corruption(name):
    ring = corpus_ring(name)
    n = ring.order
    cells = [(table, (x, y)) for table in ("add", "add-sym", "mul")
             for x in range(n) for y in range(n)]
    cells += [("neg", (x, x)) for x in range(n)]
    current = {"add": ring.add, "add-sym": ring.add, "mul": ring.mul,
               "neg": lambda x, _: ring.neg(x)}
    for table, cell in cells:
        for value in range(n):
            if value != current[table](*cell):
                agrees_with_cubic(with_cell(ring, table, cell, value))


# a commutative loop on 6 elements with zero 0 and inverses, whose
# generator tree 0 -1-> 1, 0 -2-> 2 -2-> 4, 1 -2-> 3 -2-> 5 satisfies
# (p + g) + y = p + (g + y) on every edge: only the commuting check
# 1 + (2 + y) = 2 + (1 + y) on the generators, and the step 0 = 1 + 1 that
# closes the chain of 1, show it is no group
_LOOP = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 4, 5, 2], [2, 3, 4, 5, 0, 1],
         [3, 4, 5, 2, 1, 0], [4, 5, 0, 1, 2, 3], [5, 2, 1, 0, 3, 4]]


def _loop_ring():
    """The loop _LOOP with the zero product."""
    return rl.FiniteRing(6, _LOOP, [[0] * 6] * 6, [row.index(0) for row in _LOOP],
                         validate=False)


def test_generator_validator_rejects_a_non_associative_loop():
    add = _LOOP
    assert all(sorted(row) == list(range(6)) for row in add)  # a Latin square
    assert add == [list(col) for col in zip(*add)]  # commutative
    gens, tree = _generator_tree(np.array(add), 0)
    assert gens == [1, 2]
    assert all(add[add[p][g]][y] == add[p][add[g][y]] for _, p, g in tree for y in range(6))
    assert agrees_with_cubic(_loop_ring()).failure.axiom == "add-associativity"


def _old_phases(ring):
    """The phases that the proof held before it checked the right law on the
    walk's edges only: oracles.generator_proof_phases on the ring's tables."""
    return oracles.generator_proof_phases(ring.add_table.tolist(), ring.mul_table.tolist(),
                                          ring.neg_table.tolist(), ring.zero, ring.one)


@pytest.mark.parametrize("name", ["Z2xZ4", "T2(Z2)", "M2(Z2)"])
def test_edge_proof_holds_the_phases_of_the_full_right_law(name):
    # _proof checks (p + g)a = pa + ga on the edges of the walk and chains
    # alone, not on all n^2 |G| cells (b, g, a): on every one-cell mul and
    # add-sym corruption it holds as many phases as the old sequence did
    ring = corpus_ring(name)
    n = ring.order
    for table, op in (("mul", ring.mul), ("add-sym", ring.add)):
        for x in range(n):
            for y in range(x if table == "add-sym" else 0, n):
                for value in range(n):
                    if value != op(x, y):
                        bad = with_cell(ring, table, (x, y), value)
                        assert core._proof(bad) == _old_phases(bad), bad.label
                        agrees_with_cubic(bad)


def _closing_step_ring():
    """Z2 x Z4, (u, v) at 4u + v, with the product (u, v)(u', v') = (0, uv'):
    left additive, and right additive on every walk edge and generator pair,
    but not on the closing step g + g = 0 of the generator g = (1, 0), as
    u(g) + u(g) = 2 in Z4."""
    z2z4 = corpus_ring("Z2xZ4")
    mul = [[(x >> 2) * (a & 3) % 4 for a in range(8)] for x in range(8)]
    return rl.FiniteRing(8, z2z4.add_table, mul, z2z4.neg_table, label="Z2xZ4 with uv'",
                         validate=False)


def test_the_chain_steps_carry_the_right_law_past_the_walk():
    ring = _closing_step_ring()
    G, tree = _generator_tree(ring.add_table, 0)
    assert G == [1, 4] and core._chain_edges(ring.add_table, G, tree) == [(0, 3, 1), (0, 4, 4)]
    # (4 + 4)1 = 0, but 4*1 + 4*1 = 2: the right law fails only on (0, 4, 4)
    assert ring.mul(ring.add(4, 4), 1) == 0 and ring.add(ring.mul(4, 1), ring.mul(4, 1)) == 2
    assert core._proof(ring) == _old_phases(ring) == 2
    agrees_with_cubic(ring)


def _max_monoid_ring():
    """Z2 x ({0, 1}, max), (a, b) at 2a + b, with the zero product: + is
    associative and commutative with the identity 0, but (0, 1) = 1 has no
    inverse."""
    add = [[2 * ((x ^ y) >> 1) + ((x | y) & 1) for y in range(4)] for x in range(4)]
    return rl.FiniteRing(4, add, [[0] * 4] * 4, [0, 1, 2, 3], label="Z2 x ({0, 1}, max)",
                         validate=False)


def test_a_monoid_that_is_no_group_fails_phase_1():
    ring = _max_monoid_ring()
    assert _generator_tree(ring.add_table, 0)[0] == [1, 2]
    assert _old_phases(ring) == 4  # the old sequence held up to the negation
    assert core._chain_edges(ring.add_table, [1, 2], _generator_tree(ring.add_table, 0)[1]) is None
    assert core._proof(ring) == 1  # 1, 1 + 1 = 1, ... never reaches 0
    assert str(rl.validate_axioms(ring)) == str(_validate_cubic(ring)) == "add-negation fails at (1)"


_AXIOM_REPORTS = Path(__file__).parent / "golden" / "axiom_reports.txt"


def _golden_axiom_rings():
    """The rings of the golden axiom reports: every one-cell corruption
    (value + 1 mod n) of the add, mul and neg tables of Z4 and T2(Z2), an
    out-of-range cell in each table of Z4, Z4 given the wrong zero 1 and the
    wrong unity 3, the zero-product ring on Z4, which is not unital, as it
    is and with each of its product cells corrupted, the zero-product ring
    on Z128 with one product cell corrupted, the products of
    _ONE_IDENTITY_BROKEN, and the ring of 2 x 2 matrices [[a, b], [0, 0]]
    over Z2 (a + b at 2a + b) given its left unity [[1, 0], [0, 0]], which
    is no right unity."""
    for name in ("Z4", "T2(Z2)"):
        ring = corpus_ring(name)
        n = ring.order
        for table, op in (("add", ring.add), ("mul", ring.mul)):
            for x, y in itertools.product(range(n), repeat=2):
                yield with_cell(ring, table, (x, y), (op(x, y) + 1) % n)
        for x in range(n):
            yield with_cell(ring, "neg", (x, x), (ring.neg(x) + 1) % n)
    z4 = corpus_ring("Z4")
    for table in ("add", "mul", "neg"):
        yield with_cell(z4, table, (3, 2), 4)
    yield rl.FiniteRing(4, z4.add_table, z4.mul_table, z4.neg_table, zero=1, one=1,
                        label="Z4 with zero 1", validate=False)
    yield rl.FiniteRing(4, z4.add_table, z4.mul_table, z4.neg_table, one=3,
                        label="Z4 with unity 3", validate=False)
    zero_product = rl.FiniteRing(4, z4.add_table, [[0] * 4] * 4, z4.neg_table,
                                 label="Z4 with zero product", validate=False)
    yield zero_product
    for x, y in itertools.product(range(4), repeat=2):
        yield with_cell(zero_product, "mul", (x, y), 1)
    # its first failure lies in the last row block of the cubic reporter
    z128 = rl.zn_ring(128)
    yield rl.FiniteRing(128, z128.add_table, [[0] * 127 + [127 == x] for x in range(128)],
                        z128.neg_table, label="Z128 with zero product but 127 * 127 = 1",
                        validate=False)
    group = corpus_ring("Z2xZ2")
    for mul, axiom in _ONE_IDENTITY_BROKEN:
        yield rl.FiniteRing(4, group.add_table, mul, group.neg_table,
                            label=f"Z2xZ2 breaking {axiom}", validate=False)
    rows = [[2 * (x >> 1) * (y >> 1) + (x >> 1) * (y & 1) for y in range(4)] for x in range(4)]
    yield rl.FiniteRing(4, group.add_table, rows, group.neg_table, one=2,
                        label="left unity of Z2xZ2", validate=False)


def test_axiom_reports_match_their_golden():
    # the reported axiom and tuple are the validator's contract: these
    # strings are pinned, not only compared with the cubic check
    reports = [f"{ring.label}: {rl.validate_axioms(ring)}" for ring in _golden_axiom_rings()]
    assert reports == _AXIOM_REPORTS.read_text().splitlines()


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "M3(Z2)"])
def test_validation_memory_is_bounded_by_the_chunk(name):
    # a block of _PASS_CELLS compared cells holds one intp gather index per
    # cell, the two gathered sides in the table dtype and their comparison:
    # less than two intp per cell, where a whole (n, |G|, n) index array
    # would take 84 MB for Z2^10
    ring = rl.build_cached(rl.parse_spec(name))
    tracemalloc.start()
    try:
        assert rl.validate_axioms(ring).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * np.dtype(np.intp).itemsize * _PASS_CELLS


def _s3_ring():
    """The symmetric group on 3 points, which has a zero and negatives and
    is associative, but not commutative, with the zero product."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    add = [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]
    neg = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return rl.FiniteRing(6, add, [[0] * 6] * 6, neg, validate=False)


def test_generator_validator_needs_a_commutative_addition():
    assert agrees_with_cubic(_s3_ring()).failure.axiom == "add-commutativity"


def _out_of_range(table):
    ring = corpus_ring("M2(Z2)")
    return with_cell(ring, table, (3, 5), ring.order)


def test_generator_validator_catches_entries_out_of_range():
    for table in ("add", "mul", "neg"):
        report = agrees_with_cubic(_out_of_range(table))
        assert report.failure.axiom == f"{table}-closure"


def _wrong_unity(ring):
    """An unvalidated copy of a tabled ring given the unity 3, which is no
    unity of Z4 or Z1024."""
    return rl.FiniteRing(ring.order, ring.add_table, ring.mul_table, ring.neg_table, one=3,
                         label=f"{ring.label} with unity 3", validate=False)


def _wrong_zero(ring):
    """An unvalidated copy of a tabled ring given the zero 1."""
    return rl.FiniteRing(ring.order, ring.add_table, ring.mul_table, ring.neg_table, zero=1,
                         one=ring.one, label=f"{ring.label} with zero 1", validate=False)


def _wrong_negation(ring):
    """An unvalidated copy of a tabled ring of order at least 8 whose
    negation table sends 5 to 7."""
    return with_cell(ring, "neg", (5, 0), 7)


# (ring, the number of phases of the proof that held, the finders that the
# report then runs): one ring for each phase that can fail
_FAILED_PHASES = [
    (lambda: _out_of_range("add"), 0, ["add-closure"]),
    (_s3_ring, 0, ["add-closure", "mul-closure", "neg-closure", "add-commutativity"]),
    (_loop_ring, 1, ["add-associativity"]),
    (lambda: _one_identity_broken(_ONE_IDENTITY_BROKEN[0][0]), 2,
     ["add-zero", "add-negation", "mul-associativity", "left-distributivity"]),
    (lambda: _one_identity_broken(_ONE_IDENTITY_BROKEN[1][0]), 2,
     ["add-zero", "add-negation", "mul-associativity", "left-distributivity",
      "right-distributivity"]),
    (lambda: _one_identity_broken(_ONE_IDENTITY_BROKEN[2][0]), 3,
     ["add-zero", "add-negation", "mul-associativity"]),
    (lambda: _wrong_unity(rl.zn_ring(4)), 5, ["unity-left"]),
    (lambda: _wrong_zero(rl.zn_ring(8)), 4, ["add-zero"]),
    (lambda: _wrong_negation(rl.zn_ring(8)), 4, ["add-zero", "add-negation"]),
    (_max_monoid_ring, 1, ["add-associativity", "add-zero", "add-negation"]),
]


@pytest.mark.parametrize("make,held,finders", _FAILED_PHASES)
def test_report_runs_the_finders_of_the_axioms_left_unproved(monkeypatch, make, held, finders):
    ring = make()
    assert core._proof(ring) == held
    ran, checks = [], core._axiom_checks
    with monkeypatch.context() as patch:
        patch.setattr(core, "_axiom_checks", lambda ring: [
            (axiom, phase, lambda axiom=axiom, find=find: ran.append(axiom) or find())
            for axiom, phase, find in checks(ring)])
        report = rl.validate_axioms(ring)
    assert ran == finders
    assert report == _validate_cubic(ring)
    assert report.failure.axiom == finders[-1]


def test_a_failing_table_is_reported_without_the_finders_of_proved_axioms(monkeypatch):
    # the proof of this Z1024 holds up to the distributive laws, so of the
    # four cubic finders only that of mul-associativity runs: the one of
    # add-associativity alone would walk all 2^30 cells
    z1024 = rl.zn_ring(1024)
    ring = with_cell(z1024, "mul", (3, 5), z1024.mul(3, 5) + 1)
    calls, first_mismatch = [], core._first_mismatch
    monkeypatch.setattr(core, "_first_mismatch",
                        lambda *args: calls.append(args) or first_mismatch(*args))
    assert str(rl.validate_axioms(ring)) == "mul-associativity fails at (2, 3, 5)"
    assert len(calls) == 1


@pytest.mark.parametrize("make,line", [(_wrong_zero, "add-zero fails at (0)"),
                                       (_wrong_negation, "add-negation fails at (5)")])
def test_a_wrong_zero_or_negation_is_reported_without_a_cubic_finder(monkeypatch, make, line):
    # the proof takes the identity of + off the add table and checks the
    # zero and negation after the phases that use it, so a wrong zero or
    # negation of this Z1024 runs none of the four cubic finders
    ring = make(rl.zn_ring(1024))
    calls, first_mismatch = [], core._first_mismatch
    monkeypatch.setattr(core, "_first_mismatch",
                        lambda *args: calls.append(args) or first_mismatch(*args))
    assert str(rl.validate_axioms(ring)) == line
    assert calls == []


def test_a_wrong_unity_is_reported_without_a_cubic_finder(monkeypatch):
    # the unity is the last phase of the proof, which every earlier phase
    # of this Z1024 passes, so none of the four cubic finders runs
    ring = _wrong_unity(rl.zn_ring(1024))
    calls, first_mismatch = [], core._first_mismatch
    monkeypatch.setattr(core, "_first_mismatch",
                        lambda *args: calls.append(args) or first_mismatch(*args))
    assert str(rl.validate_axioms(ring)) == "unity-left fails at (1)"
    assert calls == []


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("name,element", [("zero", 5), ("zero", -1), ("one", 7), ("one", -1)])
def test_zero_and_one_must_be_elements(name, element, validate):
    z4 = corpus_ring("Z4")
    with pytest.raises(ValueError, match=f"^{name} {element} is not an element"):
        rl.FiniteRing(4, z4.add_table, z4.mul_table, z4.neg_table, validate=validate,
                      **{name: element})


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
    assert not set(cell) & set(_generator_tree(ring.add_table, ring.zero)[0])
    x, y = cell
    current = {"mul": ring.mul(x, y), "add-sym": ring.add(x, y), "neg": ring.neg(x)}[table]
    report = agrees_with_cubic(with_cell(ring, table, cell, (current + 1) % ring.order))
    assert not report.ok


@pytest.mark.parametrize("name", [str(spec) for spec in rl.DEFAULT_CORPUS] + [
    "M3(Z2)", "T2(Z7)", "Triv(Z17)", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"])
def test_additive_generators_generate_by_left_bracketed_sums(name):
    ring = rl.build_cached(rl.parse_spec(name))
    gens = _generator_tree(ring.add_table, ring.zero)[0]
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
    assert _generator_tree(corpus_ring("M2(Z3)").add_table, 0)[0] == [1, 3, 9, 27]


def test_additive_generators_give_up_on_a_non_group():
    # 1 + 1 = 1 + 2 = 2 + 2 = 0: from 0, the sums of 1 and 2 reach {0, 1, 2}
    # and 3 would be a third generator of a set of 4
    table = [[0, 1, 2, 3], [1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]]
    assert _generator_tree(table, 0) is None


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


def test_a_label_past_its_bound_prints_the_element_index():
    # element 11 of Z1 x ... x Z1 x Z12 reads (0,...,0,11): 4096 characters
    # with 2046 factors Z1, and 2 more with 2047
    assert core.MAX_LABEL_CHARS == 4096
    at_bound = rl.build(rl.parse_spec("Z1x" * 2046 + "Z12"))
    assert at_bound.element_label(11) == "(" + "0," * 2046 + "11)"
    past = rl.build(rl.parse_spec("Z1x" * 2047 + "Z12"))
    assert past.element_label(11) == "11"


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
    ring = rl.zn_ring(6)
    assert set(ring.cache) == {"add_table", "mul_table", "neg_table"}
    for name in ("add_table", "mul_table"):
        assert ring.cache[name].dtype == np.uint16
        assert ring.cache[name].reshape(6, 6).tolist() == getattr(ring, name).tolist()
    assert ring.cache["neg_table"].tolist() == ring.neg_table.tolist()


def test_list_tables_are_converted_at_construction():
    base = rl.zn_ring(6)
    ring = rl.FiniteRing(6, base.add_table.tolist(), base.mul_table.tolist(),
                         base.neg_table.tolist(), one=1, validate=False)
    assert set(ring.cache) == {"add_table", "mul_table", "neg_table"}
    for name in ("add_table", "mul_table", "neg_table"):
        table = getattr(ring, name)
        assert table.dtype == np.uint16 and ring.cache[name].dtype == np.uint16
        assert table.tolist() == getattr(base, name).tolist()
        assert ring.cache[name].tolist() == np.ravel(table).tolist()
    assert table.shape == (6,) and ring.mul_table.shape == (6, 6)
    assert ring.mul_vec(np.array([2, 3]), np.array([3, 5])).tolist() == [0, 3]
    with pytest.raises(ValueError, match="6x6"):
        rl.FiniteRing(6, base.add_table.tolist()[:5], base.mul_table, base.neg_table)


def test_tables_reject_writes():
    given = rl.zn_ring(6).mul_table.copy()
    for ring in (rl.zn_ring(6), corpus_ring("M2(Z2)"),
                 rl.FiniteRing(6, given, given, given[0], validate=False)):
        for name in ("add_table", "mul_table", "neg_table"):
            for table in (getattr(ring, name), ring.cache[name]):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 1
                assert not table.flags.writeable
    given[0, 0] = 5  # the ring holds a copy of a given array
    assert ring.mul_table[0, 0] == 0


def test_scalar_ops_make_list_rows_on_first_use():
    ring = rl.zn_ring(6)
    assert list_rows(ring) == set()
    mul = ring.mul  # taken before the first call, as callers that hoist it do
    assert mul(2, 5) == 4 and type(mul(2, 5)) is int and ring.mul is mul
    assert op_rows(ring, "mul") == ring.mul_table.tolist()
    assert ring.mul(2, 5) == 4 and list_rows(ring) == {"mul"}
    assert ring.sub(1, 2) == 5 and list_rows(ring) == {"add", "mul"}
    assert op_rows(ring, "neg") == ring.neg_table.tolist()
    for fresh in (ring, rl.zn_ring(6)):  # out of range before and after the rows
        with pytest.raises(IndexError):
            fresh.add(6, 0)
    lazy = rl.FiniteRing(6, lambda a, b: (a + b) % 6, lambda a, b: (a * b) % 6,
                         lambda a: -a % 6, one=1, table_cap=0)
    assert lazy.mul(2, 5) == 4 and lazy.sub(1, 2) == 5


def test_tabled_vector_ops_match_scalar_on_all_pairs(corpus):
    for name, ring in corpus.items():
        assert ring.mul_table is not None, name
        assert vector_mismatches(ring, *all_pairs(ring.order)) == [], name


def test_list_rows_match_the_vector_ops():
    """The scalar ops of fresh tabled rings, read from list rows made on
    first use, equal the vector ops, which gather from the flat tables."""
    z8 = rl.build(rl.Zn(8))
    m3 = rl.build(rl.parse_spec("M3(Z2)"))
    specs = [str(s) for s in rl.DEFAULT_CORPUS] + [
        "Op(T2(Z4))", "Ideal(T2(Z4),3)", "Quot(M2(Z4),130)", "Triv(Z17)", "M2(Z5)"]
    rings = [rl.build(rl.parse_spec(s)) for s in specs] + [
        rl.subring(z8, (0, 2, 4, 6)),
        rl.quotient(z8, rl.ideal_generated(z8, (4,)))[0],
        rl.opposite(m3)]
    assert list_rows(m3) == set()  # Op left them unmade
    for ring in rings:
        assert ring.mul_table is not None, ring.label
        assert list_rows(ring) == set(), ring.label
        pairs = all_pairs(ring.order) if ring.order <= 256 else sample_pairs(ring.order)
        assert vector_mismatches(ring, *pairs) == [], ring.label
        assert op_rows(ring, "mul") == ring.mul_table.tolist(), ring.label


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


# --- table cores ---------------------------------------------------------------------


def _given(ring, **kwargs):
    """A ring given the tables of ring, with its zero and unity unless kwargs
    name others."""
    return rl.FiniteRing(ring.order, ring.add_table, ring.mul_table, ring.neg_table,
                         **{"zero": ring.zero, "one": ring.one, **kwargs})


def test_rings_given_equal_tables_share_one_proved_core():
    z4 = rl.zn_ring(4)
    with fresh_build_cache(), mock.patch.object(core, "_proof", wraps=core._proof) as proof:
        first = _given(z4)
        second = rl.FiniteRing(4, z4.add_table.tolist(), z4.mul_table.tolist(),
                               z4.neg_table.tolist(), one=1)
        assert proof.call_count == 1 and first.validated and second.validated
        for name in ("add_table", "mul_table", "neg_table"):
            assert getattr(second, name) is getattr(first, name)
            assert np.shares_memory(second.cache[name], first.cache[name])
        assert second.shared is first.shared is not first.cache
        # filled from closures, or unvalidated: never registered nor shared
        assert z4.shared is z4.cache and z4.mul_table is not first.mul_table
        unproved = _given(z4, validate=False)
        assert unproved.mul_table is not first.mul_table and unproved.shared is unproved.cache
        assert len(core._CORES) == 1 and proof.call_count == 1
    # list rows are each ring's own; scans, searches and verdicts are made once
    assert first.mul(2, 3) == 2 and list_rows(first) == {"mul"} and list_rows(second) == set()
    assert st.idempotents(second) is st.idempotents(first)
    assert dc.wncl_witness(second, 3) is dc.wncl_witness(first, 3)
    assert dc.ring_weakly_nil_clean(first) and ("ring_verdict", "wncl") in second.shared


def test_equal_tables_with_another_zero_or_unity_are_proved_apart():
    z4 = rl.zn_ring(4)
    with fresh_build_cache(), mock.patch.object(core, "_proof", wraps=core._proof) as proof:
        unital, plain = _given(z4), _given(z4, one=None)
        assert proof.call_count == 2 and plain.shared is not unital.shared
        assert plain.mul_table is not unital.mul_table and not plain.unital
        for wrong in ({"zero": 1}, {"one": 3}):
            with pytest.raises(rl.RingLabError, match="axioms violated"):
                _given(z4, **wrong)
        assert proof.call_count == 4 and len(core._CORES) == 2


def test_the_core_registry_keeps_no_ring_alive():
    z4 = rl.zn_ring(4)
    with fresh_build_cache(), mock.patch.object(core, "_proof", wraps=core._proof) as proof:
        first, second = _given(z4), _given(z4)
        st.idempotents(first)
        gone = weakref.ref(first.shared)
        assert proof.call_count == 1
        proof.reset_mock()  # the mock's own record of calls holds the ring
        del first, second
        gc.collect()
        assert gone() is None and len(core._CORES) == 0
        assert _given(z4).validated and proof.call_count == 1
