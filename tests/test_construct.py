"""Ring constructors, spec algebra, digit packing, and the order cap."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import ringlab as rl
from ringlab import construct as ct
from ringlab import core, harness as hn, structure as st

import oracles
from conftest import (all_pairs, assert_index_inverts_members, fresh_build_cache,
                      lazy_rings, list_rows, sample_pairs, vector_mismatches)


# --- digit packing ------------------------------------------------------------


def test_pack_unpack_round_trip():
    radices = (2, 3, 4)
    for i in range(2 * 3 * 4):
        digits = rl.unpack_digits(radices, i)
        assert all(0 <= d < r for d, r in zip(digits, radices))
        assert rl.pack_digits(radices, digits) == i


def test_ring_pack_unpack(corpus):
    m2 = corpus["M2(Z2)"]
    for i in range(m2.order):
        assert rl.ring_pack(m2, rl.ring_unpack(m2, i)) == i
    assert rl.ring_unpack(m2, m2.one) == [1, 0, 0, 1]


# --- concrete constructors against independent arithmetic ----------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
def test_zn_ring_arithmetic(n):
    ring = rl.zn_ring(n)
    assert ring.order == n
    assert ring.unital
    assert ring.one == 1 % n
    for a in range(n):
        assert ring.neg(a) == (-a) % n
        for b in range(n):
            assert ring.add(a, b) == (a + b) % n
            assert ring.mul(a, b) == (a * b) % n


def test_product_ring_componentwise():
    ring = rl.build(rl.product((rl.Zn(2), rl.Zn(4))))
    assert ring.order == 8
    # first component slowest: index = d0 * 4 + d1
    for i in range(8):
        for j in range(8):
            a0, a1 = divmod(i, 4)
            b0, b1 = divmod(j, 4)
            assert ring.mul(i, j) == ((a0 * b0) % 2) * 4 + (a1 * b1) % 4
            assert ring.add(i, j) == ((a0 + b0) % 2) * 4 + (a1 + b1) % 4
    assert ring.one == 1 * 4 + 1


def test_product_flattens_and_unwraps():
    nested = rl.product((rl.Zn(2), rl.product((rl.Zn(3), rl.Zn(5)))))
    assert nested == rl.Product((rl.Zn(2), rl.Zn(3), rl.Zn(5)))
    assert rl.product((rl.Zn(7),)) == rl.Zn(7)
    with pytest.raises(ValueError):
        rl.product(())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_ring_2x2(n):
    ring = rl.matrix_ring(rl.zn_ring(n), 2)
    assert ring.order == n ** 4
    step = max(1, ring.order // 37)
    for i in range(0, ring.order, step):
        A = tuple(rl.ring_unpack(ring, i))
        for j in range(0, ring.order, step + 1):
            B = tuple(rl.ring_unpack(ring, j))
            assert tuple(rl.ring_unpack(ring, ring.mul(i, j))) == oracles.mat_mul(A, B, n)
            assert tuple(rl.ring_unpack(ring, ring.add(i, j))) == oracles.mat_add(A, B, n)
        assert tuple(rl.ring_unpack(ring, ring.neg(i))) == oracles.mat_neg(A, n)
    assert rl.ring_unpack(ring, ring.one) == [1, 0, 0, 1]


def test_matrix_ring_3x3_is_a_ring():
    ring = rl.matrix_ring(rl.zn_ring(2), 3)
    assert ring.order == 512
    assert rl.validate_axioms(ring).ok
    assert rl.ring_unpack(ring, ring.one) == [1, 0, 0, 0, 1, 0, 0, 0, 1]


M2_BASES = ("Z6", "Z8", "Z12", "Z16", "Z2xZ4", "T2(Z2)", "M2(Z2)", "Z4[x]/(x^2)")


def _m2_reference_mismatches(ring):
    """Names of the operations of a 2x2 matrix ring, scalar and vector, that
    differ from oracles.mat2_ops over its base's scalar operations, on
    sample pairs and on all pairs of end elements."""
    base = ring.meta["base"]
    add, mul, neg = oracles.mat2_ops(base.order, base.add, base.mul, base.neg)
    n = ring.order
    ends = [0, 1, 2, n - 2, n - 1]
    xs, ys = (side.tolist() for side in sample_pairs(n))
    xs += [x for x in ends for _ in ends]
    ys += ends * len(ends)
    got = {
        "add": [ring.add(x, y) for x, y in zip(xs, ys)],
        "mul": [ring.mul(x, y) for x, y in zip(xs, ys)],
        "neg": [ring.neg(x) for x in xs],
        "add_vec": ring.add_vec(np.array(xs), np.array(ys)).tolist(),
        "mul_vec": ring.mul_vec(np.array(xs), np.array(ys)).tolist(),
        "neg_vec": ring.neg_vec(np.array(xs)).tolist(),
    }
    expected = {"add": [add(x, y) for x, y in zip(xs, ys)],
                "mul": [mul(x, y) for x, y in zip(xs, ys)],
                "neg": [neg(x) for x in xs]}
    return [name for name in got if got[name] != expected[name.removesuffix("_vec")]]


@pytest.mark.parametrize("base", M2_BASES)
def test_m2_ops_match_the_matrix_reference(base):
    ring = rl.build(rl.parse_spec(f"M2({base})"))
    assert ring.mul_table is None  # lazy, so its own ops serve every call
    assert _m2_reference_mismatches(ring) == []


@pytest.mark.parametrize("base", ["Z3", "Z6", "T2(Z2)", "Z2xZ4"])
def test_m2_ops_over_a_lazy_base_match_the_matrix_reference(base):
    with lazy_rings():
        ring = rl.build(rl.parse_spec(f"M2({base})"))
    assert ring.mul_table is None and ring.meta["base"].mul_table is None
    assert _m2_reference_mismatches(ring) == []


def test_m2_scalar_ops_make_their_lists_on_first_call():
    def made(op):
        return [type(d) is list for d in op.__defaults__]

    ring = rl.build(rl.parse_spec("M2(Z8)"))
    rl.classify(ring)  # array scans only
    assert [made(ring.add), made(ring.mul), made(ring.neg)] == [[False], [False] * 4, [False]]
    mul = ring.mul  # taken before the first call, as callers that hoist it do
    x = rl.ring_pack(ring, [1, 2, 3, 4])
    y = rl.ring_pack(ring, [5, 6, 7, 0])
    assert rl.ring_unpack(ring, mul(x, y)) == [3, 6, 3, 2] and ring.mul is mul
    assert made(ring.mul) == [True] * 4 and made(ring.add) == made(ring.neg) == [False]
    assert rl.ring_unpack(ring, ring.sub(x, y)) == [4, 4, 4, 4]
    assert made(ring.add) == made(ring.neg) == [True]


@pytest.mark.parametrize("n", [2, 4])
def test_triangular_ring_2x2(n):
    ring = rl.triangular_ring(rl.zn_ring(n), 2)
    assert ring.order == n ** 3
    for i in range(ring.order):
        X = tuple(rl.ring_unpack(ring, i))
        for j in range(ring.order):
            Y = tuple(rl.ring_unpack(ring, j))
            assert tuple(rl.ring_unpack(ring, ring.mul(i, j))) == oracles.tri_mul(X, Y, n)
            assert tuple(rl.ring_unpack(ring, ring.add(i, j))) == oracles.tri_add(X, Y, n)
    assert rl.ring_unpack(ring, ring.one) == [1, 0, 1]


def test_poly_mod_ring_convolution():
    ring = rl.poly_mod_ring(rl.zn_ring(4), 2)
    assert ring.order == 16
    for i in range(16):
        a0, a1 = rl.ring_unpack(ring, i)
        for j in range(16):
            b0, b1 = rl.ring_unpack(ring, j)
            expect = [(a0 * b0) % 4, (a0 * b1 + a1 * b0) % 4]
            assert rl.ring_unpack(ring, ring.mul(i, j)) == expect
    # x is nilpotent of index 2
    x = rl.ring_pack(ring, (0, 1))
    assert ring.mul(x, x) == 0
    assert ring.element_label(rl.ring_pack(ring, (2, 3))) == "2+3x"


def test_trivial_ext_multiplication():
    base = rl.zn_ring(3)
    ring = rl.trivial_ext_ring(base)
    assert ring.order == 9
    for i in range(9):
        a, x = divmod(i, 3)
        for j in range(9):
            b, y = divmod(j, 3)
            expect = ((a * b) % 3) * 3 + (a * y + x * b) % 3
            assert ring.mul(i, j) == expect
    # the module part squares to zero
    for x in range(1, 3):
        assert ring.mul(x, x) == 0


# (spec, {element: label}): a few elements and the unity of each digit
# constructor, over Zn bases and over a non-Zn base
DIGIT_LABELS = [
    ("Z2xZ3xZ4", {17: "(1,1,1)", 1: "(0,0,1)", 13: "(1,0,1)", 23: "(1,2,3)"}),
    ("M2(Z3)", {28: "[[1,0],[0,1]]", 1: "[[0,0],[0,1]]", 41: "[[1,1],[1,2]]",
                80: "[[2,2],[2,2]]"}),
    ("M3(Z2)", {273: "[[1,0,0],[0,1,0],[0,0,1]]", 1: "[[0,0,0],[0,0,0],[0,0,1]]",
                257: "[[1,0,0],[0,0,0],[0,0,1]]", 511: "[[1,1,1],[1,1,1],[1,1,1]]"}),
    ("T2(Z4)", {17: "[[1,0],[0,1]]", 1: "[[0,0],[0,1]]", 33: "[[2,0],[0,1]]",
                63: "[[3,3],[0,3]]"}),
    ("T3(Z3)", {253: "[[1,0,0],[0,1,0],[0,0,1]]", 1: "[[0,0,0],[0,0,0],[0,0,1]]",
                365: "[[1,1,1],[0,1,1],[0,0,2]]", 728: "[[2,2,2],[0,2,2],[0,0,2]]"}),
    ("Z4[x]/(x^3)", {16: "1", 0: "0", 1: "x^2", 33: "2+x^2", 63: "3+3x+3x^2"}),
    ("T2(Z2)[x]/(x^2)", {40: "poly([[1,0],[0,1]],[[0,0],[0,0]])",
                         1: "poly([[0,0],[0,0]],[[0,0],[0,1]])",
                         63: "poly([[1,1],[0,1]],[[1,1],[0,1]])"}),
    ("Triv(Z4)", {4: "(1|0)", 1: "(0|1)", 9: "(2|1)", 15: "(3|3)"}),
    ("Triv(T2(Z2))", {40: "([[1,0],[0,1]]|[[0,0],[0,0]])",
                      33: "([[1,0],[0,0]]|[[0,0],[0,1]])"}),
]


@pytest.mark.parametrize("lazy", [False, True], ids=["tabled", "lazy"])
@pytest.mark.parametrize("text,labels", DIGIT_LABELS, ids=[t for t, _ in DIGIT_LABELS])
def test_digit_ring_labels_and_unity(text, labels, lazy):
    if lazy:
        with lazy_rings():
            ring = rl.build(rl.parse_spec(text))
        assert ring.mul_table is None
    else:
        ring = rl.build(rl.parse_spec(text))
    assert ring.one == next(iter(labels))
    assert {i: ring.element_label(i) for i in labels} == labels


def test_opposite_reverses_multiplication(corpus):
    t2 = corpus["T2(Z2)"]
    op = rl.opposite(t2)
    for a in range(t2.order):
        for b in range(t2.order):
            assert op.mul(a, b) == t2.mul(b, a)
            assert op.add(a, b) == t2.add(a, b)
    opop = rl.opposite(op)
    assert opop.mul_table.tolist() == t2.mul_table.tolist()
    assert rl.validate_axioms(op).ok


def test_subring_rejects_unclosed_subsets():
    z6 = rl.zn_ring(6)
    with pytest.raises(ValueError):
        rl.subring(z6, [0, 1])  # 1+1=2 missing
    with pytest.raises(ValueError):
        rl.subring(z6, [2, 4])  # zero missing
    sub = rl.subring(z6, [0, 2, 4])
    assert sub.order == 3
    assert sub.members == (0, 2, 4)
    assert not sub.unital  # no unity designated, none detected by default


def test_ideal_subring_detects_unity():
    z6 = rl.zn_ring(6)
    sub = rl.ideal_subring(z6, [0, 3])
    assert sub.unital
    assert sub.members[sub.one] == 3  # 3*3 = 3 in Z6


def test_corner_ring_at_unity_is_parent(corpus):
    m2 = corpus["M2(Z2)"]
    assert rl.corner_ring(m2, m2.one) is m2


def test_built_corner_at_unity_is_a_new_ring():
    spec = rl.parse_spec("Corner(Z4,1)")
    first, second = rl.build(spec), rl.build(spec)
    assert first is not second
    assert rl.build_cached(rl.Zn(4)) not in (first, second)
    assert first.spec == spec and first.label == "Corner(Z4,1)"
    assert first.add_table.tolist() == rl.build_cached(rl.Zn(4)).add_table.tolist()
    assert first.mul_table.tolist() == rl.build_cached(rl.Zn(4)).mul_table.tolist()


# one spec of every node kind but Quot, whose label names the ideal's size,
# over a nested and over a product base
@pytest.mark.parametrize("text", [
    "Z4", "Z2xT2(Z2)", "M2(Z2xZ2)", "M2(T2(Z2))", "T2(Z2xZ3)", "T2(Op(Z2))",
    "(Z2xZ3)[x]/(x^2)", "T2(Z2)[x]/(x^2)", "Triv(Z2xZ2)", "Triv(M2(Z2))", "Op(Z2xZ3)",
    "Op(T2(Z3))", "Corner(Z2xZ4,1)", "Corner(T2(Z2),4)", "Ideal(Z2xZ4,2)", "Ideal(T2(Z4),4)",
])
def test_labels_follow_the_spec_templates(text):
    spec = rl.parse_spec(text)
    assert str(spec) == text
    assert rl.build(spec).label == text


def test_corner_ring_of_matrix_unit(corpus):
    m2 = corpus["M2(Z2)"]
    e11 = rl.ring_pack(m2, (1, 0, 0, 0))
    corner = rl.corner_ring(m2, e11)
    assert corner.order == 2
    assert corner.members[corner.one] == e11
    with pytest.raises(ValueError):
        rl.corner_ring(m2, rl.ring_pack(m2, (0, 1, 0, 0)))  # not idempotent


def _scalar_corner(parent, e):
    """Members of e*R*e from scalar products, or the SpecError message."""
    if not 0 <= e < parent.order:
        return f"element {e} out of range"
    mul = parent.mul
    if mul(e, e) != e:
        return f"corner needs an idempotent, {e} is not one"
    return tuple(sorted({mul(mul(e, r), e) for r in range(parent.order)}))


def _corner_outcome(parent, e):
    try:
        corner = rl.corner_ring(parent, e)
    except rl.SpecError as exc:
        return str(exc)
    if corner is parent:
        return tuple(range(parent.order))
    assert_index_inverts_members(corner)
    return corner.members


def test_corner_ring_matches_scalar_products(corpus):
    for ring in corpus.values():
        for e in (-1, *range(ring.order + 1)):
            assert _corner_outcome(ring, e) == _scalar_corner(ring, e), (ring.label, e)
    m3 = rl.build(rl.Matrix(3, rl.Zn(2)))
    for e in rl.idempotents(m3) + (2, 3, 257, 511):
        assert _corner_outcome(m3, e) == _scalar_corner(m3, e), e
    with lazy_rings():
        lazy = [rl.build(rl.parse_spec(s)) for s in ("M2(Z2)", "T2(Z3)", "Triv(Z4)")]
    for ring in lazy:
        for e in range(ring.order):
            assert _corner_outcome(ring, e) == _scalar_corner(ring, e), (ring.label, e)


def test_corner_ring_makes_no_list_rows_in_its_parent():
    m3 = rl.build(rl.Matrix(3, rl.Zn(2)))
    assert rl.corner_ring(m3, 256).order == 2
    with pytest.raises(rl.SpecError):
        rl.corner_ring(m3, 2)  # a matrix unit off the diagonal
    assert list_rows(m3) == set()


def test_quotient_projection_is_homomorphism():
    z12 = rl.zn_ring(12)
    ideal = rl.ideal_generated(z12, (4,))
    q, proj = rl.quotient(z12, ideal)
    assert q.order == 4
    for a in range(12):
        for b in range(12):
            assert proj[z12.add(a, b)] == q.add(proj[a], proj[b])
            assert proj[z12.mul(a, b)] == q.mul(proj[a], proj[b])
    assert q.one == proj[1]
    assert q.reps == (0, 1, 2, 3)


def _scalar_cosets(ring, members):
    """(reps, projection) of ring / I by scalar adds: each coset is numbered
    in the order of its smallest element."""
    proj = [-1] * ring.order
    reps = []
    for x in range(ring.order):
        if proj[x] < 0:
            reps.append(x)
            for i in members:
                proj[ring.add(x, i)] = len(reps) - 1
    return reps, proj


def test_quotient_cosets_match_the_scalar_numbering(corpus):
    with lazy_rings():
        lazy = [rl.build(rl.parse_spec(s)) for s in ("M2(Z2)", "T2(Z3)", "Triv(Z4)")]
    for ring in [r for r in corpus.values() if r.order <= 64] + lazy:
        for x in range(ring.order):
            ideal = rl.ideal_generated(ring, (x,))
            q, proj = rl.quotient(ring, ideal)
            reps, expected = _scalar_cosets(ring, ideal.members)
            assert (list(q.reps), proj) == (reps, expected), (ring.label, x)
            assert q.projection == tuple(expected)


def test_quotient_reads_its_parent_in_row_blocks(monkeypatch):
    # blocks of 8 rows of M2(Z3): the cosets do not depend on the block size
    m2 = rl.build(rl.parse_spec("M2(Z3)"))
    ideal = rl.ideal_generated(m2, (1,))
    whole = rl.quotient(m2, ideal)[1]
    monkeypatch.setattr(core, "_PASS_CELLS", 8 * m2.order)
    with mock.patch.object(m2, "add_vec", wraps=m2.add_vec) as add:
        assert rl.quotient(m2, ideal)[1] == whole
    assert add.call_count == m2.order // 8 + 1 + 1  # row blocks, then the table


def test_quotient_makes_no_list_rows_in_its_parent():
    ring = rl.build(rl.parse_spec("Z2[x]/(x^10)"))
    ideal = rl.ideal_generated(ring, (2,))
    assert rl.quotient(ring, ideal)[0].order == ring.order // len(ideal.members) == 256
    assert list_rows(ring) == set()


# --- spec algebra ---------------------------------------------------------------


def test_spec_order_matches_built_order(corpus):
    for name, ring in corpus.items():
        known = rl.spec_order(ring.spec)
        if known is not None:
            assert known == ring.order, name
    assert rl.spec_order(rl.IdealRing(rl.Zn(4), (2,))) is None
    assert rl.spec_order(rl.Matrix(2, rl.Zn(3))) == 81
    assert rl.spec_order(rl.Opposite(rl.Zn(5))) == 5


def test_spec_str_forms():
    assert str(rl.Zn(8)) == "Z8"
    assert str(rl.Product((rl.Zn(2), rl.Zn(4)))) == "Z2xZ4"
    assert str(rl.Matrix(2, rl.Zn(2))) == "M2(Z2)"
    assert str(rl.Triangular(2, rl.Zn(4))) == "T2(Z4)"
    assert str(rl.PolyMod(rl.Zn(2), 2)) == "Z2[x]/(x^2)"
    assert str(rl.TrivialExt(rl.Zn(2))) == "Triv(Z2)"
    assert str(rl.Quotient(rl.Zn(8), (4,))) == "Quot(Z8,4)"
    assert str(rl.IdealRing(rl.Zn(4), (2,))) == "Ideal(Z4,2)"
    assert str(rl.Corner(rl.Matrix(2, rl.Zn(2)), 8)) == "Corner(M2(Z2),8)"


def test_build_every_spec_node():
    q = rl.build(rl.Quotient(rl.Zn(8), (4,)))
    assert q.order == 4
    ideal = rl.build(rl.IdealRing(rl.Zn(4), (2,)))
    assert ideal.order == 2
    assert not ideal.unital
    corner = rl.build(rl.Corner(rl.Matrix(2, rl.Zn(2)), 8))
    assert corner.order == 2
    op = rl.build(rl.Opposite(rl.Triangular(2, rl.Zn(2))))
    assert op.order == 8
    with pytest.raises(ValueError):
        rl.build(rl.Quotient(rl.Zn(4), (9,)))  # generator out of range


def test_build_cached_returns_same_object():
    a = rl.build_cached(rl.Zn(6))
    b = rl.build_cached(rl.Zn(6))
    assert a is b
    c = rl.build(rl.Zn(6))
    assert c is not a


def _bases(ring):
    return ring.meta.get("bases") or (ring.meta["base"],)


@pytest.mark.parametrize("text,bases", [
    ("M2(Z3)", ["Z3"]),
    ("Z2xZ4", ["Z2", "Z4"]),
    ("Ideal(Z4,2)", ["Z4"]),
    ("Op(T2(Z2))", ["Z2", "T2(Z2)"]),
])
def test_nested_builds_validate_each_base_once(text, bases):
    # an ideal ring and the opposite of a tabled ring are given tables: the
    # second build shares the first's table core, unproved
    given = text in ("Ideal(Z4,2)", "Op(T2(Z2))")
    spec = rl.parse_spec(text)

    def validated():
        labels = [call.args[0].label for call in validate.call_args_list]
        validate.reset_mock()
        return labels

    with fresh_build_cache(), \
            mock.patch("ringlab.core.validate_axioms", wraps=rl.validate_axioms) as validate:
        first = rl.build(spec)
        assert validated() == [*bases, text]
        second = rl.build(spec)
        assert validated() == ([] if given else [text])
    assert first is not second
    assert first.validated and second.validated
    assert (second.mul_table is first.mul_table) == (second.shared is first.shared) == given
    assert all(a is b for a, b in zip(_bases(first), _bases(second), strict=True))


@pytest.mark.parametrize("text,max_order,error,message", [
    ("M2(Quot(Z4,9))", None, ValueError, "generator 9 out of range for Z4"),
    ("Corner(M2(Z4),65)", 100, rl.OrderCapError, "M2(Z4) has order 256, over the cap 100"),
])
def test_a_failed_base_build_fails_again(text, max_order, error, message):
    spec = rl.parse_spec(text)
    with fresh_build_cache():
        for _ in range(2):
            with pytest.raises(error) as exc:
                rl.build(spec, max_order=max_order)
            assert str(exc.value) == message


# --- order cap -------------------------------------------------------------------


def test_default_cap_enforced():
    with pytest.raises(rl.OrderCapError):
        rl.build(rl.Zn(65537))
    # exactly at the cap is fine to request (spec check passes before tables)
    assert rl.spec_order(rl.Matrix(2, rl.Matrix(2, rl.Zn(2)))) == 65536


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "64")
    assert rl.resolve_max_order() == 64
    with pytest.raises(rl.OrderCapError):
        rl.build(rl.Zn(65))
    assert rl.build(rl.Zn(64)).order == 64
    # an explicit argument wins over the environment
    assert rl.build(rl.Zn(100), max_order=128).order == 100


def test_env_cap_invalid(monkeypatch):
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "lots")
    with pytest.raises(rl.RingLabError):
        rl.resolve_max_order()


def test_cap_applies_to_intermediate_rings(monkeypatch):
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "100")
    with pytest.raises(rl.OrderCapError):
        rl.build(rl.Corner(rl.Matrix(2, rl.Zn(4)), 65))


def _z2_power(k):
    return "x".join(["Z2"] * k)  # above the table cap from k = 11 on, so lazy


@pytest.mark.parametrize("text,order", [
    ("Quot(Triv(Z40),0)", 1600),
    (f"Corner({_z2_power(12)},4094)", 2048),
])
def test_derived_rings_stop_at_the_table_cap(text, order):
    # a subring or quotient is always tabulated, and a table above the cap
    # would go unvalidated
    with pytest.raises(rl.OrderCapError) as exc:
        rl.build(rl.parse_spec(text))
    assert str(exc.value) == f"{text} has order {order}, over the table cap 1024"


def test_derived_rings_without_a_spec_stop_at_the_table_cap():
    ring = rl.build_cached(rl.parse_spec(_z2_power(11)))
    assert rl.center_ring(ring) is ring  # a commutative ring is its own center
    mixed = rl.build_cached(rl.parse_spec("T2(Z2)xZ513"))
    with pytest.raises(rl.OrderCapError) as exc:
        rl.center_ring(mixed)
    assert str(exc.value) == "Center(T2(Z2)xZ513) has order 1026, over the table cap 1024"
    with pytest.raises(rl.OrderCapError) as exc:
        rl.quotient(ring, [0])
    assert str(exc.value) == f"{ring.label}/I1 has order 2048, over the table cap 1024"
    corner = rl.build(rl.parse_spec(f"Corner({_z2_power(11)},2046)"))
    assert (corner.order, corner.validated) == (1024, True)  # at the cap


# --- vector operations ----------------------------------------------------------
#
# Built inside lazy_rings(), a ring keeps its constructor's closures at every
# order, so small rings test them on all pairs; rings above the table cap
# have them anyway and are tested on a fixed sample.

SMALL_VECTOR_SPECS = [
    "Z7", "Z2xZ3", "Z2xZ2xZ3", "M2(Z2)", "M2(Z3)", "T2(Z4)",
    "T3(Z2)", "Z3[x]/(x^3)", "Z2[x]/(x^2)[x]/(x^2)", "Triv(Z5)",
    "Triv(T2(Z2))", "Op(T2(Z2))", "Op(M2(Z2))", "Corner(M2(Z2),8)",
    "Quot(Z8,4)", "Ideal(Z4,2)xZ3",
]


@pytest.mark.parametrize("name", SMALL_VECTOR_SPECS)
def test_constructor_vector_ops_match_scalar(name):
    spec = rl.parse_spec(name)
    with lazy_rings():
        ring = rl.build(spec)
    xs, ys = all_pairs(ring.order) if ring.order <= 81 else sample_pairs(ring.order)
    assert vector_mismatches(ring, xs, ys) == []
    tabled = rl.build_cached(spec)
    assert tabled.mul_table is not None
    assert ring.mul_vec(xs, ys).tolist() == tabled.mul_vec(xs, ys).tolist()
    assert ring.add_vec(xs, ys).tolist() == tabled.add_vec(xs, ys).tolist()


@pytest.mark.parametrize("name", [
    "Z2000", "Z2000xZ3", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "M2(Z6)",
    "M2(T2(Z2))", "M3(Z3)", "T2(Z16)", "T3(Z4)", "Z2[x]/(x^11)", "Triv(Z64)",
    "Op(M2(Z6))", "Ideal(Z4,2)xM2(Z6)", "M2(Z8)", "M2(Z9)", "M2(Z12)", "M2(Z16)",
    "M2(Z2xZ4)", "M2(Z4[x]/(x^2))",
])
def test_lazy_vector_ops_match_scalar_on_a_sample(name):
    ring = rl.build_cached(rl.parse_spec(name))
    assert ring.mul_table is None
    xs, ys = sample_pairs(ring.order)
    assert vector_mismatches(ring, xs, ys) == []
    ends = [0, 1, ring.order - 1]
    assert vector_mismatches(ring, *zip(*[(x, y) for x in ends for y in ends])) == []


@pytest.mark.parametrize("name", ["M2(Z6)", "M2(M2(Z2))", "M2(Z4[x]/(x^2))"])
def test_lazy_matrix_vector_ops_broadcast(name):
    ring = rl.build_cached(rl.parse_spec(name))
    assert ring.mul_table is None
    xs, ys = sample_pairs(ring.order, count=60, seed=3)
    for vec, op in ((ring.mul_vec, ring.mul), (ring.add_vec, ring.add)):
        got = vec(xs[:, None], ys)
        assert got.shape == (60, 60)
        assert got.tolist() == [[op(x, y) for y in ys.tolist()] for x in xs.tolist()]


def _swapped_z2() -> rl.FiniteRing:
    """Z2 with its two elements swapped: its zero is element 1, its one element 0."""
    return rl.FiniteRing(2, [[1, 0], [0, 1]], [[0, 1], [1, 1]], [0, 1], zero=1, one=0)


def test_digit_rings_over_a_base_whose_zero_is_not_element_0():
    b = _swapped_z2()
    rings = [ct.product_ring([b, b]), ct.matrix_ring(b, 2), ct.triangular_ring(b, 2),
             ct.poly_mod_ring(b, 3), ct.trivial_ext_ring(b)]
    for ring in rings:
        assert ring.validated and rl.validate_axioms(ring).ok, ring.label
        # every digit of the zero is the base's zero, element 1
        assert rl.ring_unpack(ring, ring.zero) == [b.zero] * len(ring.meta["unity"])
        assert rl.ring_unpack(ring, ring.one) == [b.one if flag else b.zero
                                                  for flag in ring.meta["unity"]]
    m2 = rings[1]
    assert (m2.zero, m2.one, m2.meta["unity"]) == (15, 6, (True, False, False, True))
    m4 = ct.matrix_ring(b, 4)
    assert m4.mul_table is None and m4.zero == 65535
    xs = np.arange(0, 65536, 97)
    assert all(m4.add(m4.zero, x) == x == m4.add(x, m4.zero) for x in xs.tolist())
    assert m4.add_vec(m4.zero, xs).tolist() == xs.tolist()
    nil = hn.canonical_nil_ideal(rl.Triangular(2, rl.Zn(2)), ct.triangular_ring(b, 2))
    assert nil.members == (5, 7)


def test_digit_ops_over_a_base_whose_zero_is_not_element_0_agree_in_both_forms():
    b = _swapped_z2()
    with lazy_rings():
        rings = [ct.product_ring([b] * 5), ct.triangular_ring(b, 3), ct.poly_mod_ring(b, 4)]
    rings += [ct.product_ring([b] * 11), ct.triangular_ring(b, 5)]  # above the table cap
    for ring in rings:
        assert ring.mul_table is None, ring.label
        xs, ys = sample_pairs(ring.order)
        assert vector_mismatches(ring, xs, ys) == [], ring.label
        assert ring.add_vec(ring.zero, xs).tolist() == xs.tolist(), ring.label


# The 2 x 2 matrix rings gather from their own row-pair tables. A silent
# fallback to the digit-by-digit ops would still pass the differential
# tests, so check that a vector op calls neither the digit unpacking nor the
# base's product.
@pytest.mark.parametrize("name,lazy_base", [
    ("Z2", True), ("Z3", True), ("Z6", False), ("M2(Z2)", False), ("Z4[x]/(x^2)", False)])
def test_matrix_vector_ops_use_the_row_pair_tables(name, lazy_base):
    spec = rl.parse_spec(name)
    if lazy_base:
        with lazy_rings():
            base = rl.build(spec)
    else:
        base = rl.build(spec)
    base_mul = mock.Mock(wraps=base.mul_vec)
    base.mul_vec = base_mul
    with lazy_rings():
        ring = ct.matrix_ring(base, 2)
    assert ring.mul_table is None and base_mul.called
    base_mul.reset_mock()
    xs, ys = sample_pairs(ring.order, count=50)
    with mock.patch.object(ct, "_unpack_vec", wraps=ct._unpack_vec) as unpack:
        ring.mul_vec(xs, ys)
        ring.add_vec(xs, ys)
        ring.neg_vec(xs)
    unpack.assert_not_called()
    base_mul.assert_not_called()


# --- table fill ----------------------------------------------------------------
#
# A ring built from closures fills its tables with its vector operations;
# they must equal the scalar closures of the same spec built without tables,
# on all pairs up to order 256 and on a seeded sample above.

TABLE_FILL_SPECS = [
    "Z7", "Z2xZ3xZ5", "M2(Z3)", "T3(Z2)", "Z3[x]/(x^3)", "Triv(Z5)", "Triv(T2(Z2))",
    "M3(Z2)", "Z2[x]/(x^9)", "T2(Z7)", "Triv(Z17)", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2",
]


@pytest.mark.parametrize("name", TABLE_FILL_SPECS)
def test_filled_tables_match_scalar_closures(name):
    spec = rl.parse_spec(name)
    ring = rl.build(spec)
    with lazy_rings():
        lazy = rl.build(spec)
    assert ring.mul_table is not None and lazy.mul_table is None
    n = ring.order
    xs, ys = all_pairs(n) if n <= 256 else sample_pairs(n)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    add, mul = ring.add_table.tolist(), ring.mul_table.tolist()
    assert [add[x][y] for x, y in pairs] == [lazy.add(x, y) for x, y in pairs]
    assert [mul[x][y] for x, y in pairs] == [lazy.mul(x, y) for x, y in pairs]
    assert ring.neg_table.tolist() == [lazy.neg(x) for x in range(n)]


# --- tables from the digit form ---------------------------------------------------
#
# From order _DIGIT_TABLE_MIN_ORDER a digit ring's tables are read off its
# digit form by row blocks (construct._digit_tables), through a tabulate
# callable that FiniteRing calls only when it makes tables. They must equal
# the fill of the ring's own closures, and no fill runs for them.

DIGIT_TABLE_SPECS = [
    "Z3xZ4xZ11", "Z1xZ8xZ16", "M1(Z256)", "M2(Z4)", "M3(Z2)", "T2(Z6)", "T3(Z3)",
    "Z3[x]/(x^5)", "Triv(Z12)",
    "T2(T2(Z2))", "M2(Z5)", "T2(Z7)", "Triv(Z17)", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2",
]


def _built_with(spec):
    """The ring of spec, built anew on cached bases with core._fill watched:
    the ring, the keyword arguments its constructor gave FiniteRing, a fresh
    tabulate callable made from the same digit form (None if none was made)
    and the fill mock."""
    rl.build_cached(spec)  # its bases
    with mock.patch.object(ct, "FiniteRing", wraps=ct.FiniteRing) as made, \
            mock.patch.object(ct, "_digit_tables", wraps=ct._digit_tables) as tables, \
            mock.patch.object(core, "_fill", wraps=core._fill) as fill:
        ring = ct.build(spec)
    tabulate = ct._digit_tables(*tables.call_args.args) if tables.called else None
    return ring, made.call_args.kwargs, tabulate, fill


def _table_shapes(n):
    return (("add", (n, n)), ("mul", (n, n)), ("neg", (n,)))


@pytest.mark.parametrize("name", DIGIT_TABLE_SPECS)
def test_digit_tables_equal_the_fill_of_the_closures(name):
    ring, kwargs, tabulate, fill = _built_with(rl.parse_spec(name))
    fill.assert_not_called()
    assert ring.order >= ct._DIGIT_TABLE_MIN_ORDER and ring.validated
    dtype = core.index_dtype(ring.order)
    for op, shape in _table_shapes(ring.order):
        filled = core._fill(kwargs[f"{op}_vec"], shape, dtype)
        table = tabulate(op)
        assert table.dtype == dtype and np.array_equal(table, filled), op
        assert np.array_equal(getattr(ring, f"{op}_table"), filled), op


@pytest.mark.parametrize("name", ["M2(Z3)", "T2(Z4)", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_digit_rings_below_the_cut_fill_through_their_closures(name):
    ring, kwargs, _, fill = _built_with(rl.parse_spec(name))
    assert ring.order < ct._DIGIT_TABLE_MIN_ORDER
    assert kwargs["tabulate"] is None and fill.call_count == 3


def test_lazy_digit_rings_never_tabulate():
    calls, tables = [], ct._digit_tables

    def recording(*args):
        tabulate = tables(*args)
        return lambda name: calls.append(name) or tabulate(name)

    names = ("M2(Z5)", "Triv(Z17)", "T2(T2(Z2))")
    with mock.patch.object(ct, "_digit_tables", recording):
        with lazy_rings():
            rings = [rl.build(rl.parse_spec(name)) for name in names]
        assert all(ring.mul_table is None for ring in rings) and calls == []
        assert ct.build(rl.parse_spec("M2(Z5)")).mul_table is not None
    assert calls == ["add", "mul", "neg"]


def test_a_tabulated_ring_neither_registers_nor_shares():
    with fresh_build_cache():
        ring = rl.build(rl.parse_spec("M2(Z5)"))
        assert ring.validated and ring.mul_table is not None
        assert len(core._CORES) == 0
    assert ring.shared is ring.cache


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "M2(Z5)"])
def test_digit_tables_trace_no_more_memory_than_the_fill(name):
    # the fill peaks at 4.5 MB traced on Z2^10 and 2.1 MB on M2(Z5), the
    # digit form at 2.4 and 1.1 MB: one block table of b^|block| n cells
    # at a time, and row blocks of a quarter of _PASS_CELLS pairs
    ring, kwargs, tabulate, _ = _built_with(rl.parse_spec(name))
    dtype = core.index_dtype(ring.order)

    def peak(make):
        tracemalloc.start()
        try:
            make()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tabulated = [peak(lambda: tabulate(op)) for op, _ in _table_shapes(ring.order)]
    filled = [peak(lambda: core._fill(kwargs[f"{op}_vec"], shape, dtype))
              for op, shape in _table_shapes(ring.order)]
    assert max(tabulated) <= max(filled)


# --- derived-ring tables against the scalar construction ---------------------------


def _scalar_subring(parent, members, detect_one=False):
    """Tables, detected unity and first closure error of a subring, built
    pair by pair through the parent's scalar operations."""
    mem = sorted(set(members))
    index_of = {m: i for i, m in enumerate(mem)}
    for a in mem:
        if parent.neg(a) not in index_of:
            return f"subset not closed under negation at {a}"
        for b in mem:
            if parent.add(a, b) not in index_of:
                return f"subset not closed under addition at ({a}, {b})"
            if parent.mul(a, b) not in index_of:
                return f"subset not closed under multiplication at ({a}, {b})"
    one = None
    if detect_one:
        one = next((index_of[u] for u in mem if all(
            parent.mul(u, m) == m and parent.mul(m, u) == m for m in mem)), None)
    return ([[index_of[parent.add(a, b)] for b in mem] for a in mem],
            [[index_of[parent.mul(a, b)] for b in mem] for a in mem],
            [index_of[parent.neg(a)] for a in mem], one)


def _subring_outcome(parent, members, detect_one=False):
    try:
        sub = rl.subring(parent, members, detect_one=detect_one)
    except ValueError as exc:
        return str(exc)
    assert sub.members == tuple(sorted(set(members)))
    assert_index_inverts_members(sub)
    for name in ("add_table", "mul_table", "neg_table"):
        assert sub.cache[name].tolist() == np.ravel(getattr(sub, name)).tolist()
    return sub.add_table.tolist(), sub.mul_table.tolist(), sub.neg_table.tolist(), sub.one


def test_subring_tables_match_the_scalar_construction(corpus):
    draw = np.random.default_rng(5)
    errors = set()
    for name, ring in corpus.items():
        if ring.order > 81:
            continue
        subsets = [rl.center(ring)]
        subsets += [rl.ideal_generated(ring, (x,)).members for x in range(0, ring.order, 3)]
        if ring.unital:
            subsets += [sorted({ring.mul(ring.mul(e, r), e) for r in range(ring.order)})
                        for e in rl.idempotents(ring)]
        # random subsets with zero, most of them not closed
        subsets += [[ring.zero] + draw.integers(0, ring.order, size).tolist()
                    for size in (1, 2, 3, ring.order // 2)]
        if name == "M2(Z2)":  # an additive subgroup not closed under products
            subsets.append([ring.zero, rl.ring_pack(ring, (0, 1, 1, 0))])
        for members in subsets:
            for detect in (False, True):
                expected = _scalar_subring(ring, members, detect)
                assert _subring_outcome(ring, members, detect) == expected, (name, members)
                if isinstance(expected, str):
                    errors.add(expected.split(" at ")[0])
    assert errors == {f"subset not closed under {op}"
                      for op in ("negation", "addition", "multiplication")}


def test_subring_of_a_lazy_parent_matches_the_scalar_construction():
    spec = rl.parse_spec("M2(Z3)")
    with lazy_rings():
        lazy = rl.build(spec)
    assert lazy.mul_table is None
    tabled = rl.build_cached(spec)
    for e in rl.idempotents(tabled):
        members = sorted({tabled.mul(tabled.mul(e, r), e) for r in range(tabled.order)})
        assert _subring_outcome(lazy, members, True) == _scalar_subring(tabled, members, True)


def test_opposite_and_quotient_tables_match_the_scalar_construction(corpus):
    for name, ring in list(corpus.items()) + [("M3(Z2)", rl.build_cached(rl.parse_spec("M3(Z2)")))]:
        n = ring.order
        op = rl.opposite(ring)
        assert op.mul_table.tolist() == [[ring.mul(b, a) for b in range(n)] for a in range(n)], name
        assert op.add_table.tolist() == ring.add_table.tolist(), name
        assert op.neg_table.tolist() == ring.neg_table.tolist(), name
        assert op.cache["mul_table"].tolist() == np.ravel(op.mul_table).tolist(), name
        if n > 64:
            continue
        for x in range(n):
            q, proj = rl.quotient(ring, rl.ideal_generated(ring, (x,)))
            reps = q.reps
            assert q.add_table.tolist() == [[proj[ring.add(a, b)] for b in reps] for a in reps]
            assert q.mul_table.tolist() == [[proj[ring.mul(a, b)] for b in reps] for a in reps]
            assert q.neg_table.tolist() == [proj[ring.neg(a)] for a in reps]
