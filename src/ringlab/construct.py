"""Constructors for finite rings: residues, products, matrices, triangular,
truncated polynomial, trivial extensions, corners, quotients and opposites."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TABLE_CAP,
    FiniteRing,
    OrderCapError,
    RingLabError,
    SpecError,
)

DEFAULT_MAX_ORDER = 65536
MAX_ORDER_ENV = "RINGLAB_MAX_ORDER"


def resolve_max_order(max_order: Optional[int] = None) -> int:
    """Effective build cap: explicit argument, else environment, else default."""
    if max_order is not None:
        return max_order
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise RingLabError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}") from None


class RingSpec:
    """Symbolic description of a ring construction; nodes are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Zn(RingSpec):
    n: int

    def __str__(self) -> str:
        return f"Z{self.n}"


@dataclass(frozen=True)
class Product(RingSpec):
    parts: tuple

    def __str__(self) -> str:
        return "x".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Matrix(RingSpec):
    k: int
    base: RingSpec

    def __str__(self) -> str:
        return f"M{self.k}({self.base})"


@dataclass(frozen=True)
class Triangular(RingSpec):
    k: int
    base: RingSpec

    def __str__(self) -> str:
        return f"T{self.k}({self.base})"


@dataclass(frozen=True)
class PolyMod(RingSpec):
    base: RingSpec
    n: int

    def __str__(self) -> str:
        return f"{self.base}[x]/(x^{self.n})"


@dataclass(frozen=True)
class TrivialExt(RingSpec):
    base: RingSpec

    def __str__(self) -> str:
        return f"Triv({self.base})"


@dataclass(frozen=True)
class Opposite(RingSpec):
    base: RingSpec

    def __str__(self) -> str:
        return f"Op({self.base})"


@dataclass(frozen=True)
class Corner(RingSpec):
    base: RingSpec
    e: int

    def __str__(self) -> str:
        return f"Corner({self.base},{self.e})"


@dataclass(frozen=True)
class Quotient(RingSpec):
    base: RingSpec
    generators: tuple

    def __str__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"Quot({self.base},{gens})"


@dataclass(frozen=True)
class IdealRing(RingSpec):
    base: RingSpec
    generators: tuple

    def __str__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"Ideal({self.base},{gens})"


def product(parts: Iterable[RingSpec]) -> RingSpec:
    """Product spec with nested products flattened; a singleton is unwrapped."""
    flat: list[RingSpec] = []
    for p in parts:
        if isinstance(p, Product):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise SpecError("product needs at least one factor")
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def spec_order(spec: RingSpec) -> Optional[int]:
    """Order denoted by the spec, or None when it depends on table contents."""
    if isinstance(spec, Zn):
        return spec.n
    if isinstance(spec, Product):
        n = 1
        for p in spec.parts:
            sub = spec_order(p)
            if sub is None:
                return None
            n *= sub
        return n
    if isinstance(spec, Matrix):
        sub = spec_order(spec.base)
        return None if sub is None else sub ** (spec.k * spec.k)
    if isinstance(spec, Triangular):
        sub = spec_order(spec.base)
        return None if sub is None else sub ** (spec.k * (spec.k + 1) // 2)
    if isinstance(spec, PolyMod):
        sub = spec_order(spec.base)
        return None if sub is None else sub ** spec.n
    if isinstance(spec, TrivialExt):
        sub = spec_order(spec.base)
        return None if sub is None else sub * sub
    if isinstance(spec, Opposite):
        return spec_order(spec.base)
    return None  # quotient, corner, ideal: bounded by the base order


def _check_cap(order: int, cap: int, what: str) -> None:
    if order > cap:
        raise OrderCapError(f"{what} has order {order}, over the cap {cap}")


# ---------------------------------------------------------------------------
# digit packing shared by product / matrix / triangular / polynomial / trivext


def pack_digits(radices: Sequence[int], digits: Sequence[int]) -> int:
    i = 0
    for d, r in zip(digits, radices):
        i = i * r + d
    return i


def unpack_digits(radices: Sequence[int], i: int) -> list[int]:
    out = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        i, out[pos] = divmod(i, radices[pos])
    return out


def _unpack_vec(radices: Sequence[int], x) -> list:
    """Digit arrays of an index array (int64, so packing cannot overflow)."""
    x = np.asarray(x, dtype=np.int64)
    out = [x] * len(radices)
    for pos in range(len(radices) - 1, 0, -1):
        q = x // radices[pos]
        out[pos] = x - q * radices[pos]
        x = q
    out[0] = x
    return out


def _pack_vec(radices: Sequence[int], digits: Sequence) -> np.ndarray:
    i = np.asarray(digits[0], dtype=np.int64)
    for d, r in zip(digits[1:], radices[1:]):
        i = i * r + d
    return i


def _digit_ops(radices: Sequence[int], bases: Sequence[FiniteRing],
               terms: Sequence[Sequence[tuple]]) -> dict:
    """Scalar and vector operations of a ring of digit tuples.

    Digit p lives in ``bases[p]``. Addition and negation act digit by digit;
    digit p of a product x*y is the sum, in the order listed, of the base
    products x[s]*y[t] over the pairs (s, t) in ``terms[p]``. Returns the
    add/mul/neg keyword arguments of FiniteRing and their ``*_vec`` forms.
    """
    scalar = [(B.add, B.mul, B.neg) for B in bases]
    vector = [(B.add_vec, B.mul_vec, B.neg_vec) for B in bases]

    def digit_sums(ops, X, Y):
        return [badd(a, b) for (badd, _, _), a, b in zip(ops, X, Y)]

    def digit_negs(ops, X):
        return [bneg(a) for (_, _, bneg), a in zip(ops, X)]

    def digit_products(ops, X, Y):
        out = []
        for (badd, bmul, _), entry in zip(ops, terms):
            acc = None
            for s, t in entry:
                term = bmul(X[s], Y[t])
                acc = term if acc is None else badd(acc, term)
            out.append(acc)
        return out

    def add(i, j):
        return pack_digits(radices, digit_sums(
            scalar, unpack_digits(radices, i), unpack_digits(radices, j)))

    def mul(i, j):
        return pack_digits(radices, digit_products(
            scalar, unpack_digits(radices, i), unpack_digits(radices, j)))

    def neg(i):
        return pack_digits(radices, digit_negs(scalar, unpack_digits(radices, i)))

    def add_vec(x, y):
        return _pack_vec(radices, digit_sums(
            vector, _unpack_vec(radices, x), _unpack_vec(radices, y)))

    def mul_vec(x, y):
        return _pack_vec(radices, digit_products(
            vector, _unpack_vec(radices, x), _unpack_vec(radices, y)))

    def neg_vec(x):
        return _pack_vec(radices, digit_negs(vector, _unpack_vec(radices, x)))

    return {"add": add, "mul": mul, "neg": neg,
            "add_vec": add_vec, "mul_vec": mul_vec, "neg_vec": neg_vec}


def ring_pack(ring: FiniteRing, digits: Sequence[int]) -> int:
    """Element index from its digit tuple, for digit-structured rings."""
    return pack_digits(ring.meta["radices"], digits)


def ring_unpack(ring: FiniteRing, i: int) -> list[int]:
    """Digit tuple of an element index, for digit-structured rings."""
    return unpack_digits(ring.meta["radices"], i)


# ---------------------------------------------------------------------------
# constructors


def zn_ring(n: int, spec: Optional[RingSpec] = None, max_order: Optional[int] = None,
            validate: Optional[bool] = None) -> FiniteRing:
    """Residue ring of integers modulo n."""
    if n < 1:
        raise SpecError("modulus must be at least 1")
    _check_cap(n, resolve_max_order(max_order), f"Z{n}")

    def i64(a):
        return np.asarray(a, dtype=np.int64)

    return FiniteRing(
        n,
        lambda a, b: (a + b) % n,
        lambda a, b: (a * b) % n,
        lambda a: (-a) % n,
        zero=0,
        one=1 % n,
        spec=spec if spec is not None else Zn(n),
        meta={"kind": "zn", "n": n},
        validate=validate,
        add_vec=lambda a, b: (i64(a) + b) % n,
        mul_vec=lambda a, b: (i64(a) * i64(b)) % n,
        neg_vec=lambda a: (-i64(a)) % n,
    )


def product_ring(bases: Sequence[FiniteRing], spec: Optional[RingSpec] = None,
                 max_order: Optional[int] = None, validate: Optional[bool] = None) -> FiniteRing:
    """Direct product with componentwise operations, first component slowest."""
    if not bases:
        raise SpecError("product needs at least one factor")
    radices = tuple(B.order for B in bases)
    order = 1
    for r in radices:
        order *= r
    label = "x".join(B.label for B in bases)
    _check_cap(order, resolve_max_order(max_order), label)
    ops = _digit_ops(radices, bases, [[(p, p)] for p in range(len(bases))])

    one = None
    if all(B.unital for B in bases):
        one = pack_digits(radices, [B.one for B in bases])

    def elabel(i, _bases=tuple(bases)):
        digits = unpack_digits(radices, i)
        return "(" + ",".join(B.element_label(d) for B, d in zip(_bases, digits)) + ")"

    return FiniteRing(order, zero=0, one=one, spec=spec, label=label,
                      element_label=elabel,
                      meta={"kind": "product", "radices": radices, "bases": tuple(bases)},
                      validate=validate, **ops)


def matrix_ring(base: FiniteRing, k: int, spec: Optional[RingSpec] = None,
                max_order: Optional[int] = None, validate: Optional[bool] = None) -> FiniteRing:
    """Full k x k matrix ring over the base, entries stored row-major."""
    if k < 1:
        raise SpecError("matrix size must be at least 1")
    bo = base.order
    m = k * k
    order = bo ** m
    label = f"M{k}({base.label})"
    _check_cap(order, resolve_max_order(max_order), label)
    radices = (bo,) * m
    ops = _digit_ops(radices, (base,) * m,
                     [[(i * k + l, l * k + j) for l in range(k)]
                      for i in range(k) for j in range(k)])

    if k == 2 and base.mul_table is not None:
        # unrolled scalar operations for the common 2 x 2 case over a table
        mt = base.mul_table
        at = base.add_table
        nt = base.neg_table
        b2 = bo * bo
        b3 = b2 * bo

        def mul(x, y):
            x0 = x // b3
            x1 = (x // b2) % bo
            x2 = (x // bo) % bo
            x3 = x % bo
            y0 = y // b3
            y1 = (y // b2) % bo
            y2 = (y // bo) % bo
            y3 = y % bo
            return ((at[mt[x0][y0]][mt[x1][y2]] * bo + at[mt[x0][y1]][mt[x1][y3]]) * bo
                    + at[mt[x2][y0]][mt[x3][y2]]) * bo + at[mt[x2][y1]][mt[x3][y3]]

        def add(x, y):
            return ((at[x // b3][y // b3] * bo + at[(x // b2) % bo][(y // b2) % bo]) * bo
                    + at[(x // bo) % bo][(y // bo) % bo]) * bo + at[x % bo][y % bo]

        def neg(x):
            return ((nt[x // b3] * bo + nt[(x // b2) % bo]) * bo
                    + nt[(x // bo) % bo]) * bo + nt[x % bo]

        ops.update(add=add, mul=mul, neg=neg)

    one = None
    if base.unital:
        digits = [base.zero] * m
        for i in range(k):
            digits[i * k + i] = base.one
        one = pack_digits(radices, digits)

    def elabel(i):
        d = unpack_digits(radices, i)
        rows = ["[" + ",".join(base.element_label(d[r * k + c]) for c in range(k)) + "]"
                for r in range(k)]
        return "[" + ",".join(rows) + "]"

    return FiniteRing(order, zero=0, one=one, spec=spec, label=label,
                      element_label=elabel,
                      meta={"kind": "matrix", "k": k, "base": base, "radices": radices},
                      validate=validate, **ops)


def triangular_ring(base: FiniteRing, k: int, spec: Optional[RingSpec] = None,
                    max_order: Optional[int] = None, validate: Optional[bool] = None) -> FiniteRing:
    """Upper triangular k x k matrix ring; stored entries are (i, j) with i <= j."""
    if k < 2:
        raise SpecError("triangular size must be at least 2")
    bo = base.order
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    slot = {pos: s for s, pos in enumerate(positions)}
    m = len(positions)
    order = bo ** m
    label = f"T{k}({base.label})"
    _check_cap(order, resolve_max_order(max_order), label)
    radices = (bo,) * m
    ops = _digit_ops(radices, (base,) * m,
                     [[(slot[(i, l)], slot[(l, j)]) for l in range(i, j + 1)]
                      for (i, j) in positions])

    one = None
    if base.unital:
        digits = [base.zero] * m
        for i in range(k):
            digits[slot[(i, i)]] = base.one
        one = pack_digits(radices, digits)

    def elabel(i):
        d = unpack_digits(radices, i)
        zero_lab = base.element_label(base.zero)
        rows = []
        for r in range(k):
            cells = [base.element_label(d[slot[(r, c)]]) if c >= r else zero_lab
                     for c in range(k)]
            rows.append("[" + ",".join(cells) + "]")
        return "[" + ",".join(rows) + "]"

    return FiniteRing(order, zero=0, one=one, spec=spec, label=label,
                      element_label=elabel,
                      meta={"kind": "triangular", "k": k, "base": base,
                            "positions": tuple(positions), "radices": radices},
                      validate=validate, **ops)


def poly_mod_ring(base: FiniteRing, n: int, spec: Optional[RingSpec] = None,
                  max_order: Optional[int] = None, validate: Optional[bool] = None) -> FiniteRing:
    """Polynomials over the base truncated at degree n, i.e. x^n = 0.

    Elements are coefficient tuples with the constant term first; products are
    convolutions with terms of degree n or higher dropped.
    """
    if n < 1:
        raise SpecError("truncation degree must be at least 1")
    bo = base.order
    order = bo ** n
    label = f"{base.label}[x]/(x^{n})"
    _check_cap(order, resolve_max_order(max_order), label)
    radices = (bo,) * n
    ops = _digit_ops(radices, (base,) * n,
                     [[(u, t - u) for u in range(t + 1)] for t in range(n)])

    one = None
    if base.unital:
        digits = [base.zero] * n
        digits[0] = base.one
        one = pack_digits(radices, digits)

    is_zn = base.meta.get("kind") == "zn"

    def elabel(i):
        d = unpack_digits(radices, i)
        if not is_zn:
            return "poly(" + ",".join(base.element_label(c) for c in d) + ")"
        terms = []
        for t, c in enumerate(d):
            if c == base.zero:
                continue
            if t == 0:
                terms.append(str(c))
            elif t == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{t}" if c == 1 else f"{c}x^{t}")
        return "+".join(terms) if terms else "0"

    return FiniteRing(order, zero=0, one=one, spec=spec, label=label,
                      element_label=elabel,
                      meta={"kind": "polymod", "n": n, "base": base, "radices": radices},
                      validate=validate, **ops)


def trivial_ext_ring(base: FiniteRing, spec: Optional[RingSpec] = None,
                     max_order: Optional[int] = None, validate: Optional[bool] = None) -> FiniteRing:
    """Trivial extension of the base by itself as a bimodule.

    Elements are pairs (a, x); products are (a, x)(b, y) = (ab, ay + xb), so the
    module part squares to zero.
    """
    bo = base.order
    order = bo * bo
    label = f"Triv({base.label})"
    _check_cap(order, resolve_max_order(max_order), label)
    radices = (bo, bo)
    ops = _digit_ops(radices, (base, base), [[(0, 0)], [(0, 1), (1, 0)]])
    badd = base.add
    bmul = base.mul
    bneg = base.neg

    # scalar operations on divmod, cheaper than the generic digit loops
    def add(i, j):
        a, x = divmod(i, bo)
        b, y = divmod(j, bo)
        return badd(a, b) * bo + badd(x, y)

    def mul(i, j):
        a, x = divmod(i, bo)
        b, y = divmod(j, bo)
        return bmul(a, b) * bo + badd(bmul(a, y), bmul(x, b))

    def neg(i):
        a, x = divmod(i, bo)
        return bneg(a) * bo + bneg(x)

    ops.update(add=add, mul=mul, neg=neg)

    one = base.one * bo + base.zero if base.unital else None

    def elabel(i):
        a, x = divmod(i, bo)
        return f"({base.element_label(a)}|{base.element_label(x)})"

    return FiniteRing(order, zero=0, one=one, spec=spec, label=label,
                      element_label=elabel,
                      meta={"kind": "trivext", "base": base, "radices": radices},
                      validate=validate, **ops)


def opposite(ring: FiniteRing, spec: Optional[RingSpec] = None,
             validate: Optional[bool] = None) -> FiniteRing:
    """Same additive group with multiplication reversed."""
    if spec is None and ring.spec is not None:
        spec = Opposite(ring.spec)
    label = f"Op({ring.label})"
    if ring.mul_table is not None:
        n = ring.order
        return FiniteRing(n, ring._flat_table("add_table").reshape(n, n),
                          ring._flat_table("mul_table").reshape(n, n).T,
                          ring._flat_table("neg_table"), zero=ring.zero, one=ring.one,
                          spec=spec, label=label, element_label=ring.element_label,
                          meta={"kind": "opposite", "base": ring}, validate=validate)
    mul, mul_vec = ring.mul, ring.mul_vec
    return FiniteRing(ring.order, ring.add, lambda a, b: mul(b, a), ring.neg,
                      zero=ring.zero, one=ring.one, spec=spec, label=label,
                      element_label=ring.element_label,
                      meta={"kind": "opposite", "base": ring}, validate=validate,
                      add_vec=ring.add_vec, mul_vec=lambda x, y: mul_vec(y, x),
                      neg_vec=ring.neg_vec)


def subring(parent: FiniteRing, members: Iterable[int], one: Optional[int] = None,
            detect_one: bool = False, spec: Optional[RingSpec] = None,
            label: Optional[str] = None, validate: Optional[bool] = None) -> FiniteRing:
    """Ring on a subset of the parent closed under its operations.

    Elements are reindexed 0..k-1 in parent index order; the tuple of parent
    indices is kept on the result as ``members``.
    """
    mem = sorted(set(members))
    idx = np.array(mem, dtype=np.int64)
    index_of = np.full(parent.order, -1, dtype=np.int64)
    index_of[idx] = np.arange(len(mem))
    if index_of[parent.zero] < 0:
        raise ValueError("subring must contain zero")
    add_t = index_of[parent.add_vec(idx[:, None], idx)]
    mul_p = parent.mul_vec(idx[:, None], idx)
    mul_t = index_of[mul_p]
    neg_t = index_of[parent.neg_vec(idx)]
    if min(neg_t.min(), add_t.min(), mul_t.min()) < 0:
        bad_neg, bad_add, bad_mul = neg_t < 0, add_t < 0, mul_t < 0
        i = int((bad_neg | bad_add.any(axis=1) | bad_mul.any(axis=1)).argmax())
        if bad_neg[i]:
            raise ValueError(f"subset not closed under negation at {mem[i]}")
        j = int((bad_add[i] | bad_mul[i]).argmax())
        op = "addition" if bad_add[i, j] else "multiplication"
        raise ValueError(f"subset not closed under {op} at ({mem[i]}, {mem[j]})")
    if one is None and detect_one:
        unity = (mul_p == idx).all(axis=1) & (mul_p == idx[:, None]).all(axis=0)
        if unity.any():
            one = mem[int(unity.argmax())]
    elif one is not None and not (0 <= one < parent.order and index_of[one] >= 0):
        raise ValueError("designated unity is not a member")
    ring = FiniteRing(len(mem), add_t, mul_t, neg_t,
                      zero=int(index_of[parent.zero]),
                      one=int(index_of[one]) if one is not None else None,
                      spec=spec,
                      label=label or f"Sub({parent.label})",
                      element_label=lambda i, _m=tuple(mem): parent.element_label(_m[i]),
                      meta={"kind": "subring", "base": parent, "members": tuple(mem)},
                      validate=validate)
    ring.members = tuple(mem)
    return ring


def corner_ring(parent: FiniteRing, e: int, spec: Optional[RingSpec] = None,
                validate: Optional[bool] = None) -> FiniteRing:
    """Corner e*R*e for an idempotent e; unital with unity e."""
    if not 0 <= e < parent.order:
        raise SpecError(f"element {e} out of range")
    pmul = parent.mul
    if pmul(e, e) != e:
        raise SpecError(f"corner needs an idempotent, {e} is not one")
    if parent.unital and e == parent.one:
        return parent
    members = sorted({pmul(pmul(e, r), e) for r in range(parent.order)})
    if spec is None and parent.spec is not None:
        spec = Corner(parent.spec, e)
    return subring(parent, members, one=e, spec=spec,
                   label=f"Corner({parent.label},{e})", validate=validate)


def ideal_subring(parent: FiniteRing, members: Iterable[int],
                  spec: Optional[RingSpec] = None, label: Optional[str] = None,
                  validate: Optional[bool] = None) -> FiniteRing:
    """An ideal viewed as a ring of its own; unity detected if one exists."""
    return subring(parent, members, detect_one=True, spec=spec,
                   label=label or f"Ideal({parent.label})", validate=validate)


def quotient(parent: FiniteRing, ideal, spec: Optional[RingSpec] = None,
             validate: Optional[bool] = None) -> tuple[FiniteRing, list[int]]:
    """Quotient by a two-sided ideal.

    Cosets are represented by their smallest parent index and enumerated in
    representative order. Returns the quotient ring and the projection list
    (parent index -> quotient index); the ring also carries ``reps`` and
    ``projection`` attributes.
    """
    from .structure import Ideal, make_ideal

    if not isinstance(ideal, Ideal):
        ideal = make_ideal(parent, ideal)
    if ideal.ring is not parent:
        raise ValueError("ideal belongs to a different ring")
    n = parent.order
    padd = parent.add
    proj = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if proj[x] >= 0:
            continue
        qi = len(reps)
        reps.append(x)
        for i in ideal.members:
            proj[padd(x, i)] = qi
    cosets = np.array(proj, dtype=np.int64)
    rep = np.array(reps, dtype=np.int64)
    add_t = cosets[parent.add_vec(rep[:, None], rep)]
    mul_t = cosets[parent.mul_vec(rep[:, None], rep)]
    neg_t = cosets[parent.neg_vec(rep)]
    one = proj[parent.one] if parent.unital else None
    ring = FiniteRing(len(reps), add_t, mul_t, neg_t, zero=proj[parent.zero], one=one,
                      spec=spec, label=f"{parent.label}/I{len(ideal.members)}",
                      element_label=lambda i, _r=tuple(reps): f"[{parent.element_label(_r[i])}]",
                      meta={"kind": "quotient", "base": parent,
                            "reps": tuple(reps), "projection": tuple(proj)},
                      validate=validate)
    ring.reps = tuple(reps)
    ring.projection = tuple(proj)
    return ring, proj


def build(spec: RingSpec, max_order: Optional[int] = None,
          validate: Optional[bool] = None) -> FiniteRing:
    """Materialize a RingSpec into a FiniteRing, enforcing the order cap."""
    cap = resolve_max_order(max_order)
    known = spec_order(spec)
    if known is not None:
        _check_cap(known, cap, str(spec))
    if isinstance(spec, Zn):
        return zn_ring(spec.n, spec=spec, max_order=cap, validate=validate)
    if isinstance(spec, Product):
        bases = [build(p, cap, validate) for p in spec.parts]
        return product_ring(bases, spec=spec, max_order=cap, validate=validate)
    if isinstance(spec, Matrix):
        return matrix_ring(build(spec.base, cap, validate), spec.k, spec=spec,
                           max_order=cap, validate=validate)
    if isinstance(spec, Triangular):
        return triangular_ring(build(spec.base, cap, validate), spec.k, spec=spec,
                               max_order=cap, validate=validate)
    if isinstance(spec, PolyMod):
        return poly_mod_ring(build(spec.base, cap, validate), spec.n, spec=spec,
                             max_order=cap, validate=validate)
    if isinstance(spec, TrivialExt):
        return trivial_ext_ring(build(spec.base, cap, validate), spec=spec,
                                max_order=cap, validate=validate)
    if isinstance(spec, Opposite):
        return opposite(build(spec.base, cap, validate), spec=spec, validate=validate)
    if isinstance(spec, Corner):
        return corner_ring(build(spec.base, cap, validate), spec.e, spec=spec,
                           validate=validate)
    if isinstance(spec, Quotient):
        from .structure import ideal_generated

        base = build(spec.base, cap, validate)
        for g in spec.generators:
            if not 0 <= g < base.order:
                raise SpecError(f"generator {g} out of range for {base.label}")
        ideal = ideal_generated(base, spec.generators)
        ring, _ = quotient(base, ideal, spec=spec, validate=validate)
        return ring
    if isinstance(spec, IdealRing):
        from .structure import ideal_generated

        base = build(spec.base, cap, validate)
        for g in spec.generators:
            if not 0 <= g < base.order:
                raise SpecError(f"generator {g} out of range for {base.label}")
        ideal = ideal_generated(base, spec.generators)
        return ideal_subring(base, ideal.members, spec=spec, label=str(spec),
                             validate=validate)
    raise TypeError(f"unknown spec node {type(spec).__name__}")


@lru_cache(maxsize=None)
def _build_cached(spec: RingSpec, cap: int) -> FiniteRing:
    return build(spec, max_order=cap)


def build_cached(spec: RingSpec, max_order: Optional[int] = None) -> FiniteRing:
    """build() with memoization on (spec, effective cap)."""
    return _build_cached(spec, resolve_max_order(max_order))
