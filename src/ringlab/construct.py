"""Constructors for finite rings: residues, products, matrices, triangular,
truncated polynomial, trivial extensions, corners, quotients and opposites."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TABLE_CAP,
    FiniteRing,
    OrderCapError,
    RingLabError,
    SpecError,
    index_dtype,
    lazy_lists,
    row_blocks,
)

DEFAULT_MAX_ORDER = 65536
MAX_ORDER_ENV = "RINGLAB_MAX_ORDER"

# Python reads and writes ints of at most this many digits as text (its
# default int_max_str_digits). Spec literals are held to it, and orders
# saturate at _ORDER_LIMIT, the first with more digits, so that every order
# can be compared with the cap at once and shown in an error.
MAX_INT_DIGITS = 4300
_ORDER_LIMIT = 10 ** MAX_INT_DIGITS


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
    """Symbolic description of a ring construction; nodes are frozen dataclasses.
    A node's ``syntax`` is its text, with its fields as %(name)s: str() fills
    it, cli's parser reads it and ring labels fill it. A product base that
    opens the text is grouped, as x binds looser: (Z2xZ3)[x]/(x^2)."""

    __slots__ = ()
    syntax = ""

    def __init_subclass__(cls) -> None:
        # the text before the first field, then (field, the text after it) pairs
        cls.lead, *rest = re.split(r"%\((\w+)\)s", cls.syntax)
        cls.steps = tuple(zip(rest[::2], rest[1::2]))

    def __str__(self) -> str:
        values = self.__dict__
        if not self.lead or "generators" in values:
            base = self.base
            values = {**values, "generators": ",".join(map(str, values.get("generators", ()))),
                      "base": f"({base})" if type(base) is Product and not self.lead else base}
        return self.syntax % values


@dataclass(frozen=True)
class Zn(RingSpec):
    n: int
    syntax = "Z%(n)s"


@dataclass(frozen=True)
class Product(RingSpec):
    parts: tuple

    def __str__(self) -> str:
        return "x".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Matrix(RingSpec):
    k: int
    base: RingSpec
    syntax = "M%(k)s(%(base)s)"


@dataclass(frozen=True)
class Triangular(RingSpec):
    k: int
    base: RingSpec
    syntax = "T%(k)s(%(base)s)"


@dataclass(frozen=True)
class PolyMod(RingSpec):
    base: RingSpec
    n: int
    syntax = "%(base)s[x]/(x^%(n)s)"


@dataclass(frozen=True)
class TrivialExt(RingSpec):
    base: RingSpec
    syntax = "Triv(%(base)s)"


@dataclass(frozen=True)
class Opposite(RingSpec):
    base: RingSpec
    syntax = "Op(%(base)s)"


@dataclass(frozen=True)
class Corner(RingSpec):
    base: RingSpec
    e: int
    syntax = "Corner(%(base)s,%(e)s)"


@dataclass(frozen=True)
class Quotient(RingSpec):
    base: RingSpec
    generators: tuple
    syntax = "Quot(%(base)s,%(generators)s)"


@dataclass(frozen=True)
class IdealRing(RingSpec):
    base: RingSpec
    generators: tuple
    syntax = "Ideal(%(base)s,%(generators)s)"


def _label(kind: type, base: FiniteRing, **fields) -> str:
    """The node kind's text with the base ring's label as its base."""
    grouped = not kind.lead and base.meta.get("kind") == "product"
    return kind.syntax % {**fields, "base": f"({base.label})" if grouped else base.label}


# The name and the least value of the integer parameter of each constructor
# that has one; cli's parser checks them too, at the integer's column.
_SIZES = {Zn: ("modulus", 1), Matrix: ("matrix size", 1),
          Triangular: ("triangular size", 2), PolyMod: ("truncation degree", 1)}


def check_size(kind: type, value: int) -> None:
    """Raise SpecError when value is below the domain of the integer
    parameter of the spec node kind (Zn, Matrix, Triangular or PolyMod)."""
    what, least = _SIZES[kind]
    if value < least:
        raise SpecError(f"{what} must be at least {least}")


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


def _power(base: int, exp: int) -> int:
    """min(base ** exp, _ORDER_LIMIT), without forming a power far past it."""
    if base > 1 and (base.bit_length() - 1) * exp >= _ORDER_LIMIT.bit_length():
        return _ORDER_LIMIT  # base ** exp >= 2 ** ((bit length - 1) * exp)
    return min(base ** exp, _ORDER_LIMIT)


# a node of these kinds over a base of order b has order b ** exponent(node)
_EXPONENTS = {Matrix: lambda s: s.k * s.k, Triangular: lambda s: s.k * (s.k + 1) // 2,
              PolyMod: lambda s: s.n, TrivialExt: lambda s: 2, Opposite: lambda s: 1}


def spec_order(spec: RingSpec) -> Optional[int]:
    """Order denoted by the spec, or None when it depends on table contents.
    An order of more than MAX_INT_DIGITS digits reads as _ORDER_LIMIT."""
    if isinstance(spec, Zn):
        return min(spec.n, _ORDER_LIMIT)
    if isinstance(spec, Product):
        n = 1
        for p in spec.parts:
            sub = spec_order(p)
            if sub is None:
                return None
            n = min(n * sub, _ORDER_LIMIT)
        return n
    exponent = _EXPONENTS.get(type(spec))
    if exponent is None:
        return None  # quotient, corner, ideal: bounded by the base order
    sub = spec_order(spec.base)
    return None if sub is None else _power(sub, exponent(spec))


def _check_cap(order: int, cap: int, what: str) -> None:
    if order > cap or order >= _ORDER_LIMIT:
        size = order if order < _ORDER_LIMIT else f"of more than {MAX_INT_DIGITS} digits"
        raise OrderCapError(f"{what} has order {size}, over the cap {cap}")


def _check_table_cap(order: int, what) -> None:
    # a derived ring is always tabulated and validated, at a cost quadratic in its order
    if order > DEFAULT_TABLE_CAP:
        raise OrderCapError(f"{what} has order {order}, over the table cap {DEFAULT_TABLE_CAP}")


# A digit ring of at least this order makes its tables from its digit form
# (_digit_tables); a smaller one fills them through its own vector ops, which
# take fewer numpy calls there. The three tables took, through the closures
# and from the digit form: M2(Z2) 0.04 and 0.11 ms, M2(Z3) 0.14 and 0.17 ms,
# Z2^7 (order 128) 0.94 and 0.29 ms (2-core x86-64); from order 128 on, every
# constructor measured was faster from the digit form.
_DIGIT_TABLE_MIN_ORDER = 128


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


def _digit_product(badd: Callable, bmul: Callable, entry: Sequence[tuple], X, Y):
    """One digit of a product: the sum, in the order listed, of the base
    products X[s]*Y[t] over the pairs (s, t) in entry."""
    acc = None
    for s, t in entry:
        term = bmul(X[s], Y[t])
        acc = term if acc is None else badd(acc, term)
    return acc


def _digit_ops(radices: Sequence[int], bases: Sequence[FiniteRing],
               terms: Sequence[Sequence[tuple]]) -> dict:
    """Scalar and vector operations of a ring of digit tuples.

    Digit p lives in ``bases[p]``. Addition and negation act digit by digit;
    digit p of a product x*y is the sum, in the order listed, of the base
    products x[s]*y[t] over the pairs (s, t) in ``terms[p]``. One factory
    makes both forms: the scalar one on pack_digits and the bases' add, mul
    and neg, the vector one on _pack_vec and their ``*_vec`` forms. Returns
    the add/mul/neg keyword arguments of FiniteRing and their ``*_vec`` forms.
    """
    def digitwise(pack, unpack, ops):
        def add(i, j):
            return pack(radices, [badd(a, b) for (badd, _, _), a, b
                                  in zip(ops, unpack(radices, i), unpack(radices, j))])

        def mul(i, j):
            X, Y = unpack(radices, i), unpack(radices, j)
            return pack(radices, [_digit_product(badd, bmul, entry, X, Y)
                                  for (badd, bmul, _), entry in zip(ops, terms)])

        def neg(i):
            return pack(radices, [bneg(a) for (_, _, bneg), a in zip(ops, unpack(radices, i))])

        return add, mul, neg

    add, mul, neg = digitwise(pack_digits, unpack_digits, [(B.add, B.mul, B.neg) for B in bases])
    add_vec, mul_vec, neg_vec = digitwise(
        _pack_vec, _unpack_vec, [(B.add_vec, B.mul_vec, B.neg_vec) for B in bases])
    return {"add": add, "mul": mul, "neg": neg,
            "add_vec": add_vec, "mul_vec": mul_vec, "neg_vec": neg_vec}


def _digit_tables(radices: Sequence[int], bases: Sequence[FiniteRing],
                  terms: Sequence[Sequence[tuple]]) -> Callable[[str], np.ndarray]:
    """``tabulate(name)``: the "add", "mul" or "neg" table, in
    index_dtype(n), of the ring of digit tuples of _digit_ops, read off its
    digit form through the bases' vector ops.

    Two digits of x share a block when some product digit reads both: the
    blocks are the rows of M_k and T_k, each digit of a product, and the
    whole element of a polynomial ring or a trivial extension. For each
    block, the product digits that read it are tabulated over (block value,
    y), b^|block| * n cells, and packed; the mul table is the sum of one row
    gather per block, as the blocks' product digits are disjoint. The add
    table has one block per digit. Both are made in row blocks of
    row_blocks(., 4 * n), as _fill makes a table, and a ring of one block
    takes its table as it is tabulated, with no gather."""
    n = math.prod(radices)
    dtype = index_dtype(n)
    weights = [n // math.prod(radices[:p + 1]) for p in range(len(radices))]
    blocks: list = []  # (x digits, the product digits that read them)
    for p, entry in enumerate(terms):
        block, outs = {s for s, _ in entry}, [p]
        for other in [b for b in blocks if b[0] & block]:
            blocks.remove(other)
            block |= other[0]
            outs += other[1]
        blocks.append((block, outs))
    mul_layout = sorted((sorted(block), sorted(outs)) for block, outs in blocks)

    def product_digit(p, X, Y):
        return _digit_product(bases[p].add_vec, bases[p].mul_vec, terms[p], X, Y)

    def sum_digit(p, X, Y):
        return bases[p].add_vec(X[p], Y[p])

    def tabulate(name: str) -> np.ndarray:
        ys = _unpack_vec(radices, np.arange(n))  # the digits of every element y
        if name == "neg":
            return _pack_vec(radices, [B.neg_vec(y) for B, y in zip(bases, ys)]).astype(dtype)
        layout, digit = ((mul_layout, product_digit) if name == "mul" else
                         ([([p], [p]) for p in range(len(radices))], sum_digit))
        parts = []  # (table over (block value, y), block value of every x)
        for block, outs in layout:
            sizes = [radices[s] for s in block]
            values = math.prod(sizes)
            digits = _unpack_vec(sizes, np.arange(values)[:, None])
            part = np.empty((values, n), dtype=dtype)
            for rows in row_blocks(values, 4 * n):
                X = {s: d[rows] for s, d in zip(block, digits)}
                acc = digit(outs[0], X, ys) * weights[outs[0]]
                for p in outs[1:]:
                    acc += digit(p, X, ys) * weights[p]
                part[rows] = acc
            if len(layout) == 1 and values == n:
                return part  # the block value of x is x
            parts.append((part, _pack_vec(sizes, [ys[s] for s in block])))
        table = np.empty((n, n), dtype=dtype)
        for rows in row_blocks(n, 4 * n):
            (part, at), *rest = parts
            acc = part.take(at[rows], axis=0)
            for part, at in rest:
                acc += part.take(at[rows], axis=0)
            table[rows] = acc
        return table

    return tabulate


def _m2_ops(base: FiniteRing) -> dict:
    """add/mul/neg of the 2 x 2 matrices over the base and their ``*_vec``
    forms, each a few reads of tables of n = b^4 cells (b the base order).

    An element x is its row pair u0 = x // b^2 above its row pair
    u1 = x - u0*b^2, a pair (p, q) being p*b + q. The tables, filled once
    from the base's own vector operations and stored in index_dtype(n):

    * dot[v*b^2 + u] = p*r + q*s, for u = (p, q) a row of x and v = (r, s)
      a column of y: one entry of the product; dot_hi = dot*b;
    * col0[y], col1[y]: the columns of y as pairs, times b^2;
    * pair_sum[u*b^2 + v] = (p + r, q + s), for row pairs u and v;
    * neg[x] = -x.

    The vector ops gather from the tables. A row of a product, dot_hi + dot,
    is a pair below b^2 <= n and stays in the table dtype; only the packed
    element is widened to int64. They split elements with // and a product:
    % and divmod cost about three times as much in numpy. The scalar ops
    read the same tables as Python lists, made on their first call.
    """
    b = base.order
    b2 = b * b
    n = b2 * b2
    dtype = index_dtype(n)
    # the rows (d0, d1), (d2, d3) of every element, in dtype (int64 only inside base ops)
    x = np.arange(n, dtype=dtype)
    d0, d1, d2, d3 = x // (b2 * b), x // b2 % b, x // b % b, x % b
    badd, bmul, bneg = base.add_vec, base.mul_vec, base.neg_vec
    dot = badd(bmul(d2, d0), bmul(d3, d1)).astype(dtype, copy=False)
    dot_hi = dot * b
    col0 = (d0 * b + d2) * b2
    col1 = (d1 * b + d3) * b2
    pair_sum = badd(d0, d2).astype(dtype, copy=False) * b + badd(d1, d3).astype(dtype, copy=False)
    neg = bneg(d0).astype(dtype, copy=False)
    for d in (d1, d2, d3):
        neg = neg * b + bneg(d).astype(dtype, copy=False)

    def split(x):
        """The row pairs (u0, u1) of the elements x, as int64 arrays."""
        x = np.asarray(x, dtype=np.int64)
        u0 = x // b2
        return u0, x - u0 * b2

    def mul_vec(x, y):
        u0, u1 = split(x)
        v0 = col0.take(y)
        v1 = col1.take(y)
        row0 = dot_hi.take(v0 + u0) + dot.take(v1 + u0)
        row1 = dot_hi.take(v0 + u1) + dot.take(v1 + u1)
        return np.multiply(row0, b2, dtype=np.int64) + row1

    def add_vec(x, y):
        u0, u1 = split(x)
        v0, v1 = split(y)
        row0 = pair_sum.take(u0 * b2 + v0)
        return np.multiply(row0, b2, dtype=np.int64) + pair_sum.take(u1 * b2 + v1)

    def neg_vec(x):
        return neg.take(x).astype(np.int64)

    def mul(x, y, dot, dot_hi, col0, col1):
        u0 = x // b2
        u1 = x - u0 * b2
        v0 = col0[y]
        v1 = col1[y]
        return (dot_hi[v0 + u0] + dot[v1 + u0]) * b2 + dot_hi[v0 + u1] + dot[v1 + u1]

    def add(x, y, pair_sum):
        u0 = x // b2
        v0 = y // b2
        return pair_sum[u0 * b2 + v0] * b2 + pair_sum[(x - u0 * b2) * b2 + y - v0 * b2]

    return {"add": lazy_lists(add, pair_sum),
            "mul": lazy_lists(mul, dot, dot_hi, col0, col1),
            "neg": lazy_lists(lambda x, neg: neg[x], neg),
            "add_vec": add_vec, "mul_vec": mul_vec, "neg_vec": neg_vec}


def _triv_ops(base: FiniteRing) -> dict:
    """Scalar add/mul/neg of the trivial extension of the base, on divmod:
    cheaper than the generic digit loops of _digit_ops."""
    bo = base.order
    badd, bmul, bneg = base.add, base.mul, base.neg

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

    return {"add": add, "mul": mul, "neg": neg}


def _digit_ring(label: str, order: int, max_order: Optional[int], spec: Optional[RingSpec],
                bases: Iterable[FiniteRing], positions: Iterable, terms: Callable,
                unity: Callable, element_label: Callable, meta: dict,
                ops: Optional[Callable] = None) -> FiniteRing:
    """The ring of digit tuples of the given order; an order over the cap is
    refused before any digit is laid out.

    The digits sit at ``positions``, keys such as matrix cells, the first
    one slowest; ``bases`` gives the base of each in turn. Both are read
    only after the cap check. Addition and negation act digit by digit; the
    digit at key k of a product x*y is the sum, in the order listed, of the
    base products x[s]*y[t] over the key pairs (s, t) in ``terms(k)`` (see
    _digit_ops). The zero and the unity come from the bases: the zero holds
    each base's zero, and the unity, when every base has one, the base's one
    at the keys where ``unity(k)`` and its zero elsewhere; ``meta`` gains
    these flags, in position order, as "unity", besides "radices" and
    "positions". ``element_label`` formats the digits of an element, given
    as a dict from key to digit. ``ops(base)``, if given, makes operations
    over the first base that take the place of those of _digit_ops. The
    ring gets the closures, and from order _DIGIT_TABLE_MIN_ORDER on a
    ``tabulate`` callable (_digit_tables) as well, which FiniteRing calls
    only when it makes tables: they are then read off the digit form,
    whichever closures serve."""
    _check_cap(order, resolve_max_order(max_order), label)
    positions = tuple(positions)
    bases = tuple(islice(bases, len(positions)))
    radices = tuple(B.order for B in bases)
    flags = tuple(bool(unity(key)) for key in positions)
    slot = {key: p for p, key in enumerate(positions)}
    digit_terms = [[(slot[s], slot[t]) for s, t in terms(key)] for key in positions]
    digit_ops = ops(bases[0]) if ops is not None else {}
    if len(digit_ops) < 6:  # _digit_ops makes the operations that ops leaves out
        digit_ops = {**_digit_ops(radices, bases, digit_terms), **digit_ops}
    one = (pack_digits(radices, [B.one if f else B.zero for f, B in zip(flags, bases)])
           if all(B.unital for B in bases) else None)
    return FiniteRing(order, zero=pack_digits(radices, [B.zero for B in bases]), one=one,
                      spec=spec, label=label, element_label=lambda i: element_label(
                          dict(zip(positions, unpack_digits(radices, i)))),
                      meta={**meta, "radices": radices, "positions": positions, "unity": flags},
                      tabulate=(_digit_tables(radices, bases, digit_terms)
                                if order >= _DIGIT_TABLE_MIN_ORDER else None), **digit_ops)


def ring_pack(ring: FiniteRing, digits: Sequence[int]) -> int:
    """Element index from its digit tuple, for digit-structured rings."""
    return pack_digits(ring.meta["radices"], digits)


def ring_unpack(ring: FiniteRing, i: int) -> list[int]:
    """Digit tuple of an element index, for digit-structured rings."""
    return unpack_digits(ring.meta["radices"], i)


# ---------------------------------------------------------------------------
# constructors


def zn_ring(n: int, spec: Optional[RingSpec] = None,
            max_order: Optional[int] = None) -> FiniteRing:
    """Residue ring of integers modulo n."""
    check_size(Zn, n)
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
        add_vec=lambda a, b: (i64(a) + b) % n,
        mul_vec=lambda a, b: (i64(a) * i64(b)) % n,
        neg_vec=lambda a: (-i64(a)) % n,
    )


def product_ring(bases: Sequence[FiniteRing], spec: Optional[RingSpec] = None,
                 max_order: Optional[int] = None) -> FiniteRing:
    """Direct product with componentwise operations, first component slowest."""
    if not bases:
        raise SpecError("product needs at least one factor")
    bases = tuple(bases)

    def elabel(d):
        return "(" + ",".join(B.element_label(d[p]) for p, B in enumerate(bases)) + ")"

    return _digit_ring("x".join(B.label for B in bases), math.prod(B.order for B in bases),
                       max_order, spec, bases, range(len(bases)), lambda p: [(p, p)],
                       lambda p: True, elabel, {"kind": "product", "bases": bases})


def _matrix_label(base: FiniteRing, k: int, d: dict) -> str:
    """Element label of a k x k matrix or triangular ring over the base, from
    its digits by cell; a cell with no digit holds the base's zero."""
    rows = ("[" + ",".join(base.element_label(d.get((r, c), base.zero)) for c in range(k)) + "]"
            for r in range(k))
    return "[" + ",".join(rows) + "]"


def matrix_ring(base: FiniteRing, k: int, spec: Optional[RingSpec] = None,
                max_order: Optional[int] = None) -> FiniteRing:
    """Full k x k matrix ring over the base, entries stored row-major."""
    check_size(Matrix, k)
    return _digit_ring(_label(Matrix, base, k=k), _power(base.order, k * k), max_order, spec,
                       repeat(base), ((i, j) for i in range(k) for j in range(k)),
                       lambda ij: [((ij[0], l), (l, ij[1])) for l in range(k)],
                       lambda ij: ij[0] == ij[1], partial(_matrix_label, base, k),
                       {"kind": "matrix", "k": k, "base": base},
                       ops=_m2_ops if k == 2 else None)


def triangular_ring(base: FiniteRing, k: int, spec: Optional[RingSpec] = None,
                    max_order: Optional[int] = None) -> FiniteRing:
    """Upper triangular k x k matrix ring; stored entries are (i, j) with i <= j."""
    check_size(Triangular, k)
    return _digit_ring(_label(Triangular, base, k=k), _power(base.order, k * (k + 1) // 2),
                       max_order, spec, repeat(base),
                       ((i, j) for i in range(k) for j in range(i, k)),
                       lambda ij: [((ij[0], l), (l, ij[1])) for l in range(ij[0], ij[1] + 1)],
                       lambda ij: ij[0] == ij[1], partial(_matrix_label, base, k),
                       {"kind": "triangular", "k": k, "base": base})


def poly_mod_ring(base: FiniteRing, n: int, spec: Optional[RingSpec] = None,
                  max_order: Optional[int] = None) -> FiniteRing:
    """Polynomials over the base truncated at degree n, i.e. x^n = 0.

    Elements are coefficient tuples with the constant term first; products are
    convolutions with terms of degree n or higher dropped.
    """
    check_size(PolyMod, n)
    is_zn = base.meta.get("kind") == "zn"

    def elabel(d):
        if not is_zn:
            return "poly(" + ",".join(base.element_label(c) for c in d.values()) + ")"
        terms = []
        for t, c in d.items():
            if c == base.zero:
                continue
            if t == 0:
                terms.append(str(c))
            elif t == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{t}" if c == 1 else f"{c}x^{t}")
        return "+".join(terms) if terms else "0"

    return _digit_ring(_label(PolyMod, base, n=n), _power(base.order, n), max_order, spec,
                       repeat(base), range(n), lambda t: [(u, t - u) for u in range(t + 1)],
                       lambda t: t == 0, elabel, {"kind": "polymod", "n": n, "base": base})


def trivial_ext_ring(base: FiniteRing, spec: Optional[RingSpec] = None,
                     max_order: Optional[int] = None) -> FiniteRing:
    """Trivial extension of the base by itself as a bimodule.

    Elements are pairs (a, x); products are (a, x)(b, y) = (ab, ay + xb), so the
    module part squares to zero.
    """
    terms = {"a": [("a", "a")], "x": [("a", "x"), ("x", "a")]}  # digits a and x of (a, x)
    return _digit_ring(_label(TrivialExt, base), base.order * base.order, max_order, spec,
                       repeat(base), "ax", terms.get, lambda key: key == "a",
                       lambda d: f"({base.element_label(d['a'])}|{base.element_label(d['x'])})",
                       {"kind": "trivext", "base": base}, ops=_triv_ops)


def opposite(ring: FiniteRing, spec: Optional[RingSpec] = None) -> FiniteRing:
    """Same additive group with multiplication reversed."""
    if spec is None and ring.spec is not None:
        spec = Opposite(ring.spec)
    label = _label(Opposite, ring)
    mul, mul_vec = ring.mul, ring.mul_vec
    ops = dict(add=ring.add, mul=lambda a, b: mul(b, a), neg=ring.neg, add_vec=ring.add_vec,
               mul_vec=lambda x, y: mul_vec(y, x), neg_vec=ring.neg_vec)
    if ring.mul_table is not None:  # given tables: no fill, and a core to share
        ops = dict(add=ring.add_table, mul=ring.mul_table.T, neg=ring.neg_table)
    return FiniteRing(ring.order, zero=ring.zero, one=ring.one, spec=spec, label=label,
                      element_label=ring.element_label,
                      meta={"kind": "opposite", "base": ring}, **ops)


def subring(parent: FiniteRing, members: Iterable[int], one: Optional[int] = None,
            detect_one: bool = False, spec: Optional[RingSpec] = None,
            label: Optional[str] = None) -> FiniteRing:
    """Ring on a subset of the parent closed under its operations.

    Elements are reindexed 0..k-1 in parent index order; the tuple of parent
    indices is kept on the result as ``members``, and its inverse, a dict
    from parent index to subring index, as ``index``.
    """
    mem = sorted(set(members))
    label = label or f"Sub({parent.label})"
    _check_table_cap(len(mem), spec or label)
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
                      label=label,
                      element_label=lambda i, _m=tuple(mem): parent.element_label(_m[i]),
                      meta={"kind": "subring", "base": parent})
    ring.members = tuple(mem)
    ring.index = {m: i for i, m in enumerate(mem)}
    return ring


def corner_ring(parent: FiniteRing, e: int, spec: Optional[RingSpec] = None) -> FiniteRing:
    """Corner e*R*e for an idempotent e; unital with unity e. At e = 1 it is
    the parent itself, or with a spec a new ring on the parent's operations."""
    if not 0 <= e < parent.order:
        raise SpecError(f"element {e} out of range")
    er = parent.mul_vec(e, np.arange(parent.order))  # e*r for every r
    if er[e] != e:
        raise SpecError(f"corner needs an idempotent, {e} is not one")
    label = _label(Corner, parent, e=e)
    if parent.unital and e == parent.one:
        if spec is None:
            return parent
        # a subring would tabulate order^2 cells, even above the table cap
        return FiniteRing(parent.order, parent.add, parent.mul, parent.neg, zero=parent.zero,
                          one=e, spec=spec, label=label, element_label=parent.element_label,
                          meta={"kind": "corner", "base": parent}, add_vec=parent.add_vec,
                          mul_vec=parent.mul_vec, neg_vec=parent.neg_vec)
    members = parent.mul_vec(er, e).tolist()
    if spec is None and parent.spec is not None:
        spec = Corner(parent.spec, e)
    return subring(parent, members, one=e, spec=spec, label=label)


def ideal_subring(parent: FiniteRing, members: Iterable[int],
                  spec: Optional[RingSpec] = None, label: Optional[str] = None) -> FiniteRing:
    """An ideal viewed as a ring of its own; unity detected if one exists."""
    return subring(parent, members, detect_one=True, spec=spec,
                   label=label or f"Ideal({parent.label})")


def quotient(parent: FiniteRing, ideal,
             spec: Optional[RingSpec] = None) -> tuple[FiniteRing, list[int]]:
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
    label = f"{parent.label}/I{len(ideal.members)}"
    _check_table_cap(n // len(ideal.members), spec or label)
    elements = np.arange(n)
    members = np.array(ideal.members, dtype=np.int64)
    smallest = np.empty(n, dtype=np.int64)  # the smallest element of x + I
    for s in row_blocks(n, n):
        smallest[s] = parent.add_vec(elements[s, None], members).min(axis=1)
    rep = np.flatnonzero(smallest == elements)
    number = np.empty(n, dtype=np.int64)
    number[rep] = np.arange(len(rep))
    cosets = number[smallest]
    reps, proj = rep.tolist(), cosets.tolist()
    add_t = cosets[parent.add_vec(rep[:, None], rep)]
    mul_t = cosets[parent.mul_vec(rep[:, None], rep)]
    neg_t = cosets[parent.neg_vec(rep)]
    one = proj[parent.one] if parent.unital else None
    ring = FiniteRing(len(reps), add_t, mul_t, neg_t, zero=proj[parent.zero], one=one,
                      spec=spec, label=label,
                      element_label=lambda i, _r=tuple(reps): f"[{parent.element_label(_r[i])}]",
                      meta={"kind": "quotient", "base": parent})
    ring.reps = tuple(reps)
    ring.projection = tuple(proj)
    return ring, proj


def quotient_cached(parent: FiniteRing, ideal) -> FiniteRing:
    """The ring of quotient(parent, ideal), kept in the parent's cache under
    ("quotient", members), so that it is built and validated once."""
    return parent.memo(("quotient", ideal.members), lambda: quotient(parent, ideal)[0])


def build(spec: RingSpec, max_order: Optional[int] = None) -> FiniteRing:
    """Materialize a RingSpec into a new FiniteRing, enforcing the order cap.

    The sub-specs (parts and bases) come from the per-process build cache,
    so each intermediate ring is built and validated once per process and
    shared; only the ring returned is built on every call. The cache is
    unbounded: every base stays in memory, with its tables and memo cache,
    until the process ends (about 4 MB for a tabled base of order 1024).
    A ring given tables (ideal ring, quotient, corner, opposite of a tabled
    base) is proved only when no live ring holds an equal table set; it
    shares that ring's core otherwise (see FiniteRing)."""
    cap = resolve_max_order(max_order)
    known = spec_order(spec)
    if known is not None:
        _check_cap(known, cap, str(spec))
    if isinstance(spec, Zn):
        return zn_ring(spec.n, spec=spec, max_order=cap)
    if isinstance(spec, Product):
        bases = [_build_cached(p, cap) for p in spec.parts]
        return product_ring(bases, spec=spec, max_order=cap)
    if isinstance(spec, Matrix):
        return matrix_ring(_build_cached(spec.base, cap), spec.k, spec=spec, max_order=cap)
    if isinstance(spec, Triangular):
        return triangular_ring(_build_cached(spec.base, cap), spec.k, spec=spec, max_order=cap)
    if isinstance(spec, PolyMod):
        return poly_mod_ring(_build_cached(spec.base, cap), spec.n, spec=spec, max_order=cap)
    if isinstance(spec, TrivialExt):
        return trivial_ext_ring(_build_cached(spec.base, cap), spec=spec, max_order=cap)
    if isinstance(spec, Opposite):
        return opposite(_build_cached(spec.base, cap), spec=spec)
    if isinstance(spec, Corner):
        return corner_ring(_build_cached(spec.base, cap), spec.e, spec=spec)
    if isinstance(spec, (Quotient, IdealRing)):
        from .structure import ideal_generated

        base = _build_cached(spec.base, cap)
        for g in spec.generators:
            if not 0 <= g < base.order:
                raise SpecError(f"generator {g} out of range for {base.label}")
        ideal = ideal_generated(base, spec.generators)
        if isinstance(spec, Quotient):
            return quotient(base, ideal, spec=spec)[0]
        return ideal_subring(base, ideal.members, spec=spec, label=str(spec))
    raise TypeError(f"unknown spec node {type(spec).__name__}")


@lru_cache(maxsize=None)
def _build_cached(spec: RingSpec, cap: int) -> FiniteRing:
    return build(spec, max_order=cap)


def build_cached(spec: RingSpec, max_order: Optional[int] = None) -> FiniteRing:
    """build() with memoization on (spec, effective cap)."""
    return _build_cached(spec, resolve_max_order(max_order))
