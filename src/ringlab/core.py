"""Finite associative rings on integer element indices, with validated tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

Element = int

DEFAULT_TABLE_CAP = 1024
DEFAULT_VALIDATE_CAP = 256

_AXIOM_CHUNK = 1 << 24  # tensor entries compared per block during validation

VecOp = Callable[..., np.ndarray]


def index_dtype(order: int):
    """Smallest unsigned dtype that holds every element index of a ring."""
    return np.uint16 if order <= (1 << 16) else np.uint32


class RingLabError(Exception):
    """Base error for this package."""


class NonUnitalRingError(RingLabError):
    """Raised when an operation needs a unity the ring lacks."""


class OrderCapError(RingLabError):
    """Raised when a construction or check exceeds a configured size cap."""


class WitnessError(RingLabError):
    """Raised when witness data fails its verification."""


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    elements: tuple[int, ...]

    def __str__(self) -> str:
        inside = ", ".join(str(e) for e in self.elements)
        return f"{self.axiom} fails at ({inside})"


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failure: Optional[AxiomFailure] = None

    def __str__(self) -> str:
        return "ok" if self.ok else str(self.failure)


TableLike = Union[Callable[[int, int], int], Sequence[Sequence[int]]]


def _as_table(op: TableLike, order: int) -> Optional[list[list[int]]]:
    if callable(op):
        return None
    table = [list(row) for row in op]
    if len(table) != order or any(len(row) != order for row in table):
        raise ValueError(f"table must be {order}x{order}")
    return table


class FiniteRing:
    """A finite ring on elements 0..order-1.

    ``add``, ``mul`` and ``neg`` are callables on indices. For orders up to
    ``table_cap`` they are backed by tables materialized once at construction
    (``add_table`` and friends); above the cap they stay lazy closures and the
    table attributes are None. Instances are immutable by convention; ``cache``
    holds memoized derived data (structure scans, witnesses, verdicts).

    ``add_vec``, ``mul_vec``, ``neg_vec`` and ``sub_vec`` are the same
    operations on integer index arrays of one shape. A tabled ring gathers
    from a numpy copy of its table, made on first use; a lazy ring uses the
    vector closure it was given, or else maps its scalar operation.
    """

    def __init__(
        self,
        order: int,
        add: TableLike,
        mul: TableLike,
        neg: Union[Callable[[int], int], Sequence[int]],
        zero: int = 0,
        one: Optional[int] = None,
        spec=None,
        label: Optional[str] = None,
        element_label: Optional[Callable[[int], str]] = None,
        meta: Optional[dict] = None,
        table_cap: int = DEFAULT_TABLE_CAP,
        validate: Optional[bool] = None,
        add_vec: Optional[VecOp] = None,
        mul_vec: Optional[VecOp] = None,
        neg_vec: Optional[VecOp] = None,
    ):
        if order < 1:
            raise ValueError("ring order must be at least 1")
        self.order = order
        self.zero = zero
        self.one = one
        self.unital = one is not None
        self.spec = spec
        self.label = label if label is not None else (str(spec) if spec is not None else f"ring{order}")
        self.meta = meta or {}
        self.cache: dict = {}

        add_table = _as_table(add, order)
        mul_table = _as_table(mul, order)
        neg_table = None if callable(neg) else list(neg)

        if add_table is None and order <= table_cap:
            add_table = [[add(a, b) for b in range(order)] for a in range(order)]
        if mul_table is None and order <= table_cap:
            mul_table = [[mul(a, b) for b in range(order)] for a in range(order)]
        if neg_table is None and order <= table_cap:
            neg_table = [neg(a) for a in range(order)]

        self.add_table = add_table
        self.mul_table = mul_table
        self.neg_table = neg_table

        self.add = (lambda a, b, _t=add_table: _t[a][b]) if add_table is not None else add
        self.mul = (lambda a, b, _t=mul_table: _t[a][b]) if mul_table is not None else mul
        self.neg = (lambda a, _t=neg_table: _t[a]) if neg_table is not None else neg
        self.sub = lambda a, b, _add=self.add, _neg=self.neg: _add(a, _neg(b))

        self.add_vec = self._table_vec("add_table") if add_table is not None else (
            add_vec or _map_vec(add))
        self.mul_vec = self._table_vec("mul_table") if mul_table is not None else (
            mul_vec or _map_vec(mul))
        self.neg_vec = self._table_vec("neg_table") if neg_table is not None else (
            neg_vec or _map_vec(neg))
        self.sub_vec = lambda a, b, _add=self.add_vec, _neg=self.neg_vec: _add(a, _neg(b))

        self._element_label = element_label

        if validate is None:
            validate = add_table is not None and order <= DEFAULT_VALIDATE_CAP
        if validate:
            report = validate_axioms(self)
            if not report.ok:
                raise RingLabError(f"ring axioms violated in {self.label}: {report.failure}")

    def _table_vec(self, name: str) -> VecOp:
        """Gather from a flat numpy copy of a table, cached in ``cache`` on
        first use; a pair (a, b) sits at a * order + b."""
        cache = self.cache
        n = self.order

        def flat():
            table = cache.get(name)
            if table is None:
                table = cache[name] = np.array(getattr(self, name),
                                               dtype=index_dtype(n)).ravel()
            return table

        if name == "neg_table":
            return lambda a: flat().take(a)
        return lambda a, b: flat().take(np.multiply(a, n, dtype=np.int64) + b)

    def element_label(self, i: int) -> str:
        if self._element_label is not None:
            return self._element_label(i)
        return str(i)

    def elements(self) -> range:
        return range(self.order)

    def require_unital(self, what: str) -> int:
        if self.one is None:
            raise NonUnitalRingError(f"{what} needs a unity but {self.label} has none")
        return self.one

    def __repr__(self) -> str:
        return f"<FiniteRing {self.label} order={self.order}>"


def _map_vec(op: Callable[..., int]) -> VecOp:
    """Vector form of a scalar operation: applies it element by element."""
    def vec(*args):
        arrays = np.broadcast_arrays(*args)
        flat = [x.ravel().tolist() for x in arrays]
        out = np.fromiter(map(op, *flat), dtype=np.int64, count=arrays[0].size)
        return out.reshape(arrays[0].shape)
    return vec


def _first_mismatch(lhs, rhs, n: int) -> Optional[tuple[int, int, int]]:
    """First differing index of two lazily-built (n, n, n) tensors, or None."""
    chunk = max(1, _AXIOM_CHUNK // max(1, n * n))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        left = lhs(start, stop)
        right = rhs(start, stop)
        if not np.array_equal(left, right):
            a, b, c = np.argwhere(left != right)[0]
            return int(a) + start, int(b), int(c)
    return None


def validate_axioms(ring: FiniteRing) -> AxiomReport:
    """Exhaustively check the ring axioms against the materialized tables.

    Returns a verdict; on failure the report names the broken axiom and the
    first offending element tuple in lexicographic order.
    """
    if ring.add_table is None or ring.mul_table is None or ring.neg_table is None:
        raise OrderCapError(
            f"axiom validation needs materialized tables; {ring.label} has order {ring.order}"
        )
    n = ring.order
    dtype = np.uint16 if n <= (1 << 16) else np.uint32
    A = np.array(ring.add_table, dtype=dtype)
    M = np.array(ring.mul_table, dtype=dtype)
    neg = np.array(ring.neg_table, dtype=dtype)
    idx = np.arange(n, dtype=dtype)
    zero = ring.zero

    def fail(axiom: str, elements) -> AxiomReport:
        return AxiomReport(False, AxiomFailure(axiom, tuple(int(e) for e in elements)))

    for name, T in (("add-closure", A), ("mul-closure", M)):
        bad = np.argwhere(T >= n)
        if len(bad):
            return fail(name, bad[0])
    if (neg >= n).any():
        return fail("neg-closure", (int(np.argwhere(neg >= n)[0][0]),))

    bad = np.argwhere(A != A.T)
    if len(bad):
        return fail("add-commutativity", bad[0])

    tri = _first_mismatch(lambda s, t: A[A[s:t]], lambda s, t: A[s:t][:, A], n)
    if tri:
        return fail("add-associativity", tri)

    bad = np.argwhere(A[zero] != idx)
    if len(bad):
        return fail("add-zero", (int(bad[0][0]),))

    bad = np.argwhere(A[idx, neg] != zero)
    if len(bad):
        return fail("add-negation", (int(bad[0][0]),))

    tri = _first_mismatch(lambda s, t: M[M[s:t]], lambda s, t: M[s:t][:, M], n)
    if tri:
        return fail("mul-associativity", tri)

    tri = _first_mismatch(
        lambda s, t: M[s:t][:, A],
        lambda s, t: A[M[s:t][:, :, None], M[s:t][:, None, :]],
        n,
    )
    if tri:
        return fail("left-distributivity", tri)

    tri = _first_mismatch(
        lambda s, t: M[A[s:t]],
        lambda s, t: A[M[s:t][:, None, :], M[None, :, :]],
        n,
    )
    if tri:
        return fail("right-distributivity", tri)

    bad = np.argwhere(M[zero] != zero)
    if len(bad):
        return fail("mul-zero-left", (int(bad[0][0]),))
    bad = np.argwhere(M[:, zero] != zero)
    if len(bad):
        return fail("mul-zero-right", (int(bad[0][0]),))

    if ring.unital:
        bad = np.argwhere(M[ring.one] != idx)
        if len(bad):
            return fail("unity-left", (int(bad[0][0]),))
        bad = np.argwhere(M[:, ring.one] != idx)
        if len(bad):
            return fail("unity-right", (int(bad[0][0]),))

    return AxiomReport(True)


def power(ring: FiniteRing, a: int, k: int) -> int:
    """a^k for k >= 1 by repeated squaring."""
    if k < 1:
        raise ValueError("exponent must be positive")
    mul = ring.mul
    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def power_seq(ring: FiniteRing, a: int) -> tuple[list[int], int, int]:
    """Powers a^1, a^2, ... until the first repeat.

    Returns (powers, preperiod, period) where powers[t-1] = a^t for
    t = 1 .. preperiod+period-1 and a^(preperiod+period) = a^preperiod.
    """
    mul = ring.mul
    seen = {a: 1}
    powers = [a]
    cur = a
    k = 1
    while True:
        cur = mul(cur, a)
        k += 1
        j = seen.get(cur)
        if j is not None:
            return powers, j, k - j
        seen[cur] = k
        powers.append(cur)


def power_trajectory(ring: FiniteRing, a: int) -> tuple[int, int]:
    """Minimal (preperiod, period) of the power sequence of a."""
    _, i, p = power_seq(ring, a)
    return i, p


def power_from_seq(powers: list[int], preperiod: int, period: int, t: int) -> int:
    """a^t read off a power_seq result, reducing exponents past the preperiod."""
    if t < 1:
        raise ValueError("exponent must be positive")
    if t <= len(powers):
        return powers[t - 1]
    return powers[preperiod - 1 + ((t - preperiod) % period)]


def nil_index_of(ring: FiniteRing, a: int) -> Optional[int]:
    """Least k with a^k = 0, or None if a is not nilpotent. Index of 0 is 1."""
    if a == ring.zero:
        return 1
    powers, _, _ = power_seq(ring, a)
    try:
        return powers.index(ring.zero) + 1
    except ValueError:
        return None
