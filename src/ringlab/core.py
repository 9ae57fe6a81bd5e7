"""Finite associative rings on integer element indices, with validated tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

Element = int

DEFAULT_TABLE_CAP = 1024
DEFAULT_VALIDATE_CAP = DEFAULT_TABLE_CAP

_AXIOM_CHUNK = 1 << 19  # tensor entries compared per block during validation
_FILL_CHUNK = 1 << 16  # pairs per vector call when a table is filled

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


class SpecError(RingLabError, ValueError):
    """Raised when a ring constructor's argument is outside its domain."""


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


TableLike = Union[Callable[[int, int], int], Sequence[Sequence[int]], np.ndarray]


def _fill(vec: VecOp, shape: tuple, dtype) -> np.ndarray:
    """The table of a vector operation, filled over all elements or pairs at
    once (row blocks of at most _FILL_CHUNK pairs)."""
    n = shape[0]
    idx = np.arange(n)
    table = np.empty(shape, dtype=dtype)
    if len(shape) == 1:
        table[:] = vec(idx)
    else:
        rows = max(1, _FILL_CHUNK // n)
        for start in range(0, n, rows):
            table[start:start + rows] = vec(idx[start:start + rows, None], idx)
    return table


class _Rows:
    """Default ``_r`` of a tabled ring's scalar op ``lambda a, b, _r: _r[a][b]``
    until the op's first call: indexing it makes the table's list rows and
    puts them in the op's defaults in its place, so that every later call,
    also through a reference taken before, indexes the lists directly."""

    __slots__ = ("op", "table")

    def __init__(self, op, table: np.ndarray):
        self.op, self.table = op, table

    def __getitem__(self, a):
        rows = self.table.tolist()
        self.op.__defaults__ = (rows,)
        return rows[a]


class FiniteRing:
    """A finite ring on elements 0..order-1.

    ``add``, ``mul``, ``neg`` and ``sub`` are callables on indices, and
    ``add_vec``, ``mul_vec``, ``neg_vec`` and ``sub_vec`` the same operations
    on index arrays of one shape. Up to order ``table_cap`` each operation has
    one read-only table in ``index_dtype(order)``, made at construction:
    ``add_table``/``mul_table`` (order, order) and ``neg_table`` (order,),
    flat in ``cache`` under the same names. Closures are filled through their
    vector form; a list or array is converted. The vector ops gather from the
    flat tables; the scalar ops read Python lists (``rows``, a list index
    costs half a numpy one), those of add and mul made on their first call.
    Above the cap the table attributes are None and the closures given serve
    (the scalar one mapped when no vector form is given). ``validated`` is
    True when the axioms were checked (and held) at construction. Instances
    are immutable by convention; ``cache`` holds memoized derived data.
    """

    def __init__(
        self,
        order: int,
        add: TableLike,
        mul: TableLike,
        neg: Union[Callable[[int], int], Sequence[int], np.ndarray],
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

        dtype = index_dtype(order)
        for name, op, vec, shape in (("add", add, add_vec, (order, order)),
                                     ("mul", mul, mul_vec, (order, order)),
                                     ("neg", neg, neg_vec, (order,))):
            if not callable(op):
                table = np.array(op, dtype=dtype)
                if table.shape != shape:
                    raise ValueError(f"table must be {'x'.join(map(str, shape))}")
            else:
                table = _fill(vec or _map_vec(op), shape, dtype) if order <= table_cap else None
            setattr(self, f"{name}_table", table)
            if table is None:
                setattr(self, name, op)
                setattr(self, f"{name}_vec", vec or _map_vec(op))
                continue
            table.flags.writeable = False
            flat = self.cache[f"{name}_table"] = table.ravel()
            if name == "neg":  # n entries: its list is made at once
                self.neg = table.tolist().__getitem__
                self.neg_vec = flat.take
            else:
                read = lambda a, b, _r=None: _r[a][b]
                read.__defaults__ = (_Rows(read, table),)
                setattr(self, name, read)
                setattr(self, f"{name}_vec", lambda a, b, _t=flat: _t.take(
                    np.multiply(a, order, dtype=np.int64) + b))
        self.sub = lambda a, b, _add=self.add, _neg=self.neg: _add(a, _neg(b))
        self.sub_vec = lambda a, b, _add=self.add_vec, _neg=self.neg_vec: _add(a, _neg(b))

        self._element_label = element_label

        if validate is None:
            validate = self.add_table is not None and order <= DEFAULT_VALIDATE_CAP
        if validate:
            report = validate_axioms(self)
            if not report.ok:
                raise RingLabError(f"ring axioms violated in {self.label}: {report.failure}")
        self.validated = bool(validate)

    def rows(self, name: str) -> list:
        """Table ``name`` ("add", "mul" or "neg") of a tabled ring as the
        Python list (of rows) that its scalar op reads, made now if need be."""
        op = getattr(self, name)
        if name == "neg":
            return op.__self__
        op.__defaults__[0][0]  # makes the rows if they are not made yet
        return op.__defaults__[0]

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


def _tables(ring: FiniteRing):
    """(add, mul, neg) as numpy arrays of shape (n, n), (n, n) and (n,)."""
    if ring.add_table is None or ring.mul_table is None or ring.neg_table is None:
        raise OrderCapError(
            f"axiom validation needs materialized tables; {ring.label} has order {ring.order}"
        )
    return ring.add_table, ring.mul_table, ring.neg_table


def validate_axioms(ring: FiniteRing) -> AxiomReport:
    """Check the ring axioms against the materialized tables, exactly.

    Returns a verdict; on failure the report names the broken axiom and the
    first offending element tuple in lexicographic order.

    The check costs O(n^2 |G|), where G is an additive
    generating set from ``_additive_generators`` (|G| <= log2 n when (R, +)
    is a group). After the O(n^2) checks (closure, commutativity of +, zero,
    negation, zero rows, unity), it verifies

    * Light's test (x + g) + y = x + (g + y) for all x, y and g in G;
    * a(b + g) = ab + ag and (b + g)a = ba + ga for all a, b and g in G;
    * (gh)k = g(hk) for g, h, k in G.

    Call an element good for an identity when the identity holds with it in
    the place of g. The good elements of each test contain 0 (by the zero
    checks) and are closed under +: for Light's test, if g and h are good then
    (x + (g + h)) + y = ((x + g) + h) + y = (x + g) + (h + y)
    = x + (g + (h + y)) = x + ((g + h) + y); for distributivity,
    a(b + (g + h)) = a((b + g) + h) = a(b + g) + ah = (ab + ag) + ah
    = ab + a(g + h). Every element is a sum x + g of a smaller sum and a
    generator, so every element is good: + is associative and both
    distributive laws hold. Both sides of (ab)c = a(bc) are then additive in
    each of a, b and c, so agreement on G^3 extends to all of R^3, one
    argument at a time.

    Any failure is reported by ``_validate_cubic``, the direct O(n^3) check,
    so the axiom and tuple named are those of the first failure in its order.
    """
    if _axioms_hold(ring):
        return AxiomReport(True)
    return _validate_cubic(ring)


def _additive_generators(add_table: np.ndarray, zero: int) -> Optional[list[int]]:
    """Greedy additive generating set: the smallest element not yet reached
    is the next generator, where reached means a left-bracketed sum
    (...((0 + g1) + g2) + ...) + gk of generators. In a group each generator
    at least doubles the subgroup reached, so more than log2 n generators
    prove (R, +) is no group; None is returned then."""
    add_table = np.asarray(add_table)
    n = len(add_table)
    seen = [False] * n
    seen[zero] = True
    reached = [zero]
    gens: list[int] = []
    cols: list[list[int]] = []  # cols[i][x] = x + gens[i]
    for c in range(n):
        if seen[c]:
            continue
        if 1 << (len(gens) + 1) > n:
            return None
        gens.append(c)
        cols.append(add_table[:, c].tolist())
        todo = [(x, cols[-1]) for x in reached]
        while todo:
            x, col = todo.pop()
            y = col[x]
            if not seen[y]:
                seen[y] = True
                reached.append(y)
                todo.extend((y, h) for h in cols)
    return gens


def _axioms_hold(ring: FiniteRing) -> bool:
    """The axioms hold: the exact O(n^2 |G|) test of ``validate_axioms``."""
    A, M, neg = _tables(ring)
    n = ring.order
    zero = ring.zero
    idx = np.arange(n)
    if (A >= n).any() or (M >= n).any() or (neg >= n).any():
        return False
    if not (np.array_equal(A, A.T) and np.array_equal(A[zero], idx)
            and (A[idx, neg] == zero).all()
            and (M[zero] == zero).all() and (M[:, zero] == zero).all()):
        return False
    if ring.unital and not (np.array_equal(M[ring.one], idx)
                            and np.array_equal(M[:, ring.one], idx)):
        return False
    G = _additive_generators(ring.add_table, zero)
    if G is None:
        return False
    if not G:
        return True
    # Each side below is one gather into an array indexed (row, g, column),
    # so that the compared arrays are contiguous. As + is commutative (checked
    # above), the distributivity gathers read a(g + b) for a(b + g) and
    # ag + ab for ab + ag, and likewise on the right.
    AG = A[:, G]  # AG[x, g] = x + g
    GA = A[G]     # GA[g, y] = g + y
    GM = M[G]     # GM[g, a] = ga
    MGn = M[:, G] * np.intp(n)  # flat row offsets of ag in A
    GMn = GM * np.intp(n)       # flat row offsets of ga in A
    flat = A.ravel()
    rows = max(1, _AXIOM_CHUNK // (n * len(G)))
    for s in range(0, n, rows):
        t = s + rows
        Ms = M[s:t]
        if not (np.array_equal(A.take(AG[s:t], axis=0), A[s:t].take(GA, axis=1))
                and np.array_equal(Ms.take(GA, axis=1),
                                   flat.take(MGn[s:t, :, None] + Ms[:, None, :]))
                and np.array_equal(M.take(AG[s:t], axis=0),
                                   flat.take(GMn[None, :, :] + Ms[:, None, :]))):
            return False
    GG = GM[:, G]  # GG[g, h] = gh
    return np.array_equal(M.take(GG, axis=0)[:, :, G], GM.take(GG, axis=1))


def _validate_cubic(ring: FiniteRing) -> AxiomReport:
    """Direct O(n^3) check of the ring axioms, in a fixed order; the report
    names the first failing axiom and its first failing tuple in
    lexicographic order. ``validate_axioms`` reports through it."""
    A, M, neg = _tables(ring)
    n = ring.order
    idx = np.arange(n)
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
