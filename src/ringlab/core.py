"""Finite associative rings on integer element indices, with validated tables."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, Union

import numpy as np

DEFAULT_TABLE_CAP = 1024

# Cells per block of the blocked array passes (row_blocks): (row, element) of
# the structure scans and of construct.quotient; (r, element) of
# kernel.witness_pass, whose r*a block both witness forms read, and its
# (idempotent, x, element) cells of the wncl membership masks; the (row, y)
# and (row, g, y) cells of the identities validate_axioms compares and the
# (a, b, c) cells of its cubic reporter. The table fill (_fill) takes a
# quarter of that in (a, b) pairs, as a vector op holds a few int64
# temporaries per pair. It bounds the products, membership masks and
# differences of one block to a few megabytes.
# A batch of kernel.first_failures holds _PASS_CELLS // 32 elements:
# chunk_failures keeps at most 32 element-sized int64 arrays live at its peak
# (trajectory table, chain temporaries and vector-op scratch together), so a
# batch's working set stays under _PASS_CELLS int64 values, 2 MiB.
_PASS_CELLS = 1 << 18

VecOp = Callable[..., np.ndarray]


def row_blocks(count: int, row_cells: int) -> list:
    """Slices of range(count), each of at most _PASS_CELLS cells when a row
    holds row_cells of them, and of one row at least."""
    width = max(1, _PASS_CELLS // row_cells)
    return [slice(start, start + width) for start in range(0, count, width)]


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
    """The table of a vector operation, filled over all elements at once or
    over all pairs in row blocks of a quarter of _PASS_CELLS pairs."""
    n = shape[0]
    idx = np.arange(n)
    table = np.empty(shape, dtype=dtype)
    if len(shape) == 1:
        table[:] = vec(idx)
    else:
        for rows in row_blocks(n, 4 * n):
            table[rows] = vec(idx[rows, None], idx)
    return table


class _Rows:
    """Default ``slot`` of a scalar op until the op's first index into it:
    indexing it makes the table's Python list (of rows) and puts that in
    the op's defaults in its place, so that every later call, also through
    a reference taken before, indexes the list directly."""

    __slots__ = ("op", "slot", "table")

    def __init__(self, op, slot: int, table: np.ndarray):
        self.op, self.slot, self.table = op, slot, table

    def __getitem__(self, a):
        defaults = self.op.__defaults__
        rows = defaults[self.slot]
        if rows is self:  # not made yet (a call may index a slot twice)
            rows = self.table.tolist()
            self.op.__defaults__ = defaults[:self.slot] + (rows,) + defaults[self.slot + 1:]
        return rows[a]


def lazy_lists(op: Callable, *tables: np.ndarray) -> Callable:
    """op, with its trailing parameters, one per table, defaulting to the
    tables' Python lists, each made on op's first index into it: a list
    index costs about half a numpy one, and an op never called makes none."""
    op.__defaults__ = tuple(_Rows(op, slot, t) for slot, t in enumerate(tables))
    return op


class FiniteRing:
    """A finite ring on elements 0..order-1.

    ``add``, ``mul``, ``neg`` and ``sub`` are callables on indices, and
    ``add_vec``, ``mul_vec``, ``neg_vec`` and ``sub_vec`` the same operations
    on index arrays of one shape. Up to order ``table_cap`` each operation has
    one read-only table in ``index_dtype(order)``, made at construction:
    ``add_table``/``mul_table`` (order, order) and ``neg_table`` (order,),
    flat in ``cache`` under the same names. Closures are filled through their
    vector form; a list or array is converted. The vector ops gather from the
    flat tables; the scalar ops read Python lists (see ``lazy_lists``), those
    of add and mul made on their first call.
    Above the cap the table attributes are None and the closures given serve
    (the scalar one mapped when no vector form is given). ``validated`` is
    True when the axioms were checked (and held) at construction. Instances
    are immutable by convention; ``cache`` holds the flat tables and data
    derived from the ring, kept through ``memo``, ``memoized`` and
    ``memoized_per_element``.
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
        for name, e in (("zero", zero), ("one", one)):
            if e is not None and not 0 <= e < order:
                raise ValueError(f"{name} {e} is not an element of a ring of order {order}")
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
                setattr(self, name, lazy_lists(lambda a, b, _r: _r[a][b], table))
                setattr(self, f"{name}_vec", lambda a, b, _t=flat: _t.take(
                    np.multiply(a, order, dtype=np.int64) + b))
        self.sub = lambda a, b, _add=self.add, _neg=self.neg: _add(a, _neg(b))
        self.sub_vec = lambda a, b, _add=self.add_vec, _neg=self.neg_vec: _add(a, _neg(b))

        self._element_label = element_label

        if validate is None:
            validate = self.add_table is not None and order <= DEFAULT_TABLE_CAP
        if validate:
            report = validate_axioms(self)
            if not report.ok:
                raise RingLabError(f"ring axioms violated in {self.label}: {report.failure}")
        self.validated = bool(validate)

    def element_label(self, i: int) -> str:
        if self._element_label is not None:
            return self._element_label(i)
        return str(i)

    def memo(self, key: Hashable, make: Callable[[], object]):
        """``cache[key]``, made by ``make()`` on first use: derived rings,
        ring verdicts and array passes."""
        cache = self.cache
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def require_unital(self, what: str) -> int:
        if self.one is None:
            raise NonUnitalRingError(f"{what} needs a unity but {self.label} has none")
        return self.one

    def __repr__(self) -> str:
        return f"<FiniteRing {self.label} order={self.order}>"


def memoized(key: str):
    """Decorator keeping a scan ``fn(ring)`` in ``ring.cache[key]``. The
    wrapper reads the cache itself, with no closure made per call, because
    scans are called inside element loops."""
    def decorate(fn):
        @functools.wraps(fn)
        def scan(ring):
            try:
                return ring.cache[key]
            except KeyError:
                pass
            value = ring.cache[key] = fn(ring)
            return value
        return scan
    return decorate


def memoized_per_element(fn):
    """Decorator keeping a search ``fn(ring, a)``, None (nothing found)
    included, in ``ring.cache[(fn.__name__, a)]``, read as in ``memoized``."""
    name = fn.__name__

    @functools.wraps(fn)
    def search(ring, a):
        key = (name, a)
        try:
            return ring.cache[key]
        except KeyError:
            pass
        value = ring.cache[key] = fn(ring, a)
        return value
    return search


def _map_vec(op: Callable[..., int]) -> VecOp:
    """Vector form of a scalar operation: applies it element by element."""
    def vec(*args):
        arrays = np.broadcast_arrays(*args)
        flat = [x.ravel().tolist() for x in arrays]
        out = np.fromiter(map(op, *flat), dtype=np.int64, count=arrays[0].size)
        return out.reshape(arrays[0].shape)
    return vec


def _first_true(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first True entry of mask in lexicographic order, or None."""
    cells = np.argwhere(mask)
    return tuple(int(e) for e in cells[0]) if len(cells) else None


def _first_mismatch(mask: Callable[[slice], np.ndarray], n: int) -> Optional[tuple[int, ...]]:
    """_first_true of an (n, n, n) boolean tensor, built in row blocks by
    mask(rows)."""
    for rows in row_blocks(n, n * n):
        cell = _first_true(mask(rows))
        if cell:
            return (cell[0] + rows.start, *cell[1:])
    return None


def validate_axioms(ring: FiniteRing) -> AxiomReport:
    """Check the ring axioms against the materialized tables, exactly.

    The check costs n^2 |G| + O(n^2) gathers, where G is the additive
    generating set of ``_generator_tree`` (|G| <= log2 n when (R, +) is
    a group), whose walk reaches each x != 0 as x = p + g, g in G, from an
    element p reached before x. It runs in phases, each only if those before
    it held (``_proof``). Phase 0 is the O(n^2) checks (closure,
    commutativity of +, zero, negation, zero rows); then it verifies

    1. (p + g) + y = p + (g + y) for every such tree edge x = p + g and all
       y, and g + (h + y) = h + (g + y) for g, h in G and all y;
    2. g(h + b) = gh + gb for g, h in G and all b, and (b + g)a = ba + ga
       for all a, b and g in G;
    3. (gh)k = g(hk) for g, h, k in G;
    4. 1a = a = a1 for all a, when the ring has a unity. No phase before
       uses the unity, so it comes last, and a wrong unity is reported
       without a cubic finder.

    Write L_x for the translation y -> x + y. The tree edges say
    L_{p+g} = L_p L_g, and L_0 is the identity, so every L_x is a product of
    generator translations, which commute with each other: the L_x lie in a
    commutative semigroup S of maps. S is transitive, as L_x(0) = x, so two of
    its maps h, k that agree at 0 are equal: h(s(0)) = s(h(0)) = s(k(0))
    = k(s(0)) for every s in S. L_x L_y and L_{x+y} both lie in S and send 0
    to x + y, so they are equal: + is associative.

    Call an element good for a distributive law when the law holds with it in
    the place of the generator. The good elements contain 0 (by the zero
    checks) and are closed under +: on the right,
    (b + (g + h))a = ((b + g) + h)a = (b + g)a + ha = (ba + ga) + ha
    = ba + (g + h)a, and on the left, for a fixed g in G, likewise
    g(b + (h + k)) = g(b + h) + gk = (gb + gh) + gk = gb + g(h + k). Every
    element is a sum of generators, so right distributivity holds on all of
    R^3, and g(b + c) = gb + gc for g in G and all b, c. The a with
    a(b + c) = ab + ac for all b, c are closed under + too, by right
    distributivity: (a + a')(b + c) = a(b + c) + a'(b + c)
    = (ab + a'b) + (ac + a'c) = (a + a')b + (a + a')c. So both distributive
    laws hold. Both sides of (ab)c = a(bc) are then additive in each of a, b
    and c, so agreement on G^3 extends to all of R^3, one argument at a time.

    So each phase proves its axioms given those before it. A failure is
    reported by ``_validate_cubic``, the direct O(n^3) check, which skips the
    axioms that the phases that held proved: it names the first failing axiom
    and its first element tuple in lexicographic order, as its full run would.
    """
    held = _proof(ring)
    return AxiomReport(True) if held == 5 else _validate_cubic(ring, held)


def _generator_tree(add_table: np.ndarray, zero: int):
    """Greedy additive generating set and its walk: (gens, tree), or None.

    The smallest element not yet reached is the next generator, where
    reached means a left-bracketed sum (...((0 + g1) + g2) + ...) + gk of
    generators. In a group each generator at least doubles the subgroup
    reached, so more than log2 n generators prove (R, +) is no group; None
    is returned then. tree lists the n - 1 edges (x, p, g) with x = p + g
    and g in gens, one for each x != zero, p reached before x."""
    add_table = np.asarray(add_table)
    n = len(add_table)
    seen = [False] * n
    seen[zero] = True
    reached = [zero]
    tree: list[tuple[int, int, int]] = []
    gens: list[int] = []
    cols: list[tuple[int, list[int]]] = []  # (g, col) with col[x] = x + g
    for c in range(n):
        if seen[c]:
            continue
        if 1 << (len(gens) + 1) > n:
            return None
        gens.append(c)
        cols.append((c, add_table[:, c].tolist()))
        old = len(reached)
        # the loop also visits the elements it appends: those meet every
        # generator, the ones reached before only the new one
        for j, x in enumerate(reached):
            for g, col in (cols if j >= old else cols[-1:]):
                y = col[x]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
                    tree.append((y, x, g))
    return gens, tree


def _proof(ring: FiniteRing) -> int:
    """How many phases of the proof of ``validate_axioms`` held, run in order
    up to the first that fails (5: the axioms hold), each identity compared
    in row blocks of at most _PASS_CELLS cells (row_blocks)."""
    A, M, neg = ring.add_table, ring.mul_table, ring.neg_table
    n, zero = ring.order, ring.zero
    if A is None or M is None or neg is None:
        raise OrderCapError(f"axiom validation needs materialized tables; {ring.label} "
                            f"has order {n}")
    idx = np.arange(n)
    if max(A.max(), M.max(), neg.max()) >= n or not (
            (A == A.T).all() and (A[zero] == idx).all() and (A[idx, neg] == zero).all()
            and (M[zero] == zero).all() and (M[:, zero] == zero).all()):
        return 0
    walk = _generator_tree(A, zero)
    if walk is None:
        return 1
    G, tree = walk
    if not G:
        return 5  # the zero ring, whose one is 0: phase 0 checked its row
    flat = A.ravel()
    # Translation identities L_u L_v = L_p L_w, one per row (u, v, p, w),
    # read u + (v + y) = p + (w + y) for all y: x + (0 + y) = p + (g + y) on
    # the tree edges x = p + g, and g + (h + y) = h + (g + y) on the pairs of
    # generators. Each side is one gather of (row, y) cells.
    rows = [(x * n, zero, p * n, g) for x, p, g in tree]
    rows += [(g * n, h, h * n, g) for i, g in enumerate(G) for h in G[:i]]
    Un, V, Pn, W = np.array(rows, dtype=np.intp).T
    for r in row_blocks(len(rows), n):
        if not (flat.take(Un[r, None] + A.take(V[r], axis=0))
                == flat.take(Pn[r, None] + A.take(W[r], axis=0))).all():
            return 1
    # Each side below is one gather into an array indexed (row, g, column),
    # so that the compared arrays are contiguous. As + is commutative (checked
    # above), g(h + b) is read for g(b + h) and gb + gh for gh + gb, and
    # likewise on the right.
    GA = A[G]  # GA[g, y] = g + y
    GM = M[G]  # GM[g, a] = ga
    GMn = GM * np.intp(n)  # flat row offsets of ga in A
    for r in row_blocks(len(G), n * len(G)):
        if not (GM[r].take(GA, axis=1)
                == flat.take(GMn[r, G][:, :, None] + GM[r, None, :])).all():
            return 2
    AG = A[:, G]  # AG[x, g] = x + g
    for r in row_blocks(n, n * len(G)):
        if not (M.take(AG[r], axis=0)
                == flat.take(GMn[None, :, :] + M[r, None, :])).all():
            return 2
    GG = GM[:, G]  # GG[g, h] = gh
    if not (M.take(GG, axis=0)[:, :, G] == GM.take(GG, axis=1)).all():
        return 3
    if ring.unital and not ((M[ring.one] == idx).all() and (M[:, ring.one] == idx).all()):
        return 4
    return 5


def _axioms_hold(ring: FiniteRing) -> bool:
    """The axioms hold: every phase of ``_proof`` held."""
    return _proof(ring) == 5


def _axiom_checks(ring: FiniteRing) -> list:
    """(axiom, phase, finder) in reporting order: the phase of ``_proof`` that
    proves the axiom, and the O(n^3) search for its first failing tuple."""
    A, M, neg = ring.add_table, ring.mul_table, ring.neg_table
    n = ring.order
    idx = np.arange(n)
    zero, one = ring.zero, ring.one
    checks = [
        ("add-closure", 0, lambda: _first_true(A >= n)),
        ("mul-closure", 0, lambda: _first_true(M >= n)),
        ("neg-closure", 0, lambda: _first_true(neg >= n)),
        ("add-commutativity", 0, lambda: _first_true(A != A.T)),
        ("add-associativity", 1, lambda: _first_mismatch(lambda r: A[A[r]] != A[r][:, A], n)),
        ("add-zero", 0, lambda: _first_true(A[zero] != idx)),
        ("add-negation", 0, lambda: _first_true(A[idx, neg] != zero)),
        ("mul-associativity", 3, lambda: _first_mismatch(lambda r: M[M[r]] != M[r][:, M], n)),
        ("left-distributivity", 2, lambda: _first_mismatch(
            lambda r: M[r][:, A] != A[M[r][:, :, None], M[r][:, None, :]], n)),
        ("right-distributivity", 2, lambda: _first_mismatch(
            lambda r: M[A[r]] != A[M[r][:, None, :], M[None, :, :]], n)),
    ]
    if ring.unital:
        checks += [("unity-left", 4, lambda: _first_true(M[one] != idx)),
                   ("unity-right", 4, lambda: _first_true(M[:, one] != idx))]
    return checks


def _validate_cubic(ring: FiniteRing, held: int = 0) -> AxiomReport:
    """Direct O(n^3) check of the axioms of _axiom_checks, in its order, but
    for those the first ``held`` phases of ``_proof`` proved. A finder runs
    only once those before it held, as later ones index by table values."""
    for axiom, phase, find in _axiom_checks(ring):
        elements = find() if phase >= held else None
        if elements is not None:
            return AxiomReport(False, AxiomFailure(axiom, elements))
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
