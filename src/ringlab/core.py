"""Finite associative rings on integer element indices, with validated tables."""

from __future__ import annotations

import functools
import weakref
import zlib
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


class _Core(dict):
    """The store of results that depend on a ring's tables alone, with the
    ``tables`` (add, mul, neg) it was proved on: one for each distinct table
    set of the live rings given tables (see FiniteRing)."""


# (order, zero, one, crc32 of the add and mul tables) -> live _Core
_CORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class FiniteRing:
    """A finite ring on elements 0..order-1.

    ``add``, ``mul``, ``neg`` and ``sub`` are callables on indices, and
    ``add_vec``, ``mul_vec``, ``neg_vec`` and ``sub_vec`` the same operations
    on index arrays of one shape. Up to order ``table_cap`` each operation has
    one read-only table in ``index_dtype(order)``, made at construction:
    ``add_table``/``mul_table`` (order, order) and ``neg_table`` (order,),
    flat in ``cache`` under the same names. Closures are filled through their
    vector form, or made by ``tabulate(name)`` for "add", "mul" and "neg"
    when it is given (a digit ring's tables, read off its digit form): a
    ring so made is still one filled from closures. A list or array is
    converted. ``tabulate`` is called only when the ring has tables, and the
    ring keeps no reference to it. The vector ops gather from the
    flat tables; the scalar ops read Python lists (see ``lazy_lists``), those
    of add and mul made on their first call.
    Above the cap the table attributes are None and the closures given serve
    (the scalar one mapped when no vector form is given). ``validated`` is
    True when the axioms were checked (and held) at construction, by default
    for every ring with tables, given ones at any order included. A ring
    given all three tables, unless ``validate=False``, shares the table core
    of the live rings given equal tables, zero and unity: their tables, their
    one proof and their ``shared`` store; every other ring's ``shared`` is its
    ``cache``. Instances are immutable by convention; ``cache`` holds the flat
    tables and what is tied to the ring object (derived rings, ideals, kept
    outcomes), ``shared`` the scans, searches, verdicts and array passes,
    kept through ``memo`` and the decorator ``memoized``.
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
        tabulate: Optional[Callable[[str], np.ndarray]] = None,
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
        ops = (("add", add, add_vec, (order, order)), ("mul", mul, mul_vec, (order, order)),
               ("neg", neg, neg_vec, (order,)))
        tables = {}
        for name, op, vec, shape in ops:
            if not callable(op):
                table = np.array(op, dtype=dtype, order="C")
                if table.shape != shape:
                    raise ValueError(f"table must be {'x'.join(map(str, shape))}")
            else:
                table = None
                if order <= table_cap:
                    table = tabulate(name) if tabulate else _fill(vec or _map_vec(op), shape, dtype)
            tables[name] = table
        key = core = None  # the core of a live ring given equal tables, if any
        if validate is not False and not any(map(callable, (add, mul, neg))):
            key = (order, zero, one, zlib.crc32(tables["add"]), zlib.crc32(tables["mul"]))
            core = _CORES.get(key)
            if core is not None and all(map(np.array_equal, core.tables.values(), tables.values())):
                tables = core.tables
            else:
                core = None
        for name, op, vec, _ in ops:
            table = tables[name]
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
            validate = self.add_table is not None
        if validate and core is None:
            report = validate_axioms(self)
            if not report.ok:
                raise RingLabError(f"ring axioms violated in {self.label}: {report.failure}")
            if key is not None:
                core = _CORES[key] = _Core()
                core.tables = tables
        self.shared = self.cache if core is None else core
        self.validated = bool(validate)

    def element_label(self, i: int) -> str:
        if self._element_label is not None:
            return self._element_label(i)
        return str(i)

    def memo(self, key: Hashable, make: Callable[[], object], shared: bool = False):
        """``cache[key]``, made by ``make()`` on first use: derived rings and
        kept outcomes; with ``shared``, ``shared[key]``: ring verdicts and
        array passes, which depend on the tables alone."""
        cache = self.shared if shared else self.cache
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def require_unital(self, what: str) -> int:
        if self.one is None:
            raise NonUnitalRingError(f"{what} needs a unity but {self.label} has none")
        return self.one

    def __repr__(self) -> str:
        return f"<FiniteRing {self.label} order={self.order}>"


def memoized(key: Hashable, shared: bool = True):
    """Decorator keeping a scan ``fn(ring)`` in ``ring.shared[key]`` and a
    search ``fn(ring, a)`` in ``ring.shared[(key, a)]``, None (nothing found)
    included; in ``ring.cache`` when not ``shared``, for results tied to the
    ring object. The wrapper reads the store itself, with no closure made per
    call, because scans and searches are called inside element loops."""
    def decorate(fn):
        @functools.wraps(fn)
        def cached(ring, a=None):
            k = key if a is None else (key, a)
            store = ring.shared if shared else ring.cache
            try:
                return store[k]
            except KeyError:
                pass
            value = store[k] = fn(ring) if a is None else fn(ring, a)
            return value
        return cached
    return decorate


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
    FiniteRing runs it once per table core: a ring given the tables of a
    live proved ring is not checked again.

    The check costs O(n^2) gathers, about 2n (n + |G|^2) beyond the O(n^2)
    checks of phase 0, where G is the additive generating set of
    ``_generator_tree`` (|G| <= log2 n when (R, +) is a group), whose walk
    reaches each x != 0 as x = p + g, g in G, from an element p reached
    before x. Its edges are these n - 1 tree edges x = p + g, the sums
    g + h and h + g (as x = p + g with p = g or h) of each pair of
    generators, and the chain steps: for each g in G, the steps tg + g of
    its chain g, 2g = g + g, 3g, ... (left-bracketed sums) up to the first
    multiple mg in the subgroup H_g reached before g, where they are no tree
    edge (``_chain_edges``; on the rings checked, only the closing step).
    It runs in phases, each only if those before it held (``_proof``).
    Phase 0 is the O(n^2) checks: closure, commutativity of +, an identity 0
    of + (the ring's zero if its row is one, else the first row that is) and
    the zero rows 0a = 0 = a0; the tree is rooted at 0. Then it verifies

    1. x + y = p + (g + y) for every edge x = p + g and all y, and that each
       chain reaches H_g;
    2. g(h + b) = gh + gb for g, h in G and all b, and (p + g)a = pa + ga
       for every edge x = p + g and all a;
    3. (gh)k = g(hk) for g, h, k in G;
    4. 0 is the ring's zero, and x + (-x) = 0 for all x;
    5. 1a = a = a1 for all a, when the ring has a unity. No phase before 4
       uses the negation or the ring's zero, and none before 5 the unity, so
       a wrong zero, negation or unity is reported without a cubic finder.

    Write L_x for the translation y -> x + y, so that L_0 is the identity.
    The edges say L_x = L_p L_g: so every L_x is a product of generator
    translations, and these commute, as L_g L_h = L_{g+h} = L_{h+g} = L_h L_g:
    the L_x lie in a commutative semigroup S of maps. S is transitive, as
    L_x(0) = x, so two of its maps h, k that agree at 0 are equal:
    h(s(0)) = s(h(0)) = s(k(0)) = k(s(0)) for every s in S. L_x L_y and
    L_{x+y} both lie in S and send 0 to x + y, so they are equal: + is
    associative. H_g is then the submonoid generated by the generators
    before g; if it is a group and mg lies in it, g has an inverse, so the
    chains make (R, +) a group, one generator at a time. In a group every
    chain reaches H_g, at m = [H_g + <g> : H_g], the index.

    Fix a and let f(b) = ba; f(0) = 0 by the zero checks. The tree edges
    give f(x) = f(p) + f(g), so f(x) is the sum of f over the walk word of x
    (the generators on the walk from 0 to x), and the chain steps give
    f(mg) = m f(g). The relations mg = (walk word of mg), one per generator,
    present (R, +): the indices m multiply to n, and every element of the
    abelian group they present is a sum of t_g g with 0 <= t_g < m, so that
    group, which maps onto R, has at most n elements: it is R. The values
    f(g) satisfy the relations, so they extend to an additive map on R,
    which agrees with f on each walk word: f is additive, (b + c)a = ba + ca
    for all a, b, c. No associativity of the product is used. On the left,
    call h good when g(b + h) = gb + gh for every g in G and all b: the good
    elements contain 0 and are closed under +, as g(b + (h + k))
    = g(b + h) + gk = (gb + gh) + gk = gb + g(h + k), and every element is a
    sum of generators, so g(b + c) = gb + gc for g in G and all b, c. The
    a with a(b + c) = ab + ac for all b, c are closed under + too, by right
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
    return AxiomReport(True) if held == 6 else _validate_cubic(ring, held)


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


def _chain_edges(add_table: np.ndarray, gens: list, tree: list) -> Optional[list]:
    """The steps x = p + g, as (x, p, g), of each generator's chain of
    multiples (p runs over g, 2g = g + g, 3g = 2g + g, ...) up to the first
    multiple mg in the subgroup reached before g, that are no edge of the
    walk tree; None when a chain never reaches it, which in a group it does.
    The walk reaches g from 0 first in its round, so the subgroup is the
    elements reached before g."""
    n = len(add_table)
    at = [0] * n  # at[x]: x's place in the walk's order, 0 for the root
    for i, (x, _, _) in enumerate(tree, 1):
        at[x] = i
    steps = []
    for g in gens:
        p = g
        for _ in range(n):
            x = add_table.item(p, g)
            if not at[x] or tree[at[x] - 1] != (x, p, g):
                steps.append((x, p, g))
            if at[x] < at[g]:
                break
            p = x
        else:
            return None
    return steps


def _proof(ring: FiniteRing) -> int:
    """How many phases of the proof of ``validate_axioms`` held, run in order
    up to the first that fails (6: the axioms hold), each identity compared
    in row blocks of at most _PASS_CELLS cells (row_blocks)."""
    A, M, neg = ring.add_table, ring.mul_table, ring.neg_table
    n = ring.order
    if A is None or M is None or neg is None:
        raise OrderCapError(f"axiom validation needs materialized tables; {ring.label} "
                            f"has order {n}")
    idx = np.arange(n)
    if max(A.max(), M.max(), neg.max()) >= n or not (A == A.T).all():
        return 0
    zero = ring.zero
    if not (A[zero] == idx).all():  # then the identity of +, if any, is elsewhere
        zeros = np.flatnonzero((A == idx).all(axis=1))
        zero = int(zeros[0]) if len(zeros) else None
    if zero is None or not ((M[zero] == zero).all() and (M[:, zero] == zero).all()):
        return 0
    walk = _generator_tree(A, zero)
    if walk is None:
        return 1
    G, tree = walk
    if not G:
        return 6  # the zero ring: its zero, negation and one are all 0
    chains = _chain_edges(A, G, tree)
    if chains is None:
        return 1
    flat = A.ravel()
    # Edges x = p + g with g in G, grouped by generator: those of the walk
    # tree, g + h and h + g for each pair of generators, and the chain steps.
    edges = tree + [(A.item(g, h), p, q) for i, g in enumerate(G) for h in G[:i]
                    for p, q in ((g, h), (h, g))] + chains
    X, P, W = np.array(edges, dtype=np.intp).T
    by_gen = np.argsort(W, kind="stable")
    X, P, W = X[by_gen], P[by_gen], W[by_gen]
    # Translation identities L_x = L_p L_g, x + y = p + (g + y) for all y (as
    # 0 + y = y), on every edge: each side is one gather of (edge, y) cells,
    # the row g + y broadcast in a block of one generator (W is sorted).
    for r in row_blocks(len(X), n):
        w = W[r]
        if not (A.take(X[r], axis=0) == flat.take(P[r, None] * n + (
                A[w[0]] if w[0] == w[-1] else A.take(w, axis=0)))).all():
            return 1
    # Each side below is one gather into an array indexed (row, g, column),
    # so that the compared arrays are contiguous. As + is commutative (checked
    # above), g(h + b) is read for g(b + h) and gb + gh for gh + gb, and
    # likewise on the right.
    Gs = np.array(G, dtype=np.intp)  # indexing by a list would convert it each time
    GA = A.take(Gs, axis=0)  # GA[g, y] = g + y
    GM = M.take(Gs, axis=0)  # GM[g, a] = ga
    GMn = GM * np.intp(n)  # flat row offsets of ga in A
    for r in row_blocks(len(G), n * len(G)):
        if not (GM[r].take(GA, axis=1)
                == flat.take(GMn[r].take(Gs, axis=1)[:, :, None] + GM[r, None, :])).all():
            return 2
    # (p + g)a = pa + ga on every edge, read as ga + pa at ga * n + pa: a
    # block of one generator broadcasts its row of offsets, one of several
    # gathers theirs.
    for r in row_blocks(len(X), n):
        w = W[r]
        if w[0] == w[-1]:
            sums = GMn[G.index(w[0])] + M.take(P[r], axis=0)
        else:
            sums = np.multiply(M.take(w, axis=0), n, dtype=np.intp)
            sums += M.take(P[r], axis=0)
        sums = flat.take(sums)  # the offsets go before the next block's are made
        if not (M.take(X[r], axis=0) == sums).all():
            return 2
    GG = GM.take(Gs, axis=1)  # GG[g, h] = gh
    if not (M.take(GG, axis=0).take(Gs, axis=2) == GM.take(GG, axis=1)).all():
        return 3
    if not (ring.zero == zero and (A[idx, neg] == zero).all()):
        return 4
    if ring.unital and not ((M[ring.one] == idx).all() and (M[:, ring.one] == idx).all()):
        return 5
    return 6


def _axioms_hold(ring: FiniteRing) -> bool:
    """The axioms hold: every phase of ``_proof`` held."""
    return _proof(ring) == 6


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
        ("add-zero", 4, lambda: _first_true(A[zero] != idx)),
        ("add-negation", 4, lambda: _first_true(A[idx, neg] != zero)),
        ("mul-associativity", 3, lambda: _first_mismatch(lambda r: M[M[r]] != M[r][:, M], n)),
        ("left-distributivity", 2, lambda: _first_mismatch(
            lambda r: M[r][:, A] != A[M[r][:, :, None], M[r][:, None, :]], n)),
        ("right-distributivity", 2, lambda: _first_mismatch(
            lambda r: M[A[r]] != A[M[r][:, None, :], M[None, :, :]], n)),
    ]
    if ring.unital:
        checks += [("unity-left", 5, lambda: _first_true(M[one] != idx)),
                   ("unity-right", 5, lambda: _first_true(M[:, one] != idx))]
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
