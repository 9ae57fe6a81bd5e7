"""Structure scans over a finite ring: special element sets, ideals and the
radical. Results are memoized in the ring's cache (core.memoized), so
repeated queries against the same ring object are cheap.

The O(n^2) scans (units, center, is_abelian, the radical) and the ideal
closures read only the ring's vector operations, in row blocks of at most
core._PASS_CELLS (row, element) cells (core.row_blocks), so tabled and lazy
rings take the same path."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable

import numpy as np

from .core import FiniteRing, _axioms_hold, memoized, nil_index_of, row_blocks
from . import kernel


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, stored as the sorted tuple of its member indices."""

    ring: FiniteRing
    members: tuple

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.member_set


def make_ideal(ring: FiniteRing, members: Iterable[int]) -> Ideal:
    """Validate that a subset is a two-sided ideal and wrap it."""
    mem = sorted(set(members))
    idx = np.array(mem, dtype=np.int64)
    inside = np.zeros(ring.order, dtype=bool)
    inside[idx] = True
    if not inside[ring.zero]:
        raise ValueError("ideal must contain zero")
    bad_neg = ~inside[ring.neg_vec(idx)]
    bad_add = ~inside[ring.add_vec(idx[:, None], idx)]
    bad = bad_neg | bad_add.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if bad_neg[i]:
            raise ValueError(f"not closed under negation at {mem[i]}")
        j = int(bad_add[i].argmax())
        raise ValueError(f"not closed under addition at ({mem[i]}, {mem[j]})")
    X = np.arange(ring.order)
    bad = ~inside[ring.mul_vec(X, idx[:, None])] | ~inside[ring.mul_vec(idx[:, None], X)]
    if bad.any():
        i, r = divmod(int(bad.argmax()), ring.order)
        raise ValueError(f"not absorbing at ({r}, {mem[i]})")
    return Ideal(ring, tuple(mem))


def _closure(ring: FiniteRing, gens: Iterable[int], two_sided: bool) -> tuple:
    """Members of the smallest set containing zero and gens that is closed
    under negation, addition and multiplication by the ring on the left, and
    on the right too when two_sided. Frontier rounds on a membership mask:
    each adds R*F (and F*R), F + members and -F for the frontier F of the
    elements new in the round before, F in row blocks of core._PASS_CELLS
    (row, element) cells."""
    n = ring.order
    X = np.arange(n, dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    inside[[ring.zero, *gens]] = True
    frontier = np.flatnonzero(inside)
    while len(frontier):
        members = np.flatnonzero(inside)
        before = inside.copy()
        inside[ring.neg_vec(frontier)] = True
        for s in row_blocks(len(frontier), ring.order):
            F = frontier[s, None]
            inside[ring.mul_vec(X, F)] = True
            if two_sided:
                inside[ring.mul_vec(F, X)] = True
            inside[ring.add_vec(F, members)] = True
        frontier = np.flatnonzero(inside & ~before)
    return tuple(np.flatnonzero(inside).tolist())


def ideal_generated(ring: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing the generators."""
    gens = tuple(sorted(set(generators)))
    for g in gens:
        if not 0 <= g < ring.order:
            raise ValueError(f"generator {g} out of range")
    return ring.memo(("ideal_generated", gens),
                     lambda: Ideal(ring, _closure(ring, gens, two_sided=True)))


def left_ideal_generated(ring: FiniteRing, a: int) -> tuple:
    """Members of the smallest left ideal containing a."""
    return _closure(ring, (a,), two_sided=False)


@memoized("idempotents")
def idempotents(ring: FiniteRing) -> tuple:
    """All e with e*e = e, ascending."""
    mul = ring.mul
    return tuple(a for a in range(ring.order) if mul(a, a) == a)


@memoized("nilpotents")
def nilpotents(ring: FiniteRing) -> tuple:
    """All q with q^k = 0 for some k >= 1, ascending."""
    return tuple(nil_index_map(ring))


@memoized("nil_index")
def nil_index_map(ring: FiniteRing) -> Dict[int, int]:
    """Map from each nilpotent, ascending, to its least vanishing exponent.
    Above kernel.BRUTE_ORDER_LIMIT it is read off kernel.nil_index, in
    batches of core.row_blocks(order, 32); up to there the scalar loop costs
    less than the numpy calls."""
    if ring.order > kernel.BRUTE_ORDER_LIMIT:
        X = np.arange(ring.order, dtype=np.int64)
        k = np.concatenate([kernel.nil_index(ring, X[s])
                            for s in row_blocks(ring.order, 32)])
        nil = np.flatnonzero(k)
        return dict(zip(nil.tolist(), k.take(nil).tolist()))
    index: Dict[int, int] = {}
    for a in range(ring.order):
        k = nil_index_of(ring, a)
        if k is not None:
            index[a] = k
    return index


@memoized("units")
def units(ring: FiniteRing) -> tuple:
    """All two-sided invertible elements, ascending. Requires a unity."""
    return tuple(inverse_map(ring))


@memoized("inverse")
def inverse_map(ring: FiniteRing) -> Dict[int, int]:
    """Map from each unit, ascending, to its inverse (the smallest two-sided
    one). Requires a unity."""
    one = ring.require_unital("units")
    X = np.arange(ring.order, dtype=np.int64)
    found, inverse = [], []
    for s in row_blocks(ring.order, ring.order):
        A = X[s]
        # candidates b with a*b = 1, rows ascending and b ascending in a row
        i, b = np.nonzero(ring.mul_vec(A[:, None], X) == one)
        two_sided = ring.mul_vec(b, A[i]) == one
        i, first = np.unique(i[two_sided], return_index=True)
        found.append(A[i])
        inverse.append(b[two_sided][first])
    return dict(zip(np.concatenate(found).tolist(), np.concatenate(inverse).tolist()))


def _commuting(ring: FiniteRing, rows) -> np.ndarray:
    """Mask of the elements of rows that commute with every element."""
    rows = np.asarray(rows, dtype=np.int64)
    X = np.arange(ring.order, dtype=np.int64)
    ok = np.empty(len(rows), dtype=bool)
    for s in row_blocks(len(rows), ring.order):
        A = rows[s, None]
        ok[s] = (ring.mul_vec(A, X) == ring.mul_vec(X, A)).all(axis=1)
    return ok


@memoized("center")
def center(ring: FiniteRing) -> tuple:
    """All elements commuting with the whole ring, ascending."""
    return tuple(np.flatnonzero(_commuting(ring, np.arange(ring.order))).tolist())


@memoized("is_abelian")
def is_abelian(ring: FiniteRing) -> bool:
    """True when every idempotent is central."""
    return bool(_commuting(ring, idempotents(ring)).all())


def _radical_members(ring: FiniteRing) -> tuple:
    """Raw quasi-regularity scan, without the ideal validation:
    with a unity, the a with 1 - r*a a unit for every r; without one, the a
    whose left ideal R^1 a = {k*a + r*a} is left quasi-regular (b + x - b*x
    = 0 for some b). That form needs the axioms, so a table that fails them
    takes the worklist closure of each element (unchecked: lazy rings and
    those validated at construction)."""
    n = ring.order
    X = np.arange(n, dtype=np.int64)
    add, mul, sub = ring.add_vec, ring.mul_vec, ring.sub_vec
    good = np.empty(n, dtype=bool)
    if ring.unital:
        unit = np.zeros(n, dtype=bool)
        unit[list(units(ring))] = True
        for s in row_blocks(n, n):
            RA = mul(X, X[s, None])  # (a, r) -> r*a
            good[s] = unit[sub(np.full(RA.shape, ring.one, dtype=np.int64), RA)].all(axis=1)
        return tuple(np.flatnonzero(good).tolist())
    regular = np.empty(n, dtype=bool)
    for s in row_blocks(n, n):
        A = X[s, None]
        regular[s] = (add(X, sub(A, mul(X, A))) == ring.zero).any(axis=1)
    if ring.add_table is not None and not ring.validated and not _axioms_hold(ring):
        return tuple(a for a in range(n) if regular[list(left_ideal_generated(ring, a))].all())
    for s in row_blocks(n, n):
        A = X[s, None]
        RA = mul(X, A)  # (a, r) -> r*a
        KA = np.full(A.shape, ring.zero, dtype=np.int64)  # k*a, for k = 0, 1, ...
        good[s] = True
        for _ in range(n):  # the additive order of a divides n
            good[s] &= regular[add(KA, RA)].all(axis=1)
            KA = add(KA, A)
            if (KA == ring.zero).all():
                break
    return tuple(np.flatnonzero(good).tolist())


@memoized("jacobson_radical")
def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Elements a such that every member of the left ideal of a is left
    quasi-regular; with a unity this is the usual 1 - r*a invertibility test.
    Validated as a two-sided ideal; P_RADIKAL checks that J(R/J) vanishes."""
    return make_ideal(ring, _radical_members(ring))


def is_nil_ideal(ring: FiniteRing, ideal) -> bool:
    """True when every member of the ideal (or plain member list) is
    nilpotent."""
    members = ideal.member_set if isinstance(ideal, Ideal) else set(ideal)
    return nil_index_map(ring).keys() >= members


@memoized("bounded_index")
def bounded_index(ring: FiniteRing) -> int:
    """Largest nil index over the ring's nilpotents (at least 1, from zero)."""
    return max(nil_index_map(ring).values())


def structure_counts(ring: FiniteRing) -> dict:
    """Count summary used by classification reports and the census."""
    return {
        "id": len(idempotents(ring)),
        "nil": len(nilpotents(ring)),
        "unit": len(units(ring)) if ring.unital else None,
        "center": len(center(ring)),
        "radical": len(jacobson_radical(ring).members),
    }
