"""Structure scans over a finite ring: special element sets, ideals and the
radical. Results are memoized on the ring's cache dict, so repeated queries
against the same ring object are cheap."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from .core import FiniteRing, nil_index_of


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, stored as the sorted tuple of its member indices."""

    ring: FiniteRing
    members: tuple
    generators: tuple = ()

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.member_set


def make_ideal(ring: FiniteRing, members: Iterable[int],
               generators: Sequence[int] = ()) -> Ideal:
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
    return Ideal(ring, tuple(mem), tuple(generators))


def ideal_generated(ring: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing the generators (worklist closure)."""
    gens = tuple(sorted(set(generators)))
    key = ("ideal_generated", gens)
    if key in ring.cache:
        return ring.cache[key]
    add, mul, neg = ring.add, ring.mul, ring.neg
    n = ring.order
    seen = {ring.zero}
    frontier = []
    for g in gens:
        if not 0 <= g < n:
            raise ValueError(f"generator {g} out of range")
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        x = frontier.pop()
        produced = [neg(x)]
        for r in range(n):
            produced.append(mul(r, x))
            produced.append(mul(x, r))
        for y in list(seen):
            produced.append(add(x, y))
        for z in produced:
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    ideal = Ideal(ring, tuple(sorted(seen)), gens)
    ring.cache[key] = ideal
    return ideal


def left_ideal_generated(ring: FiniteRing, a: int) -> tuple:
    """Members of the smallest left ideal containing a."""
    add, mul, neg = ring.add, ring.mul, ring.neg
    n = ring.order
    seen = {ring.zero, a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        produced = [neg(x)]
        for r in range(n):
            produced.append(mul(r, x))
        for y in list(seen):
            produced.append(add(x, y))
        for z in produced:
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return tuple(sorted(seen))


def idempotents(ring: FiniteRing) -> tuple:
    """All e with e*e = e, ascending."""
    if "idempotents" not in ring.cache:
        mul = ring.mul
        ring.cache["idempotents"] = tuple(
            a for a in range(ring.order) if mul(a, a) == a)
    return ring.cache["idempotents"]


def nilpotents(ring: FiniteRing) -> tuple:
    """All q with q^k = 0 for some k >= 1, ascending."""
    if "nilpotents" not in ring.cache:
        index: Dict[int, int] = {}
        for a in range(ring.order):
            k = nil_index_of(ring, a)
            if k is not None:
                index[a] = k
        ring.cache["nilpotents"] = tuple(sorted(index))
        ring.cache["nil_index"] = index
    return ring.cache["nilpotents"]


def nil_index_map(ring: FiniteRing) -> Dict[int, int]:
    """Map from each nilpotent to its least vanishing exponent."""
    nilpotents(ring)
    return ring.cache["nil_index"]


def units(ring: FiniteRing) -> tuple:
    """All two-sided invertible elements, ascending. Requires a unity."""
    ring.require_unital("units")
    if "units" not in ring.cache:
        mul = ring.mul
        one = ring.one
        n = ring.order
        inv: Dict[int, int] = {}
        for a in range(n):
            if a in inv:
                continue
            for b in range(n):
                if mul(a, b) == one and mul(b, a) == one:
                    inv[a] = b
                    inv[b] = a
                    break
        ring.cache["units"] = tuple(sorted(inv))
        ring.cache["inverse"] = inv
    return ring.cache["units"]


def inverse_map(ring: FiniteRing) -> Dict[int, int]:
    """Map from each unit to its inverse."""
    units(ring)
    return ring.cache["inverse"]


def center(ring: FiniteRing) -> tuple:
    """All elements commuting with the whole ring, ascending."""
    if "center" not in ring.cache:
        n = ring.order
        if ring.mul_table is not None:
            M = ring._flat_table("mul_table").reshape(n, n)
            central = np.flatnonzero((M == M.T).all(axis=1)).tolist()
        else:
            mul = ring.mul
            central = [a for a in range(n)
                       if all(mul(a, b) == mul(b, a) for b in range(n))]
        ring.cache["center"] = tuple(central)
    return ring.cache["center"]


def is_abelian(ring: FiniteRing) -> bool:
    """True when every idempotent is central."""
    if "is_abelian" not in ring.cache:
        mul = ring.mul
        n = ring.order
        verdict = True
        for e in idempotents(ring):
            if any(mul(e, b) != mul(b, e) for b in range(n)):
                verdict = False
                break
        ring.cache["is_abelian"] = verdict
    return ring.cache["is_abelian"]


def _left_quasi_regular(ring: FiniteRing, a: int) -> bool:
    # b circle a = b + a - b*a = 0 for some b
    add, sub, mul = ring.add, ring.sub, ring.mul
    zero = ring.zero
    return any(add(b, sub(a, mul(b, a))) == zero for b in range(ring.order))


def _radical_members(ring: FiniteRing) -> tuple:
    """Raw quasi-regularity scan, without validation or quotient re-check."""
    n = ring.order
    if ring.unital:
        U = set(units(ring))
        sub, mul, one = ring.sub, ring.mul, ring.one
        return tuple(a for a in range(n)
                     if all(sub(one, mul(r, a)) in U for r in range(n)))
    out = []
    for a in range(n):
        if all(_left_quasi_regular(ring, x) for x in left_ideal_generated(ring, a)):
            out.append(a)
    return tuple(out)


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Elements a such that every member of the left ideal of a is left
    quasi-regular; with a unity this is the usual 1 - r*a invertibility test.

    The result is validated as a two-sided ideal, and the radical of the
    quotient by it is checked to vanish.
    """
    if "jacobson_radical" not in ring.cache:
        members = _radical_members(ring)
        ideal = make_ideal(ring, members)
        from .construct import quotient

        q, _ = quotient(ring, ideal)
        residual = _radical_members(q)
        if residual != (q.zero,):
            raise RuntimeError(
                f"radical scan of {ring.label} left a nonzero residual radical")
        ring.cache["jacobson_radical"] = ideal
    return ring.cache["jacobson_radical"]


def is_nil_ideal(ring: FiniteRing, ideal) -> bool:
    """True when every member of the ideal (or plain member list) is nilpotent."""
    members = ideal.members if isinstance(ideal, Ideal) else tuple(ideal)
    return all(nil_index_of(ring, a) is not None for a in members)


def bounded_index(ring: FiniteRing) -> int:
    """Largest nil index over the ring's nilpotents (at least 1, from zero)."""
    if "bounded_index" not in ring.cache:
        ring.cache["bounded_index"] = max(nil_index_map(ring).values())
    return ring.cache["bounded_index"]


def structure_counts(ring: FiniteRing) -> dict:
    """Count summary used by classification reports and the census."""
    return {
        "id": len(idempotents(ring)),
        "nil": len(nilpotents(ring)),
        "unit": len(units(ring)) if ring.unital else None,
        "center": len(center(ring)),
        "radical": len(jacobson_radical(ring).members),
    }
