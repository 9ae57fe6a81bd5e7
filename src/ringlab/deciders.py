"""Element-level property deciders with explicit witnesses.

Every decision is certified: a search returns a witness record that a separate
checker re-validates by direct arithmetic, and constructive operations verify
each intermediate identity they rely on. Searches scan element indices in
ascending order, so results are deterministic for a given ring.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from .core import (
    FiniteRing,
    WitnessError,
    memoized_per_element,
    nil_index_of,
    power,
    power_from_seq,
    power_seq,
)
from . import structure as st
from . import construct as ct
from . import kernel
from .kernel import BRUTE_ORDER_LIMIT

# From this order on, the ring-level verdicts and the witness tables read the
# array passes of kernel; below it one numpy call costs more than the
# element-by-element scalar search or chain.
PASS_MIN_ORDER = 32


@dataclass(frozen=True)
class WnclWitness:
    """Certificate that a - e - q lands in eRa.

    Primal form: a - e - q = e*x*a with e idempotent and q nilpotent.
    Alternate form: e = x*a is idempotent, q is nilpotent, and
    (1-e) = (1-e)(1+q)(1-a); meaningful in unital rings only.
    """

    e: int
    q: int
    x: int
    form: str = "primal"


@dataclass(frozen=True)
class PiRegularWitness:
    """n >= 1 and r with a^n * r * a^n = a^n."""

    n: int
    r: int


@dataclass(frozen=True)
class StrongPiWitness:
    """n, r with a^n = a^(n+1) * r, plus the idempotent e for which e
    commutes with a, a*e is a unit of the corner eRe, and a*(1-e) is
    nilpotent."""

    n: int
    r: int
    e: int


@dataclass(frozen=True)
class ExchangeWitness:
    """Idempotent e = r*a with 1 - e = s*(1 - a)."""

    e: int
    r: int
    s: int


@dataclass(frozen=True)
class SumWitness:
    """a = e + second with e idempotent; kind says what second is."""

    e: int
    second: int
    kind: str  # "unit" or "nilpotent"


# ---------------------------------------------------------------------------
# checkers


def check_wncl(ring: FiniteRing, a: int, w: WnclWitness) -> bool:
    """Re-validate a weakly nil clean witness by direct arithmetic."""
    mul, sub = ring.mul, ring.sub
    if mul(w.e, w.e) != w.e:
        return False
    if nil_index_of(ring, w.q) is None:
        return False
    if w.form == "primal":
        lhs = sub(sub(a, w.e), w.q)
        return lhs == mul(mul(w.e, w.x), a)
    if w.form == "alternate":
        if not ring.unital:
            return False
        if mul(w.x, a) != w.e:
            return False
        one = ring.one
        f = sub(one, w.e)
        return f == mul(mul(f, ring.add(one, w.q)), sub(one, a))
    raise ValueError(f"unknown witness form {w.form!r}")


def check_pi_regular(ring: FiniteRing, a: int, w: PiRegularWitness) -> bool:
    if w.n < 1:
        return False
    an = power(ring, a, w.n)
    return ring.mul(ring.mul(an, w.r), an) == an


def check_strong_pi(ring: FiniteRing, a: int, w: StrongPiWitness) -> bool:
    """Validate the power equation and all three characterization clauses."""
    ring.require_unital("strong pi-regularity check")
    if w.n < 1:
        return False
    mul, sub = ring.mul, ring.sub
    an = power(ring, a, w.n)
    if mul(power(ring, a, w.n + 1), w.r) != an:
        return False
    e = w.e
    if mul(e, e) != e or mul(e, a) != mul(a, e):
        return False
    ae = mul(a, e)
    if not any(mul(mul(e, z), e) == z and mul(ae, z) == e and mul(z, ae) == e
               for z in range(ring.order)):
        return False
    return nil_index_of(ring, mul(a, sub(ring.one, e))) is not None


def check_exchange(ring: FiniteRing, a: int, w: ExchangeWitness) -> bool:
    ring.require_unital("exchange check")
    mul, sub = ring.mul, ring.sub
    if mul(w.e, w.e) != w.e or mul(w.r, a) != w.e:
        return False
    one = ring.one
    return sub(one, w.e) == mul(w.s, sub(one, a))


def check_sum(ring: FiniteRing, a: int, w: SumWitness) -> bool:
    if ring.mul(w.e, w.e) != w.e or ring.add(w.e, w.second) != a:
        return False
    if w.kind == "unit":
        ring.require_unital("clean check")
        return w.second in st.inverse_map(ring)
    if w.kind == "nilpotent":
        return nil_index_of(ring, w.second) is not None
    raise ValueError(f"unknown sum witness kind {w.kind!r}")


def check_strongly_regular(ring: FiniteRing, a: int, r: int) -> bool:
    return ring.mul(ring.mul(a, a), r) == a


# ---------------------------------------------------------------------------
# brute-force searches (ascending index order throughout); those the harness
# walks read back are memoized per element under (name, a)


def _exa_value_map(ring: FiniteRing, e: int, a: int) -> Dict[int, int]:
    """Map each value e*x*a to the smallest x producing it."""
    mul = ring.mul
    ea = {}
    for x in range(ring.order):
        ea.setdefault(mul(mul(e, x), a), x)
    return ea


@memoized_per_element
def wncl_witness(ring: FiniteRing, a: int) -> Optional[WnclWitness]:
    """Smallest primal witness in lexicographic (e, q, x) order, or None.

    Works in non-unital rings; search space is Id(R) x Nil(R) x R.
    """
    _, samples = unique_idempotent_wncl(ring, a, limit=1)
    return samples[0] if samples else None


@memoized_per_element
def wncl_witness_alt(ring: FiniteRing, a: int) -> Optional[WnclWitness]:
    """Alternate-form witness: e = x*a idempotent, (1-e) = (1-e)(1+q)(1-a).

    Scans x ascending, then q over nilpotents ascending; first hit wins.
    Above BRUTE_ORDER_LIMIT the same search runs on arrays
    (kernel.wncl_alt_first).
    """
    ring.require_unital("alternate witness search")
    if ring.order > BRUTE_ORDER_LIMIT:
        found = kernel.wncl_alt_first(ring, a)
        return WnclWitness(*found, "alternate") if found else None
    mul, sub, add = ring.mul, ring.sub, ring.add
    one = ring.one
    one_minus_a = sub(one, a)
    nils = st.nilpotents(ring)
    for x in range(ring.order):
        e = mul(x, a)
        if mul(e, e) != e:
            continue
        f = sub(one, e)
        for q in nils:
            if f == mul(mul(f, add(one, q)), one_minus_a):
                return WnclWitness(e, q, x, "alternate")
    return None


@memoized_per_element
def pi_regular_witness(ring: FiniteRing, a: int) -> Optional[PiRegularWitness]:
    """First (n, r) with a^n * r * a^n = a^n, n scanned over the trajectory."""
    mul = ring.mul
    powers, i, p = power_seq(ring, a)
    for n in range(1, i + p + 1):
        an = power_from_seq(powers, i, p, n)
        for r in range(ring.order):
            if mul(mul(an, r), an) == an:
                return PiRegularWitness(n, r)
    return None


def strong_pi_witness(ring: FiniteRing, a: int) -> Optional[StrongPiWitness]:
    """First (n, r) with a^n = a^(n+1) * r plus the cycle idempotent
    e = a^m, m = _cycle_exponent(i, p): the power cycle holds exactly one
    idempotent. All characterization clauses are verified before returning."""
    ring.require_unital("strong pi-regularity search")
    mul = ring.mul
    powers, i, p = power_seq(ring, a)
    for n in range(1, i + p + 1):
        an = power_from_seq(powers, i, p, n)
        an1 = power_from_seq(powers, i, p, n + 1)
        for r in range(ring.order):
            if mul(an1, r) == an:
                e = power_from_seq(powers, i, p, _cycle_exponent(i, p))
                if mul(e, e) != e:
                    raise WitnessError(f"cycle power not idempotent at element {a}")
                w = StrongPiWitness(n, r, e)
                if not check_strong_pi(ring, a, w):
                    raise WitnessError(
                        f"cycle idempotent fails the characterization at "
                        f"element {a} of {ring.label}")
                return w
    return None


@memoized_per_element
def exchange_witness(ring: FiniteRing, a: int) -> Optional[ExchangeWitness]:
    """First (e, r, s) with e = r*a idempotent and 1-e = s*(1-a)."""
    ring.require_unital("exchange search")
    mul, sub = ring.mul, ring.sub
    one = ring.one
    one_minus_a = sub(one, a)
    for e in st.idempotents(ring):
        r = next((r for r in range(ring.order) if mul(r, a) == e), None)
        if r is None:
            continue
        f = sub(one, e)
        s = next((s for s in range(ring.order) if mul(s, one_minus_a) == f), None)
        if s is not None:
            return ExchangeWitness(e, r, s)
    return None


def clean_witness(ring: FiniteRing, a: int) -> Optional[SumWitness]:
    """First idempotent e (ascending) with a - e invertible."""
    ring.require_unital("clean search")
    inv = st.inverse_map(ring)
    sub = ring.sub
    for e in st.idempotents(ring):
        u = sub(a, e)
        if u in inv:
            return SumWitness(e, u, "unit")
    return None


def nil_clean_witness(ring: FiniteRing, a: int) -> Optional[SumWitness]:
    """First idempotent e (ascending) with a - e nilpotent; no unity needed."""
    sub = ring.sub
    nilset = set(st.nilpotents(ring))
    for e in st.idempotents(ring):
        q = sub(a, e)
        if q in nilset:
            return SumWitness(e, q, "nilpotent")
    return None


def strongly_regular_witness(ring: FiniteRing, a: int) -> Optional[int]:
    """Smallest r with a = a*a*r, or None."""
    mul = ring.mul
    aa = mul(a, a)
    return next((r for r in range(ring.order) if mul(aa, r) == a), None)


# ---------------------------------------------------------------------------
# witness tables: the search of every element, in element order, for the
# harness checks that walk all of them


def _witness_table(ring: FiniteRing, search, kind: str, fields: str, make) -> list:
    """search(ring, a) for every element a, kept in the ring's cache. Below
    PASS_MIN_ORDER search runs on each element, as in _ring_verdict; from
    there on it is read off the triples of the cached kernel.witness_pass
    under kind at every order, which finds the same first witness, its
    fields in make's order."""
    def read():
        if ring.order < PASS_MIN_ORDER:
            return [search(ring, a) for a in range(ring.order)]
        found = kernel.witness_pass(ring)[kind]
        rows = zip(*(found[name].tolist() for name in fields))
        return [make(*row) if row[0] >= 0 else None for row in rows]
    return ring.memo(("witness_table", fields), read)


def wncl_table(ring: FiniteRing) -> List[Optional[WnclWitness]]:
    """wncl_witness(ring, a) for every element a, in element order."""
    return _witness_table(ring, wncl_witness, "wncl", "eqx", WnclWitness)


def exchange_table(ring: FiniteRing) -> List[Optional[ExchangeWitness]]:
    """exchange_witness(ring, a) for every element a, in element order."""
    ring.require_unital("exchange search")
    return _witness_table(ring, exchange_witness, "exchange", "ers", ExchangeWitness)


# ---------------------------------------------------------------------------
# trajectory witnesses: the scalar chains of the pi-regularity verdicts


def _cycle_exponent(i: int, p: int) -> int:
    """The smallest multiple m >= 1 of the period p at or past the preperiod
    i of a power trajectory: a^m is the idempotent of the cycle."""
    return p * ((i + p - 1) // p)


def pi_regular_witness_fast(ring: FiniteRing, a: int) -> PiRegularWitness:
    """Witness (m, a^m) where m is the smallest multiple of the period at or
    past the preperiod; verified before returning."""
    powers, i, p = power_seq(ring, a)
    m = _cycle_exponent(i, p)
    am = power_from_seq(powers, i, p, m)
    w = PiRegularWitness(m, am)
    if ring.mul(ring.mul(am, am), am) != am:
        raise WitnessError(f"power witness failed at element {a} of {ring.label}")
    return w


def strong_pi_witness_fast(ring: FiniteRing, a: int) -> StrongPiWitness:
    """Witness built from the power trajectory: n is the preperiod, r a power
    of a, e the cycle idempotent a^m; every clause is verified numerically
    with a corner inverse that is itself a power of a."""
    ring.require_unital("strong pi-regularity search")
    mul, sub = ring.mul, ring.sub
    seq = power_seq(ring, a)
    n, r = strong_pi_core_fast(ring, a, seq)
    powers, i, p = seq
    m = _cycle_exponent(i, p)
    e = power_from_seq(powers, i, p, m)
    if mul(e, e) != e:
        raise WitnessError(f"cycle power not idempotent at element {a}")
    # corner inverse of a*e: the power a^m' with m' = -1 mod period, m' >= n
    mp = n + ((p - 1 - n) % p)
    z = power_from_seq(powers, i, p, mp)
    ae = mul(a, e)
    if mul(mul(e, z), e) != z or mul(ae, z) != e or mul(z, ae) != e:
        raise WitnessError(f"corner inverse failed at element {a} of {ring.label}")
    b = mul(a, sub(ring.one, e))
    if power(ring, b, m) != ring.zero:
        raise WitnessError(f"a(1-e) not nilpotent at element {a} of {ring.label}")
    return StrongPiWitness(n, r, e)


def strong_pi_core_fast(ring: FiniteRing, a: int, seq=None) -> Tuple[int, int]:
    """Fast (n, r) for the bare power equation, n the preperiod (at least 1)
    and r a power of a; works without a unity."""
    powers, i, p = power_seq(ring, a) if seq is None else seq
    r = power_from_seq(powers, i, p, p - 1) if p >= 2 else a
    an = power_from_seq(powers, i, p, i)
    if ring.mul(power_from_seq(powers, i, p, i + 1), r) != an:
        raise WitnessError(f"power equation failed at element {a} of {ring.label}")
    return (i, r)


# ---------------------------------------------------------------------------
# constructive operations


def _in_corner(ring: FiniteRing, f: int, z: int) -> bool:
    return ring.mul(ring.mul(f, z), f) == z


def wncl_from_corner(ring: FiniteRing, a: int, e: int, c: int,
                     corner_witness: WnclWitness) -> WnclWitness:
    """Compose a corner decomposition of faf into a witness for a.

    Preconditions: e idempotent with e = c*a, f = 1 - e, and corner_witness a
    primal witness (g, q, x), in parent indices, for faf inside the corner
    fRf (that is, faf - g - q = g*x*faf with g idempotent and q nilpotent,
    all three lying in fRf).

    Construction: mu = q + fae and pi = e + g; the multiplier comes from
    pi + mu = s*a with s = c + f - g*x*(f - f*a*c), so the returned witness
    is (pi, mu, 1 - s). The intermediate identities mu^k = q^k + q^(k-1)*fae
    and (1 - pi)(a - mu) = 0 are verified along the way.
    """
    ring.require_unital("corner composition")
    mul, sub, add = ring.mul, ring.sub, ring.add
    one = ring.one
    if mul(e, e) != e:
        raise WitnessError(f"{e} is not idempotent")
    if mul(c, a) != e:
        raise WitnessError(f"multiplier {c} does not realize {e} in Ra")
    f = sub(one, e)
    g, q, x = corner_witness.e, corner_witness.q, corner_witness.x
    for z in (g, q, x):
        if not _in_corner(ring, f, z):
            raise WitnessError(f"corner witness element {z} lies outside fRf")
    if mul(g, g) != g:
        raise WitnessError(f"corner idempotent {g} is not idempotent")
    qn = nil_index_of(ring, q)
    if qn is None:
        raise WitnessError(f"corner nilpotent {q} is not nilpotent")
    faf = mul(mul(f, a), f)
    if sub(sub(faf, g), q) != mul(mul(g, x), faf):
        raise WitnessError("corner witness identity fails")

    fae = mul(mul(f, a), e)
    mu = add(q, fae)
    pi = add(e, g)
    # mu^k = q^k + q^(k-1) * fae, checked up to the step where both vanish
    mu_pow = mu
    q_pow = q
    for _ in range(qn):
        prev_q_pow = q_pow
        mu_pow = mul(mu_pow, mu)
        q_pow = mul(q_pow, q)
        if mu_pow != add(q_pow, mul(prev_q_pow, fae)):
            raise WitnessError("nilpotent power identity fails in composition")
    if mu_pow != ring.zero:
        raise WitnessError("composed mu is not nilpotent")
    if mul(sub(one, pi), sub(a, mu)) != ring.zero:
        raise WitnessError("projection identity fails in composition")
    s = sub(add(c, f), mul(mul(g, x), sub(f, mul(mul(f, a), c))))
    x_out = sub(one, s)
    w = WnclWitness(pi, mu, x_out, "primal")
    if not check_wncl(ring, a, w):
        raise WitnessError("composed witness fails the primal identity")
    return w


def wncl_from_pi_regular(ring: FiniteRing, a: int,
                         w: PiRegularWitness) -> WnclWitness:
    """Turn a pi-regularity witness into a weakly nil clean witness.

    Sets e = r*a^n (idempotent realized by c = r*a^(n-1)), checks that
    faf = (1-e)a(1-e) is nilpotent, and composes through the corner with the
    trivial corner witness (0, faf, 0).
    """
    ring.require_unital("pi-regular composition")
    mul, sub = ring.mul, ring.sub
    if not check_pi_regular(ring, a, w):
        raise WitnessError(f"invalid pi-regular witness {w} for element {a}")
    an = power(ring, a, w.n)
    e = mul(w.r, an)
    c = w.r if w.n == 1 else mul(w.r, power(ring, a, w.n - 1))
    f = sub(ring.one, e)
    faf = mul(mul(f, a), f)
    if nil_index_of(ring, faf) is None:
        raise WitnessError(f"corner part not nilpotent at element {a}")
    corner = WnclWitness(ring.zero, faf, ring.zero, "primal")
    return wncl_from_corner(ring, a, e, c, corner)


def corner_to_parent(corner_ring: FiniteRing, w: WnclWitness) -> WnclWitness:
    """Re-index a witness found in a corner subring back to parent indices."""
    members = corner_ring.members
    return WnclWitness(members[w.e], members[w.q], members[w.x], w.form)


def lift_idempotent(ring: FiniteRing, ideal: st.Ideal, x: int,
                    method: str = "newton") -> int:
    """Idempotent e congruent to x modulo a nil ideal (x*x - x must lie in
    the ideal). An already idempotent x is returned unchanged.

    method "scan" returns the smallest congruent idempotent; "newton"
    iterates y <- 3y^2 - 2y^3. A step sends the defect d = y^2 - y, a
    polynomial in y, to d^2(4d - 3), so after k steps the defect is a
    multiple of d^(2^k). d lies in the nil ideal, and a nil element of a
    ring of order n has nil index at most n (its powers before 0 are
    distinct), so order.bit_length() steps reach an idempotent. Only a
    product that is not associative can miss one: WitnessError then.
    """
    if not st.is_nil_ideal(ring, ideal):
        raise WitnessError("ideal is not nil")
    members = ideal.member_set
    mul, sub, add = ring.mul, ring.sub, ring.add
    defect = sub(mul(x, x), x)
    if defect not in members:
        raise WitnessError(f"x*x - x = {defect} is not in the ideal")
    if defect == ring.zero and mul(x, x) == x:
        return x
    if method == "scan":
        e = next((e for e in st.idempotents(ring) if sub(e, x) in members), None)
        if e is None:  # unreachable for nil ideals
            raise WitnessError("no congruent idempotent exists")
    elif method == "newton":
        e = x
        for _ in range(ring.order.bit_length() + 1):
            t = mul(e, e)
            if t == e:
                break
            cube = mul(t, e)
            e = sub(add(add(t, t), t), add(cube, cube))
        if mul(e, e) != e:
            raise WitnessError("iteration did not reach an idempotent")
    else:
        raise ValueError(f"unknown method {method!r}")
    if sub(e, x) not in members:
        raise WitnessError("lifted idempotent is not congruent to x")
    return e


def lift_wncl_witness(ring: FiniteRing, ideal: st.Ideal, a: int,
                      quotient_witness: WnclWitness) -> WnclWitness:
    """Pull a primal witness for the coset of a back through a nil ideal.

    Lifts the idempotent, takes the representative of the multiplier coset,
    and sets q = a - e - e*x*a, which is nilpotent because its coset is.
    """
    if not st.is_nil_ideal(ring, ideal):
        raise WitnessError("ideal is not nil")
    q_ring = ct.quotient_cached(ring, ideal)
    if not check_wncl(q_ring, q_ring.projection[a], quotient_witness):
        raise WitnessError("quotient witness is invalid for the coset of a")
    reps = q_ring.reps
    e = lift_idempotent(ring, ideal, reps[quotient_witness.e])
    x = reps[quotient_witness.x]
    mul, sub = ring.mul, ring.sub
    q = sub(sub(a, e), mul(mul(e, x), a))
    if nil_index_of(ring, q) is None:
        raise WitnessError("lifted remainder is not nilpotent")
    w = WnclWitness(e, q, x, "primal")
    if not check_wncl(ring, a, w):
        raise WitnessError("lifted witness fails the primal identity")
    return w


def extract_from_matrix(base: FiniteRing, n: int, a: int,
                        matrix_witness: WnclWitness) -> WnclWitness:
    """Read a base-ring alternate witness for a off an alternate witness for
    diag(a, 0, ..., 0) in the n x n matrix ring over an abelian base.

    e and alpha are the (1,1) entries of E = X*A and Q; the returned witness
    is (e, (1-e)*alpha, X11), verified in the base ring."""
    base.require_unital("matrix extraction")
    if not st.is_abelian(base):
        raise WitnessError("base ring is not abelian")
    if matrix_witness.form != "alternate":
        raise WitnessError("matrix witness must be in alternate form")
    if base.spec is not None:
        mat = ct.build_cached(ct.Matrix(n, base.spec))
    else:
        mat = ct.matrix_ring(base, n)
    radices = mat.meta["radices"]
    digits = [base.zero] * (n * n)
    digits[0] = a
    amat = ct.pack_digits(radices, digits)
    if not check_wncl(mat, amat, matrix_witness):
        raise WitnessError("matrix witness is invalid for diag(a, 0, ..., 0)")
    e = ct.unpack_digits(radices, matrix_witness.e)[0]
    alpha = ct.unpack_digits(radices, matrix_witness.q)[0]
    x = ct.unpack_digits(radices, matrix_witness.x)[0]
    mul, sub, add = base.mul, base.sub, base.add
    one = base.one
    q = mul(sub(one, e), alpha)
    w = WnclWitness(e, q, x, "alternate")
    if nil_index_of(base, q) is None:
        raise WitnessError("extracted q is not nilpotent")
    if not check_wncl(base, a, w):
        raise WitnessError("extracted witness fails the alternate identity")
    return w


def center_witness(ring: FiniteRing, a: int, w: WnclWitness) -> WnclWitness:
    """Restrict a primal witness for a central element to the center ring.

    Verifies the witness idempotent e is realized by powers of a (e = a^m for
    the cycle exponent m, with e = c^k a^k for k up to m), that (1-e)a is
    nilpotent, and that e is central; then rebuilds the decomposition
    a = e + (1-e)a + e(a-1) with the central multiplier 1 - a^(m-1). The
    returned witness is indexed in the center subring (see center_ring)."""
    ring.require_unital("center extraction")
    mul, sub, add = ring.mul, ring.sub, ring.add
    one = ring.one
    cring = center_ring(ring)
    index = range(ring.order) if cring is ring else cring.index  # O(1) membership
    if a not in index:
        raise WitnessError(f"element {a} is not central")
    if w.form != "primal" or not check_wncl(ring, a, w):
        raise WitnessError("witness is invalid for a")
    e, q, x = w.e, w.q, w.x
    qn = nil_index_of(ring, q)
    # (1+q)^(-1) as the finite geometric series of -q
    negq = ring.neg(q)
    term = one
    inv1q = one
    for _ in range(qn - 1):
        term = mul(term, negq)
        inv1q = add(inv1q, term)
    if mul(add(one, q), inv1q) != one:
        raise WitnessError("geometric series failed to invert 1 + q")
    c = mul(mul(e, sub(one, x)), inv1q)
    powers, i, p = power_seq(ring, a)
    m = _cycle_exponent(i, p)
    ck = one
    for k in range(1, m + 1):
        ck = mul(ck, c)
        if mul(ck, power_from_seq(powers, i, p, k)) != e:
            raise WitnessError(f"e is not realized in Ra^{k}")
    if power_from_seq(powers, i, p, m) != e:
        raise WitnessError("witness idempotent differs from the cycle power")
    b = mul(sub(one, e), a)
    if nil_index_of(ring, b) is None:
        raise WitnessError("(1-e)a is not nilpotent")
    if e not in index:
        raise WitnessError("witness idempotent is not central")
    z = one if m == 1 else power_from_seq(powers, i, p, m - 1)
    x_c = sub(one, z)
    try:
        wc = WnclWitness(index[e], index[b], index[x_c], "primal")
    except KeyError:
        raise WitnessError("decomposition left the center") from None
    if not check_wncl(cring, index[a], wc):
        raise WitnessError("center witness fails the primal identity")
    return wc


def center_ring(ring: FiniteRing) -> FiniteRing:
    """The center as a unital subring, cached per ring; element indices map
    through its ``members`` tuple and back through its ``index`` dict. A
    commutative ring is its own center and is returned itself."""
    def make():
        ring.require_unital("center ring")
        members = st.center(ring)
        if len(members) == ring.order:
            return ring
        return ct.subring(ring, members, one=ring.one, label=f"Center({ring.label})")
    return ring.memo("center_ring", make)


# ---------------------------------------------------------------------------
# uniqueness counts


def unique_idempotent_wncl(ring: FiniteRing, a: int,
                           limit: Optional[int] = None
                           ) -> Tuple[int, List[WnclWitness]]:
    """Count distinct idempotents over all valid primal triples for a.

    Returns the count and one sample witness per distinct idempotent; with a
    limit, stops as soon as that many distinct idempotents are seen."""
    sub = ring.sub
    nils = st.nilpotents(ring)
    count = 0
    samples: List[WnclWitness] = []
    for e in st.idempotents(ring):
        exa = _exa_value_map(ring, e, a)
        for q in nils:
            x = exa.get(sub(sub(a, e), q))
            if x is not None:
                count += 1
                samples.append(WnclWitness(e, q, x, "primal"))
                break
        if limit is not None and count >= limit:
            break
    return count, samples


def unique_nilpotent_wncl(ring: FiniteRing, a: int,
                          limit: Optional[int] = None
                          ) -> Tuple[int, List[WnclWitness]]:
    """Count distinct nilpotents over all valid primal triples for a."""
    sub = ring.sub
    idems = st.idempotents(ring)
    maps: Dict[int, Dict[int, int]] = {}
    count = 0
    samples: List[WnclWitness] = []
    for q in st.nilpotents(ring):
        for e in idems:
            if e not in maps:
                maps[e] = _exa_value_map(ring, e, a)
            x = maps[e].get(sub(sub(a, e), q))
            if x is not None:
                count += 1
                samples.append(WnclWitness(e, q, x, "primal"))
                break
        if limit is not None and count >= limit:
            break
    return count, samples


# ---------------------------------------------------------------------------
# ring-level verdicts


def _ring_verdict(ring: FiniteRing, key: str, holds, first_flagged=None,
                  batched: str = "") -> bool:
    """Whether holds(a) on every element a, memoized under ("ring_verdict",
    key). Below PASS_MIN_ORDER, or with no first_flagged, holds runs on
    each element in turn. From there on first_flagged() gives the smallest
    element that a batched pass flags, or None, and holds is replayed on it
    alone: the verdict is False when it fails there too, and a WitnessError
    naming the batched pass when it holds. A scalar chain that raises
    instead of failing raises its own error either way."""
    def compute():
        if ring.order < PASS_MIN_ORDER or first_flagged is None:
            return all(holds(a) for a in range(ring.order))
        a = first_flagged()
        if a is None or not holds(a):
            return a is None
        raise WitnessError(f"batched {batched} failed at element {a} of "
                           f"{ring.label} but the scalar search passed")
    return ring.memo(("ring_verdict", key), compute)


def _pass_flagged(ring: FiniteRing, kind: str, count: Optional[str] = None) -> Optional[int]:
    """The smallest element without a checked witness among the triples of
    kernel.witness_pass under kind ("wncl" or "exchange"), or, given count
    ("idempotents" or "nilpotents" of "wncl"), also with a number of them
    other than one over its witnesses."""
    found = kernel.witness_pass(ring)[kind]
    bad = ~found["checked"]
    if count is not None:
        bad |= found[count] != 1
    return int(bad.argmax()) if bad.any() else None


def ring_weakly_nil_clean(ring: FiniteRing) -> bool:
    """Every element has a primal witness. From PASS_MIN_ORDER on, the
    witnesses come from one array pass (kernel.witness_pass). Large rings use
    the constructive route through pi-regularity, checked on every element
    in one batched pass (see kernel)."""
    if ring.order > BRUTE_ORDER_LIMIT:
        ring.require_unital("large-ring weakly nil clean verdict")
        return _ring_verdict(
            ring, "wncl", lambda a: wncl_from_pi_regular(ring, a, pi_regular_witness_fast(ring, a)),
            lambda: kernel.first_failures(ring).get("wncl"), "wncl check")
    return _ring_verdict(ring, "wncl", lambda a: wncl_witness(ring, a) is not None,
                         lambda: _pass_flagged(ring, "wncl"), "wncl pass")


def ring_nil_clean(ring: FiniteRing) -> bool:
    return _ring_verdict(ring, "nil_clean", lambda a: nil_clean_witness(ring, a) is not None)


def ring_clean(ring: FiniteRing) -> bool:
    return _ring_verdict(ring, "clean", lambda a: clean_witness(ring, a) is not None)


def ring_exchange(ring: FiniteRing) -> bool:
    ring.require_unital("exchange search")
    return _ring_verdict(
        ring, "exchange", lambda a: exchange_witness(ring, a) is not None,
        lambda: _pass_flagged(ring, "exchange"), "exchange pass")


def ring_pi_regular(ring: FiniteRing) -> bool:
    return _ring_verdict(ring, "pi_regular", lambda a: pi_regular_witness_fast(ring, a),
                         lambda: kernel.first_failures(ring).get("pi_regular"), "pi_regular check")


def ring_strongly_pi_regular(ring: FiniteRing) -> bool:
    """Every element solves a^n = a^(n+1)*r; unital rings also get the full
    characterization verified through the witness constructor."""
    chain = strong_pi_witness_fast if ring.unital else strong_pi_core_fast
    return _ring_verdict(ring, "strongly_pi_regular", lambda a: chain(ring, a),
                         lambda: kernel.first_failures(ring).get("strongly_pi_regular"),
                         "strongly_pi_regular check")


def ring_strongly_regular(ring: FiniteRing) -> bool:
    return _ring_verdict(ring, "strongly_regular",
                         lambda a: strongly_regular_witness(ring, a) is not None)


def ring_unique_idempotent(ring: FiniteRing) -> bool:
    """Every element has one distinct idempotent over its primal triples."""
    return _ring_verdict(
        ring, "unique_idempotent", lambda a: unique_idempotent_wncl(ring, a, limit=2)[0] == 1,
        lambda: _pass_flagged(ring, "wncl", "idempotents"), "idempotents uniqueness pass")


def ring_unique_nilpotent(ring: FiniteRing) -> bool:
    """Every element has one distinct nilpotent over its primal triples."""
    return _ring_verdict(
        ring, "unique_nilpotent", lambda a: unique_nilpotent_wncl(ring, a, limit=2)[0] == 1,
        lambda: _pass_flagged(ring, "wncl", "nilpotents"), "nilpotents uniqueness pass")


# ---------------------------------------------------------------------------
# classification


# property -> (verdict, needs a unity, decided above BRUTE_ORDER_LIMIT). The
# verdicts call through module names at call time, so that wrappers
# installed on the modules (perfbench/tracer.py) see the calls.
_PROPERTIES = {
    "weakly_nil_clean": (lambda ring: ring_weakly_nil_clean(ring), False, True),
    "clean": (lambda ring: ring_clean(ring), True, False),
    "nil_clean": (lambda ring: ring_nil_clean(ring), False, False),
    "exchange": (lambda ring: ring_exchange(ring), True, False),
    "pi_regular": (lambda ring: ring_pi_regular(ring), True, True),
    "strongly_pi_regular": (lambda ring: ring_strongly_pi_regular(ring), True, True),
    "strongly_regular": (lambda ring: ring_strongly_regular(ring), True, False),
    "abelian": (lambda ring: st.is_abelian(ring), True, False),
    "unique_idempotent_all": (lambda ring: ring_unique_idempotent(ring), True, False),
    "unique_nilpotent_all": (lambda ring: ring_unique_nilpotent(ring), True, False),
}

PROPERTY_ORDER = tuple(_PROPERTIES)


@dataclass
class ClassificationReport:
    spec: str
    order: int
    unital: bool
    properties: Dict[str, Optional[bool]]
    counts: Optional[Dict[str, Optional[int]]]
    bounded_index: Optional[int]
    timings: Optional[Dict[str, float]] = None

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "unital"}


def classify(ring: FiniteRing, with_timings: bool = False) -> ClassificationReport:
    """Aggregate every ring-level verdict plus structure counts.

    Non-unital rings report only the two properties defined without a unity
    (weakly_nil_clean and nil_clean); the rest are None. Rings larger than
    the exhaustive-scan limit report, with a unity, the three
    trajectory-decidable properties (none without) and leave counts unset.
    The verdicts run in PROPERTY_ORDER."""
    timings: Dict[str, float] = {}

    def run(name, fn):
        t0 = time.perf_counter()
        out = fn(ring)
        timings[name] = time.perf_counter() - t0
        return out

    small = ring.order <= BRUTE_ORDER_LIMIT
    props: Dict[str, Optional[bool]] = {}
    for name, (verdict, needs_unity, above_limit) in _PROPERTIES.items():
        decided = (ring.unital and (small or above_limit)) or (small and not needs_unity)
        props[name] = run(name, verdict) if decided else None
    counts = run("counts", st.structure_counts) if small else None
    bidx = run("bounded_index", st.bounded_index) if small else None
    return ClassificationReport(
        spec=str(ring.spec) if ring.spec is not None else ring.label,
        order=ring.order,
        unital=ring.unital,
        properties=props,
        counts=counts,
        bounded_index=bidx,
        timings=timings if with_timings else None,
    )
