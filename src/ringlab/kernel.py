"""Batched array forms of the trajectory fast paths, for large-ring verdicts.

The ring-level verdicts above the exhaustive-scan limit run the trajectory
witnesses of ``deciders`` (``pi_regular_witness_fast``,
``strong_pi_witness_fast`` or ``strong_pi_core_fast``, and
``wncl_from_pi_regular``) on every element. The functions here do the same
work on arrays of elements through the ring's vector operations. Each mirrors
its scalar counterpart step by step: the same products of the same factors,
the same identities, the same independent recomputations (a^n by repeated
squaring, nilpotency by power sequence). A value the scalar code computes
twice is computed once. Failures come back as boolean arrays of failed rows
instead of a raised WitnessError; ``deciders`` replays the scalar chain on
the smallest failing element to raise it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .core import FiniteRing, index_dtype

# Elements per batch in first_failures. It bounds the arrays of one batch,
# its power trajectories above all, to a few hundred kilobytes.
_VERDICT_CHUNK = 2048


def trajectories(ring: FiniteRing, x: np.ndarray):
    """core.power_seq of every element of x, as (P, pre, per): row r holds
    P[r, t-1] = x[r]^t for t up to pre[r] + per[r] - 1 (later columns of the
    row are unused), and pre[r], per[r] are its preperiod and period."""
    mul = ring.mul_vec
    n = len(x)
    P = np.zeros((n, 8), dtype=index_dtype(ring.order))
    P[:, 0] = x
    pre = np.zeros(n, dtype=np.int64)
    per = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    base = x
    cur = x
    k = 1
    while rows.size:
        cur = mul(cur, base)
        k += 1
        seen = P[rows, :k - 1] == cur[:, None]
        hit = seen.any(axis=1)
        if hit.any():
            first = seen[hit].argmax(axis=1) + 1
            pre[rows[hit]] = first
            per[rows[hit]] = k - first
            live = ~hit
            rows, base, cur = rows[live], base[live], cur[live]
        if k > P.shape[1]:
            P = np.concatenate([P, np.zeros_like(P)], axis=1)
        P[rows, k - 1] = cur
    return P, pre, per


def power_at(traj, t: np.ndarray) -> np.ndarray:
    """core.power_from_seq on every row: x[r]^t[r] read off trajectories()."""
    P, pre, per = traj
    col = np.where(t <= pre + per - 1, t - 1, pre - 1 + (t - pre) % per)
    return P[np.arange(len(t)), col].astype(np.int64)


def nil_index(ring: FiniteRing, x: np.ndarray) -> np.ndarray:
    """core.nil_index_of on every element of x, with 0 where it is None."""
    P, pre, per = trajectories(ring, x)
    zero = (P == ring.zero) & (np.arange(P.shape[1]) < (pre + per - 1)[:, None])
    index = np.where(zero.any(axis=1), zero.argmax(axis=1) + 1, 0)
    return np.where(x == ring.zero, 1, index)


def power(ring: FiniteRing, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """core.power on every row: x[r]^k[r] by the same repeated squaring."""
    mul = ring.mul_vec
    k = k.copy()
    base = np.array(x, dtype=np.int64)
    result = base.copy()
    started = np.zeros(len(k), dtype=bool)
    while True:
        odd = (k & 1).astype(bool)
        both = odd & started
        if both.any():
            result[both] = mul(result[both], base[both])
        fresh = odd & ~started
        result[fresh] = base[fresh]
        started |= odd
        k >>= 1
        live = k > 0
        if not live.any():
            return result
        base[live] = mul(base[live], base[live])


def wncl_chain_failures(ring: FiniteRing, a: np.ndarray, m: np.ndarray,
                        am: np.ndarray) -> np.ndarray:
    """Rows where deciders.wncl_from_pi_regular(ring, a, (m, am)) raises:
    its pi-regularity check, wncl_from_corner with the corner witness
    (0, faf, 0), and the final check_wncl of the composed witness."""
    mul, add, sub = ring.mul_vec, ring.add_vec, ring.sub_vec
    n = len(a)
    one = np.full(n, ring.one, dtype=np.int64)
    zero = np.full(n, ring.zero, dtype=np.int64)
    # check_pi_regular
    an = power(ring, a, m)
    bad = mul(mul(an, am), an) != an
    e = mul(am, an)
    c = am.copy()
    longer = m > 1
    c[longer] = mul(am[longer], power(ring, a[longer], m[longer] - 1))
    f = sub(one, e)
    fa = mul(f, a)
    faf = mul(fa, f)
    qn = nil_index(ring, faf)
    bad |= qn == 0
    # wncl_from_corner: its preconditions, then the corner witness
    # (g, q, x) = (0, faf, 0) lies in fRf, g is idempotent and
    # faf - g - q = g*x*faf
    bad |= mul(e, e) != e
    bad |= mul(c, a) != e
    bad |= mul(mul(f, zero), f) != zero
    bad |= mul(mul(f, faf), f) != faf
    gx = mul(zero, zero)
    bad |= gx != zero
    bad |= sub(sub(faf, zero), faf) != mul(gx, faf)
    fae = mul(fa, e)
    mu = add(faf, fae)
    pi = add(e, zero)
    # mu^k = q^k + q^(k-1)*fae for k up to the nil index of q
    mu_pow = mu.copy()
    q_pow = faf.copy()
    for step in range(int(qn.max(initial=0))):
        rows = np.flatnonzero(qn > step)
        prev = q_pow[rows]
        mu_pow[rows] = mul(mu_pow[rows], mu[rows])
        q_pow[rows] = mul(prev, faf[rows])
        bad[rows] |= mu_pow[rows] != add(q_pow[rows], mul(prev, fae[rows]))
    bad |= mu_pow != zero
    bad |= mul(sub(one, pi), sub(a, mu)) != zero
    s = sub(add(c, f), mul(gx, sub(f, mul(fa, c))))
    x_out = sub(one, s)
    # check_wncl of (pi, mu, x_out)
    bad |= mul(pi, pi) != pi
    bad |= nil_index(ring, mu) == 0
    bad |= sub(sub(a, pi), mu) != mul(mul(pi, x_out), a)
    return bad


def chunk_failures(ring: FiniteRing, a: np.ndarray) -> Dict[str, np.ndarray]:
    """Failed rows, on the elements a, of the scalar chain of each verdict:
    "pi_regular" runs pi_regular_witness_fast; "strongly_pi_regular" runs
    strong_pi_witness_fast, or strong_pi_core_fast without a unity; with a
    unity, "wncl" runs pi_regular_witness_fast then wncl_from_pi_regular.
    One trajectory pass serves all three."""
    mul, sub = ring.mul_vec, ring.sub_vec
    traj = trajectories(ring, a)
    _, pre, per = traj
    lo = pre  # power_seq gives a preperiod of at least 1
    m = per * ((lo + per - 1) // per)
    am = power_at(traj, m)
    bad_pi = mul(mul(am, am), am) != am
    r = np.where(per >= 2, power_at(traj, np.maximum(per - 1, 1)), a)
    an = power_at(traj, lo)
    bad_spi = mul(power_at(traj, lo + 1), r) != an
    out = {"pi_regular": bad_pi, "strongly_pi_regular": bad_spi}
    if not ring.unital:
        return out
    e = am
    bad_spi |= mul(e, e) != e
    # the corner inverse of a*e is a^mp with mp = -1 mod the period
    z = power_at(traj, np.where(per == 1, lo, lo + (per - 1 - lo) % per))
    ae = mul(a, e)
    bad_spi |= mul(mul(e, z), e) != z
    bad_spi |= mul(ae, z) != e
    bad_spi |= mul(z, ae) != e
    b = mul(a, sub(np.full(len(a), ring.one, dtype=np.int64), e))
    bad_spi |= power(ring, b, m) != ring.zero
    out["wncl"] = bad_pi | wncl_chain_failures(ring, a, m, am)
    return out


def first_failures(ring: FiniteRing) -> Dict[str, int]:
    """The smallest element failing each chain of chunk_failures, from one
    pass over the ring in chunks of _VERDICT_CHUNK; cached on the ring."""
    key = ("large_ring_failures",)
    if key not in ring.cache:
        first: Dict[str, int] = {}
        for start in range(0, ring.order, _VERDICT_CHUNK):
            a = np.arange(start, min(start + _VERDICT_CHUNK, ring.order), dtype=np.int64)
            for name, bad in chunk_failures(ring, a).items():
                if name not in first and bad.any():
                    first[name] = start + int(bad.argmax())
        ring.cache[key] = first
    return ring.cache[key]
