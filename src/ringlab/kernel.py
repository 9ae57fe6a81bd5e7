"""Batched array forms of the ring-level verdicts.

The pi-regularity verdicts at every order, and the weakly nil clean verdict
above the exhaustive-scan limit, run the trajectory witnesses of
``deciders`` (``pi_regular_witness_fast``, ``strong_pi_witness_fast`` or
``strong_pi_core_fast``, and ``wncl_from_pi_regular``) on every element.
From ``deciders.PASS_MIN_ORDER`` on, ``first_failures`` does the same
work on arrays of elements through the ring's vector operations. Each step
mirrors its scalar counterpart: the same products of the same factors,
the same identities, the same independent recomputations (a^n by repeated
squaring, nilpotency by power sequence). A value the scalar code computes
twice is computed once. Failures come back as boolean arrays of failed rows
instead of a raised WitnessError; ``deciders`` replays the scalar chain on
the smallest failing element to raise it.

From the same order up to the limit, ``wncl_pass`` and
``exchange_pass`` do the exhaustive witness searches of ``deciders`` for
every element at once, over blocks of idempotents and elements, and check
each witness they find again; ``deciders`` replays the scalar search on the
smallest element they flag.
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


# ---------------------------------------------------------------------------
# small-ring passes over idempotents

# Cells (idempotent, x, element) per block of wncl_pass, and (r, element)
# per block of exchange_pass. It bounds the products, membership masks and
# differences of one block to a few megabytes.
_PASS_CELLS = 1 << 18


def wncl_pass(ring: FiniteRing, idems, nils) -> Dict[str, np.ndarray]:
    """The primal weakly nil clean triples (e, q, x) of every element a, with
    e from idems and q from nils: a - e - q = (e*x)*a.

    Returns arrays indexed by element: "e", "q", "x", the first triple of
    deciders.wncl_witness in its lexicographic order (e, q, then the smallest
    x), or -1 where there is none; "checked", that a first triple exists and
    passes e*e = e, q nilpotent and a - e - q = e*x*a, recomputed from the
    ring's operations; "idempotents" and "nilpotents", how many of idems and
    of nils occur in some triple of a (the counts of
    deciders.unique_idempotent_wncl and unique_nilpotent_wncl without a
    limit). Cached on the ring.

    One pass over blocks of (idempotent, x, element) cells: gather
    (e*x)*a over the distinct values of e*x, scatter the membership masks of
    eRa, and look up a - e - q in them for every q."""
    key = ("wncl_pass",)
    if key in ring.cache:
        return ring.cache[key]
    mul, sub = ring.mul_vec, ring.sub_vec
    n = ring.order
    E = np.asarray(idems, dtype=np.int64)
    Q = np.asarray(nils, dtype=np.int64)
    X = np.arange(n, dtype=np.int64)
    first = {name: np.full(n, -1, dtype=np.int64) for name in "eqx"}
    e_count = np.zeros(n, dtype=np.int64)
    q_seen = np.zeros((len(Q), n), dtype=bool)
    width = min(n, max(1, _PASS_CELLS // n))
    for a0 in range(0, n, width):
        A = X[a0:a0 + width]
        depth = max(1, _PASS_CELLS // (n * len(A)))
        for e0 in range(0, len(E), depth):
            Eb = E[e0:e0 + depth]
            # eR as pairs (row of e in Eb, value w = e*x), rows ascending
            eR = np.zeros((len(Eb), n), dtype=bool)
            eR[np.arange(len(Eb))[:, None], mul(Eb[:, None], X)] = True
            i, w = np.nonzero(eR)
            # member[e, a, v] is True when v = w*a for some w in eR
            rows = (np.arange(len(Eb))[:, None] * len(A) + np.arange(len(A))) * n
            member = np.zeros(len(Eb) * len(A) * n, dtype=bool)
            member[rows[i] + mul(w[:, None], A)] = True
            D = sub(sub(A, Eb[:, None])[:, :, None], Q)  # (e, a, q)
            W = member[rows[:, :, None] + D]
            admit = W.any(axis=2)
            e_count[A] += admit.sum(axis=0)
            q_seen[:, A] |= W.any(axis=0).T
            js = np.flatnonzero((first["e"][A] < 0) & admit.any(axis=0))
            if js.size:
                i = admit[:, js].argmax(axis=0)
                k = W[i, js].argmax(axis=1)
                exa = mul(mul(Eb[i, None], X), A[js, None])
                first["e"][A[js]] = Eb[i]
                first["q"][A[js]] = Q[k]
                first["x"][A[js]] = (exa == D[i, js, k][:, None]).argmax(axis=1)
    found = np.flatnonzero(first["e"] >= 0)
    e, q, x = (first[name][found] for name in "eqx")
    nilpotent = np.zeros(n, dtype=bool)
    nilpotent[q] = True
    qs = np.flatnonzero(nilpotent)
    nilpotent[qs] = nil_index(ring, qs) != 0
    checked = np.zeros(n, dtype=bool)
    checked[found] = ((mul(e, e) == e) & nilpotent[q]
                      & (sub(sub(found, e), q) == mul(mul(e, x), found)))
    out = dict(first, checked=checked, idempotents=e_count,
               nilpotents=q_seen.sum(axis=0))
    ring.cache[key] = out
    return out


def exchange_pass(ring: FiniteRing, idems) -> Dict[str, np.ndarray]:
    """The exchange triples (e, r, s) of every element a of a unital ring,
    with e from idems: e = r*a and 1 - e = s*(1 - a).

    Returns arrays indexed by element: "e", "r", "s", the first triple of
    deciders.exchange_witness (the first e in idems order, then the smallest
    r and s), or -1 where there is none, and "checked", that it passes
    e*e = e, r*a = e and s*(1 - a) = 1 - e, recomputed from the ring's
    operations. Cached on the ring.

    One pass over blocks of elements: gather r*a and r*(1 - a) for every r,
    scatter the membership masks of Ra and R(1 - a), and read them at e and
    1 - e for every idempotent."""
    key = ("exchange_pass",)
    if key in ring.cache:
        return ring.cache[key]
    mul, sub = ring.mul_vec, ring.sub_vec
    n = ring.order
    E = np.asarray(idems, dtype=np.int64)
    X = np.arange(n, dtype=np.int64)
    F = sub(np.full(len(E), ring.one, dtype=np.int64), E)
    first = {name: np.full(n, -1, dtype=np.int64) for name in "ers"}
    width = min(n, max(1, _PASS_CELLS // n))
    for a0 in range(0, n, width):
        A = X[a0:a0 + width]
        rows = np.arange(len(A))
        RA = mul(X[:, None], A)  # (r, a)
        RB = mul(X[:, None], sub(np.full(len(A), ring.one, dtype=np.int64), A))
        in_ra = np.zeros((len(A), n), dtype=bool)
        in_rb = np.zeros((len(A), n), dtype=bool)
        in_ra[rows, RA] = True
        in_rb[rows, RB] = True
        ok = in_ra[:, E] & in_rb[:, F]  # (a, e)
        js = np.flatnonzero(ok.any(axis=1))
        if js.size:
            i = ok[js].argmax(axis=1)
            first["e"][A[js]] = E[i]
            first["r"][A[js]] = (RA[:, js] == E[i]).argmax(axis=0)
            first["s"][A[js]] = (RB[:, js] == F[i]).argmax(axis=0)
    found = np.flatnonzero(first["e"] >= 0)
    e, r, s = (first[name][found] for name in "ers")
    one = np.full(len(found), ring.one, dtype=np.int64)
    checked = np.zeros(n, dtype=bool)
    checked[found] = ((mul(e, e) == e) & (mul(r, found) == e)
                      & (mul(s, sub(one, found)) == sub(one, e)))
    out = dict(first, checked=checked)
    ring.cache[key] = out
    return out
