"""Batched array forms of the ring-level verdicts.

The pi-regularity verdicts at every order, and the weakly nil clean verdict
above the exhaustive-scan limit, run the trajectory witnesses of
``deciders`` (``pi_regular_witness_fast``, ``strong_pi_witness_fast`` or
``strong_pi_core_fast``, and ``wncl_from_pi_regular``) on every element.
From ``deciders.PASS_MIN_ORDER`` on, ``first_failures`` does the same
work on arrays of elements through the ring's vector operations, in batches
of ``core._PASS_CELLS // 32`` elements. A batch keeps its working set under
``core._PASS_CELLS`` int64 values (about 200 bytes an element at its peak on
M2(Z12)): the trajectory table and the strong-pi temporaries are dropped
before the wncl chain runs, and each chain temporary once its last check
is done. Each step
mirrors its scalar counterpart: the same products of the same factors,
the same identities, the same independent recomputations (a^n by repeated
squaring, nilpotency by power sequence). A value the scalar code computes
twice is computed once: mu's nilpotency, which the mu-power loop of the
composition already shows; faf's nil index, which that loop reads off the
powers of q = faf it forms; 0*0, one value for every row; and the square of
e = a^m, which both the pi-regular and the strong-pi check take. A step on a
subset of rows selects them by an index array (``np.flatnonzero``), not by
a boolean mask. ``trajectories`` builds the powers in a table kept by
exponent, so a step compares one contiguous row of new powers with the
block of earlier ones and gathers no rows; finished rows are masked, copied
once into the row-major result, and dropped from the table in one take
when at most half of it is live. Failures come back as boolean arrays of
failed rows instead of a raised WitnessError; ``deciders`` replays the
scalar chain on the smallest failing element to raise it.

From the same order on, with no upper limit, ``witness_pass`` does the
exhaustive wncl and exchange witness searches of ``deciders`` for every
element at once. Both witness forms are left multiples of a, so one pass
over blocks of elements (``core.row_blocks``) forms the products r*a of a
block once and reads both off them; it checks each witness it finds again.
``deciders`` replays the scalar search on the smallest element it flags,
and reads off it the first witness of every element for the harness walks.
Above the limit, ``wncl_alt_first`` is the alternate-form search of one
element on arrays, and ``nil_index`` serves ``structure.nil_index_map``.

The harness walks L_MOCNA and P_PIREG run, from the same order on, as one
pass over a member each, with a scalar replay of the first flagged row:
``compose_failures`` is the corner composition
``deciders.wncl_from_corner`` on arrays of (a, e, c, g, q, x), and the one
composition kernel, since ``wncl_chain_failures`` runs its corner step
through it; ``pi_regular_pass`` is the search of
``deciders.pi_regular_witness`` for every element.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .core import FiniteRing, index_dtype, memoized, row_blocks
from . import core
from . import structure as st

# Up to this order classify reports every property and the structure counts,
# and the wncl verdict searches for witnesses (witness_pass from
# deciders.PASS_MIN_ORDER on); above it classify reports only the verdicts
# that the trajectory witnesses decide, wncl through pi-regularity. The
# pi-regularity verdicts use the trajectory witnesses at every order.
BRUTE_ORDER_LIMIT = 256


def trajectories(ring: FiniteRing, x: np.ndarray):
    """core.power_seq of every element of x, as (P, pre, per): row r holds
    P[r, t-1] = x[r]^t for t up to pre[r] + per[r] - 1 (later columns of the
    row are unused), and pre[r], per[r] are its preperiod and period.

    The powers are built in a working table kept by exponent, W[t-1, s] for
    the row of slot s, so the new powers are one contiguous row of W and a
    step compares the block W[:k-1] with it, reducing over exponents; no
    step gathers rows. Only live slots are multiplied, as in power_seq. A
    finished slot is masked and its row copied once into P; the slots stay
    in W until at most half of them are live, and then one take compacts W
    to the live ones. W and P double their exponent capacity by copying
    themselves into a new table, so a growth step holds the old and the new
    one only."""
    mul = ring.mul_vec
    n = len(x)
    dtype = index_dtype(ring.order)
    P = np.zeros((n, 8), dtype=dtype)
    pre = np.zeros(n, dtype=np.int64)
    per = np.zeros(n, dtype=np.int64)
    W = np.empty((8, n), dtype=dtype)
    W[0] = x
    slot_row = np.arange(n)  # the row of x in each slot of W
    live = slot_row  # the live slots, ascending; base and cur follow them
    base = cur = x
    k = 1
    while live.size:
        cur = mul(cur, base)
        k += 1
        if k > W.shape[0]:
            grown = np.empty((2 * W.shape[0], W.shape[1]), dtype=dtype)
            grown[:W.shape[0]] = W
            W = grown
        W[k - 1, live] = cur
        seen = W[:k - 1] == W[k - 1]
        found = seen.any(axis=0).take(live)
        hit = np.flatnonzero(found)
        if not hit.size:
            continue
        slots = live.take(hit)
        done = slot_row.take(slots)
        pre[done] = seen.take(slots, axis=1).argmax(axis=0) + 1
        per[done] = k - pre[done]
        if k - 1 > P.shape[1]:
            grown = np.zeros((n, W.shape[0]), dtype=dtype)
            grown[:, :P.shape[1]] = P
            P = grown
        P[done, :k - 1] = W[:k - 1].take(slots, axis=1).T
        keep = np.flatnonzero(~found)
        live, base, cur = live.take(keep), base.take(keep), cur.take(keep)
        if 2 * live.size <= W.shape[1]:
            W = W.take(live, axis=1)
            slot_row = slot_row.take(live)
            live = np.arange(live.size)
    return P, pre, per


def power_at(traj, t: np.ndarray) -> np.ndarray:
    """core.power_from_seq on every row: x[r]^t[r] read off trajectories()."""
    P, pre, per = traj
    col = np.where(t <= pre + per - 1, t - 1, pre - 1 + (t - pre) % per)
    return P[np.arange(len(t)), col].astype(np.int64)


def nil_index(ring: FiniteRing, x: np.ndarray) -> np.ndarray:
    """core.nil_index_of on every element of x, with 0 where it is None: one
    plus the first column of the row's trajectory that holds 0. A product
    that is not associative may have 0*x != 0, so a trajectory can hold 0
    and go on; its first 0 is the one read."""
    P, pre, per = trajectories(ring, x)
    col = (P == ring.zero).argmax(axis=1)
    zero = (P[np.arange(len(x)), col] == ring.zero) & (col < pre + per - 1)
    return np.where(zero, col + 1, 0)


def wncl_alt_first(ring: FiniteRing, a: int) -> Optional[Tuple[int, int, int]]:
    """The alternate weakly nil clean triple (e, q, x) of the element a that
    deciders.wncl_witness_alt finds first, x ascending and then q over the
    nilpotents ascending, or None: e = x*a is idempotent and
    1 - e = ((1 - e)*(1 + q))*(1 - a), the same products in the same order.

    e = x*a for every x at once, then the (x, q) table over the x with e
    idempotent, in blocks of candidates that double in size from one, each
    within core._PASS_CELLS // 32 cells, so an early hit stops the search."""
    mul, add, sub = ring.mul_vec, ring.add_vec, ring.sub_vec
    one = np.array([ring.one], dtype=np.int64)
    X = np.arange(ring.order, dtype=np.int64)
    E = mul(X, np.array([a], dtype=np.int64))
    xs = np.flatnonzero(mul(E, E) == E)
    E = E.take(xs)
    F = sub(one, E)
    Q = np.asarray(st.nilpotents(ring), dtype=np.int64)
    one_q = add(one, Q)
    one_a = sub(one, np.array([a], dtype=np.int64))
    budget = max(1, core._PASS_CELLS // 32 // len(Q))
    start, width = 0, 1
    while start < len(xs):
        stop = start + min(width, budget)
        f = F[start:stop, None]
        hit = mul(mul(f, one_q), one_a) == f
        if hit.any():
            i, k = divmod(int(hit.argmax()), len(Q))
            return int(E[start + i]), int(Q[k]), int(xs[start + i])
        start, width = stop, 2 * width
    return None


def power(ring: FiniteRing, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """core.power on every row: x[r]^k[r] by the same repeated squaring."""
    mul = ring.mul_vec
    k = k.copy()
    base = np.array(x, dtype=np.int64)
    result = base.copy()
    started = np.zeros(len(k), dtype=bool)
    while True:
        odd = (k & 1).astype(bool)
        both = np.flatnonzero(odd & started)
        if both.size:
            result[both] = mul(result.take(both), base.take(both))
        fresh = np.flatnonzero(odd & ~started)
        result[fresh] = base.take(fresh)
        started |= odd
        k >>= 1
        live = np.flatnonzero(k)
        if not live.size:
            return result
        half = base.take(live)
        base[live] = mul(half, half)


def compose_failures(ring: FiniteRing, a: np.ndarray, e: np.ndarray, c: np.ndarray,
                     g: np.ndarray, q: Optional[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Rows where deciders.wncl_from_corner(ring, a, e, c, (g, q, x)) raises:
    its preconditions, the corner witness (g, q, x) in fRf with g idempotent
    and faf - g - q = g*x*faf, the mu-power loop up to q's nil index, and the
    final check_wncl of the composed witness, through the same products.

    The corner witness (0, faf, 0) of the pi-regular route is passed as
    one-element arrays g = x = 0 and q = None, which stands for faf: faf is
    formed once, the products g*g and g*x are one value, and the check that
    x lies in fRf, where x equals g, is the one of g and runs once. Each
    temporary is dropped once its last check is done."""
    mul, add, sub = ring.mul_vec, ring.add_vec, ring.sub_vec
    one = np.array([ring.one], dtype=np.int64)
    bad = mul(e, e) != e
    bad |= mul(c, a) != e
    f = sub(one, e)
    fa = mul(f, a)
    faf = mul(fa, f)
    if q is None:
        q = faf
    for z in (g, q) if np.array_equal(g, x) else (g, q, x):
        bad |= mul(mul(f, z), f) != z
    bad |= mul(g, g) != g
    gx = mul(g, x)
    bad |= sub(sub(faf, g), q) != mul(gx, faf)
    del faf
    fae = mul(fa, e)
    mu = add(q, fae)
    pi = add(e, g)
    # 1 - s of the composed witness, made before the power loop so that its
    # factors are dropped first
    x_out = sub(one, sub(add(c, f), mul(gx, sub(f, mul(fa, c)))))
    del f, fa, gx
    # mu^k = q^k + q^(k-1)*fae for k up to the nil index of q: a row takes
    # the first step and goes on while the power q^(k-1) it multiplied is not
    # 0, the steps of nil_index_of(q). A nilpotent's powers before 0 are
    # distinct, so a row still live after ring.order steps is not nilpotent.
    mu_pow = mu.copy()
    q_pow = np.array(q, dtype=np.int64)
    rows = np.arange(len(bad))
    for _ in range(ring.order):
        prev = q_pow[rows]
        mu_pow[rows] = mul(mu_pow[rows], mu[rows])
        q_pow[rows] = mul(prev, q[rows])
        bad[rows] |= mu_pow[rows] != add(q_pow[rows], mul(prev, fae[rows]))
        rows = rows.take(np.flatnonzero(prev != ring.zero))
        if not rows.size:
            break
    bad[rows] = True
    del q_pow, fae
    bad |= mu_pow != ring.zero
    del mu_pow
    bad |= mul(sub(one, pi), sub(a, mu)) != ring.zero
    # check_wncl of (pi, mu, x_out); mu is nilpotent on every row not yet
    # failed, since the loop above found mu^(k+1) = 0 for the nil index k of
    # q along the powers of core.power_seq
    bad |= mul(pi, pi) != pi
    bad |= sub(sub(a, pi), mu) != mul(mul(pi, x_out), a)
    return bad


def wncl_chain_failures(ring: FiniteRing, a: np.ndarray, m: np.ndarray,
                        am: np.ndarray) -> np.ndarray:
    """Rows where deciders.wncl_from_pi_regular(ring, a, (m, am)) raises:
    its pi-regularity check, then compose_failures with the corner witness
    (0, faf, 0), whose nil index check is the one of faf."""
    mul = ring.mul_vec
    # check_pi_regular
    an = power(ring, a, m)
    bad = mul(mul(an, am), an) != an
    e = mul(am, an)
    del an
    c = am.copy()
    longer = np.flatnonzero(m > 1)
    c[longer] = mul(am.take(longer),
                    power(ring, a.take(longer), m.take(longer) - 1))
    zero = np.array([ring.zero], dtype=np.int64)
    bad |= compose_failures(ring, a, e, c, zero, None, zero)
    return bad


def _trajectory_failures(ring: FiniteRing, a: np.ndarray):
    """The "pi_regular" and "strongly_pi_regular" rows of chunk_failures,
    with the exponents m and the powers a^m that the wncl chain takes. The
    trajectory table and the strong-pi temporaries are dropped once their
    last check is done, and all are gone before the wncl chain runs."""
    mul, sub = ring.mul_vec, ring.sub_vec
    traj = trajectories(ring, a)
    pre, per = traj[1:]
    lo = pre  # power_seq gives a preperiod of at least 1
    m = per * ((lo + per - 1) // per)
    am = power_at(traj, m)
    # e*e = e of the strong-pi chain squares the same e = a^m
    am2 = mul(am, am)
    bad_pi = mul(am2, am) != am
    r = np.where(per >= 2, power_at(traj, np.maximum(per - 1, 1)), a)
    an = power_at(traj, lo)
    bad_spi = mul(power_at(traj, lo + 1), r) != an
    out = {"pi_regular": bad_pi, "strongly_pi_regular": bad_spi}
    if not ring.unital:
        return m, am, out
    del r, an
    e = am
    bad_spi |= am2 != e
    del am2
    # the corner inverse of a*e is a^mp with mp = -1 mod the period
    z = power_at(traj, lo + (per - 1 - lo) % per)
    del traj, pre, per, lo
    ae = mul(a, e)
    bad_spi |= mul(mul(e, z), e) != z
    bad_spi |= mul(ae, z) != e
    bad_spi |= mul(z, ae) != e
    del z, ae
    b = mul(a, sub(np.full(len(a), ring.one, dtype=np.int64), e))
    bad_spi |= power(ring, b, m) != ring.zero
    return m, am, out


def chunk_failures(ring: FiniteRing, a: np.ndarray) -> Dict[str, np.ndarray]:
    """Failed rows, on the elements a, of the scalar chain of each verdict:
    "pi_regular" runs pi_regular_witness_fast; "strongly_pi_regular" runs
    strong_pi_witness_fast, or strong_pi_core_fast without a unity; with a
    unity and above BRUTE_ORDER_LIMIT (below it witness_pass decides wncl),
    "wncl" runs pi_regular_witness_fast then wncl_from_pi_regular. One
    trajectory pass serves all three."""
    m, am, out = _trajectory_failures(ring, a)
    if ring.unital and ring.order > BRUTE_ORDER_LIMIT:
        out["wncl"] = out["pi_regular"] | wncl_chain_failures(ring, a, m, am)
    return out


@memoized(("large_ring_failures",))
def first_failures(ring: FiniteRing) -> Dict[str, int]:
    """The smallest element failing each chain of chunk_failures, from one
    pass over the ring in batches of core._PASS_CELLS // 32 elements, each
    within a working set of core._PASS_CELLS int64 values; cached on the
    ring."""
    X = np.arange(ring.order, dtype=np.int64)
    first: Dict[str, int] = {}
    for s in row_blocks(ring.order, 32):
        for name, bad in chunk_failures(ring, X[s]).items():
            if name not in first and bad.any():
                first[name] = s.start + int(bad.argmax())
    return first


def pi_regular_pass(ring: FiniteRing) -> Tuple[np.ndarray, np.ndarray]:
    """The witness (n, r) of deciders.pi_regular_witness for every element,
    as arrays n and r indexed by element, -1 where there is none: the
    smallest n >= 1, and then the smallest r, with (a^n*r)*a^n = a^n.

    Whether (v*r)*v = v has a solution, and its smallest r, depend on v = a^n
    alone, and every power is an element. So one pass over blocks of
    elements v (core.row_blocks) forms the block v*R*v once and keeps the
    first r that hits. The powers of every element, from trajectories in
    blocks of core._PASS_CELLS // 32 elements, then read it at each exponent
    up to pre + per - 1 in turn; the scalar search's last exponent,
    pre + per, gives the power at pre again."""
    mul = ring.mul_vec
    X = np.arange(ring.order, dtype=np.int64)
    regular = np.full(ring.order, -1, dtype=np.int64)  # the smallest r for v
    for s in row_blocks(ring.order, 2 * ring.order):
        v = X[s, None]
        hit = mul(mul(v, X), v) == v
        regular[s] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    n, r = np.full((2, ring.order), -1, dtype=np.int64)
    for s in row_blocks(ring.order, 32):
        P, pre, per = trajectories(ring, X[s])
        ok = (regular >= 0)[P]
        ok &= np.arange(P.shape[1]) < (pre + per - 1)[:, None]
        col = ok.argmax(axis=1)
        rows = np.flatnonzero(ok[np.arange(len(col)), col])
        n[s][rows] = col[rows] + 1
        r[s][rows] = regular[P[rows, col[rows]]]
    return n, r


# ---------------------------------------------------------------------------
# the witness pass over blocks of elements


def witness_pass(ring: FiniteRing) -> Dict[str, Dict[str, np.ndarray]]:
    """The witness triples of every element a, as arrays indexed by element,
    under "wncl" and, when the ring has a unity, "exchange". Cached on the
    ring.

    "wncl" holds the primal weakly nil clean triples (e, q, x), e idempotent
    and q nilpotent with a - e - q = (e*x)*a: "e", "q", "x", the first triple
    of deciders.wncl_witness in its lexicographic order (e, q, then the
    smallest x), or -1 where there is none; "checked", that a first triple
    exists and passes e*e = e, q nilpotent and a - e - q = e*x*a, recomputed
    from the ring's operations; "idempotents" and "nilpotents", how many
    idempotents and nilpotents occur in some triple of a (the counts of
    deciders.unique_idempotent_wncl and unique_nilpotent_wncl without a
    limit).

    "exchange" holds the exchange triples (e, r, s), e idempotent with
    e = r*a and 1 - e = s*(1 - a): "e", "r", "s", the first triple of
    deciders.exchange_witness (the smallest e, then the smallest r and s),
    or -1 where there is none, and "checked", that it passes e*e = e,
    r*a = e and s*(1 - a) = 1 - e, recomputed from the ring's operations.

    One pass over blocks of elements, each forming RA[r, a] = r*a once.
    The exchange triples scatter the membership masks of Ra and R(1 - a)
    and read them at e and 1 - e for every idempotent. The wncl triples
    scatter, over blocks of idempotents, the membership masks of
    {(e*x)*a : x in R} by reading RA at the distinct values of e*x, and look
    up a - e - q in them for every q. That set is not eR ∩ Ra, which equals
    it only for an associative product."""
    return ring.memo(("witness_pass",), lambda: _witness_pass(ring), shared=True)


def _witness_pass(ring: FiniteRing) -> Dict[str, Dict[str, np.ndarray]]:
    mul, sub = ring.mul_vec, ring.sub_vec
    n = ring.order
    E = np.asarray(st.idempotents(ring), dtype=np.int64)
    Q = np.asarray(st.nilpotents(ring), dtype=np.int64)
    X = np.arange(n, dtype=np.int64)
    wncl = {name: np.full(n, -1, dtype=np.int64) for name in "eqx"}
    exchange = {name: np.full(n, -1, dtype=np.int64) for name in "ers"}
    e_count, q_count = np.zeros((2, n), dtype=np.int64)
    if ring.unital:
        F = sub(np.full(len(E), ring.one, dtype=np.int64), E)
    for block in row_blocks(n, n):
        A = X[block]
        RA = mul(X[:, None], A)  # (r, a)
        if ring.unital:
            RB = mul(X[:, None], sub(np.full(len(A), ring.one, dtype=np.int64), A))
            in_ra = np.zeros((len(A), n), dtype=bool)
            in_rb = np.zeros((len(A), n), dtype=bool)
            in_ra[np.arange(len(A)), RA] = True
            in_rb[np.arange(len(A)), RB] = True
            ok = in_ra[:, E] & in_rb[:, F]  # (a, e)
            js = np.flatnonzero(ok.any(axis=1))
            if js.size:
                i = ok[js].argmax(axis=1)
                exchange["e"][A[js]] = E[i]
                exchange["r"][A[js]] = (RA[:, js] == E[i]).argmax(axis=0)
                exchange["s"][A[js]] = (RB[:, js] == F[i]).argmax(axis=0)
            del RB, in_ra, in_rb, ok
        q_seen = np.zeros((len(A), len(Q)), dtype=bool)
        for t in row_blocks(len(E), n * len(A)):
            Eb = E[t]
            EX = mul(Eb[:, None], X)  # (e, x)
            # eR as pairs (row of e in Eb, value w = e*x), rows ascending
            eR = np.zeros((len(Eb), n), dtype=bool)
            eR[np.arange(len(Eb))[:, None], EX] = True
            i, w = np.nonzero(eR)
            # member[e, a, v] is True when v = w*a for some w in eR
            rows = (np.arange(len(Eb))[:, None] * len(A) + np.arange(len(A))) * n
            member = np.zeros(len(Eb) * len(A) * n, dtype=bool)
            member[rows[i] + RA[w]] = True
            D = sub(sub(A, Eb[:, None])[:, :, None], Q)  # (e, a, q)
            W = member[rows[:, :, None] + D]
            admit = W.any(axis=2)
            e_count[A] += admit.sum(axis=0)
            q_seen |= W.any(axis=0)
            js = np.flatnonzero((wncl["e"][A] < 0) & admit.any(axis=0))
            if js.size:
                i = admit[:, js].argmax(axis=0)
                k = W[i, js].argmax(axis=1)
                exa = RA[EX[i], js[:, None]]  # (e*x)*a for every x
                wncl["e"][A[js]] = Eb[i]
                wncl["q"][A[js]] = Q[k]
                wncl["x"][A[js]] = (exa == D[i, js, k][:, None]).argmax(axis=1)
        q_count[A] = q_seen.sum(axis=1)
    found = np.flatnonzero(wncl["e"] >= 0)
    e, q, x = (wncl[name][found] for name in "eqx")
    nilpotent = np.zeros(n, dtype=bool)
    nilpotent[q] = True
    qs = np.flatnonzero(nilpotent)
    nilpotent[qs] = nil_index(ring, qs) != 0
    checked = np.zeros(n, dtype=bool)
    checked[found] = ((mul(e, e) == e) & nilpotent[q]
                      & (sub(sub(found, e), q) == mul(mul(e, x), found)))
    out = {"wncl": dict(wncl, checked=checked, idempotents=e_count, nilpotents=q_count)}
    if ring.unital:
        found = np.flatnonzero(exchange["e"] >= 0)
        e, r, s = (exchange[name][found] for name in "ers")
        one = np.full(len(found), ring.one, dtype=np.int64)
        checked = np.zeros(n, dtype=bool)
        checked[found] = ((mul(e, e) == e) & (mul(r, found) == e)
                          & (mul(s, sub(one, found)) == sub(one, e)))
        out["exchange"] = dict(exchange, checked=checked)
    return out
