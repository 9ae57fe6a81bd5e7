"""Named ring-theoretic checks over a declared corpus.

Each check exercises one statement elementwise across the corpus and returns
its detail line, or raises with a replayable counterexample on failure;
``run_check`` alone sets the status. Two checks (Q_SYMMETRY, Q_CORNER) probe
open questions: they report observed agreement statistics and can never fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import FiniteRing, RingLabError, OrderCapError, WitnessError, row_blocks
from . import construct as ct
from . import structure as st
from . import deciders as dc
from . import kernel

DEFAULT_CORPUS: Tuple[ct.RingSpec, ...] = (
    ct.Zn(2),
    ct.Zn(3),
    ct.Zn(4),
    ct.Zn(6),
    ct.Zn(8),
    ct.Zn(12),
    ct.product((ct.Zn(2), ct.Zn(2))),
    ct.product((ct.Zn(2), ct.Zn(4))),
    ct.TrivialExt(ct.Zn(2)),
    ct.PolyMod(ct.Zn(2), 2),
    ct.PolyMod(ct.Zn(4), 2),
    ct.Triangular(2, ct.Zn(2)),
    ct.Triangular(2, ct.Zn(4)),
    ct.Matrix(2, ct.Zn(2)),
    ct.Matrix(2, ct.Zn(3)),
    ct.Matrix(2, ct.Zn(4)),
    ct.IdealRing(ct.Zn(4), (2,)),
)

# checks that quantify over pairs of elements with nested searches stay on
# small members only
PAIR_SCAN_LIMIT = 64


@dataclass
class PropositionCheck:
    """Outcome of one named check over a corpus.

    status is "pass", "fail", or "experiment"; a fail carries
    (spec string, element indices) sufficient to replay the failure.
    """

    id: str
    corpus: List[str]
    status: str
    detail: str
    counterexample: Optional[Tuple[str, Tuple[int, ...]]] = None


def _build_corpus(specs: Sequence[ct.RingSpec]):
    built: List[Tuple[ct.RingSpec, FiniteRing]] = []
    failures: List[str] = []
    for spec in specs:
        try:
            built.append((spec, ct.build_cached(spec)))
        except RingLabError as exc:
            failures.append(f"{spec}: {exc}")
    return built, failures


def canonical_nil_ideal(spec: ct.RingSpec,
                        ring: FiniteRing) -> Optional[st.Ideal]:
    """The nil ideal a construction carries by design: the strictly upper
    triangular part, the extension part of a trivial extension, or the
    multiples of x in a truncated polynomial ring. None for other kinds.
    In each, it is the elements whose digits are the zero's at every
    position that holds the base's one in the unity (meta["unity"])."""
    if not isinstance(spec, (ct.Triangular, ct.TrivialExt, ct.PolyMod)):
        return None
    zero, flags = ct.ring_unpack(ring, ring.zero), ring.meta["unity"]
    return st.make_ideal(ring, [m for m in range(ring.order) if all(
        d == z for d, z, f in zip(ct.ring_unpack(ring, m), zero, flags) if f)])


# ---------------------------------------------------------------------------
# individual checks: each returns its detail line, or raises _Fail


class _Fail(Exception):
    """Raised as _Fail(detail, spec, *elements) by a failing check; the
    element indices replay the failure in the ring of spec."""


def _unital(built):
    return [(spec, ring) for spec, ring in built if ring.unital]


def _names(specs) -> str:
    return ", ".join(map(str, specs)) or "no rings"


def _skipped(detail: str, *groups) -> str:
    """detail, then "; <why> for: <specs>" per nonempty (why, specs) group of skipped members."""
    return detail + "".join(f"; {why} for: {_names(specs)}" for why, specs in groups if specs)


def _check_osnove(built):
    """Weakly nil clean elements admit exchange witnesses (unital members)."""
    members = _unital(built)
    elements = 0
    for spec, ring in members:
        exchange = dc.exchange_table(ring)
        for a, primal in enumerate(dc.wncl_table(ring)):
            if primal is None:
                continue
            w = exchange[a]
            if w is None or not dc.check_exchange(ring, a, w):
                raise _Fail(f"no exchange witness for element {a} of {spec}", spec, a)
            elements += 1
    return f"{elements} elements across {len(members)} unital rings"


def _check_prva(built):
    """Primal and alternate witnesses exist for the same elements."""
    members = _unital(built)
    for spec, ring in members:
        for a, w in enumerate(dc.wncl_table(ring)):
            alt = dc.wncl_witness_alt(ring, a)
            if (w is None) != (alt is None):
                raise _Fail(f"form mismatch at element {a} of {spec}: "
                            f"primal={'present' if w else 'absent'}, "
                            f"alternate={'present' if alt else 'absent'}", spec, a)
            if w is not None and not (dc.check_wncl(ring, a, w)
                                      and dc.check_wncl(ring, a, alt)):
                raise _Fail(f"witness failed re-validation at {a} of {spec}", spec, a)
    elements = sum(ring.order for _, ring in members)
    return f"{elements} elements across {len(members)} unital rings"


def _check_nilideal(built):
    """With a nil ideal I: R weakly nil clean iff R/I is; quotient witnesses
    lift and re-validate, element witnesses project, and the two idempotent
    lifting paths agree on every liftable element."""
    lifted = 0
    members = []
    for spec, ring in built:
        ideal = canonical_nil_ideal(spec, ring)
        if ideal is None:
            continue
        members.append(spec)
        if not st.is_nil_ideal(ring, ideal):
            raise _Fail(f"canonical ideal of {spec} is not nil", spec)
        qring = ct.quotient_cached(ring, ideal)
        proj = qring.projection
        if dc.ring_weakly_nil_clean(ring) != dc.ring_weakly_nil_clean(qring):
            raise _Fail(f"verdict differs between {spec} and its quotient", spec)
        qtable = dc.wncl_table(qring)
        for a, w in enumerate(dc.wncl_table(ring)):
            qw = qtable[proj[a]]
            if qw is None:
                raise _Fail(f"coset of {a} has no witness in {spec}/I", spec, a)
            try:
                dc.lift_wncl_witness(ring, ideal, a, qw)
            except RingLabError as exc:
                raise _Fail(f"lift failed at {a} of {spec}: {exc}", spec, a)
            pw = dc.WnclWitness(proj[w.e], proj[w.q], proj[w.x], "primal")
            if not dc.check_wncl(qring, proj[a], pw):
                raise _Fail(f"projected witness invalid at {a} of {spec}", spec, a)
            lifted += 1
        for x in range(ring.order):
            if ring.sub(ring.mul(x, x), x) in ideal.member_set:
                escan = dc.lift_idempotent(ring, ideal, x, "scan")
                enewt = dc.lift_idempotent(ring, ideal, x, "newton")
                if escan != enewt:
                    raise _Fail(f"lift paths disagree at {x} of {spec}: "
                                f"scan={escan}, newton={enewt}", spec, x)
    return (f"{lifted} cosets lifted on {_names(members)}; "
            "lift paths agree on all liftable elements")


def _check_radikal(built):
    """J(R) is nil, R/J(R) is weakly nil clean, and J(R/J(R)) vanishes.
    The quotient by J = {0} has R's own tables, so R stands in for it.
    Members whose R/J is over the table cap are named after the nil clause."""
    over_cap = []
    for spec, ring in built:
        jac = st.jacobson_radical(ring)
        if not st.is_nil_ideal(ring, jac):
            raise _Fail(f"radical of {spec} is not nil", spec)
        try:
            qring = ring if len(jac) == 1 else ct.quotient_cached(ring, jac)
        except OrderCapError:
            over_cap.append(spec)
            continue
        if not dc.ring_weakly_nil_clean(qring):
            raise _Fail(f"{spec} modulo its radical is not weakly nil clean", spec)
        if st.jacobson_radical(qring).members != (qring.zero,):
            raise _Fail(f"radical of {spec}/J is nonzero", spec)
    return _skipped(f"radical verified on {len(built) - len(over_cap)} rings",
                    ("R/J over the table cap", over_cap))


def _kept(ring: FiniteRing, key, walk: Callable[[], object]):
    """walk()'s result, or the _Fail it raised, kept in ring's cache under
    key: a check run again over the same ring returns or raises the same
    without walking again."""
    def run():
        try:
            return walk(), None
        except _Fail as exc:
            return None, exc.args
    result, fail = ring.memo(key, run)
    if fail:
        raise _Fail(*fail)
    return result


def _replay_first(ring: FiniteRing, bad: np.ndarray, name: str, step, **columns) -> None:
    """Replay step on the first row that a batched pass flags, with the
    row's entry of each column as the keyword of that name. There step
    raises _Fail, as in the scalar loop; a step that passes raises
    WitnessError naming the pass."""
    if bad.any():
        i = int(bad.argmax())
        args = {key: int(column[i]) for key, column in columns.items()}
        step(**args)
        where = ", ".join(f"{key}={value}" for key, value in args.items())
        raise WitnessError(f"batched {name} failed at {where} of {ring.label} "
                           "but the scalar step passed")


def _mocna_step(spec, ring: FiniteRing, primal, a: int, e: int, c: int) -> None:
    """L_MOCNA's scalar step at the pair (a, e) with multiplier c: raises
    _Fail where it fails, also where the corner at 1 - e cannot be built."""
    f = ring.sub(ring.one, e)
    try:
        corner = ring.memo(("corner", f), lambda: ct.corner_ring(ring, f))
    except (RingLabError, ValueError) as exc:
        raise _Fail(f"no corner ring at a={a}, e={e} of {spec}: {exc}", spec, a, e)
    faf = ring.mul(ring.mul(f, a), f)
    if corner is ring:
        cw = primal[faf]
    else:
        local = dc.wncl_witness(corner, corner.index[faf])
        cw = dc.corner_to_parent(corner, local) if local else None
    if cw is None:
        raise _Fail(f"no corner witness at a={a}, e={e} of {spec}", spec, a, e)
    try:
        dc.wncl_from_corner(ring, a, e, c, cw)
    except RingLabError as exc:
        raise _Fail(f"composition failed at a={a}, e={e} of {spec}: {exc}", spec, a, e)


def _corner_witnesses(ring: FiniteRing, corner: FiniteRing) -> np.ndarray:
    """(g, q, x) rows, in parent indices, of the witness table of a corner
    of ring, indexed by parent element; -1 rows for the elements outside
    the corner and those without a witness."""
    rows = np.array([(-1, -1, -1) if w is None else (w.e, w.q, w.x)
                     for w in dc.wncl_table(corner)], dtype=np.int64)
    if corner is ring:
        return rows
    members = np.asarray(corner.members, dtype=np.int64)
    out = np.full((ring.order, 3), -1, dtype=np.int64)
    out[members] = np.where(rows >= 0, members[rows], -1)
    return out


def _mocna_failures(ring: FiniteRing):
    """The pairs (a, e) of L_MOCNA's scalar loop over ring with their
    multipliers c, as arrays a, e, c in the loop's order, and the pairs
    where its step fails. The smallest c with c*a = e comes from one table
    of the products r*a, the corner witnesses from each corner's witness
    table, and one kernel.compose_failures composes every pair. The pairs
    of a corner that cannot be built are flagged, so that the replay raises
    what the scalar step raises there."""
    mul = ring.mul_vec
    X = np.arange(ring.order, dtype=np.int64)
    RA = mul(X[:, None], X)  # (r, a)
    E = np.asarray(st.idempotents(ring), dtype=np.int64)
    C = np.full((len(E), ring.order), -1, dtype=np.int64)  # (e, a)
    W = np.full((len(E), ring.order, 3), -1, dtype=np.int64)  # (e, a, corner witness)
    for k, e in enumerate(E.tolist()):
        hit = RA == e
        if not hit.any():
            continue
        C[k] = np.where(hit.any(axis=0), hit.argmax(axis=0), -1)
        f = ring.sub(ring.one, e)
        try:
            corner = ring.memo(("corner", f), lambda: ct.corner_ring(ring, f))
        except (RingLabError, ValueError):
            continue
        W[k] = _corner_witnesses(ring, corner)[mul(mul(f, X), f)]
    a, k = np.nonzero(C.T >= 0)  # a ascending, then e
    e, c, (g, q, x) = E[k], C[k, a], W[k, a].T
    missing = g < 0
    g, q, x = (np.where(missing, ring.zero, z) for z in (g, q, x))
    return a, e, c, missing | kernel.compose_failures(ring, a, e, c, g, q, x)


def _mocna_pairs(spec, ring: FiniteRing) -> int:
    """L_MOCNA's walk over one member: the number of (a, e) pairs, or the
    _Fail of the first pair that does not compose. From PASS_MIN_ORDER on,
    the pairs run as one kernel pass (_mocna_failures), and the scalar step
    replays the first pair it flags."""
    primal = dc.wncl_table(ring)
    if ring.order >= dc.PASS_MIN_ORDER:
        a, e, c, bad = _mocna_failures(ring)
        _replay_first(ring, bad, "L_MOCNA pass",
                      lambda **pair: _mocna_step(spec, ring, primal, **pair), a=a, e=e, c=c)
        return len(a)
    pairs = 0
    for a in range(ring.order):
        # the smallest c with c*a = p, for every product p in Ra
        smallest = {ring.mul(c, a): c for c in reversed(range(ring.order))}
        for e in st.idempotents(ring):
            c = smallest.get(e)
            if c is not None:
                _mocna_step(spec, ring, primal, a, e, c)
                pairs += 1
    return pairs


def _check_mocna(built):
    """Corner decompositions compose: for every a and idempotent e realized
    as e = c*a, a witness for faf in the corner fRf composes to a valid
    witness for a. Small members only (nested scans). Each member's outcome
    is kept on the ring (_kept)."""
    members = [(spec, ring) for spec, ring in _unital(built)
               if ring.order <= PAIR_SCAN_LIMIT]
    triples = sum(_kept(ring, ("L_MOCNA",), lambda: _mocna_pairs(spec, ring))
                  for spec, ring in members)
    return f"{triples} (a, e) pairs across {len(members)} rings"


def _pireg_step(spec, ring: FiniteRing, a: int) -> None:
    """P_PIREG's scalar step at element a: raises _Fail where it fails."""
    pw = dc.pi_regular_witness(ring, a)
    if pw is None:
        raise _Fail(f"no pi-regular witness at {a} of {spec}", spec, a)
    try:
        dc.wncl_from_pi_regular(ring, a, pw)
    except RingLabError as exc:
        raise _Fail(f"construction failed at {a} of {spec}: {exc}", spec, a)


def _pireg_failures(ring: FiniteRing) -> np.ndarray:
    """The elements where P_PIREG's scalar step fails: those without a
    witness (n, r) in kernel.pi_regular_pass, and those whose witness
    kernel.wncl_chain_failures flags, in blocks of core._PASS_CELLS // 32
    elements."""
    n, r = kernel.pi_regular_pass(ring)
    bad = n < 0
    rows = np.flatnonzero(~bad)
    for s in row_blocks(len(rows), 32):
        a = rows[s]
        bad[a] = kernel.wncl_chain_failures(ring, a, n[a], r[a])
    return bad


def _pireg_walk(spec, ring: FiniteRing) -> None:
    """P_PIREG's walk over one member: raises the _Fail of the first element
    that fails. From PASS_MIN_ORDER on, the elements run as one kernel pass
    (_pireg_failures), and the scalar step replays the first it flags."""
    if ring.order >= dc.PASS_MIN_ORDER:
        _replay_first(ring, _pireg_failures(ring), "P_PIREG pass",
                      lambda a: _pireg_step(spec, ring, a), a=range(ring.order))
        return
    for a in range(ring.order):
        _pireg_step(spec, ring, a)


def _check_pireg(built):
    """The constructive route through pi-regularity reproduces the brute
    verdict on every element of every unital member. Each member's outcome
    is kept on the ring (_kept)."""
    members = _unital(built)
    for spec, ring in members:
        _kept(ring, ("P_PIREG",), lambda: _pireg_walk(spec, ring))
    elements = sum(ring.order for _, ring in members)
    return f"{elements} elements across {len(members)} unital rings"


def _check_abel(built):
    """On abelian members the weakly nil clean and strongly pi-regular
    verdicts coincide (computed independently, then compared)."""
    members = [(spec, ring) for spec, ring in built if st.is_abelian(ring)]
    for spec, ring in members:
        if dc.ring_weakly_nil_clean(ring) != dc.ring_strongly_pi_regular(ring):
            raise _Fail(f"verdicts differ on abelian ring {spec}", spec)
    return f"{len(members)} abelian rings agree"


def _check_bounded(built):
    """Bounded nilpotency index plus weakly nil clean forces strong
    pi-regularity."""
    for spec, ring in built:
        if st.bounded_index(ring) is None:
            raise _Fail(f"unbounded nilpotency index on {spec}", spec)
        if dc.ring_weakly_nil_clean(ring) and not dc.ring_strongly_pi_regular(ring):
            raise _Fail(f"{spec} weakly nil clean but not strongly pi-regular", spec)
    return f"index bounded on {len(built)} rings, implication holds"


def _check_cpi(built):
    """Six-way agreement: weakly nil clean / pi-regular / strongly
    pi-regular for R and for M_2(R). Members whose matrix ring exceeds the
    build cap, or is too large to decide without a unity, are skipped and
    named."""
    over_cap, no_unity = [], []
    for spec, ring in built:
        try:
            mat = ct.build_cached(ct.Matrix(2, spec))
        except OrderCapError:
            over_cap.append(spec)
            continue
        if not mat.unital and mat.order > dc.BRUTE_ORDER_LIMIT:
            no_unity.append(spec)
            continue
        verdicts = (
            dc.ring_weakly_nil_clean(ring),
            dc.ring_pi_regular(ring),
            dc.ring_strongly_pi_regular(ring),
            dc.ring_weakly_nil_clean(mat),
            dc.ring_pi_regular(mat),
            dc.ring_strongly_pi_regular(mat),
        )
        if len(set(verdicts)) != 1:
            raise _Fail(f"verdicts disagree on {spec}: {verdicts}", spec)
    agree = len(built) - len(over_cap) - len(no_unity)
    return _skipped(f"six verdicts agree on {agree} rings", ("matrix ring over cap", over_cap),
                    ("large matrix ring without a unity", no_unity))


def _check_koti(built):
    """Alternate witnesses for diag(a, 0) in M_2 extract to valid base-ring
    witnesses over small abelian unital members."""
    members = [(spec, ring) for spec, ring in _unital(built)
               if ring.order <= 6 and st.is_abelian(ring)]
    elements = 0
    for spec, ring in members:
        mat = ct.build_cached(ct.Matrix(2, spec))
        for a in range(ring.order):
            amat = ct.ring_pack(mat, [a] + [ring.zero] * 3)
            mw = dc.wncl_witness_alt(mat, amat)
            if mw is None:
                raise _Fail(f"no matrix witness for diag({a},0) over {spec}", spec, a)
            try:
                dc.extract_from_matrix(ring, 2, a, mw)
            except RingLabError as exc:
                raise _Fail(f"extraction failed at {a} of {spec}: {exc}",
                            spec, a)
            elements += 1
    return f"{elements} elements on {_names(spec for spec, _ in members)}"


def _check_center(built):
    """Central elements restrict to valid witnesses in the center ring, with
    a central idempotent."""
    members = _unital(built)
    for spec, ring in members:
        dc.center_ring(ring)  # a center over the table cap stops before the walk
        primal = dc.wncl_table(ring)
        for a in st.center(ring):
            w = primal[a]
            if w is None:
                raise _Fail(f"no witness for central element {a} of {spec}", spec, a)
            try:
                dc.center_witness(ring, a, w)
            except RingLabError as exc:
                raise _Fail(f"center extraction failed at {a} of {spec}: {exc}",
                            spec, a)
    elements = sum(len(st.center(ring)) for _, ring in members)
    return f"{elements} central elements across {len(members)} rings"


def _check_unq1(built):
    """Unique witness idempotents exactly on abelian members (unital)."""
    members = _unital(built)
    for spec, ring in members:
        if dc.ring_unique_idempotent(ring) != st.is_abelian(ring):
            raise _Fail(f"uniqueness/abelian mismatch on {spec}", spec)
    return f"verdicts equal on {len(members)} unital rings"


def _check_unq2(built):
    """Unique witness nilpotents exactly on strongly regular members
    (unital)."""
    members = _unital(built)
    for spec, ring in members:
        if dc.ring_unique_nilpotent(ring) != dc.ring_strongly_regular(ring):
            raise _Fail(f"uniqueness/strong-regularity mismatch on {spec}", spec)
    return f"verdicts equal on {len(members)} unital rings"


def opposite_agreement(ring: FiniteRing) -> Tuple[int, int]:
    """(agree, certified): how many elements a have a weakly nil clean
    witness in the ring exactly when they have one in its opposite, and how
    many have one in the ring. The opposite is kept in the ring's cache."""
    opp = ring.memo("opposite", lambda: ct.opposite(ring))
    here = [w is not None for w in dc.wncl_table(ring)]
    there = [w is not None for w in dc.wncl_table(opp)]
    return sum(h == t for h, t in zip(here, there)), sum(here)


def corner_verdicts(ring: FiniteRing) -> List[Tuple[int, int, bool]]:
    """(e, order of eRe, eRe weakly nil clean) for every idempotent e,
    ascending. Each corner ring is kept in the ring's cache."""
    rows = []
    for e in st.idempotents(ring):
        corner = ring.memo(("corner", e), lambda: ct.corner_ring(ring, e))
        rows.append((e, corner.order, dc.ring_weakly_nil_clean(corner)))
    return rows


def _check_symmetry(built):
    """Experiment: elementwise witness presence in R versus opposite(R)."""
    total = sum(ring.order for _, ring in built)
    agree = sum(opposite_agreement(ring)[0] for _, ring in built)
    pct = 100.0 * agree / total if total else 100.0
    return f"opposite-ring agreement {agree}/{total} elements ({pct:.1f}%)"


def _check_qcorner(built):
    """Experiment: are corners eRe of weakly nil clean rings weakly nil
    clean? Observed per idempotent across unital members."""
    rows = [row for _, ring in _unital(built) for row in corner_verdicts(ring)]
    corners = len(rows)
    wncl = sum(wnc for _, _, wnc in rows)
    pct = 100.0 * wncl / corners if corners else 100.0
    return f"corner rings weakly nil clean {wncl}/{corners} ({pct:.1f}%)"


def _check_expireg(built):
    """A pi-regular ideal with pi-regular quotient forces weakly nil clean;
    verified over all distinct principal ideals of small members."""
    members = [(spec, ring) for spec, ring in built if ring.order <= PAIR_SCAN_LIMIT]
    ideals = 0
    for spec, ring in members:
        seen = set()
        for x in range(ring.order):
            ideal = st.ideal_generated(ring, (x,))
            if ideal.members in seen:
                continue
            seen.add(ideal.members)
            sub = ring.memo(("ideal_ring", ideal.members),
                            lambda: ct.ideal_subring(ring, ideal.members))
            qring = ct.quotient_cached(ring, ideal)
            if dc.ring_pi_regular(sub) and dc.ring_pi_regular(qring):
                if not dc.ring_weakly_nil_clean(ring):
                    raise _Fail(f"hypotheses hold for ideal of {x} in {spec} "
                                "but ring is not weakly nil clean", spec, x)
                ideals += 1
    return f"{ideals} principal ideals across {len(members)} rings"


_CHECKS: Dict[str, Callable] = {
    "P_OSNOVE": _check_osnove,
    "P_PRVA": _check_prva,
    "P_NILIDEAL": _check_nilideal,
    "P_RADIKAL": _check_radikal,
    "L_MOCNA": _check_mocna,
    "P_PIREG": _check_pireg,
    "P_ABEL": _check_abel,
    "P_BOUNDED": _check_bounded,
    "C_PI": _check_cpi,
    "P_KOTI": _check_koti,
    "P_CENTER": _check_center,
    "P_UNQ1": _check_unq1,
    "P_UNQ2": _check_unq2,
    "Q_SYMMETRY": _check_symmetry,
    "Q_CORNER": _check_qcorner,
    "P_EXPIREG": _check_expireg,
}

CHECK_IDS = tuple(_CHECKS)
_EXPERIMENTS = frozenset({"Q_SYMMETRY", "Q_CORNER"})


def run_check(check_id: str,
              corpus: Optional[Sequence[ct.RingSpec]] = None) -> PropositionCheck:
    """Execute one named check; unknown ids raise ValueError. Corpus members
    that fail to build are reported in the detail line and skipped."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}")
    specs = tuple(DEFAULT_CORPUS if corpus is None else corpus)
    built, failures = _build_corpus(specs)
    status, cx = "experiment" if check_id in _EXPERIMENTS else "pass", None
    try:
        detail = _CHECKS[check_id](built)
    except _Fail as fail:
        detail, spec, *elements = fail.args
        status, cx = "fail", (str(spec), tuple(elements))
    if failures:
        detail += "; build failures: " + "; ".join(failures)
    return PropositionCheck(
        id=check_id,
        corpus=[str(s) for s in specs],
        status=status,
        detail=detail,
        counterexample=cx,
    )


def run_all(corpus: Optional[Sequence[ct.RingSpec]] = None,
            ids: Optional[Sequence[str]] = None) -> List[PropositionCheck]:
    """Run the named checks (all by default) in declared order."""
    chosen = CHECK_IDS if ids is None else tuple(ids)
    return [run_check(cid, corpus) for cid in chosen]


# ---------------------------------------------------------------------------
# census


@dataclass
class CensusRow:
    spec: str
    report: Optional[dc.ClassificationReport]
    error: Optional[str] = None


def census(specs: Sequence[ct.RingSpec],
           with_timings: bool = False) -> List[CensusRow]:
    """One classification per spec, in input order; build errors become
    error rows instead of aborting the run."""
    rows: List[CensusRow] = []
    for spec in specs:
        try:
            ring = ct.build_cached(spec)
            rows.append(CensusRow(str(spec), dc.classify(ring, with_timings)))
        except RingLabError as exc:
            rows.append(CensusRow(str(spec), None, str(exc)))
    return rows
