"""Named ring-theoretic checks over a declared corpus.

Each check exercises one statement elementwise across the corpus and returns
its detail line, or raises with a replayable counterexample on failure;
``run_check`` alone sets the status. Two checks (Q_SYMMETRY, Q_CORNER) probe
open questions: they report observed agreement statistics and can never fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import FiniteRing, RingLabError, OrderCapError
from . import construct as ct
from . import structure as st
from . import deciders as dc

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
    multiples of x in a truncated polynomial ring. None for other kinds."""
    rad = ring.meta.get("radices")
    if isinstance(spec, ct.Triangular):
        pos = ring.meta["positions"]
        members = [m for m in range(ring.order)
                   if all(d == 0
                          for d, (i, j) in zip(ct.unpack_digits(rad, m), pos)
                          if i == j)]
    elif isinstance(spec, (ct.TrivialExt, ct.PolyMod)):
        members = [m for m in range(ring.order)
                   if ct.unpack_digits(rad, m)[0] == 0]
    else:
        return None
    return st.make_ideal(ring, members)


# ---------------------------------------------------------------------------
# individual checks: each returns its detail line, or raises _Fail


class _Fail(Exception):
    """Raised as _Fail(detail, spec, *elements) by a failing check; the
    element indices replay the failure in the ring of spec."""


def _unital(built):
    return [(spec, ring) for spec, ring in built if ring.unital]


def _names(specs) -> str:
    return ", ".join(map(str, specs)) or "no rings"


def _check_osnove(built):
    """Weakly nil clean elements admit exchange witnesses (unital members)."""
    members = _unital(built)
    elements = 0
    for spec, ring in members:
        for a in range(ring.order):
            if dc.wncl_witness(ring, a) is None:
                continue
            w = dc.exchange_witness(ring, a)
            if w is None or not dc.check_exchange(ring, a, w):
                raise _Fail(f"no exchange witness for element {a} of {spec}", spec, a)
            elements += 1
    return f"{elements} elements across {len(members)} unital rings"


def _check_prva(built):
    """Primal and alternate witnesses exist for the same elements."""
    members = _unital(built)
    for spec, ring in members:
        for a in range(ring.order):
            w = dc.wncl_witness(ring, a)
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
        for a in range(ring.order):
            qw = dc.wncl_witness(qring, proj[a])
            if qw is None:
                raise _Fail(f"coset of {a} has no witness in {spec}/I", spec, a)
            lw = dc.lift_wncl_witness(ring, ideal, a, qw)
            if not dc.check_wncl(ring, a, lw):
                raise _Fail(f"lifted witness invalid at {a} of {spec}", spec, a)
            w = dc.wncl_witness(ring, a)
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
    The quotient by J = {0} has R's own tables, so R stands in for it."""
    for spec, ring in built:
        jac = st.jacobson_radical(ring)
        if not st.is_nil_ideal(ring, jac):
            raise _Fail(f"radical of {spec} is not nil", spec)
        qring = ring if len(jac) == 1 else ct.quotient_cached(ring, jac)
        if not dc.ring_weakly_nil_clean(qring):
            raise _Fail(f"{spec} modulo its radical is not weakly nil clean", spec)
        if st.jacobson_radical(qring).members != (qring.zero,):
            raise _Fail(f"radical of {spec}/J is nonzero", spec)
    return f"radical verified on {len(built)} rings"


def _check_mocna(built):
    """Corner decompositions compose: for every a and idempotent e realized
    as e = c*a, a witness for faf in the corner fRf composes to a valid
    witness for a. Small members only (nested scans)."""
    members = [(spec, ring) for spec, ring in _unital(built)
               if ring.order <= PAIR_SCAN_LIMIT]
    triples = 0
    for spec, ring in members:
        for a in range(ring.order):
            for e in st.idempotents(ring):
                c = next((c for c in range(ring.order)
                          if ring.mul(c, a) == e), None)
                if c is None:
                    continue
                f = ring.sub(ring.one, e)
                corner = ring.memo(("corner", f), lambda: ct.corner_ring(ring, f))
                faf = ring.mul(ring.mul(f, a), f)
                if corner is ring:
                    cw = dc.wncl_witness(corner, faf)
                else:
                    local = dc.wncl_witness(corner, corner.index[faf])
                    cw = dc.corner_to_parent(corner, local) if local else None
                if cw is None:
                    raise _Fail(f"no corner witness at a={a}, e={e} of {spec}",
                                spec, a, e)
                try:
                    w = dc.wncl_from_corner(ring, a, e, c, cw)
                except RingLabError as exc:
                    raise _Fail(f"composition failed at a={a}, e={e} of {spec}: {exc}",
                                spec, a, e)
                if not dc.check_wncl(ring, a, w):
                    raise _Fail(f"composed witness invalid at a={a}, e={e} of {spec}",
                                spec, a, e)
                triples += 1
    return f"{triples} (a, e) pairs across {len(members)} rings"


def _check_pireg(built):
    """The constructive route through pi-regularity reproduces the brute
    verdict on every element of every unital member."""
    members = _unital(built)
    for spec, ring in members:
        for a in range(ring.order):
            pw = dc.pi_regular_witness(ring, a)
            if pw is None:
                raise _Fail(f"no pi-regular witness at {a} of {spec}", spec, a)
            try:
                w = dc.wncl_from_pi_regular(ring, a, pw)
            except RingLabError as exc:
                raise _Fail(f"construction failed at {a} of {spec}: {exc}",
                            spec, a)
            if not dc.check_wncl(ring, a, w):
                raise _Fail(f"constructed witness invalid at {a} of {spec}", spec, a)
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
    detail = f"six verdicts agree on {len(built) - len(over_cap) - len(no_unity)} rings"
    if over_cap:
        detail += f"; matrix ring over cap for: {_names(over_cap)}"
    if no_unity:
        detail += f"; large matrix ring without a unity for: {_names(no_unity)}"
    return detail


def _check_koti(built):
    """Alternate witnesses for diag(a, 0) in M_2 extract to valid base-ring
    witnesses over small abelian unital members."""
    members = [(spec, ring) for spec, ring in _unital(built)
               if ring.order <= 6 and st.is_abelian(ring)]
    elements = 0
    for spec, ring in members:
        mat = ct.build_cached(ct.Matrix(2, spec))
        radices = mat.meta["radices"]
        for a in range(ring.order):
            digits = [ring.zero] * 4
            digits[0] = a
            amat = ct.pack_digits(radices, digits)
            mw = dc.wncl_witness_alt(mat, amat)
            if mw is None:
                raise _Fail(f"no matrix witness for diag({a},0) over {spec}", spec, a)
            try:
                bw = dc.extract_from_matrix(ring, 2, a, mw)
            except RingLabError as exc:
                raise _Fail(f"extraction failed at {a} of {spec}: {exc}",
                            spec, a)
            if not dc.check_wncl(ring, a, bw):
                raise _Fail(f"extracted witness invalid at {a} of {spec}", spec, a)
            elements += 1
    return f"{elements} elements on {_names(spec for spec, _ in members)}"


def _check_center(built):
    """Central elements restrict to valid witnesses in the center ring, with
    a central idempotent."""
    members = _unital(built)
    for spec, ring in members:
        cring = dc.center_ring(ring)
        for a in st.center(ring):
            w = dc.wncl_witness(ring, a)
            if w is None:
                raise _Fail(f"no witness for central element {a} of {spec}", spec, a)
            try:
                cw = dc.center_witness(ring, a, w)
            except RingLabError as exc:
                raise _Fail(f"center extraction failed at {a} of {spec}: {exc}",
                            spec, a)
            if not dc.check_wncl(cring, cring.index[a], cw):
                raise _Fail(f"center witness invalid at {a} of {spec}", spec, a)
            if cring.members[cw.e] not in st.center(ring):
                raise _Fail(f"extracted idempotent not central at {a} of "
                            f"{spec}", spec, a)
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
    agree = certified = 0
    for a in range(ring.order):
        here = dc.wncl_witness(ring, a) is not None
        agree += here == (dc.wncl_witness(opp, a) is not None)
        certified += here
    return agree, certified


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
