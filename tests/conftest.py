import functools
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ringlab as rl
from ringlab import construct as ct, deciders as dc, kernel, structure as st
from ringlab.core import _axioms_hold, _validate_cubic

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402

_SPEC_BY_NAME = {str(spec): spec for spec in rl.DEFAULT_CORPUS}


def corpus_ring(name: str) -> rl.FiniteRing:
    """Build (and share) one of the default corpus rings by its spec string."""
    return rl.build_cached(_SPEC_BY_NAME[name])


@pytest.fixture(scope="session")
def corpus():
    """All default corpus rings, keyed by canonical spec string."""
    return {name: rl.build_cached(spec) for name, spec in _SPEC_BY_NAME.items()}


@pytest.fixture(scope="session")
def unital_corpus(corpus):
    return {name: ring for name, ring in corpus.items() if ring.unital}


@contextmanager
def fresh_build_cache():
    """Builds inside use their own empty build cache, as in a new process:
    their bases are built anew, and none of them is served outside."""
    fresh = functools.lru_cache(maxsize=None)(ct._build_cached.__wrapped__)
    with mock.patch.object(ct, "_build_cached", fresh):
        yield


@contextmanager
def lazy_rings():
    """Rings built inside get no tables, so their constructors' own scalar
    and vector closures serve every operation (subrings and quotients, which
    are given tables, excepted). The context has its own build cache, so a
    nested build inside gets lazy bases, and its lazy rings never reach the
    tabled builds outside."""
    with mock.patch.object(ct, "FiniteRing", functools.partial(rl.FiniteRing, table_cap=0)), \
            fresh_build_cache():
        yield


def assert_index_inverts_members(sub: rl.FiniteRing) -> None:
    """A subring's ``index`` maps each parent index in ``members`` to its
    position there, and holds nothing else."""
    assert len(sub.index) == sub.order == len(sub.members)
    assert [sub.index[m] for m in sub.members] == list(range(sub.order))


def all_pairs(n: int):
    """Every pair (x, y) of elements 0..n-1, as two index arrays."""
    return np.divmod(np.arange(n * n), n)


def sample_pairs(n: int, count: int = 2000, seed: int = 0):
    """A fixed seeded sample of pairs of elements 0..n-1."""
    draw = np.random.default_rng(seed)
    return draw.integers(0, n, count), draw.integers(0, n, count)


def vector_mismatches(ring: rl.FiniteRing, xs, ys) -> list:
    """Names of the vector operations that differ from the scalar ones on
    the pairs (xs[i], ys[i])."""
    xl = np.asarray(xs).tolist()
    yl = np.asarray(ys).tolist()
    expected = {
        "add_vec": [ring.add(x, y) for x, y in zip(xl, yl)],
        "mul_vec": [ring.mul(x, y) for x, y in zip(xl, yl)],
        "sub_vec": [ring.sub(x, y) for x, y in zip(xl, yl)],
        "neg_vec": [ring.neg(x) for x in xl],
    }
    got = {
        "add_vec": ring.add_vec(xs, ys),
        "mul_vec": ring.mul_vec(xs, ys),
        "sub_vec": ring.sub_vec(xs, ys),
        "neg_vec": ring.neg_vec(xs),
    }
    return [name for name in expected if np.asarray(got[name]).tolist() != expected[name]]


def list_rows(ring: rl.FiniteRing) -> set:
    """Names of the (n, n) tables of a tabled ring whose Python list rows
    have been made."""
    return {name for name in ("add", "mul")
            if type(getattr(ring, name).__defaults__[0]) is list}


def op_rows(ring: rl.FiniteRing, name: str) -> list:
    """Table ``name`` ("add", "mul" or "neg") of a tabled ring as the Python
    list (of rows) that its scalar op reads, made now if need be."""
    op = getattr(ring, name)
    if name == "neg":
        return op.__self__
    op.__defaults__[0][0]  # makes the rows if they are not made yet
    return op.__defaults__[0]


def with_cell(ring: rl.FiniteRing, table: str, cell, value: int) -> rl.FiniteRing:
    """An unvalidated copy of a tabled ring with one table cell replaced:
    ``table`` is "add", "mul" or "neg" (cell[0] only), or "add-sym", which
    replaces the add cells at (x, y) and (y, x) so that + stays commutative."""
    add = ring.add_table.tolist()
    mul = ring.mul_table.tolist()
    neg = ring.neg_table.tolist()
    x, y = cell
    if table == "neg":
        neg[x] = value
    elif table == "mul":
        mul[x][y] = value
    else:
        add[x][y] = value
        if table == "add-sym":
            add[y][x] = value
    return rl.FiniteRing(ring.order, add, mul, neg, zero=ring.zero, one=ring.one,
                         label=f"{ring.label} with {table} {cell} = {value}",
                         validate=False)


def agrees_with_cubic(ring: rl.FiniteRing) -> rl.AxiomReport:
    """Assert that the generator test of the axioms and the report of
    validate_axioms equal those of the O(n^3) check; return the report."""
    expected = _validate_cubic(ring)
    assert _axioms_hold(ring) == expected.ok
    assert rl.validate_axioms(ring) == expected
    return expected


def outcome(run):
    """True, or the type and message of the WitnessError that run raises."""
    try:
        return run()
    except rl.WitnessError as exc:
        return type(exc), str(exc)


def _small_scalar_verdicts(ring):
    """The ring-level verdicts the small-ring passes serve, as the scalar
    element-by-element loops."""
    n = ring.order
    out = {
        "weakly_nil_clean": lambda: all(
            rl.wncl_witness(ring, a) is not None for a in range(n)),
        "unique_idempotent": lambda: all(
            rl.unique_idempotent_wncl(ring, a, limit=2)[0] == 1 for a in range(n)),
        "unique_nilpotent": lambda: all(
            rl.unique_nilpotent_wncl(ring, a, limit=2)[0] == 1 for a in range(n)),
    }
    if ring.unital:
        out["exchange"] = lambda: all(
            rl.exchange_witness(ring, a) is not None for a in range(n))
    return out


SMALL_BATCHED = {
    "weakly_nil_clean": rl.ring_weakly_nil_clean,
    "unique_idempotent": rl.ring_unique_idempotent,
    "unique_nilpotent": rl.ring_unique_nilpotent,
    "exchange": rl.ring_exchange,
}


def assert_passes_match_scalar(ring):
    """The triples of kernel.witness_pass equal the scalar searches element
    by element: first witnesses, checks and counts."""
    passes = kernel.witness_pass(ring)
    assert passes.keys() == ({"wncl", "exchange"} if ring.unital else {"wncl"})
    found = passes["wncl"]
    for a in range(ring.order):
        w = rl.wncl_witness(ring, a)
        got = tuple(int(found[k][a]) for k in "eqx")
        assert got == ((w.e, w.q, w.x) if w else (-1, -1, -1)), (ring.label, a)
        assert found["checked"][a] == (w is not None), (ring.label, a)
        assert found["idempotents"][a] == rl.unique_idempotent_wncl(ring, a)[0], a
        assert found["nilpotents"][a] == rl.unique_nilpotent_wncl(ring, a)[0], a
    if ring.unital:
        found = passes["exchange"]
        for a in range(ring.order):
            w = rl.exchange_witness(ring, a)
            got = tuple(int(found[k][a]) for k in "ers")
            assert got == ((w.e, w.r, w.s) if w else (-1, -1, -1)), (ring.label, a)
            assert found["checked"][a] == (w is not None), (ring.label, a)
    assert_tables_match_searches(ring)


def assert_tables_match_searches(ring, elements=None):
    """deciders.wncl_table and exchange_table equal the per-element searches
    they stand for, on each of the elements (all by default)."""
    elements = range(ring.order) if elements is None else elements
    tables = [(dc.wncl_table, rl.wncl_witness)]
    if ring.unital:
        tables.append((dc.exchange_table, rl.exchange_witness))
    for table, search in tables:
        got = table(ring)
        assert [got[a] for a in elements] == [search(ring, a) for a in elements], ring.label


def assert_alt_search_matches_scalar(ring, elements=None):
    """kernel.wncl_alt_first finds the witness of the scalar loop of
    wncl_witness_alt, which serves every order here, on each of the elements
    (all by default)."""
    with mock.patch.object(dc, "BRUTE_ORDER_LIMIT", ring.order):
        for a in range(ring.order) if elements is None else elements:
            w = rl.wncl_witness_alt(ring, a)
            found = kernel.wncl_alt_first(ring, a)
            assert found == ((w.e, w.q, w.x) if w else None), (ring.label, a)


def assert_small_verdicts_match_scalar(make):
    """The four ring-level verdicts of a ring from make() equal the scalar
    loops on another ring from make(), or raise the same WitnessError."""
    ring = make()
    scalar = {prop: outcome(run) for prop, run in _small_scalar_verdicts(make()).items()}
    for prop, expected in scalar.items():
        assert outcome(lambda: SMALL_BATCHED[prop](ring)) == expected, prop
    return scalar


def _oracle_radical(ring, members):
    """What jacobson_radical does with the oracle's radical members: their
    ideal check."""
    check = oracles.ideal_check(ring.order, ring.add, ring.mul, ring.neg, members)
    if isinstance(check, str):
        raise ValueError(check)
    return check


def _members_or_error(run):
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


def assert_scans_match_oracles(ring):
    """units, inverse_map, center, is_abelian, the radical scan and
    jacobson_radical equal the scalar oracles on the ring's scalar
    operations, or raise the error the oracle's members lead to."""
    n, add, mul, neg = ring.order, ring.add, ring.mul, ring.neg
    central = oracles.center_set(n, mul)
    assert list(rl.center(ring)) == central, ring.label
    assert rl.is_abelian(ring) == set(oracles.idempotent_set(n, mul)).issubset(central)
    if ring.unital:
        assert list(rl.units(ring)) == oracles.unit_set(n, mul, ring.one), ring.label
        assert rl.inverse_map(ring) == oracles.inverse_map(n, mul, ring.one), ring.label
    radical = oracles.radical_set(n, add, mul, neg, ring.one)
    assert list(st._radical_members(ring)) == radical, ring.label
    assert (_members_or_error(lambda: rl.jacobson_radical(ring).members)
            == _members_or_error(lambda: _oracle_radical(ring, radical))), ring.label
