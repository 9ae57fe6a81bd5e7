"""Property-based checks over randomly drawn rings, elements, and specs."""

import contextlib
import csv
import io
import os
import tempfile
from datetime import timedelta
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as hs

import ringlab as rl
from ringlab import cli

import oracles
from conftest import (agrees_with_cubic, assert_passes_match_scalar,
                      assert_scans_match_oracles, assert_small_verdicts_match_scalar,
                      lazy_rings, vector_mismatches, with_cell)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)

_RING_NAMES = ("Z2", "Z3", "Z4", "Z6", "Z8", "Z12", "Z2xZ2", "Z2xZ4",
               "Triv(Z2)", "Z2[x]/(x^2)", "Z4[x]/(x^2)", "T2(Z2)", "T2(Z4)",
               "M2(Z2)", "M2(Z3)", "Ideal(Z4,2)")


def _ring(name):
    return rl.build_cached(rl.parse_spec(name))


# --- digit packing ------------------------------------------------------------


@SETTINGS
@given(radices=hs.lists(hs.integers(1, 6), min_size=1, max_size=5),
       data=hs.data())
def test_pack_unpack_round_trip(radices, data):
    total = 1
    for r in radices:
        total *= r
    i = data.draw(hs.integers(0, total - 1))
    digits = rl.unpack_digits(radices, i)
    assert rl.pack_digits(radices, digits) == i
    assert all(0 <= d < r for d, r in zip(digits, radices))


# --- spec grammar -------------------------------------------------------------


_simple = hs.one_of(
    hs.integers(1, 12).map(rl.Zn),
    hs.builds(rl.Matrix, hs.integers(1, 3), hs.integers(2, 4).map(rl.Zn)),
    hs.builds(rl.Triangular, hs.integers(2, 3), hs.integers(2, 4).map(rl.Zn)),
    hs.builds(rl.PolyMod, hs.integers(2, 4).map(rl.Zn), hs.integers(1, 3)),
    hs.builds(rl.TrivialExt, hs.integers(2, 4).map(rl.Zn)),
)

_specs = hs.recursive(
    _simple,
    lambda inner: hs.one_of(
        hs.builds(rl.TrivialExt, inner),
        hs.builds(rl.Opposite, inner),
        hs.builds(rl.Matrix, hs.integers(2, 3), inner),
        hs.builds(rl.Triangular, hs.integers(2, 3), inner),
        hs.builds(rl.PolyMod, inner, hs.integers(1, 3)),
        hs.lists(inner, min_size=2, max_size=3).map(rl.product),
        hs.builds(rl.Corner, inner, hs.integers(0, 20)),
        hs.builds(lambda b, g: rl.IdealRing(b, tuple(g)),
                  inner, hs.lists(hs.integers(0, 9), min_size=1, max_size=2)),
        hs.builds(lambda b, g: rl.Quotient(b, tuple(g)),
                  inner, hs.lists(hs.integers(0, 9), min_size=1, max_size=2)),
    ),
    max_leaves=4,
)


@SETTINGS
@given(spec=_specs)
@example(spec=rl.PolyMod(rl.product([rl.Zn(2), rl.Zn(3)]), 2))
def test_spec_string_round_trips(spec):
    assert rl.parse_spec(str(spec)) == spec


# --- the error contract: a result, or one error line and exit 2 or 3 ------------

_GRAMMAR_CHARS = "".join(sorted(set("ZMTTrivOpCornerIdealQuot x[]/()^,0123456789")))


@hs.composite
def _mutated_spec_texts(draw):
    """str() of a drawn spec with one character inserted, deleted or replaced."""
    text = str(draw(_specs))
    i = draw(hs.integers(0, len(text)))
    c = draw(hs.sampled_from(_GRAMMAR_CHARS))
    return draw(hs.sampled_from((text[:i] + c + text[i:],
                                 text[:i] + text[i + 1:],
                                 text[:i] + c + text[i + 1:])))


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rl.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=150)
@given(text=hs.one_of(_mutated_spec_texts(), hs.text(_GRAMMAR_CHARS, max_size=12)))
def test_spec_texts_end_in_a_result_or_one_error_line(text):
    code, _, err = _main("classify", text, "--max-order", "64")
    assert code in (0, 2, 3)
    assert err == "" if code == 0 else _one_error_line(err)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"RINGLAB_MAX_ORDER": "64"}):
        path = os.path.join(tmp, "specs.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"Z2\n{text}\nZ3\n")
        code, out, err = _main("census", "--csv", "--specs", path)
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert (rows[1][0], rows[-1][0]) == ("Z2", "Z3")
    assert {len(row) for row in rows} == {17}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(text=_mutated_spec_texts(), data=hs.data())
def test_witness_ends_in_a_result_or_one_error_line(text, data):
    try:
        order = rl.build_cached(rl.parse_spec(text), max_order=64).order
    except rl.RingLabError:
        order = 1
    element = data.draw(hs.sampled_from((-1, order)) | hs.integers(0, order - 1))
    for prop in cli._WITNESS_PROPS:
        code, _, err = _main("witness", text, str(element), prop, "--max-order", "64")
        assert code in (0, 1, 2, 3)
        assert err == "" or _one_error_line(err)


def _order_at_most_8(spec):
    try:
        rl.build_cached(spec, max_order=8)
    except (rl.RingLabError, ValueError):
        return False
    return True


# about one drawn spec in seven has order at most 8
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(specs=hs.lists(_specs.filter(_order_at_most_8), min_size=1, max_size=3))
@example(specs=[rl.parse_spec("T2(Ideal(Z4,2))")])
def test_verify_on_drawn_corpora_prints_every_result_line(specs):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"RINGLAB_MAX_ORDER": "4096"}):
        path = os.path.join(tmp, "corpus.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{spec}\n" for spec in specs))
        code, out, err = _main("verify", "--props", "all", "--corpus", path)
    assert code in (0, 1) and err == "", err
    lines = out.splitlines()
    assert len([line for line in lines if not line.startswith("  ")]) == len(rl.CHECK_IDS)
    assert not [line for line in lines if line != line.rstrip()]


@SETTINGS
@given(spec=_specs, data=hs.data())
def test_vector_ops_match_scalar_on_generated_specs(spec, data):
    try:
        with lazy_rings():
            ring = rl.build(spec, max_order=1024)
    except (rl.RingLabError, ValueError):
        return  # over the cap, or a corner, ideal or quotient that does not apply
    idx = hs.integers(0, ring.order - 1)
    pairs = data.draw(hs.lists(hs.tuples(idx, idx), min_size=1, max_size=20))
    xs, ys = (np.array(side) for side in zip(*pairs))
    assert vector_mismatches(ring, xs, ys) == []


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=_specs)
def test_small_ring_passes_match_scalar_on_generated_specs(spec):
    try:
        ring = rl.build(spec, max_order=rl.BRUTE_ORDER_LIMIT)
    except (rl.RingLabError, ValueError):
        return  # over the limit, or a corner, ideal or quotient that does not apply
    assert_passes_match_scalar(ring)
    assert_small_verdicts_match_scalar(lambda: rl.build(spec))
    assert_scans_match_oracles(ring)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(name=hs.sampled_from(("Z2xZ2xZ2xZ2xZ2", "Z32", "Triv(Z2)xZ8", "T2(Z4)")),
       data=hs.data())
def test_small_verdicts_match_scalar_on_one_cell_corruptions(name, data):
    ring = _ring(name)
    idx = hs.integers(0, ring.order - 1)
    cell, value = (data.draw(idx), data.draw(idx)), data.draw(idx)
    assert_small_verdicts_match_scalar(lambda: with_cell(ring, "mul", cell, value))
    assert_scans_match_oracles(with_cell(ring, "mul", cell, value))


# --- axiom validation ------------------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=300)
@given(name=hs.sampled_from([n for n in _RING_NAMES if _ring(n).order <= 16]),
       table=hs.sampled_from(("add", "add-sym", "mul", "neg")), data=hs.data())
def test_generator_validator_matches_cubic_on_one_cell_corruptions(name, table, data):
    ring = _ring(name)
    idx = hs.integers(0, ring.order - 1)
    agrees_with_cubic(with_cell(ring, table, (data.draw(idx), data.draw(idx)), data.draw(idx)))


# --- arithmetic identities -----------------------------------------------------


@SETTINGS
@given(name=hs.sampled_from(_RING_NAMES), data=hs.data())
def test_spot_ring_identities(name, data):
    ring = _ring(name)
    idx = hs.integers(0, ring.order - 1)
    a, b, c = data.draw(idx), data.draw(idx), data.draw(idx)
    add, mul = ring.add, ring.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert add(a, ring.neg(a)) == ring.zero
    m = data.draw(hs.integers(1, 5))
    n = data.draw(hs.integers(1, 5))
    assert ring.mul(rl.power(ring, a, m), rl.power(ring, a, n)) == \
        rl.power(ring, a, m + n)


@SETTINGS
@given(name=hs.sampled_from(_RING_NAMES), data=hs.data())
def test_nilpotent_set_matches_nil_index(name, data):
    ring = _ring(name)
    a = data.draw(hs.integers(0, ring.order - 1))
    in_set = a in rl.nilpotents(ring)
    assert in_set == (rl.nil_index_of(ring, a) is not None)
    assert in_set == oracles.is_nilpotent(ring.order, ring.mul, a)


@SETTINGS
@given(name=hs.sampled_from([n for n in _RING_NAMES if n != "Ideal(Z4,2)"]),
       data=hs.data())
def test_unit_inverse_identity(name, data):
    ring = _ring(name)
    units = rl.units(ring)
    u = data.draw(hs.sampled_from(units))
    inv = rl.inverse_map(ring)[u]
    assert ring.mul(u, inv) == ring.one
    assert ring.mul(inv, u) == ring.one


# --- witnesses -------------------------------------------------------------------


@SETTINGS
@given(name=hs.sampled_from(_RING_NAMES), data=hs.data())
def test_found_witnesses_pass_their_checkers(name, data):
    ring = _ring(name)
    a = data.draw(hs.integers(0, ring.order - 1))
    w = rl.wncl_witness(ring, a)
    if w is not None:
        assert rl.check_wncl(ring, a, w)
    nc = rl.nil_clean_witness(ring, a)
    if nc is not None:
        assert rl.check_sum(ring, a, nc)
    if ring.unital:
        pw = rl.pi_regular_witness(ring, a)
        assert pw is not None and rl.check_pi_regular(ring, a, pw)
        ex = rl.exchange_witness(ring, a)
        if ex is not None:
            assert rl.check_exchange(ring, a, ex)


@SETTINGS
@given(name=hs.sampled_from(("T2(Z2)", "T2(Z4)", "Triv(Z2)",
                             "Z2[x]/(x^2)", "Z4[x]/(x^2)")),
       data=hs.data())
def test_lift_paths_agree_on_canonical_ideals(name, data):
    spec = rl.parse_spec(name)
    ring = rl.build_cached(spec)
    ideal = rl.canonical_nil_ideal(spec, ring)
    members = set(ideal.members)
    x = data.draw(hs.integers(0, ring.order - 1))
    if ring.sub(ring.mul(x, x), x) not in members:
        return
    scan = rl.lift_idempotent(ring, ideal, x, method="scan")
    newton = rl.lift_idempotent(ring, ideal, x, method="newton")
    assert scan == newton
    assert ring.mul(scan, scan) == scan
    assert ring.sub(scan, x) in members


@SETTINGS
@given(name=hs.sampled_from(("Z2", "Z4", "Z6", "Z8", "Z12", "T2(Z2)", "M2(Z2)")),
       data=hs.data())
def test_constructed_witness_from_pi_regularity(name, data):
    ring = _ring(name)
    a = data.draw(hs.integers(0, ring.order - 1))
    w = rl.wncl_from_pi_regular(ring, a, rl.pi_regular_witness(ring, a))
    assert rl.check_wncl(ring, a, w)
