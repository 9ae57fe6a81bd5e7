"""Spec expression parser and the four CLI subcommands."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

import ringlab as rl
from ringlab import cli, deciders as dc, kernel
from ringlab.cli import CSV_HEADER, parse_spec, SpecParseError

from conftest import fresh_build_cache


# --- parser ---------------------------------------------------------------------


def test_parse_round_trip_default_corpus():
    for spec in rl.DEFAULT_CORPUS:
        assert parse_spec(str(spec)) == spec


@pytest.mark.parametrize("text,expected", [
    ("Z8", rl.Zn(8)),
    ("M2(Z4)", rl.Matrix(2, rl.Zn(4))),
    ("T3(Z2)", rl.Triangular(3, rl.Zn(2))),
    ("Triv(Z4)", rl.TrivialExt(rl.Zn(4))),
    ("Op(T2(Z2))", rl.Opposite(rl.Triangular(2, rl.Zn(2)))),
    ("Z2xZ3xZ4", rl.Product((rl.Zn(2), rl.Zn(3), rl.Zn(4)))),
    ("Z4[x]/(x^2)", rl.PolyMod(rl.Zn(4), 2)),
    ("Z2[x]/(x^2)[x]/(x^3)", rl.PolyMod(rl.PolyMod(rl.Zn(2), 2), 3)),
    ("Corner(M2(Z2),8)", rl.Corner(rl.Matrix(2, rl.Zn(2)), 8)),
    ("Ideal(Z4,2)", rl.IdealRing(rl.Zn(4), (2,))),
    ("Quot(Z8,4,2)", rl.Quotient(rl.Zn(8), (4, 2))),
    ("M2(Z2xZ3)", rl.Matrix(2, rl.Product((rl.Zn(2), rl.Zn(3))))),
    ("Triv(Z2)xZ4", rl.Product((rl.TrivialExt(rl.Zn(2)), rl.Zn(4)))),
    ("(Z2xZ3)[x]/(x^2)", rl.PolyMod(rl.Product((rl.Zn(2), rl.Zn(3))), 2)),
    ("((Z4))", rl.Zn(4)),
])
def test_parse_expressions(text, expected):
    assert parse_spec(text) == expected


def test_parse_is_whitespace_insensitive():
    assert parse_spec(" M2( Z4 ) ") == rl.Matrix(2, rl.Zn(4))
    assert parse_spec("Z2 x Z4") == rl.Product((rl.Zn(2), rl.Zn(4)))
    assert parse_spec("Z4 [x] / (x^2)") == rl.PolyMod(rl.Zn(4), 2)


def test_parse_round_trip_is_stable():
    for text in ("M2(T2(Z2))", "Triv(Z2xZ4)", "Quot(M2(Z2),8)",
                 "Ideal(T2(Z4),4)", "Op(M2(Z3))"):
        spec = parse_spec(text)
        assert parse_spec(str(spec)) == spec


@pytest.mark.parametrize("text,column", [
    ("Zq", 2),
    ("", 1),
    ("M3(Z8", 6),
    ("Z4)", 3),
    ("W4", 1),
    ("M2(Z4,3)", 6),
    ("Z\u00b2", 2),  # a digit (superscript two) that is not a decimal
    pytest.param("M2(Z" + "1" * 4301 + ")", 5, id="M2(Z1...1)-5"),
    # an integer outside its constructor's domain, at the integer
    ("Z0", 2),
    ("M0(Z2)", 2),
    ("T1(Z2)", 2),
    ("Z2[x]/(x^0)", 10),
    ("M2( T 1(Z2))", 7),
])
def test_parse_errors_carry_columns(text, column):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert err.value.column == column
    assert f"parse error at column {column}" in str(err.value)


# --- classify ----------------------------------------------------------------------


def test_classify_text_output(capsys):
    assert rl.main(["classify", "Z6"]) == 0
    out = capsys.readouterr().out
    assert "spec: Z6" in out
    assert "order: 6" in out
    assert "unital: true" in out
    assert "weakly_nil_clean: true" in out
    assert "nil_clean: false" in out
    assert "bounded_index: 1" in out
    assert "counts:" in out


def test_classify_json_schema(capsys):
    assert rl.main(["classify", "Z6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["spec", "order", "properties", "counts",
                          "bounded_index", "timings"]
    assert list(data["properties"]) == list(rl.PROPERTY_ORDER)
    assert data["spec"] == "Z6"
    assert data["order"] == 6
    assert data["properties"]["strongly_regular"] is True
    assert data["counts"]["unit"] == 2
    assert data["timings"] is None


def test_classify_json_timings(capsys):
    assert rl.main(["classify", "Z4", "--json", "--timings"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data["timings"], dict)
    assert "weakly_nil_clean" in data["timings"]


def test_classify_non_unital_json(capsys):
    assert rl.main(["classify", "Ideal(Z4,2)", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["properties"]["weakly_nil_clean"] is True
    assert data["properties"]["clean"] is None
    assert data["counts"]["unit"] is None


def test_classify_show_elements(capsys):
    assert rl.main(["classify", "T2(Z2)", "--show-elements"]) == 0
    out = capsys.readouterr().out
    assert "elements:" in out
    assert "  0: " in out
    assert "  7: " in out


def test_classify_corner_at_unity_keeps_its_spec(capsys):
    assert rl.main(["classify", "Corner(Z4,1)"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "spec: Corner(Z4,1)"


def test_classify_parse_error(capsys):
    assert rl.main(["classify", "Zq"]) == 2
    err = capsys.readouterr().err
    assert "parse error at column 2" in err


def test_classify_over_cap(capsys):
    assert rl.main(["classify", "M3(Z8)"]) == 3
    assert "error:" in capsys.readouterr().err


def test_classify_cap_flag(capsys):
    assert rl.main(["classify", "Z100", "--max-order", "50"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("text,order", [
    ("M2(Z300)", "8100000000"),
    pytest.param("Z" + "9" * 4300, "9" * 4300, id="Z9...9"),
    pytest.param("Z2[x]/(x^14284)", str(2 ** 14284), id="2^14284"),  # 4300 digits
])
def test_cap_errors_show_the_exact_order(text, order, capsys):
    assert rl.main(["classify", text]) == 3
    assert capsys.readouterr().err == f"error: {text} has order {order}, over the cap 65536\n"


@pytest.mark.parametrize("text,order", [
    ("Quot(Triv(Z40),0)", 1600),
    ("Corner(" + "x".join(["Z2"] * 12) + ",4094)", 2048),
])
def test_derived_rings_over_the_table_cap_exit_3(text, order, capsys):
    assert rl.main(["classify", text]) == 3
    assert capsys.readouterr().err == f"error: {text} has order {order}, over the table cap 1024\n"


@pytest.mark.parametrize("text", ["M300(Z2)", "Z2[x]/(x^99999)", "Z2[x]/(x^14285)",
                                  "M3000(Z99)", "T3000(Z99)"])
def test_orders_past_the_int_text_limit_are_cap_errors(text, tmp_path, capsys):
    start = time.perf_counter()
    message = f"{text} has order of more than 4300 digits, over the cap 65536"
    assert rl.main(["classify", text]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    path = tmp_path / "specs.txt"
    path.write_text(f"Z2\n{text}\nZ3\n")
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["Z2", text, "Z3"]
    assert lines[2] == f'{text},"error: {message}"' + "," * 15
    # the exact order of M3000(Z99) takes tens of seconds to compute
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("text", ["Z" + "9" * 5000, "M" + "9" * 4301 + "(Z2)"],
                         ids=["Z9...9", "M9...9(Z2)"])
def test_overlong_literals_are_parse_errors(text, capsys):
    assert rl.main(["classify", text]) == 2
    assert capsys.readouterr().err == (
        "error: parse error at column 2: integer literal longer than 4300 digits\n")


def _nested(depth):
    return "Op(" * depth + "Z2" + ")" * depth


def test_spec_nesting_is_bounded(tmp_path, capsys):
    message = "parse error at column 769: constructors nested more than 256 deep"
    assert cli.MAX_SPEC_DEPTH == 256
    assert rl.main(["classify", _nested(256)]) == 0
    assert rl.main(["witness", _nested(256), "1", "wnc"]) == 0
    capsys.readouterr()
    for depth in (257, 2000):
        assert rl.main(["classify", _nested(depth)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    path = tmp_path / "specs.txt"
    path.write_text(f"Z2\n{_nested(2000)}\nZ3\n")
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["Z2", _nested(2000), "Z3"]
    assert lines[2] == f"{_nested(2000)},error: {message}" + "," * 15


def test_group_nesting_is_bounded():
    for depth in (257, 2000):
        with pytest.raises(SpecParseError) as err:
            parse_spec("(" * depth + "Z2" + ")" * depth)
        assert str(err.value) == "parse error at column 257: constructors nested more than 256 deep"
    assert parse_spec("(" * 256 + "Z2" + ")" * 256) == rl.Zn(2)


# (text before and after each level, the most levels the parser accepts, the
# error columns at one level more and at twice as many). Around a product
# Z1x..., the error is at the constructor or group of level 129; around
# M1(...xZ1), whose product is met after its first part, at the x of the
# product at level 257; a chain of postfix nodes fails at its 257th "[". The
# labels of M1(M1(...)) take the most frames per level.
_DEEPEST = [(f"{before}Z1x", after, 128, (128 * len(f"{before}Z1x") + 1,) * 2)
            for before, after in [("M1(", ")"), ("T2(", ")"), ("Op(", ")"), ("Triv(", ")"),
                                  ("Corner(", ",0)"), ("Quot(", ",0)"), ("Ideal(", ",0)"),
                                  ("(", ")[x]/(x^1)")]]
_DEEPEST += [("M1(", "xZ1)", 128, (898, 771)), ("", "[x]/(x^1)", 256, (2307, 2307)),
             ("M1(", ")", 256, (769, 769))]


@pytest.mark.parametrize("before,after,deepest,columns", _DEEPEST)
def test_the_height_of_the_parsed_tree_is_bounded(before, after, deepest, columns, capsys):
    def nested(depth):
        return before * depth + "Z1" + after * depth

    assert rl.main(["classify", nested(deepest)]) == 0
    # the label of T2 or Triv, which grows 4x a level, stops at its bound
    start = time.perf_counter()
    assert rl.main(["witness", nested(deepest), "0", "wnc"]) == 0
    assert time.perf_counter() - start < 1
    capsys.readouterr()
    for depth, column in zip((deepest + 1, 2 * deepest), columns):
        assert rl.main(["classify", nested(depth)]) == 2
        assert capsys.readouterr().err == (f"error: parse error at column {column}: "
                                           "constructors nested more than 256 deep\n")


@pytest.mark.parametrize("before,after,deepest,columns", _DEEPEST)
def test_the_deepest_specs_need_no_recursion_grant(before, after, deepest, columns):
    # parsing recurses 3 frames a level; nothing else recurses down the tree
    text = before * deepest + "Z1" + after * deepest
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        spec = parse_spec(text)
        ring = rl.build(spec)
        again = parse_spec(text)
        assert (str(spec), hash(spec), spec) == (text, hash(again), again)
        assert ring.element_label(0)
    finally:
        sys.setrecursionlimit(limit)


def test_polynomial_ring_over_a_product_prints_its_group():
    spec = rl.PolyMod(rl.product([rl.Zn(2), rl.Zn(3)]), 2)
    assert str(spec) == "(Z2xZ3)[x]/(x^2)"
    assert parse_spec(str(spec)) == spec
    assert rl.build(spec).order == 36
    assert rl.build(parse_spec("Z2xZ3[x]/(x^2)")).order == 18


def test_spec_file_parse_errors_name_one_column(tmp_path, capsys):
    path = tmp_path / "specs.txt"
    long = "Z" + "5" * 5000
    path.write_text(f"Z2\n{long}  # too long\n\nM2(Z3\nZ3\n")
    reason = "integer literal longer than 4300 digits"
    assert rl.main(["verify", "--corpus", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: parse error at column 2: {reason}\n"
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "Z2,2,true,true,true,true,true,true,true,true,true,true,2,1,1,1,1",
        f"{long},error: parse error at column 2: {reason}" + "," * 15,
        "M2(Z3,error: parse error at column 6: expected ')'" + "," * 15,
        "Z3,3,true,true,false,true,true,true,true,true,true,true,2,1,2,1,1",
    ]


# --- witness -----------------------------------------------------------------------


def test_witness_wnc_trace(capsys):
    assert rl.main(["witness", "Z6", "2", "wnc"]) == 0
    out = capsys.readouterr().out
    assert "spec: Z6" in out
    assert "element: 2 (2)" in out
    assert "witness: e=4 q=0 x=2 (primal)" in out
    assert "a - e - q = 2 - 4 - 0 = 4" in out
    assert "e*x*a = 4*2*2 = 4" in out


def test_witness_alt_trace(capsys):
    assert rl.main(["witness", "Z4", "3", "wnc-alt"]) == 0
    out = capsys.readouterr().out
    assert "witness: e=1 q=0 x=3 (alternate)" in out
    assert "x*a = 1 = e" in out


def test_witness_exchange_trace(capsys):
    assert rl.main(["witness", "Z6", "2", "exchange"]) == 0
    out = capsys.readouterr().out
    assert "witness: e=0 r=0 s=5" in out
    assert "s*(1-a) = 5*5 = 1 = 1 - e" in out


def test_witness_nilclean_trace(capsys):
    assert rl.main(["witness", "Z4", "3", "nilclean"]) == 0
    out = capsys.readouterr().out
    assert "witness: e=1 q=2" in out
    assert "q^2 = 0 (nilpotent)" in out


def test_witness_sreg_trace(capsys):
    assert rl.main(["witness", "Z6", "2", "sreg"]) == 0
    out = capsys.readouterr().out
    assert "witness: r=2" in out


def test_witness_spireg_trace(capsys):
    assert rl.main(["witness", "T2(Z2)", "2", "spireg"]) == 0
    out = capsys.readouterr().out
    assert "witness: n=" in out
    assert "(nilpotent)" in out


def test_witness_absent_returns_one(capsys):
    assert rl.main(["witness", "Z6", "2", "nilclean"]) == 1
    out = capsys.readouterr().out
    assert "none" in out


def test_witness_out_of_range(capsys):
    assert rl.main(["witness", "Z6", "99", "wnc"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_witness_rejects_unknown_property(capsys):
    with pytest.raises(SystemExit):
        rl.main(["witness", "Z6", "2", "sideways"])
    capsys.readouterr()


def test_witness_non_unital_property(capsys):
    # unital-only searches on a non-unital ring are usage errors
    assert rl.main(["witness", "Ideal(Z4,2)", "1", "exchange"]) == 2
    assert "unity" in capsys.readouterr().err


# The specs of perfbench's witness-cli workload: the default corpus less M2(Z4).
WITNESS_CLI_SPECS = [str(spec) for spec in rl.DEFAULT_CORPUS if str(spec) != "M2(Z4)"]


@pytest.mark.parametrize("text", WITNESS_CLI_SPECS)
def test_witness_repeats_byte_for_byte_on_cached_bases(text, capsys):
    """The first call builds the bases of the spec, as in a new process; the
    second gets them from the build cache and prints the same bytes."""
    last = rl.build_cached(parse_spec(text)).order - 1
    with fresh_build_cache():
        for prop in cli._WITNESS_PROPS:
            for a in (0, last):
                argv = ["witness", text, str(a), prop]
                first = rl.main(argv), capsys.readouterr()
                assert (rl.main(argv), capsys.readouterr()) == first, argv


# --- verify -------------------------------------------------------------------------


def test_verify_subset(capsys):
    assert rl.main(["verify", "--props", "P_ABEL,P_RADIKAL"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("P_ABEL      pass")
    assert lines[1].startswith("P_RADIKAL   pass")


def test_verify_unknown_check(capsys):
    assert rl.main(["verify", "--props", "P_WAT"]) == 2
    assert "unknown check ids" in capsys.readouterr().err


@pytest.mark.parametrize("props", ["", ",", " , "])
def test_verify_without_check_ids_is_a_usage_error(props, capsys):
    assert rl.main(["verify", "--props", props]) == 2
    assert capsys.readouterr() == ("", "error: no check ids given\n")


def test_verify_custom_corpus_file(tmp_path, capsys):
    path = tmp_path / "rings.txt"
    path.write_text(
        "# comment line\n"
        "\n"
        "Z4\n"
        "T2(Z2)  # inline comment\n")
    assert rl.main(["verify", "--props", "P_RADIKAL", "--corpus", str(path)]) == 0
    out = capsys.readouterr().out
    assert "radical verified on 2 rings" in out


def test_verify_corpus_file_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("Z4\nM(\n")
    assert rl.main(["verify", "--corpus", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:2" in err


def test_verify_missing_corpus_file(capsys):
    assert rl.main(["verify", "--corpus", "/nonexistent/rings.txt"]) == 2
    assert "cannot read spec file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["census", "--specs"], ["verify", "--corpus"]])
def test_spec_file_not_in_utf8_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"Z4\n\xff\n")
    assert rl.main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read spec file {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_prints_each_failure_with_its_counterexample(tmp_path, capsys):
    # one failure with one element, one with two, and one of the whole ring
    path = tmp_path / "rings.txt"
    path.write_text("Z2\n")
    # a fresh build cache: a witness table kept on the shared Z2 would not
    # call the patched search
    with fresh_build_cache(), mock.patch.object(dc, "exchange_witness", return_value=None), \
            mock.patch.object(dc, "wncl_from_corner", side_effect=rl.WitnessError("boom")), \
            mock.patch.object(dc, "ring_unique_idempotent", return_value=False):
        assert rl.main(["verify", "--props", "P_OSNOVE,L_MOCNA,P_UNQ1,P_ABEL",
                        "--corpus", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "P_OSNOVE    fail        no exchange witness for element 0 of Z2",
        "  counterexample: spec=Z2 elements=(0,)",
        "L_MOCNA     fail        composition failed at a=0, e=0 of Z2: boom",
        "  counterexample: spec=Z2 elements=(0, 0)",
        "P_UNQ1      fail        uniqueness/abelian mismatch on Z2",
        "  counterexample: spec=Z2 elements=()",
        "P_ABEL      pass        1 abelian rings agree",
    ]


def test_verify_reports_every_failing_certificate_of_a_constructive_step(tmp_path, capsys):
    # each of these checks builds a witness by a step that re-validates it,
    # so a checker that rejects every witness fails every check, with its
    # counterexample, and never ends the run. A fresh build cache: an
    # outcome kept on the shared Z2 would not call the patched checker
    path = tmp_path / "rings.txt"
    path.write_text("Z2\nT2(Z2)\n")
    with fresh_build_cache(), mock.patch.object(dc, "check_wncl", return_value=False):
        assert rl.main(["verify", "--props", "L_MOCNA,P_PIREG,P_KOTI,P_CENTER,P_NILIDEAL",
                        "--corpus", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "L_MOCNA     fail        composition failed at a=0, e=0 of Z2: "
        "composed witness fails the primal identity",
        "  counterexample: spec=Z2 elements=(0, 0)",
        "P_PIREG     fail        construction failed at 0 of Z2: "
        "composed witness fails the primal identity",
        "  counterexample: spec=Z2 elements=(0,)",
        "P_KOTI      fail        extraction failed at 0 of Z2: "
        "matrix witness is invalid for diag(a, 0, ..., 0)",
        "  counterexample: spec=Z2 elements=(0,)",
        "P_CENTER    fail        center extraction failed at 0 of Z2: witness is invalid for a",
        "  counterexample: spec=Z2 elements=(0,)",
        "P_NILIDEAL  fail        lift failed at 0 of T2(Z2): "
        "quotient witness is invalid for the coset of a",
        "  counterexample: spec=T2(Z2) elements=(0,)",
    ]


def _counting(module, name):
    return mock.patch.object(module, name, wraps=getattr(module, name))


@pytest.mark.parametrize("name,detail", [
    ("T2(Z4)", "64 elements across 1 unital rings"),
    # a lazy member, above the exhaustive-scan limit
    ("M2(Z6)", "1296 elements across 1 unital rings")], ids=["T2(Z4)", "M2(Z6)"])
def test_verify_reads_element_witnesses_off_the_passes(tmp_path, capsys, name, detail):
    path = tmp_path / "rings.txt"
    path.write_text(f"{name}\n")
    with fresh_build_cache(), _counting(kernel, "_witness_pass") as witness_pass, \
            _counting(dc, "unique_idempotent_wncl") as primal, \
            _counting(dc, "exchange_witness") as exchange:
        assert rl.main(["verify", "--props", "P_OSNOVE", "--corpus", str(path)]) == 0
    assert capsys.readouterr().out == f"P_OSNOVE    pass        {detail}\n"
    witness_pass.assert_called_once()
    primal.assert_not_called()
    exchange.assert_not_called()


def test_witness_table_and_uniqueness_verdict_share_one_pass(tmp_path, capsys):
    path = tmp_path / "rings.txt"
    path.write_text("M2(Z6)\n")
    with fresh_build_cache(), _counting(kernel, "_witness_pass") as witness_pass, \
            _counting(dc, "wncl_witness") as primal, \
            _counting(dc, "exchange_witness") as exchange:
        assert rl.main(["verify", "--props", "P_OSNOVE,P_UNQ1", "--corpus", str(path)]) == 0
        assert rl.ring_exchange(rl.build_cached(rl.parse_spec("M2(Z6)"))) is True
    assert capsys.readouterr().out.splitlines() == [
        "P_OSNOVE    pass        1296 elements across 1 unital rings",
        "P_UNQ1      pass        verdicts equal on 1 unital rings"]
    witness_pass.assert_called_once()
    primal.assert_not_called()
    exchange.assert_not_called()


@pytest.mark.parametrize("argv", [["T2(Z4)", "5", "wnc"], ["M2(Z3)", "5", "exchange"]])
def test_witness_of_one_element_runs_no_pass(argv, capsys):
    with _counting(kernel, "witness_pass") as witness_pass:
        assert rl.main(["witness", *argv]) == 0
    assert "witness: " in capsys.readouterr().out
    witness_pass.assert_not_called()


# --- census -------------------------------------------------------------------------


def test_census_csv(capsys):
    assert rl.main(["census", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rl.DEFAULT_CORPUS)
    golden = "M2(Z2),16,true,true,true,true,true,true,false,false,false,false,8,4,6,1,2"
    assert golden in lines
    z6 = "Z6,6,true,true,false,true,true,true,true,true,true,true,4,1,2,1,1"
    assert z6 in lines


def test_census_csv_from_file(tmp_path, capsys):
    path = tmp_path / "specs.txt"
    path.write_text("Z4\nZ1000000\nZ6\n")
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[2].startswith('Z1000000,"error: ')
    assert lines[2].endswith('"' + "," * 15)


def test_census_human_table(capsys):
    assert rl.main(["census"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == CSV_HEADER.split(",")
    ideal_row = next(l for l in lines if l.startswith("Ideal(Z4,2)"))
    assert " - " in ideal_row  # empty cells render as dashes


# the specs of test_bad_spec_is_a_usage_error that the parser refuses, with
# the column of their integer
DOMAIN_COLUMNS = {"Z0": 2, "M0(Z2)": 2, "T1(Z2)": 2, "Z2[x]/(x^0)": 10}


def test_spec_nodes_built_directly_keep_their_domain_checks():
    for spec, message in [(rl.Zn(0), "modulus must be at least 1"),
                          (rl.Matrix(0, rl.Zn(2)), "matrix size must be at least 1"),
                          (rl.Triangular(1, rl.Zn(2)), "triangular size must be at least 2"),
                          (rl.PolyMod(rl.Zn(2), 0), "truncation degree must be at least 1")]:
        with pytest.raises(rl.SpecError, match=message):
            rl.build(spec)


@pytest.mark.parametrize("text,message", [
    ("Z0", "modulus must be at least 1"),
    ("M0(Z2)", "matrix size must be at least 1"),
    ("T1(Z2)", "triangular size must be at least 2"),
    ("Z2[x]/(x^0)", "truncation degree must be at least 1"),
    ("Corner(Z4,3)", "corner needs an idempotent, 3 is not one"),
    ("Quot(Z4,9)", "generator 9 out of range for Z4"),
])
def test_bad_spec_is_a_usage_error(text, message, tmp_path, capsys):
    column = DOMAIN_COLUMNS.get(text)
    if column is None:  # the check needs the built ring
        with pytest.raises(rl.SpecError, match=message):
            rl.build(parse_spec(text))
    else:
        message = f"parse error at column {column}: {message}"
        with pytest.raises(SpecParseError, match=message):
            parse_spec(text)
    assert rl.main(["classify", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    path = tmp_path / "specs.txt"
    path.write_text(f"Z2\n{text}\n")
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    quoted = [f'"{cell}"' if "," in cell else cell for cell in (text, f"error: {message}")]
    assert lines[2] == ",".join(quoted) + "," * 15


def test_census_csv_reads_back_cell_for_cell(tmp_path, capsys):
    # cells that hold a comma (specs, error messages) are quoted
    specs = [str(spec) for spec in rl.DEFAULT_CORPUS] + ["Corner(Z4,3)", "Quot(Z4,9)",
                                                          "Z1000000"]
    path = tmp_path / "specs.txt"
    path.write_text("\n".join(specs) + "\n")
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER.split(",")
    assert all(len(row) == 17 for row in rows), rows
    assert [row[0] for row in rows[1:]] == specs
    assert rows[-3][1:] == ["error: corner needs an idempotent, 3 is not one"] + [""] * 15
    assert '"Ideal(Z4,2)",2,true,,true,,,,,,,,1,2,,2,2' in out.splitlines()


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        rl.main([])
    assert err.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ringlab", "witness", "Z4", "3", "wnc"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "witness:" in proc.stdout


@pytest.mark.parametrize("argv", [["witness", "T2(Z16)", "5", "wnc"], ["census"]])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run([sys.executable, "-m", "ringlab", *argv],
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# --- one parser per process -----------------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "_parser", None)
    assert rl.main(["witness", "Z6", "2", "wnc"]) == 0
    assert len(built) == 5  # ringlab and its four subcommands
    built.clear()
    assert rl.main(["witness", "Z6", "3", "clean"]) == 0
    assert rl.main(["classify", "Z4"]) == 0
    assert built == []
    capsys.readouterr()


# argv that argparse rejects or answers with help: per subcommand -h, a
# missing argument, a leftover one, a bad integer and a bad choice, where the
# subcommand has such an argument; and the cases left to the full parser
_USAGE_ARGV = [
    [], ["-h"], ["bogus"], ["--"], ["-h", "witness"], ["--", "witness", "Z2", "1", "wnc"],
    ["classify", "-h"], ["classify"], ["classify", "Z4", "extra"], ["classify", "Z4", "--bogus"],
    ["classify", "--max-order", "q", "Z4"], ["classify", "--max-order"],
    ["witness", "-h"], ["witness", "Z6", "2"], ["witness", "Z6", "2", "wnc", "extra"],
    ["witness", "Z6", "x", "wnc"], ["witness", "Z6", "2", "wnc", "--max-order", "2.5"],
    ["witness", "Z6", "2", "sideways"], ["witness", "Z6", "2", "wnc", "--", "x"],
    ["verify", "-h"], ["verify", "--props"], ["verify", "extra"], ["verify", "--corpus", "a", "b"],
    ["census", "-h"], ["census", "--specs"], ["census", "--csv", "extra"], ["census", "--csv=1"],
]


@pytest.mark.parametrize("argv", _USAGE_ARGV, ids=" ".join)
def test_main_answers_as_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at this width
    rl.main(["witness", "Z6", "2", "wnc"])  # the parser is built
    capsys.readouterr()
    answers = []
    for parse in (rl.main, cli._parser.parse_args):
        with pytest.raises(SystemExit) as err:
            parse(argv)
        answers.append((err.value.code, capsys.readouterr()))
    assert answers[0] == answers[1]
    assert answers[0][0] == (0 if "-h" in argv else 2)


@pytest.mark.parametrize("argv", [
    ["classify", "--json", "--max-order", "5", "Z4"], ["witness", "Z6", "-1", "wnc"],
    ["witness", "Z6", "--", "2", "wnc"], ["witness", "--max-order=9", "Z2", "1", "sreg"],
    ["verify", "--props", "P_ABEL"], ["census", "--csv", "--csv"], ["census"],
])
def test_main_runs_what_the_full_parser_reads(argv, monkeypatch):
    rl.main(["witness", "Z6", "2", "wnc"])  # the parser is built
    ran = []
    for command in cli._parser.commands.values():
        monkeypatch.setitem(command._defaults, "run", lambda args, out: ran.append(vars(args)) or 0)
    assert rl.main(argv) == 0
    full = vars(cli._parser.parse_args(argv))
    assert full.pop("command") == argv[0]
    assert ran == [full]


def test_usage_error_leaves_the_parser_usable(capsys):
    assert rl.main(["witness", "Z6", "2", "wnc"]) == 0
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        rl.main(["witness", "Z6", "2", "sideways"])
    assert err.value.code == 2
    assert "invalid choice: 'sideways'" in capsys.readouterr().err
    assert rl.main(["witness", "Z6", "2", "wnc"]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv,code", [
    (["classify", "Zq"], 2),                      # SpecParseError
    (["witness", "Z6", "99", "wnc"], 2),          # RingLabError
    (["classify", "M3(Z8)"], 3),                  # OrderCapError
    (["witness", "Z6", "2", "sideways"], 2),      # argparse usage error
])
def test_errors_after_a_call_match_a_fresh_interpreter(argv, code, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at this width
    fresh = subprocess.run([sys.executable, "-m", "ringlab", *argv],
                           capture_output=True, text=True)
    assert rl.main(["witness", "Z6", "2", "wnc"]) == 0
    capsys.readouterr()
    try:
        got = rl.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, capsys.readouterr().err) == (code, fresh.stderr)
    assert fresh.returncode == code
