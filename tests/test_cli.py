"""Spec expression parser and the four CLI subcommands."""

import json
import subprocess
import sys

import pytest

import ringlab as rl
from ringlab.cli import CSV_HEADER, parse_spec, SpecParseError


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
    assert lines[2].startswith("Z1000000,error: ")
    assert lines[2].endswith("," * 15)


def test_census_human_table(capsys):
    assert rl.main(["census"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == CSV_HEADER.split(",")
    ideal_row = next(l for l in lines if l.startswith("Ideal(Z4,2)"))
    assert " - " in ideal_row  # empty cells render as dashes


@pytest.mark.parametrize("text,message", [
    ("Z0", "modulus must be at least 1"),
    ("M0(Z2)", "matrix size must be at least 1"),
    ("T1(Z2)", "triangular size must be at least 2"),
    ("Z2[x]/(x^0)", "truncation degree must be at least 1"),
    ("Corner(Z4,3)", "corner needs an idempotent, 3 is not one"),
    ("Quot(Z4,9)", "generator 9 out of range for Z4"),
])
def test_bad_spec_is_a_usage_error(text, message, tmp_path, capsys):
    with pytest.raises(rl.SpecError, match=message):
        rl.build(parse_spec(text))
    assert rl.main(["classify", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    path = tmp_path / "specs.txt"
    path.write_text(f"Z2\n{text}\n")
    assert rl.main(["census", "--csv", "--specs", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == f"{text},error: {message}" + "," * 15


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
