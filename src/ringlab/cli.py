"""Command-line interface: parse ring spec expressions and run reports.

Subcommands: classify (property report for one ring), witness (search and
print one certified witness), verify (run the named corpus checks), census
(classification table for many rings).

Exit codes: 0 success, 1 absent witness or failed check, 2 usage or parse
errors, 3 order-cap violations, 141 (128 + SIGPIPE) stdout closed by its
reader before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple, Union

from .core import FiniteRing, OrderCapError, RingLabError, SpecError, nil_index_of, power
from . import construct as ct
from . import structure as st
from . import deciders as dc
from . import harness as hn


MAX_SPEC_DEPTH = 256  # groups, constructors and products a spec may nest (see _Parser)
# Building, printing and labelling a ring recurse a few frames per level of its
# spec (7 for the labels of M1(M1(...)), the most measured): main() adds this
# many frames per level to the caller's recursion limit.
_FRAMES_PER_LEVEL = 8

# The spec nodes by the first character of their text (of two, the first is
# tried: Triv( before T), and the postfix PolyMod by the first one after its base
_PREFIX = {"Z": (ct.Zn,), "M": (ct.Matrix,), "T": (ct.TrivialExt, ct.Triangular),
           "O": (ct.Opposite,), "C": (ct.Corner,), "I": (ct.IdealRing,), "Q": (ct.Quotient,)}
_POSTFIX = {"[": ct.PolyMod}
_NESTS = "(" + "".join(ch for ch, kinds in _PREFIX.items() if "%(base)s" in kinds[0].syntax)


class SpecParseError(RingLabError):
    """Raised on malformed spec expressions; column is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"parse error at column {column}: {message}")
        self.column = column


class _Parser:
    """Recursive-descent parser for the spec expression grammar.

    expr    := atom ('x' atom)*
    atom    := primary postfix*
    primary := '(' expr ')' | prefix

    A prefix or postfix is a spec node's text, as its template
    (construct.RingSpec.syntax) gives it; the postfix binds tighter than x.
    Whitespace is skipped everywhere; columns refer to the original text.
    Groups, constructors and products nest at most MAX_SPEC_DEPTH deep: the
    levels open around a node and the height of the spec tree it heads count
    together. A product is met at its first x and a postfix node after its
    base, so each is checked one level above the part read before it. That
    bounds the parser's recursion, and the height of the tree that building,
    printing and labelling the ring recurse down (see _FRAMES_PER_LEVEL).
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # groups, constructors and products open at pos

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str):
        raise SpecParseError(message, self.pos + 1)

    def literal(self, s: str) -> None:
        for ch in s:
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ch:
                self.fail(f"expected {ch!r}")
            self.pos += 1

    def try_literal(self, s: str) -> bool:
        save = self.pos
        try:
            self.literal(s)
            return True
        except SpecParseError:
            self.pos = save
            return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        if self.pos - start > ct.MAX_INT_DIGITS:
            self.pos = start
            self.fail(f"integer literal longer than {ct.MAX_INT_DIGITS} digits")
        return int(self.text[start:self.pos])

    def size(self, kind: type) -> int:
        """The integer parameter of the spec node kind; one outside its
        domain (construct.check_size) fails at the integer's column."""
        self.skip_ws()
        start = self.pos
        value = self.integer()
        try:
            ct.check_size(kind, value)
        except SpecError as exc:
            self.pos = start
            self.fail(str(exc))
        return value

    def intlist(self) -> Tuple[int, ...]:
        out = [self.integer()]
        while self.try_literal(","):
            out.append(self.integer())
        return tuple(out)

    def nest(self, below: int = 0) -> None:  # one level, above a tree this high
        self.depth += 1
        if self.depth + below > MAX_SPEC_DEPTH:
            self.fail(f"constructors nested more than {MAX_SPEC_DEPTH} deep")

    def expr(self) -> Tuple[ct.RingSpec, int]:
        spec, height = self.atom()
        if self.peek() != "x":
            return spec, height
        self.nest(height)  # a product is one level, counted at its first x
        parts = [spec]
        while self.peek() == "x":
            self.pos += 1
            spec, below = self.atom()
            parts.append(spec)
            height = max(height, below)
        self.depth -= 1
        return ct.product(parts), height + 1

    def atom(self) -> Tuple[ct.RingSpec, int]:
        spec, height = self.primary()
        while self.peek() in _POSTFIX:
            self.nest(height)
            spec, height = self.primary(_POSTFIX[self.peek()], spec, height)
            self.depth -= 1
        return spec, height

    def primary(self, kind: Optional[type] = None, base: Optional[ct.RingSpec] = None,
                height: int = 0) -> Tuple[ct.RingSpec, int]:
        """A group or a prefix node, or the postfix node of the kind on the base
        given (of that height), read along its template in this one frame, as a
        frame per level costs depth; with the height of its tree."""
        if kind is None:
            ch = self.peek()
            if ch in _NESTS:  # a group, or a node with a base
                self.nest()
            if ch == "(":
                self.pos += 1
                spec, height = self.expr()
                self.literal(")")
                self.depth -= 1
                return spec, height
            kinds = _PREFIX.get(ch) or self.fail("expected a ring constructor (Z, M, T, Triv, "
                                                 "Op, Corner, Ideal, Quot)")
            kind = kinds[0] if len(kinds) > 1 and self.try_literal(kinds[0].lead) else kinds[-1]
            if kind is kinds[-1]:  # read as it stands, so that a mismatch fails at its column
                self.literal(kind.lead)
        values = {} if base is None else {"base": base}
        for field, text in kind.steps:
            if field != "base":
                values[field] = (self.intlist() if field == "generators" else
                                 self.integer() if field == "e" else self.size(kind))
            elif base is None:
                values[field], height = self.expr()
                self.depth -= 1
            self.literal(text)
        return kind(**values), (height + 1 if "base" in values else 0)

    def parse(self) -> ct.RingSpec:
        spec, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return spec


def parse_spec(text: str) -> ct.RingSpec:
    """Parse one spec expression; raises SpecParseError with a column."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering helpers


def _b(value: Optional[bool]) -> str:
    return "" if value is None else ("true" if value else "false")


def _n(value: Optional[int]) -> str:
    return "" if value is None else str(value)


# the property columns follow dc.PROPERTY_ORDER
CSV_HEADER = ("spec,order,wnc,clean,nilclean,exchange,pireg,spireg,sreg,"
              "abelian,uniq_e,uniq_q,|Id|,|Nil|,|U|,|J|,bidx")


def _census_cells(row: hn.CensusRow) -> List[str]:
    if row.error is not None:
        return [row.spec, f"error: {row.error}"] + [""] * 15
    rep = row.report
    c = rep.counts or {}
    return ([row.spec, str(rep.order)]
            + [_b(rep.properties[name]) for name in dc.PROPERTY_ORDER]
            + [_n(c.get(k)) for k in ("id", "nil", "unit", "radical")]
            + [_n(rep.bounded_index)])


def _print_legend(ring: FiniteRing, out) -> None:
    print("elements:", file=out)
    for i in range(ring.order):
        print(f"  {i}: {ring.element_label(i)}", file=out)


# ---------------------------------------------------------------------------
# witness searches and traces


def _trace_wnc(ring, a, w, out):
    mul, sub = ring.mul, ring.sub
    print(f"witness: e={w.e} q={w.q} x={w.x} (primal)", file=out)
    print(f"  e*e = {mul(w.e, w.e)} (idempotent)", file=out)
    print(f"  q^{nil_index_of(ring, w.q)} = {power(ring, w.q, nil_index_of(ring, w.q))} (nilpotent)", file=out)
    lhs = sub(sub(a, w.e), w.q)
    print(f"  a - e - q = {a} - {w.e} - {w.q} = {lhs}", file=out)
    ex = mul(w.e, w.x)
    print(f"  e*x*a = {w.e}*{w.x}*{a} = {mul(ex, a)}", file=out)


def _trace_wnc_alt(ring, a, w, out):
    mul, sub, add = ring.mul, ring.sub, ring.add
    one = ring.one
    print(f"witness: e={w.e} q={w.q} x={w.x} (alternate)", file=out)
    print(f"  x*a = {mul(w.x, a)} = e", file=out)
    print(f"  e*e = {mul(w.e, w.e)} (idempotent)", file=out)
    print(f"  q^{nil_index_of(ring, w.q)} = {power(ring, w.q, nil_index_of(ring, w.q))} (nilpotent)", file=out)
    f = sub(one, w.e)
    stage = mul(f, add(one, w.q))
    print(f"  1 - e = {f}", file=out)
    print(f"  (1-e)*(1+q) = {stage}", file=out)
    print(f"  (1-e)*(1+q)*(1-a) = {mul(stage, sub(one, a))}", file=out)


def _trace_clean(ring, a, w, out):
    inv = st.inverse_map(ring)[w.second]
    print(f"witness: e={w.e} u={w.second}", file=out)
    print(f"  e*e = {ring.mul(w.e, w.e)} (idempotent)", file=out)
    print(f"  e + u = {ring.add(w.e, w.second)}", file=out)
    print(f"  u*u^-1 = {w.second}*{inv} = {ring.mul(w.second, inv)}", file=out)


def _trace_nilclean(ring, a, w, out):
    k = nil_index_of(ring, w.second)
    print(f"witness: e={w.e} q={w.second}", file=out)
    print(f"  e*e = {ring.mul(w.e, w.e)} (idempotent)", file=out)
    print(f"  e + q = {ring.add(w.e, w.second)}", file=out)
    print(f"  q^{k} = {power(ring, w.second, k)} (nilpotent)", file=out)


def _trace_exchange(ring, a, w, out):
    mul, sub = ring.mul, ring.sub
    one = ring.one
    print(f"witness: e={w.e} r={w.r} s={w.s}", file=out)
    print(f"  r*a = {mul(w.r, a)} = e", file=out)
    print(f"  e*e = {mul(w.e, w.e)} (idempotent)", file=out)
    print(f"  s*(1-a) = {w.s}*{sub(one, a)} = {mul(w.s, sub(one, a))} = 1 - e", file=out)


def _trace_pireg(ring, a, w, out):
    an = power(ring, a, w.n)
    print(f"witness: n={w.n} r={w.r}", file=out)
    print(f"  a^{w.n} = {an}", file=out)
    print(f"  a^{w.n}*r*a^{w.n} = {ring.mul(ring.mul(an, w.r), an)}", file=out)


def _trace_spireg(ring, a, w, out):
    mul, sub = ring.mul, ring.sub
    an = power(ring, a, w.n)
    an1 = power(ring, a, w.n + 1)
    print(f"witness: n={w.n} r={w.r} e={w.e}", file=out)
    print(f"  a^{w.n} = {an}", file=out)
    print(f"  a^{w.n + 1}*r = {an1}*{w.r} = {mul(an1, w.r)}", file=out)
    print(f"  e*e = {mul(w.e, w.e)} (idempotent)", file=out)
    print(f"  a*e = {mul(a, w.e)}, e*a = {mul(w.e, a)} (commute)", file=out)
    ae = mul(a, w.e)
    z = next(z for z in range(ring.order)
             if mul(mul(w.e, z), w.e) == z and mul(ae, z) == w.e
             and mul(z, ae) == w.e)
    print(f"  corner inverse of a*e: z={z}, (a*e)*z = {mul(ae, z)} = e", file=out)
    b = mul(a, sub(ring.one, w.e))
    k = nil_index_of(ring, b)
    print(f"  a*(1-e) = {b}, (a*(1-e))^{k} = {power(ring, b, k)} (nilpotent)",
          file=out)


def _trace_sreg(ring, a, r, out):
    aa = ring.mul(a, a)
    print(f"witness: r={r}", file=out)
    print(f"  a*a = {aa}", file=out)
    print(f"  a*a*r = {ring.mul(aa, r)}", file=out)


# property -> (search, check, trace). The search and the check are names in
# deciders, looked up at call time so that wrappers installed on that module
# (perfbench/tracer.py) see the calls.
_WITNESS = {
    "wnc": ("wncl_witness", "check_wncl", _trace_wnc),
    "wnc-alt": ("wncl_witness_alt", "check_wncl", _trace_wnc_alt),
    "clean": ("clean_witness", "check_sum", _trace_clean),
    "nilclean": ("nil_clean_witness", "check_sum", _trace_nilclean),
    "exchange": ("exchange_witness", "check_exchange", _trace_exchange),
    "pireg": ("pi_regular_witness", "check_pi_regular", _trace_pireg),
    "spireg": ("strong_pi_witness", "check_strong_pi", _trace_spireg),
    "sreg": ("strongly_regular_witness", "check_strongly_regular", _trace_sreg),
}

_WITNESS_PROPS = tuple(_WITNESS)


def _run_witness(ring: FiniteRing, a: int, prop: str, out) -> int:
    search, check, trace = _WITNESS[prop]
    w = getattr(dc, search)(ring, a)
    if w is None or not getattr(dc, check)(ring, a, w):
        print("none", file=out)
        return 1
    trace(ring, a, w, out)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args, out) -> int:
    spec = parse_spec(args.spec)
    ring = ct.build(spec, max_order=args.max_order)
    rep = dc.classify(ring, with_timings=args.timings)
    if args.json:
        print(json.dumps(rep.as_dict(), indent=2), file=out)
    else:
        print(f"spec: {rep.spec}", file=out)
        print(f"order: {rep.order}", file=out)
        print(f"unital: {'true' if rep.unital else 'false'}", file=out)
        print("properties:", file=out)
        for name in dc.PROPERTY_ORDER:
            value = rep.properties[name]
            print(f"  {name}: {_b(value) or 'n/a'}", file=out)
        if rep.counts is not None:
            cells = " ".join(f"{k}={_n(v) or 'n/a'}"
                             for k, v in rep.counts.items())
            print(f"counts: {cells}", file=out)
        print(f"bounded_index: {_n(rep.bounded_index) or 'n/a'}", file=out)
        if rep.timings is not None:
            print("timings:", file=out)
            for name, seconds in rep.timings.items():
                print(f"  {name}: {seconds:.6f}s", file=out)
    if args.show_elements:
        _print_legend(ring, out)
    return 0


def _cmd_witness(args, out) -> int:
    spec = parse_spec(args.spec)
    ring = ct.build(spec, max_order=args.max_order)
    if not 0 <= args.element < ring.order:
        raise RingLabError(
            f"element index {args.element} out of range for order {ring.order}")
    print(f"spec: {spec}", file=out)
    print(f"element: {args.element} ({ring.element_label(args.element)})",
          file=out)
    print(f"property: {args.property}", file=out)
    return _run_witness(ring, args.element, args.property, out)


def _read_spec_file(path: str) -> List[Tuple[int, str, Union[ct.RingSpec, SpecParseError]]]:
    """(line number, text, spec) for each line of the file that holds a spec,
    comments stripped; the spec of a malformed line is its SpecParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise RingLabError(f"cannot read spec file {path}: {exc}") from None
    specs = []
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            specs.append((lineno, text, parse_spec(text)))
        except SpecParseError as exc:
            specs.append((lineno, text, exc))
    return specs


def _cmd_verify(args, out) -> int:
    ids = hn.CHECK_IDS if args.props == "all" else tuple(
        p.strip() for p in args.props.split(",") if p.strip())
    if not ids:
        raise RingLabError("no check ids given")
    unknown = [i for i in ids if i not in hn.CHECK_IDS]
    if unknown:
        raise RingLabError(f"unknown check ids: {', '.join(unknown)}")
    corpus = None
    if args.corpus != "default":
        corpus = []
        for lineno, _, spec in _read_spec_file(args.corpus):
            if isinstance(spec, SpecParseError):
                raise RingLabError(f"{args.corpus}:{lineno}: {spec}")
            corpus.append(spec)
    checks = hn.run_all(corpus, ids)
    failed = False
    for chk in checks:
        print(f"{chk.id:<11} {chk.status:<11} {chk.detail}", file=out)
        if chk.status == "fail":
            failed = True
            spec_str, elements = chk.counterexample
            print(f"  counterexample: spec={spec_str} elements={elements}",
                  file=out)
    return 1 if failed else 0


def _cmd_census(args, out) -> int:
    if args.specs is None:
        rows = hn.census(hn.DEFAULT_CORPUS)
    else:  # a malformed line, like a ring that fails to build, is an error row
        rows = [hn.CensusRow(text, None, str(spec)) if isinstance(spec, SpecParseError)
                else hn.census([spec])[0] for _, text, spec in _read_spec_file(args.specs)]
    table = [_census_cells(row) for row in rows]
    if args.csv:  # quoted where a cell holds a comma, as in Ideal(Z4,2)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(table)
    else:
        header = CSV_HEADER.split(",")
        widths = [max(len(header[i]), *(len(r[i]) for r in table)) if table
                  else len(header[i]) for i in range(len(header))]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
        for cells in table:
            print("  ".join((c or "-").ljust(w)
                            for c, w in zip(cells, widths)), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Finite ring laboratory: classify rings, search "
                    "witnesses, verify corpus checks, run censuses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="property report for one ring")
    p.add_argument("spec", help="ring spec expression, e.g. 'M2(Z4)'")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--timings", action="store_true",
                   help="include wall time per decider")
    p.add_argument("--show-elements", action="store_true",
                   help="print the element index legend")
    p.add_argument("--max-order", type=int, default=None,
                   help="override the build size cap")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("witness", help="search one witness and show its trace")
    p.add_argument("spec", help="ring spec expression")
    p.add_argument("element", type=int, help="element index")
    p.add_argument("property", choices=_WITNESS_PROPS)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("verify", help="run the named checks over a corpus")
    p.add_argument("--props", default="all",
                   help="'all' or comma-separated check ids")
    p.add_argument("--corpus", default="default",
                   help="'default' or a file with one spec per line")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("census", help="classification table for many rings")
    p.add_argument("--specs", default=None,
                   help="file with one spec per line (default corpus if omitted)")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(run=_cmd_census)
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main()


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _FRAMES_PER_LEVEL * MAX_SPEC_DEPTH)
    try:
        code = args.run(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # as the Python signal docs advise: point stdout at devnull, so that
        # the flush at exit writes what is left there and raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OrderCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RingLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
