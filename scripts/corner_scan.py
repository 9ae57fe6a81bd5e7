#!/usr/bin/env python3
"""Scan the corner rings eRe of a ring and classify each one.

Every idempotent e of the ambient ring yields a corner ring eRe with
unity e. The script lists each corner with its order and whether it is
weakly nil clean, which makes it easy to spot how the property passes
from a ring to its corners. The rows are ringlab.corner_verdicts, less e = 0.

Usage:
    python3 scripts/corner_scan.py "M2(Z2)" "T2(Z4)"
    python3 scripts/corner_scan.py --max-order 64   # default corpus
"""

import argparse
import sys

import ringlab as rl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="inventory of corner rings and their weak nil-clean "
                    "verdicts")
    parser.add_argument("specs", nargs="*",
                        help="ring expressions (default: built-in corpus)")
    parser.add_argument("--max-order", type=int, default=64,
                        help="skip ambient rings larger than this "
                             "(default 64)")
    args = parser.parse_args(argv)

    if args.specs:
        specs = [rl.parse_spec(text) for text in args.specs]
    else:
        specs = list(rl.DEFAULT_CORPUS)

    for spec in specs:
        order = rl.spec_order(spec)
        if not args.specs and order is not None and order > args.max_order:
            continue
        try:
            ring = rl.build_cached(spec)
        except rl.RingLabError as exc:
            print(f"{spec}: error: {exc}")
            continue
        if not ring.unital:
            print(f"{spec}: skipped (no unity)")
            continue
        ambient = rl.ring_weakly_nil_clean(ring)
        print(f"{spec}: order {ring.order}, weakly nil clean: {ambient}")
        for e, corder, wnc in rl.corner_verdicts(ring):
            if e == ring.zero:
                continue
            tag = "ambient unity" if e == ring.one else f"e={e}"
            print(f"    corner at {tag}: order {corder}, "
                  f"weakly nil clean: {wnc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
