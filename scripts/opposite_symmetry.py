#!/usr/bin/env python3
"""Compare weak nil-clean behavior between a ring and its opposite.

For every element of each requested ring the script decides whether a
weakly nil clean decomposition exists, does the same in the opposite
ring, and tabulates how often the two answers agree. Disagreement would
mean the property is sensitive to the side multiplication is read from.
Each row is ringlab.opposite_agreement, which the Q_SYMMETRY check sums.

Usage:
    python3 scripts/opposite_symmetry.py            # default corpus
    python3 scripts/opposite_symmetry.py Z12 "T2(Z4)" "M2(Z3)"
"""

import argparse
import sys

import ringlab as rl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="elementwise symmetry of weak nil-cleanness under "
                    "opposite rings")
    parser.add_argument("specs", nargs="*",
                        help="ring expressions (default: built-in corpus)")
    args = parser.parse_args(argv)

    if args.specs:
        specs = [rl.parse_spec(text) for text in args.specs]
    else:
        specs = [s for s in rl.DEFAULT_CORPUS if rl.spec_order(s) is None
                 or rl.spec_order(s) <= rl.BRUTE_ORDER_LIMIT]

    width = max(len(str(s)) for s in specs)
    print(f"{'ring':<{width}}  {'order':>5}  {'wnc':>5}  {'agree':>7}")
    total_agree = 0
    total_order = 0
    for spec in specs:
        try:
            ring = rl.build_cached(spec)
            agree, certified = rl.opposite_agreement(ring)
        except rl.RingLabError as exc:
            print(f"{str(spec):<{width}}  error: {exc}")
            continue
        total_agree += agree
        total_order += ring.order
        print(f"{str(spec):<{width}}  {ring.order:>5}  {certified:>5}  "
              f"{agree}/{ring.order}")
    if total_order:
        pct = 100.0 * total_agree / total_order
        print(f"\noverall agreement: {total_agree}/{total_order} ({pct:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
