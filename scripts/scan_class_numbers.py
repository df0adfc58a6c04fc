#!/usr/bin/env python3
"""Scan the class-number chain and print the h(-4p) mod 8 histogram by character.

Verifies chi(1 + sqrt2) = +1 <=> d even <=> h(-4p) = 0 (mod 8) over a prime
range, where p = c^2 + 8 d^2.  The histogram makes the split visible: the
h mod 8 residues that occur for chi = +1 are disjoint from those for chi = -1.
Each class number costs about sqrt(p) steps.
"""

import argparse
import sys
from collections import Counter

from cm_octic.harness import ScanConfig, scan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--from", dest="lo", type=int, default=0)
    ap.add_argument("--to", dest="hi", type=int, default=10**5)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    report = scan(ScanConfig(lo=args.lo, hi=args.hi,
                             class_number_cap=args.hi, jobs=args.jobs))
    hist: dict[int, Counter] = {1: Counter(), -1: Counter()}
    for cert in report.certificates:
        hist[cert.chi][cert.h % 8] += 1

    print(f"checked {report.primes_checked} primes in [{args.lo}, {args.hi}) "
          f"in {report.timing:.2f}s")
    for chi in (1, -1):
        rows = ", ".join(f"h%8={r}: {c}" for r, c in sorted(hist[chi].items()))
        print(f"  chi = {chi:+d}:  {rows or 'none'}")
    print(f"  counterexamples: {len(report.counterexamples)}")
    for cert in report.counterexamples:
        print(f"    p={cert.p}: chi={cert.chi}, d={cert.d}, h={cert.h}")

    if report.errors:
        for err in report.errors:
            print(f"invariant violation at p={err.p} [{err.stage}]: {err.message}",
                  file=sys.stderr)
        return 3
    return 2 if report.counterexamples else 0


if __name__ == "__main__":
    raise SystemExit(main())
