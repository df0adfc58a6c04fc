#!/usr/bin/env python3
"""Render the structural argument behind the curve criterion at one prime.

Walks what `cm-octic check --trace` records, in readable form: the quadratic
character of 1 + sqrt2 and its conjugate, the four candidate x-coordinates
+-1 +- sqrt2 of the level-4 kernel points, how many 1+i preimages each
rational point above them has, and (when 32 | #E) the 1+i orbit of a point
of order 8 landing back in that x-set.
"""

import argparse

from cm_octic.criteria import proof_trace
from cm_octic.modular import Prime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("p", type=int, help="a prime = 1 (mod 8)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    tr = proof_trace(Prime(args.p), seed=args.seed)
    print(f"p = {tr.p}:  chi(1+sqrt2) = {tr.chi:+d}, conjugate symbol = "
          f"{tr.chi_conjugate:+d}, product = {tr.chi * tr.chi_conjugate:+d} "
          f"(must be +1)")
    print(f"#E(F_p) = {tr.n} = {tr.n_mod_32} (mod 32)")
    print(f"level-4 x candidates (+-1 +- sqrt2): {list(tr.level4_x)}")
    for fib in tr.fibers:
        tag = "square" if fib.x_is_square else "non-square"
        if fib.points:
            pts = ", ".join(f"({x},{y})#{c}" for (x, y), c
                            in zip(fib.points, fib.preimage_counts))
            print(f"  x = {fib.x:>6} [{tag}]  points and preimage counts: {pts}")
        else:
            print(f"  x = {fib.x:>6} [{tag}]  no rational point")
    if tr.order8_applicable:
        print(f"order-8 point: {tr.order8_point}; orbit x-coordinates under 1+i: "
              f"{tr.orbit_x}; landed on {tr.orbit_landed_x} "
              f"({'square' if tr.orbit_landed_is_square else 'non-square'})")
    else:
        print("32 does not divide #E, so no order-8 orbit step applies")
    print(f"trace consistent: {tr.consistent}")
    return 0 if tr.consistent else 2


if __name__ == "__main__":
    raise SystemExit(main())
