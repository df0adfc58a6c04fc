"""Shared test oracles.

Everything here is deliberately naive and independent of the package's own
algorithms: trial division instead of Miller-Rabin, double loops instead of
Tonelli-Shanks or Cornacchia, full-box enumeration instead of pruned walks.
Frozen expected values in the tests were produced by these oracles.  The
oracles that `cm-octic selftest` also needs live in cm_octic.selftest and
are re-exported here.
"""

from __future__ import annotations

from math import isqrt

from cm_octic.selftest import (  # noqa: F401  (re-exported to the tests)
    box_class_number,
    curve_points_oracle,
    eight_decomposition_search,
    first_principles_chi,
    naive_point_count,
    squares_mod,
    trial_division_primes,
)


def brute_two_squares(p: int) -> tuple[int, int]:
    """The canonical (a, b) with a^2 + b^2 = p, by exhaustive search.

    Normalization re-derived from scratch: b is the even member, taken
    positive; the sign of odd a is fixed by a + b = 1 (mod 4).
    """
    for x in range(1, isqrt(p) + 1):
        y2 = p - x * x
        y = isqrt(y2)
        if y * y == y2:
            a, b = (x, y) if x % 2 else (y, x)
            for cand in (a, -a):
                if (cand + b) % 4 == 1:
                    return cand, b
    raise AssertionError(f"{p} is not a sum of two squares")
