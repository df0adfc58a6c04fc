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
    ETA_PRIMES,
    curve_points_oracle,
    first_principles_chi,
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


def brute_eight(p: int) -> tuple[int, int]:
    """The unique (c, d) with c^2 + 8 d^2 = p, c, d > 0, by exhaustive search."""
    for d in range(1, isqrt(p // 8) + 1):
        c2 = p - 8 * d * d
        c = isqrt(c2)
        if c * c == c2:
            return c, d
    raise AssertionError(f"{p} has no c^2 + 8 d^2 representation")


def box_class_number(p: int) -> int:
    """h(-4p) by enumerating the full (a, b, c) box with no early pruning."""
    disc = -4 * p
    count = 0
    for a in range(1, isqrt(-disc // 3) + 2):
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # the mirror form is the reduced representative
            g = _gcd3(a, abs(b), c)
            if g != 1:
                continue
            count += 1
    return count


def _gcd3(a: int, b: int, c: int) -> int:
    from math import gcd

    return gcd(a, gcd(b, c))
