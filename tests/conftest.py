"""Shared test oracles.

Everything here is deliberately naive and independent of the package's own
algorithms: trial division or a strong-probable-prime test on other bases
instead of the package's Miller-Rabin, double loops instead of
Tonelli-Shanks or Cornacchia, full-box enumeration instead of pruned walks.
Frozen expected values in the tests were produced by these oracles.  The
oracles that `cm-octic selftest` also needs live in cm_octic.selftest and
are re-exported here.
"""

from __future__ import annotations

import io
from math import isqrt

from cm_octic.criteria import Certificate
from cm_octic.curve import INFINITY, Point, affine, negate
from cm_octic.harness import ScanConfig, ScanReport, certificate_from_csv_row, write_scan_csv
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


_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sprp_prime_bases(n: int) -> bool:
    """Primality by the strong-probable-prime test to the first 12 prime bases.

    Exact for every n below 3.3 * 10**24 (Sorenson & Webster 2015), so it
    decides every modulus the package accepts; of is_prime's bases it
    shares only 2.
    """
    if n < 2:
        return False
    for q in _SPRP_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_add_oracle(P: Point, Q: Point) -> Point:
    """Chord-and-tangent addition in FieldElement arithmetic.

    Independent of the package's group law, which runs on plain integers.
    """
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x.modulus != Q.x.modulus:  # explicit, so python -O keeps the guard
        raise AssertionError("points on curves over different fields")
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if y1 != y2 or y1.residue == 0:
            return INFINITY
        s = (x1 * x1 * 3 - 1) / (y1 * 2)
    else:
        s = (y2 - y1) / (x2 - x1)
    x3 = s * s - x1 - x2
    y3 = s * (x1 - x3) - y1
    return affine(x3, y3)


def field_scalar_mul_oracle(n: int, P: Point) -> Point:
    """n*P by double-and-add over field_add_oracle; n may be negative."""
    if n < 0:
        n, P = -n, negate(P)
    R = INFINITY
    while n:
        if n & 1:
            R = field_add_oracle(R, P)
        P = field_add_oracle(P, P)
        n >>= 1
    return R


def streamed_scan(config: ScanConfig) -> tuple[ScanReport, list[Certificate]]:
    """A scan's report and its certificates, read back from the CSV rows it streamed."""
    buf = io.StringIO()
    report = write_scan_csv(config, buf)
    rows = buf.getvalue().splitlines()[1:]
    return report, [certificate_from_csv_row(row) for row in rows]
