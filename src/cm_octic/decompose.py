"""Canonical decompositions p = a^2 + b^2 and p = c^2 + 8*d^2.

Both use Cornacchia's Euclidean descent, seeded with the canonical roots
from modular: i for a^2 + b^2, and 2*i*sqrt(2), whose square is -8, for
c^2 + 8*d^2.  Either root of -k yields the same descent.  Normalization
pins the two-square pair down to a unique signed (a, b): a odd, b even and
positive, a + b = 1 (mod 4).  The c^2 + 8*d^2 representation of a prime is
unique outright once c, d > 0.

The functions take the prime as a plain int n and its roots from the
caller, and check their results on plain ints: whatever roots they are
given, they return the unique pair or raise InvariantViolation.  The
residue class is guarded by the callers that make the roots: check_prime,
the scan's prime stream, which yields only p = 1 (mod 8), and
modular.canonical_i and canonical_sqrt2.
"""

from __future__ import annotations

from math import isqrt

from .errors import InvariantViolation


def _cornacchia(n: int, root: int, k: int) -> tuple[int, int]:
    # Cornacchia's descent for x^2 + k*y^2 = n, seeded with root^2 = -k (mod n):
    # run Euclid on (n, root) until the remainder drops to sqrt(n) or below.
    a, b = n, root
    bound = isqrt(n)
    while b > bound:
        a, b = b, a % b
    rest = n - b * b
    y2 = rest // k
    y = isqrt(y2)
    if rest % k or y * y != y2:
        raise InvariantViolation(f"descent for {n} = x^2 + {k}*y^2 left {rest}")
    return b, y


def two_squares(n: int, i: int) -> tuple[int, int]:
    """The canonical signed (a, b) with a^2 + b^2 = n for the prime n, from a
    root i of -1 mod n: a odd, b even and positive, a + b = 1 (mod 4)."""
    # Exactly one of x, y is odd for odd n; exactly one sign of the odd
    # member satisfies a + b = 1 (mod 4) once b > 0 is fixed.
    x, y = _cornacchia(n, i, 1)
    a, b = (x, y) if x % 2 else (y, x)
    if a % 4 != (1 - b) % 4:
        a = -a
    if a * a + b * b != n:
        raise InvariantViolation(f"{a}^2 + {b}^2 != {n}")
    if a % 2 == 0 or b % 2 != 0 or b <= 0 or (a + b) % 4 != 1:
        raise InvariantViolation(f"({a}, {b}) is not a canonical two-square pair for {n}")
    return a, b


def eight_decomposition(n: int, i: int, s: int) -> tuple[int, int]:
    """The unique (c, d) with c^2 + 8*d^2 = n and c, d > 0 for the prime
    n = 1 (mod 8), from roots i of -1 and s of 2 mod n."""
    # (2 i s)^2 = -8 seeds the descent.
    c, d = _cornacchia(n, 2 * i * s % n, 8)
    if c * c + 8 * d * d != n:
        raise InvariantViolation(f"{c}^2 + 8*{d}^2 != {n}")
    if c <= 0 or d <= 0:
        raise InvariantViolation(f"({c}, {d}) must be positive")
    return c, d


def _curve_order(n: int, a: int, b: int) -> int:
    # #E(F_p) for E: y^2 = x^3 - x, namely (a-1)^2 + b^2 = p + 1 - 2a.  The
    # two forms agree exactly when a^2 + b^2 = n, so comparing them checks
    # the pair once more.
    order = (a - 1) ** 2 + b * b
    if order != n + 1 - 2 * a:
        raise InvariantViolation(
            f"order mismatch for p={n}: (a-1)^2+b^2={order} but p+1-2a={n + 1 - 2 * a}"
        )
    return order
