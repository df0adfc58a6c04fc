"""Canonical decompositions p = a^2 + b^2 and p = c^2 + 8*d^2.

Both use Cornacchia's Euclidean descent seeded with a modular square root.
Normalization pins the two-square pair down to a unique signed (a, b):
a odd, b even and positive, a + b = 1 (mod 4).  The c^2 + 8*d^2
representation of a prime is unique outright once c, d > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InvariantViolation
from .modular import Prime, element, sqrt_mod


@dataclass(frozen=True)
class TwoSquares:
    """p = a^2 + b^2 with a odd (signed), b even and positive, a + b = 1 (mod 4)."""

    a: int
    b: int
    p: Prime

    def __post_init__(self) -> None:
        if self.a * self.a + self.b * self.b != self.p.value:
            raise InvariantViolation(
                f"{self.a}^2 + {self.b}^2 != {self.p.value}"
            )
        if self.a % 2 == 0 or self.b % 2 != 0 or self.b <= 0 or (self.a + self.b) % 4 != 1:
            raise InvariantViolation(
                f"({self.a}, {self.b}) is not a canonical two-square pair for {self.p.value}"
            )


@dataclass(frozen=True)
class EightDecomposition:
    """p = c^2 + 8*d^2 with c, d > 0."""

    c: int
    d: int
    p: Prime

    def __post_init__(self) -> None:
        if self.c * self.c + 8 * self.d * self.d != self.p.value:
            raise InvariantViolation(
                f"{self.c}^2 + 8*{self.d}^2 != {self.p.value}"
            )
        if self.c <= 0 or self.d <= 0:
            raise InvariantViolation(
                f"({self.c}, {self.d}) must be positive"
            )


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


def _normalized(p: Prime, x: int, y: int) -> TwoSquares:
    # Exactly one of x, y is odd for odd p; exactly one sign of the odd
    # member satisfies a + b = 1 (mod 4) once b > 0 is fixed.
    a, b = (x, y) if x % 2 else (y, x)
    if a % 4 != (1 - b) % 4:
        a = -a
    return TwoSquares(a=a, b=b, p=p)


def two_squares(p: Prime) -> TwoSquares:
    """The canonical signed pair with a^2 + b^2 = p; requires p = 1 (mod 4)."""
    if p.value % 4 != 1:
        raise ValueError(f"p = 1 (mod 4) required for a two-square decomposition, got {p.value}")
    roots = sqrt_mod(element(p, -1))
    assert roots is not None  # -1 is a square exactly when p = 1 (mod 4)
    # Either square root of -1 works; normalization makes the results agree.
    x, y = _cornacchia(p.value, roots[1].residue, 1)
    return _normalized(p, x, y)


def eight_decomposition(p: Prime) -> EightDecomposition:
    """The unique (c, d) with c^2 + 8*d^2 = p; requires p = 1 (mod 8)."""
    if p.residue_class != 1:
        raise ValueError(f"p = 1 (mod 8) required for c^2 + 8*d^2, got {p.value}")
    roots = sqrt_mod(element(p, -8))
    if roots is None:
        raise InvariantViolation(f"-8 unexpectedly a non-residue mod {p.value}")
    c, d = _cornacchia(p.value, roots[1].residue, 8)  # descend from the root above p/2
    return EightDecomposition(c=c, d=d, p=p)


def eight_decomposition_search(p: Prime) -> EightDecomposition:
    """Bounded direct search over d <= sqrt(p/8); the slow oracle path."""
    if p.residue_class != 1:
        raise ValueError(f"p = 1 (mod 8) required for c^2 + 8*d^2, got {p.value}")
    n = p.value
    for d in range(1, isqrt(n // 8) + 1):
        c2 = n - 8 * d * d
        c = isqrt(c2)
        if c * c == c2:
            return EightDecomposition(c=c, d=d, p=p)
    raise InvariantViolation(f"no c^2 + 8*d^2 representation found for {n}")


def curve_order_from_two_squares(t: TwoSquares) -> int:
    """#E(F_p) for E: y^2 = x^3 - x, namely (a-1)^2 + b^2 = p + 1 - 2a.

    Both forms are computed and compared; a mismatch would mean the sign
    normalization is broken.
    """
    n = (t.a - 1) ** 2 + t.b * t.b
    if n != t.p.value + 1 - 2 * t.a:
        raise InvariantViolation(
            f"order mismatch for p={t.p.value}: (a-1)^2+b^2={n} but p+1-2a={t.p.value + 1 - 2 * t.a}"
        )
    return n
