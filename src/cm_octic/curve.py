"""The curve E: y^2 = x^3 - x over F_p and its multiplication-by-(1+i) map.

E has complex multiplication by Z[i]: (x, y) -> (-x, i*y) realizes i.  The
degree-2 endomorphism eta = 1 + i, P -> P + [i]P, has kernel {O, (0,0)} and
drives everything here: preimage computations, the x-coordinate level sets
of its iterated kernels, and order bookkeeping via (a-1)^2 + b^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .decompose import _curve_order, two_squares
from .errors import InvariantViolation
from .modular import FieldElement, Prime, canonical_i, canonical_sqrt2, element, jacobi, sqrt_mod

NAIVE_COUNT_BOUND = 100_000
_SAMPLE_RETRIES = 64
_EXHAUSTIVE_BOUND = 10_000


@dataclass(frozen=True)
class Point:
    """A point of E(F_p): affine coordinates, or (None, None) for the identity.

    Build affine points through affine()/point() so the curve equation is
    checked at construction.
    """

    x: FieldElement | None
    y: FieldElement | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)


def affine(x: FieldElement, y: FieldElement) -> Point:
    if x.modulus != y.modulus:  # explicit, so python -O keeps the guard
        raise AssertionError("coordinates from different prime fields")
    if y * y != x * x * x - x:
        raise ValueError(
            f"({x.residue}, {y.residue}) is not on y^2 = x^3 - x over F_{x.modulus.value}"
        )
    return Point(x, y)


def point(p: Prime, x: int, y: int) -> Point:
    """Affine point from integer coordinates, reduced mod p and checked."""
    return affine(element(p, x), element(p, y))


def kernel(p: Prime) -> frozenset[Point]:
    """ker(eta) = {O, (0,0)}."""
    return frozenset({INFINITY, point(p, 0, 0)})


def negate(P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x, -P.y)


def add(P: Point, Q: Point) -> Point:
    """Chord-and-tangent addition."""
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


def scalar_mul(n: int, P: Point) -> Point:
    """n*P by double-and-add; n may be negative."""
    if n < 0:
        n, P = -n, negate(P)
    R = INFINITY
    while n:
        if n & 1:
            R = add(R, P)
        P = add(P, P)
        n >>= 1
    return R


def i_action(P: Point) -> Point:
    """The automorphism [i]: (x, y) -> (-x, i*y); fixes O and (0,0)."""
    if P.is_infinity:
        return P
    i = canonical_i(P.x.modulus)
    return affine(-P.x, i * P.y)


def eta_apply(P: Point) -> Point:
    """eta(P) = P + [i]P, the degree-2 endomorphism 1 + i."""
    return add(P, i_action(P))


def eta_x_via_slope(P: Point) -> FieldElement:
    """x(eta(P)) as the square of the chord slope: ((1-i) y / (2x))^2.

    Requires an affine P with x != 0; exposes why x(eta(P)) is always a
    square (or 0).
    """
    i = canonical_i(P.x.modulus)
    t = (1 - i) * P.y / (P.x * 2)
    return t * t


def eta_x_via_rational_map(P: Point) -> FieldElement:
    """x(eta(P)) in rational-map form: (x^2 - 1) / (2 i x); x != 0 required."""
    i = canonical_i(P.x.modulus)
    return (P.x * P.x - 1) / (i * P.x * 2)


def eta_y_via_slope(P: Point, x0: FieldElement) -> FieldElement:
    """y(eta(P)) = ((1-i) y / (2x)) (x - x0) - y, where x0 = x(eta(P))."""
    i = canonical_i(P.x.modulus)
    return (1 - i) * P.y / (P.x * 2) * (P.x - x0) - P.y


def eta_preimages(Q: Point, p: Prime | None = None) -> frozenset[Point]:
    """All P in E(F_p) with eta(P) = Q.

    For affine Q the set is nonempty exactly when x(Q) is a square mod p
    (0 included); when nonempty it has two elements differing by the
    kernel point (0,0).  Pass p explicitly when Q is the identity.
    """
    if Q.is_infinity:
        if p is None:
            raise ValueError("p is required to list the preimages of the identity")
        return kernel(p)
    p = Q.x.modulus
    x0 = Q.x
    if jacobi(x0.residue, p) == -1:
        return frozenset()
    # Candidate x solve x^2 - 2i*x0*x - 1 = 0, i.e. x = i*x0 +- sqrt(1 - x0^2).
    roots = sqrt_mod(1 - x0 * x0)
    if roots is None:
        raise InvariantViolation(
            f"1 - x0^2 is a non-residue at x0={x0.residue} mod {p.value} despite x0 being a square"
        )
    i = canonical_i(p)
    found: set[Point] = set()
    for s in set(roots):
        x = x0 * i + s
        ys = sqrt_mod(x * x * x - x)
        if ys is None:
            continue
        for y in set(ys):
            cand = affine(x, y)
            if eta_apply(cand) == Q:
                found.add(cand)
    return frozenset(found)


def eta_level_sets(p: Prime) -> tuple[frozenset[FieldElement], ...]:
    """Candidate x-coordinates of the iterated eta-kernels; requires p = 1 (mod 8).

    Entry k - 1 holds the x-values of points annihilated by eta^k but not
    eta^(k-1): {0}, {1, -1}, {i, -i}, {1+s, 1-s, -1+s, -1-s} with s^2 = 2.
    """
    if p.value % 8 != 1:
        raise ValueError(f"level sets need p = 1 (mod 8), got {p.value}")
    i = canonical_i(p)
    s = canonical_sqrt2(p)
    one = element(p, 1)
    return (
        frozenset({element(p, 0)}),
        frozenset({one, -one}),
        frozenset({i, -i}),
        frozenset({one + s, one - s, -one + s, -one - s}),
    )


def curve_order(p: Prime) -> int:
    """#E(F_p) = (a-1)^2 + b^2 from the canonical two-square pair."""
    return _curve_order(p.value, *two_squares(p))


def random_point(p: Prime, seed: int) -> Point:
    """Deterministic point sampler: walk x = seed, seed+1, ... until x^3 - x
    is a square, then take the canonical (smaller) y."""
    n = p.value
    x = seed % n
    while True:
        rhs = (x * x * x - x) % n
        if rhs == 0:
            return point(p, x, 0)
        if jacobi(rhs, p) == 1:
            return affine(element(p, x), sqrt_mod(element(p, rhs))[0])
        x = (x + 1) % n  # x = 0 always works, so the walk terminates


def all_points(p: Prime) -> Iterator[Point]:
    """Every point of E(F_p), identity first; guarded to p < 10^5."""
    if p.value >= NAIVE_COUNT_BOUND:
        raise ValueError(f"exhaustive enumeration is capped at p < {NAIVE_COUNT_BOUND}")
    yield INFINITY
    for x in range(p.value):
        xe = element(p, x)
        roots = sqrt_mod(xe * xe * xe - xe)
        if roots is None:
            continue
        lo, hi = roots
        yield Point(xe, lo)
        if hi != lo:
            yield Point(xe, hi)


def _has_exact_order(P: Point, k: int) -> bool:
    # k a power of two, k >= 2
    return scalar_mul(k, P).is_infinity and not scalar_mul(k // 2, P).is_infinity


def find_point_of_order(p: Prime, k: int, seed: int = 0) -> Point | None:
    """A point of exact order k, a power of two, or None if there is none.

    k must divide #E(F_p).  The group need not be cyclic (it never is here:
    the full 2-torsion is rational), so multiplying a sample by n/k can
    annihilate too much.  Instead, project a sample into the 2-Sylow
    subgroup, measure its order 2^t there, and when 2^t >= k scale it down
    to exact order k.  A bounded number of deterministic samples is tried;
    for p < 10^4 a miss falls back to exhaustive search, so None is then a
    certificate of absence.  For larger p, None after the sampling phase
    carries no proof of absence.
    """
    if k <= 0 or k & (k - 1):
        raise ValueError(f"order {k} is not a power of two")
    n = curve_order(p)
    if n % k != 0:
        raise ValueError(f"order {k} does not divide #E(F_p) = {n}")
    if k == 1:
        return INFINITY
    odd_part = n // (n & -n)
    x_seed = seed
    for _ in range(_SAMPLE_RETRIES):
        P = random_point(p, x_seed)
        x_seed = P.x.residue + 1
        S = scalar_mul(odd_part, P)
        T, order = S, 1
        while not T.is_infinity:
            T, order = add(T, T), order * 2
        if order >= k:
            T = scalar_mul(order // k, S)
            if _has_exact_order(T, k):
                return T
    if p.value < _EXHAUSTIVE_BOUND:
        for P in all_points(p):
            if _has_exact_order(P, k):
                return P
        return None
    return None  # probabilistic miss; no exhaustive certificate at this size
