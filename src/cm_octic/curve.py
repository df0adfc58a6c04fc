"""The curve E: y^2 = x^3 - x over F_p and its multiplication-by-(1+i) map.

E has complex multiplication by Z[i]: (x, y) -> (-x, i*y) realizes i.  The
degree-2 endomorphism eta = 1 + i, P -> P + [i]P, has kernel {O, (0,0)} and
drives everything here: preimage computations, the x-coordinate level sets
of its iterated kernels, and order bookkeeping via (a-1)^2 + b^2.

The group law is one integer core on plain residues (_add_int,
_scalar_mul_int), and group-law results are checked on the curve there.
add and scalar_mul wrap it for Point operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import _curve_order, two_squares
from .errors import InvariantViolation
from .modular import FieldElement, Prime, canonical_i, canonical_sqrt2, element, jacobi, sqrt_mod

_SAMPLE_RETRIES = 64

# An affine point as its residues (x, y) mod p, or None for the identity O.
_Affine = tuple[int, int] | None


@dataclass(frozen=True)
class Point:
    """A point of E(F_p): affine coordinates, or (None, None) for the identity.

    Build affine points through affine()/point() so the curve equation is
    checked at construction.  Group-law results are checked on the curve in
    the integer core, which raises InvariantViolation for one that is off it.
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


def _add_int(P: _Affine, Q: _Affine, n: int) -> _Affine:
    """Chord-and-tangent addition on residues mod n; None is the identity.

    Every sum is checked on y^2 = x^3 - x.  A sum off the curve means an
    operand was off it or the formulas are wrong; either is a bug, not a
    property of n, so it raises InvariantViolation.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 != y2 or y1 == 0:
            return None
        s = (3 * x1 * x1 - 1) * pow(2 * y1, -1, n) % n
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, n) % n
    x3 = (s * s - x1 - x2) % n
    y3 = (s * (x1 - x3) - y1) % n
    if (y3 * y3 - x3 * x3 * x3 + x3) % n:
        raise InvariantViolation(
            f"({x1}, {y1}) + ({x2}, {y2}) = ({x3}, {y3}) is not on y^2 = x^3 - x over F_{n}"
        )
    return x3, y3


def _scalar_mul_int(k: int, P: _Affine, n: int) -> _Affine:
    """k*P by double-and-add on residues mod n; k may be negative."""
    if P is None:
        return None
    if k < 0:
        k, P = -k, (P[0], -P[1] % n)
    R = None
    while k:
        if k & 1:
            R = _add_int(R, P, n)
        k >>= 1
        if k:
            P = _add_int(P, P, n)
    return R


def _residues(P: Point) -> _Affine:
    return None if P.is_infinity else (P.x.residue, P.y.residue)


def _from_residues(R: _Affine, p: Prime) -> Point:
    # R comes from the integer core, which has checked it on the curve.
    if R is None:
        return INFINITY
    return Point(FieldElement(R[0], p), FieldElement(R[1], p))


def add(P: Point, Q: Point) -> Point:
    """Chord-and-tangent addition."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x.modulus != Q.x.modulus:  # explicit, so python -O keeps the guard
        raise AssertionError("points on curves over different fields")
    p = P.x.modulus
    return _from_residues(_add_int(_residues(P), _residues(Q), p.value), p)


def scalar_mul(n: int, P: Point) -> Point:
    """n*P by double-and-add; n may be negative."""
    if P.is_infinity:
        return INFINITY
    p = P.x.modulus
    return _from_residues(_scalar_mul_int(n, _residues(P), p.value), p)


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
        ys = sqrt_mod(element(p, x * x * x - x))
        if ys is not None:
            return affine(element(p, x), ys[0])
        x = (x + 1) % n  # x = 0 always works, so the walk terminates


def find_point_of_order(p: Prime, seed: int = 0) -> Point | None:
    """A point of exact order 8, or None if the samples find none.

    32 | #E(F_p) is required.  For p = 1 (mod 4), E(F_p) is isomorphic to
    Z[i]/(pi - 1), whose 2-part is Z/2^ceil(k/2) x Z/2^floor(k/2) with
    2^k || n, so a point of order 8 exists exactly when 32 | n.  The group
    is never cyclic here (the full 2-torsion is rational), so multiplying a
    sample by n/8 can annihilate too much.  Instead, project a sample into
    the 2-Sylow subgroup, measure its order 2^t there, and when 2^t >= 8
    scale it down to exact order 8.  _SAMPLE_RETRIES samples are taken,
    walking x up from seed; None after them is no proof of absence.
    """
    n = curve_order(p)
    if n % 32:
        raise ValueError(f"no point of order 8 unless 32 divides #E(F_p) = {n}")
    v = (n & -n).bit_length() - 1  # 2^v || n
    odd_part = n >> v
    m = p.value
    x_seed = seed
    for _ in range(_SAMPLE_RETRIES):
        P = random_point(p, x_seed)
        x_seed = P.x.residue + 1
        # S = odd_part * P lies in the 2-Sylow subgroup, so its doublings
        # reach O within v steps; chain holds S, 2S, 4S, ... before O.
        chain, R = [], _scalar_mul_int(odd_part, _residues(P), m)
        while R is not None:
            if len(chain) == v:
                raise InvariantViolation(f"S is not O after v2(#E) = {v} doublings mod {m}")
            chain.append(R)
            R = _add_int(R, R, m)
        if len(chain) >= 3:  # S has order 2^len(chain) >= 8
            T = point(p, *chain[-3])
            if not scalar_mul(8, T).is_infinity or scalar_mul(4, T).is_infinity:
                raise InvariantViolation(
                    f"{2 ** (len(chain) - 3)} * S has no exact order 8 mod {m}, "
                    f"though S has order {2 ** len(chain)}"
                )
            return T
    return None
