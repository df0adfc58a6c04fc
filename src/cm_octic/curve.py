"""The curve E: y^2 = x^3 - x over F_p and its multiplication-by-(1+i) map.

E has complex multiplication by Z[i]: (x, y) -> (-x, i*y) realizes i.  The
degree-2 endomorphism eta = 1 + i, P -> P + [i]P, has kernel {O, (0,0)} and
drives everything here: preimage computations, the x-coordinate level sets
of its iterated kernels, and order bookkeeping via (a-1)^2 + b^2.

The group law is one integer core on plain residues (_add_int,
_scalar_mul_int), and group-law results are checked on the curve there.
eta, its preimages, the point sampler and the order-8 search run on it too
(_eta_int, _eta_preimages_int, _random_point_int, find_point_of_order).
The Point functions wrap these cores for the selftest and the tests, so
check, trace and scan build no Point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import _curve_order, two_squares
from .errors import InvariantViolation
from .modular import FieldElement, Prime, _jacobi, _roots_int, canonical_i, canonical_sqrt2, element

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
    """k*P on residues mod n; k may be negative.

    Left-to-right double-and-add with a Jacobian accumulator (X : Y : Z),
    x = X/Z^2 and y = Y/Z^3, so the loop inverts nothing; one inversion at
    the end makes the result affine (Hankerson, Menezes and Vanstone, Guide
    to Elliptic Curve Cryptography, 3.2.2).  O is (1 : 1 : 0).  Every step
    is checked on Y^2 = X^3 - X Z^4, which O satisfies too, and a step off
    it raises InvariantViolation, as _add_int does; the squares the check
    takes are the ones the next doubling needs.
    """
    if P is None or k == 0:
        return None
    x, y = P
    if k < 0:
        k, y = -k, -y % n
    X, Y, Z = x, y, 1
    XX, YY, ZZZZ = x * x % n, y * y % n, 1
    for bit in bin(k)[3:]:
        # Doubling, for a = -1: O when Y = 0 (2-torsion) or Z = 0 (O).
        if Y == 0 or Z == 0:
            X, Y, Z = 1, 1, 0
        else:
            S = 4 * X * YY % n
            M = (3 * XX - ZZZZ) % n
            X3 = (M * M - 2 * S) % n
            X, Y, Z = X3, (M * (S - X3) - 8 * YY * YY) % n, 2 * Y * Z % n
        if bit == "1":
            # Mixed addition of the affine (x, y).
            if Z == 0:
                X, Y, Z = x, y, 1
            else:
                ZZ = Z * Z % n
                H = (x * ZZ - X) % n
                r = (y * ZZ * Z - Y) % n
                if H == 0:
                    # The accumulator is (x, y), so the sum is its double,
                    # or it is -(x, y), so the sum is O.
                    D = _add_int((x, y), (x, y), n) if r == 0 else None
                    X, Y, Z = (1, 1, 0) if D is None else (D[0], D[1], 1)
                else:
                    HH = H * H % n
                    HHH = H * HH % n
                    V = X * HH % n
                    X3 = (r * r - HHH - 2 * V) % n
                    X, Y, Z = X3, (r * (V - X3) - Y * HHH) % n, Z * H % n
        XX, YY, ZZ = X * X % n, Y * Y % n, Z * Z % n
        ZZZZ = ZZ * ZZ % n
        if (YY - XX * X + X * ZZZZ) % n:
            raise InvariantViolation(
                f"{k} * ({x}, {y}) reached ({X} : {Y} : {Z}), which is not on "
                f"y^2 = x^3 - x over F_{n}"
            )
    if Z == 0:
        return None
    zi = pow(Z, -1, n)
    zi2 = zi * zi % n
    return X * zi2 % n, Y * zi2 * zi % n


def _eta_int(P: _Affine, n: int, i: int) -> _Affine:
    """eta(P) = P + [i]P on residues, where [i](x, y) = (-x, i*y)."""
    if P is None:
        return None
    return _add_int(P, (-P[0] % n, i * P[1] % n), n)


def _eta_preimages_int(Q: tuple[int, int], n: int, i: int) -> frozenset[tuple[int, int]]:
    """All affine P with eta(P) = Q on residues mod n; i is a root of -1.

    A non-square x0 = x(Q) has none.  Otherwise the candidate x solve
    x^2 - 2i*x0*x - 1 = 0, i.e. x = i*x0 +- sqrt(1 - x0^2), and 1 - x0^2
    must be a square: a non-residue raises InvariantViolation.  Every root
    taken is squared back, so each candidate is on the curve, and each one
    kept has eta(P) = Q, computed on _add_int.
    """
    x0 = Q[0]
    if _jacobi(x0, n) == -1:
        return frozenset()
    roots = _roots_int(1 - x0 * x0, n)
    if roots is None:
        raise InvariantViolation(
            f"1 - x0^2 is a non-residue at x0={x0} mod {n} despite x0 being a square"
        )
    found = set()
    for s in set(roots):
        x = (i * x0 + s) % n
        ys = _roots_int(x * x * x - x, n)
        if ys is None:
            continue
        for y in set(ys):
            if _eta_int((x, y), n, i) == Q:
                found.add((x, y))
    return frozenset(found)


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
    if P.is_infinity:
        return P
    p = P.x.modulus
    return _from_residues(_eta_int(_residues(P), p.value, canonical_i(p).residue), p)


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
    found = _eta_preimages_int(_residues(Q), p.value, canonical_i(p).residue)
    return frozenset(_from_residues(P, p) for P in found)


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


def _random_point_int(seed: int, n: int) -> tuple[int, int]:
    # Walk x = seed, seed+1, ... mod n until x^3 - x is a square, then take
    # the smaller root y.  x = 0 always works, so the walk terminates.
    x = seed % n
    while True:
        ys = _roots_int(x * x * x - x, n)
        if ys is not None:
            return x, ys[0]
        x = (x + 1) % n


def random_point(p: Prime, seed: int) -> Point:
    """Deterministic point sampler: walk x = seed, seed+1, ... until x^3 - x
    is a square, then take the canonical (smaller) y."""
    return _from_residues(_random_point_int(seed, p.value), p)


def find_point_of_order(p: Prime, seed: int = 0) -> tuple[int, int] | None:
    """Residues (x, y) of a point of exact order 8, or None if the samples find none.

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
        P = _random_point_int(x_seed, m)
        x_seed = P[0] + 1
        # S = odd_part * P lies in the 2-Sylow subgroup, so its doublings
        # reach O within v steps; chain holds S, 2S, 4S, ... before O.
        chain, R = [], _scalar_mul_int(odd_part, P, m)
        while R is not None:
            if len(chain) == v:
                raise InvariantViolation(f"S is not O after v2(#E) = {v} doublings mod {m}")
            chain.append(R)
            R = _add_int(R, R, m)
        if len(chain) >= 3:  # S has order 2^len(chain) >= 8
            T = chain[-3]
            if _scalar_mul_int(8, T, m) is not None or _scalar_mul_int(4, T, m) is None:
                raise InvariantViolation(
                    f"{2 ** (len(chain) - 3)} * S has no exact order 8 mod {m}, "
                    f"though S has order {2 ** len(chain)}"
                )
            return T
    return None
