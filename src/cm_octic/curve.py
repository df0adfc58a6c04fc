"""The curve E: y^2 = x^3 - x over F_p and its multiplication-by-(1+i) map.

E has complex multiplication by Z[i]: (x, y) -> (-x, i*y) realizes i.  The
degree-2 endomorphism eta = 1 + i, P -> P + [i]P, has kernel {O, (0,0)} and
drives everything here: preimage computations, the x-coordinate level sets
of its iterated kernels, and order bookkeeping via (a-1)^2 + b^2.

Points are plain residues: (x, y) mod p, or None for the identity O.  The
group law is one integer core (_add_int, _scalar_mul_int) that checks
every result on the curve.  eta, its preimages and the order-8 search run
on it (_eta_int, eta_preimages, find_point_of_order), and so do the
selftest and proof_trace.  The preimages come per x, both fibers above it
at once; the level-4 points come without a square root (_level4_roots);
the search walks x and decides most samples by 2-descent on x alone
(_descent_rejects), taking a root y only for the sample it projects.  The level
sets are residues too, from roots i and sqrt(2) that their caller passes
in and eta_level_sets squares back.  The prime is a plain int n here, its
root of -1 comes from the caller, and so does #E for the order-8 search:
proof_trace derives it once with curve_order and passes it on.
"""

from __future__ import annotations

from .decompose import _curve_order, two_squares
from .errors import InvariantViolation
from .modular import jacobi, sqrt_mod

_SAMPLE_RETRIES = 64

# An affine point as its residues (x, y) mod p, or None for the identity O.
_Affine = tuple[int, int] | None


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


def eta_preimages(x0: int, n: int, i: int) -> frozenset[tuple[int, int]]:
    """All P with x(eta(P)) = x0, for the x0 of an affine point mod n; i is a
    root of -1.

    The x-map of eta is x -> (x^2 - 1)/(2ix), so the P lie above the roots of
    x^2 - 2i*x0*x - 1 = 0, i.e. x = i*x0 +- sqrt(1 - x0^2).  The set is
    nonempty exactly when x0 is a square mod n (0 included), and then it is
    the union of the fibers over (x0, y0) and (x0, -y0), two points each,
    differing by (0,0); the caller sorts the P into them by eta(P).  A
    non-residue 1 - x0^2 under a square x0 raises InvariantViolation.  Every
    root taken is squared back, so each P is on the curve.
    """
    if jacobi(x0, n) == -1:
        return frozenset()
    roots = sqrt_mod(1 - x0 * x0, n)
    if roots is None:
        raise InvariantViolation(
            f"1 - x0^2 is a non-residue at x0={x0} mod {n} despite x0 being a square"
        )
    found = set()
    for s in set(roots):
        x = (i * x0 + s) % n
        found.update((x, y) for y in set(sqrt_mod(x * x * x - x, n) or ()))
    return frozenset(found)


def _level4_roots(x: int, n: int, i: int) -> tuple[int, int]:
    """Both y above a level-4 x = +-1 +- sqrt(2) mod n, smaller first, with no
    square root taken: x^3 - x is (x + 1)^2 when (x - 1)^2 = 2, and
    (i(x - 1))^2 when (x + 1)^2 = 2.  A y off the curve raises InvariantViolation.
    """
    y = (x + 1 if (x - 1) * (x - 1) % n == 2 else i * (x - 1)) % n
    if (y * y - x * x * x + x) % n:
        raise InvariantViolation(f"({x}, {y}) is not on y^2 = x^3 - x over F_{n}")
    return min(y, n - y), max(y, n - y)


def eta_level_sets(n: int, i: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Candidate x-coordinates of the iterated eta-kernels mod the prime
    n = 1 (mod 8), from roots i of -1 and s of 2; each level sorted.

    Entry k - 1 holds the x-values of points annihilated by eta^k but not
    eta^(k-1): {0}, {1, -1}, {i, -i}, {1+s, 1-s, -1+s, -1-s}.  A root that
    does not square back raises InvariantViolation.
    """
    if n % 8 != 1:
        raise ValueError(f"level sets need p = 1 (mod 8), got {n}")
    if (i * i + 1) % n or (s * s - 2) % n:
        raise InvariantViolation(f"({i}, {s}) are not square roots of (-1, 2) mod {n}")
    return (
        (0,),
        (1, n - 1),
        tuple(sorted({i % n, -i % n})),
        tuple(sorted({(1 + s) % n, (1 - s) % n, (s - 1) % n, (-1 - s) % n})),
    )


def curve_order(n: int, i: int) -> int:
    """#E(F_n) = (a-1)^2 + b^2 from the canonical two-square pair of the
    prime n = 1 (mod 4), for a root i of -1 mod n."""
    return _curve_order(n, *two_squares(n, i))


def _descent_rejects(x: int, v: int, n: int) -> bool:
    """Whether the 2-part of a sample above x has order < 8, decided from x
    alone when 2^v || #E(F_n) with v = 5 or 6; False, undecided, for v >= 7.

    The 2-part is Z[i]/(1+i)^v; order < 8 means killed by 4 = -(1+i)^4.  At
    v = 5 those points are eta(E), the x that are squares (0 included).  At
    v = 6 they are 2E: by 2-descent, x, x - 1 and x + 1 all squares (Knapp,
    Elliptic Curves, Thm 4.2; Silverman, AEC X.1).
    """
    if v == 5:
        return jacobi(x, n) != -1
    if v == 6:
        return -1 not in (jacobi(x - 1, n), jacobi(x, n), jacobi(x + 1, n))
    return False


def find_point_of_order(n: int, order: int, seed: int = 0) -> tuple[int, int] | None:
    """Residues (x, y) of a point of exact order 8 mod the prime n, or None
    if the samples find none; order is #E(F_n), from the caller.

    32 | order is required.  For n = 1 (mod 4), E(F_n) is isomorphic to
    Z[i]/(pi - 1), whose 2-part is Z/2^ceil(k/2) x Z/2^floor(k/2) with
    2^k || order, so a point of order 8 exists exactly when 32 | order.  The
    group is never cyclic here (the full 2-torsion is rational), so
    multiplying a sample by order/8 can annihilate too much.  Instead,
    project a sample into the 2-Sylow subgroup, measure its order 2^t there,
    and when 2^t >= 8 scale it down to exact order 8.  For 2^5 or 2^6 || order
    _descent_rejects decides each sample from x alone, and only the sample
    that succeeds is projected.  _SAMPLE_RETRIES samples are taken: the walk
    goes x = seed, seed + 1, ... mod n, a sample is each x with x^3 - x a
    square (0 included), and its point is (x, y) with y the smaller root.
    None after them is no proof of absence.
    """
    if order % 32:
        raise ValueError(f"no point of order 8 unless 32 divides #E(F_p) = {order}")
    v = (order & -order).bit_length() - 1  # 2^v || order
    odd_part = order >> v
    x = (seed - 1) % n
    for _ in range(_SAMPLE_RETRIES):
        # The next sample: walk x up until x^3 - x is a square; x = 0 ends it.
        x = (x + 1) % n
        while jacobi(x * x * x - x, n) == -1:
            x = (x + 1) % n
        if _descent_rejects(x, v, n):
            continue
        P = x, sqrt_mod(x * x * x - x, n)[0]
        # S = odd_part * P lies in the 2-Sylow subgroup, so its doublings
        # reach O within v steps; chain holds S, 2S, 4S, ... before O.
        chain, R = [], _scalar_mul_int(odd_part, P, n)
        while R is not None:
            if len(chain) == v:
                raise InvariantViolation(f"S is not O after v2(#E) = {v} doublings mod {n}")
            chain.append(R)
            R = _add_int(R, R, n)
        if len(chain) >= 3:  # S has order 2^len(chain) >= 8
            T = chain[-3]
            if _scalar_mul_int(8, T, n) is not None or _scalar_mul_int(4, T, n) is None:
                raise InvariantViolation(
                    f"{2 ** (len(chain) - 3)} * S has no exact order 8 mod {n}, "
                    f"though S has order {2 ** len(chain)}"
                )
            return T
    return None
