"""Shared test oracles.

Everything here is deliberately naive and independent of the package's own
algorithms: trial division or a strong-probable-prime test to twelve bases
instead of the package's Baillie-PSW test, Euler's criterion instead of its
binary Jacobi symbol, double loops instead of Tonelli-Shanks or
Cornacchia, full-box enumeration instead of pruned walks.
Frozen expected values in the tests were produced by these oracles.  The
oracles that `cm-octic selftest` also needs live in cm_octic.selftest and
are re-exported here.  FieldElement, the F_p arithmetic of the curve and
proof-trace oracles, lives here too: the package runs on plain residues
and has no use for it.  So does nonresidue_by_jacobi, the search for the
least non-residue that the package's reciprocity table replaced, and so
does order8_walk_oracle, the order-8 search that projects every sample,
against which the package's search, which rejects most samples by
2-descent, is compared.  Its x-walk, walk_point, is the tests' source of
curve points and shares no code with the package's walk.
"""

from __future__ import annotations

import io
import os
import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import cm_octic
from cm_octic.criteria import Certificate, LevelFourFiber, ProofTrace
from cm_octic.curve import _SAMPLE_RETRIES, _add_int, _scalar_mul_int, curve_order
from cm_octic.harness import ScanConfig, ScanReport, write_scan_csv
from cm_octic.modular import canonical_i, canonical_sqrt2, jacobi, sqrt_mod
from cm_octic.selftest import (  # noqa: F401  (re-exported to the tests)
    box_class_number,
    curve_points_oracle,
    eight_decomposition_search,
    first_principles_chi,
    naive_point_count,
    squares_mod,
    trial_division_primes,
)


def package_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this cm_octic."""
    src = str(Path(cm_octic.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def nonresidue_by_jacobi(n: int) -> int:
    """The least quadratic non-residue mod the odd prime n, by the Jacobi
    symbol of 2 and then of each odd z in turn: the loop the package's
    reciprocity table replaces for n = 1 (mod 8)."""
    if n % 8 in (3, 5):
        return 2
    z = 3
    while jacobi(z, n) != -1:
        z += 2
    return z


def euler_criterion(u: int, p: int) -> int:
    """The Legendre symbol (u | p) for an odd prime p, by Euler's criterion:
    u^((p-1)/2) mod p is 1, p - 1 or 0.  The tests' quadratic-character
    oracle, which shares nothing with the package's binary Jacobi symbol."""
    e = pow(u, (p - 1) // 2, p)
    if e not in (0, 1, p - 1):
        raise AssertionError(f"Euler's criterion returned {e} mod {p}")
    return -1 if e == p - 1 else e


def seeded_primes(count: int, bits: int, seed: int, residue: int = 1) -> list[int]:
    """count primes = residue (mod 8) of the given bit size, from random.Random(seed)."""
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        q = rng.randrange(1 << (bits - 1), 1 << bits) >> 3 << 3 | residue
        if q >> (bits - 1) and sprp_prime_bases(q):
            out.append(q)
    return out


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
    decides every modulus the package accepts.  With is_prime's Baillie-PSW
    test it shares only the strong test to base 2.
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


def strong_lucas_by_matrix(n: int) -> bool:
    """The strong Lucas probable-prime test of the odd n > 2 with Selfridge's
    parameters, from the definition.

    A square fails.  Otherwise D is the first of 5, -7, 9, -11, ... with
    Jacobi symbol (D | n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d * 2^s,
    d odd, n passes when U_d = 0 or V_(d * 2^r) = 0 (mod n) for some r < s.
    U_d and U_(d+1) come from the d-th power of the matrix [[P, -Q], [1, 0]],
    V_d = 2U_(d+1) - P U_d, and V_2k = V_k^2 - 2Q^k: no halving and no
    addition formula.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def times(x, y):
        return tuple(tuple(sum(a * b for a, b in zip(row, col)) % n for col in zip(*y))
                     for row in x)

    # [[U_(k+1), -Q U_k], [U_k, -Q U_(k-1)]] = [[1, -Q], [1, 0]]^k.
    power, base, k = ((1, 0), (0, 1)), ((1, -Q), (1, 0)), d
    while k:
        if k & 1:
            power = times(power, base)
        base = times(base, base)
        k >>= 1
    u_next, u = power[0][0], power[1][0]
    if u == 0:
        return True
    v, qk = (2 * u_next - u) % n, pow(Q, d, n)
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


@dataclass(frozen=True)
class FieldElement:
    """A residue in [0, p) tied to its prime modulus.

    Arithmetic never mixes moduli; doing so is a programming error and
    raises AssertionError explicitly (so the guard survives python -O),
    not a recoverable exception.  Plain ints coerce into the field of the
    other operand.
    """

    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue {self.residue} out of range for modulus {self.modulus}"
            )

    def _coerce(self, other: FieldElement | int) -> int:
        if isinstance(other, FieldElement):
            if self.modulus != other.modulus:
                raise AssertionError("operands from different prime fields")
            return other.residue
        return other % self.modulus

    def __add__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement((self.residue + self._coerce(other)) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement((self.residue - self._coerce(other)) % self.modulus, self.modulus)

    def __rsub__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement((self._coerce(other) - self.residue) % self.modulus, self.modulus)

    def __mul__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement(self.residue * self._coerce(other) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.residue % self.modulus, self.modulus)

    def inverse(self) -> FieldElement:
        return FieldElement(pow(self.residue, -1, self.modulus), self.modulus)

    def __truediv__(self, other: FieldElement | int) -> FieldElement:
        if isinstance(other, int):
            other = element(self.modulus, other)
        if self.modulus != other.modulus:
            raise AssertionError("operands from different prime fields")
        return self * other.inverse()


def element(p: int, value: int) -> FieldElement:
    """Reduce an arbitrary integer into F_p."""
    return FieldElement(value % p, p)


# A point of E(F_p) in the FieldElement oracle: (x, y), or None for O.
FieldPoint = tuple[FieldElement, FieldElement] | None


def field_affine(x: FieldElement, y: FieldElement) -> tuple[FieldElement, FieldElement]:
    """The affine point (x, y), checked on y^2 = x^3 - x."""
    if y * y != x * x * x - x:
        raise ValueError(
            f"({x.residue}, {y.residue}) is not on y^2 = x^3 - x over F_{x.modulus}"
        )
    return x, y


def field_point(p: int, x: int, y: int) -> tuple[FieldElement, FieldElement]:
    """The affine point (x mod p, y mod p), checked on the curve."""
    return field_affine(element(p, x), element(p, y))


def residues(P: FieldPoint) -> tuple[int, int] | None:
    """An oracle point as the package's residue pair, None for O."""
    return None if P is None else (P[0].residue, P[1].residue)


def field_add_oracle(P: FieldPoint, Q: FieldPoint) -> FieldPoint:
    """Chord-and-tangent addition in FieldElement arithmetic.

    Independent of the package's group law, which runs on plain integers.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1.modulus != x2.modulus:  # explicit, so python -O keeps the guard
        raise AssertionError("points on curves over different fields")
    if x1 == x2:
        if y1 != y2 or y1.residue == 0:
            return None
        s = (x1 * x1 * 3 - 1) / (y1 * 2)
    else:
        s = (y2 - y1) / (x2 - x1)
    x3 = s * s - x1 - x2
    y3 = s * (x1 - x3) - y1
    return field_affine(x3, y3)


def field_scalar_mul_oracle(n: int, P: FieldPoint) -> FieldPoint:
    """n*P by double-and-add over field_add_oracle; n may be negative."""
    if n < 0:
        n, P = -n, None if P is None else (P[0], -P[1])
    R = None
    while n:
        if n & 1:
            R = field_add_oracle(R, P)
        P = field_add_oracle(P, P)
        n >>= 1
    return R


def field_sqrt(a: FieldElement) -> tuple[FieldElement, FieldElement] | None:
    """sqrt_mod's two roots of a as field elements, None for a non-residue."""
    roots = sqrt_mod(a.residue, a.modulus)
    return None if roots is None else (element(a.modulus, roots[0]), element(a.modulus, roots[1]))


def field_eta_oracle(P: FieldPoint) -> FieldPoint:
    """eta(P) = P + [i]P over field_add_oracle, where [i](x, y) = (-x, i*y)."""
    if P is None:
        return None
    x, y = P
    return field_add_oracle(P, field_affine(-x, canonical_i(x.modulus) * y))


def field_eta_preimages_oracle(Q: tuple[FieldElement, FieldElement]) -> frozenset[FieldPoint]:
    """The P with eta(P) = Q for an affine Q, in FieldElement arithmetic.

    The candidate x solve x^2 - 2i*x0*x - 1 = 0, i.e.
    x = i*x0 +- sqrt(1 - x0^2); each is kept when eta maps it back to Q.
    """
    x0 = Q[0]
    p = x0.modulus
    if jacobi(x0.residue, p) == -1:
        return frozenset()
    roots = field_sqrt(1 - x0 * x0)
    if roots is None:
        raise AssertionError(f"1 - x0^2 is a non-residue at x0={x0.residue} mod {p}")
    i = canonical_i(p)
    found: set[FieldPoint] = set()
    for s in set(roots):
        x = x0 * i + s
        ys = field_sqrt(x * x * x - x)
        if ys is None:
            continue
        for y in set(ys):
            cand = field_affine(x, y)
            if field_eta_oracle(cand) == Q:
                found.add(cand)
    return frozenset(found)


def walk_point(seed: int, n: int) -> tuple[int, int]:
    """The first point of the walk x = seed, seed + 1, ... mod the prime n:
    the first x with x^3 - x a square (0 included), by Euler's criterion,
    and y its smaller root.  The package's order-8 search walks the same x
    with its own code, by Jacobi symbols."""
    x = seed % n
    while pow(x * x * x - x, (n - 1) // 2, n) == n - 1:
        x = (x + 1) % n
    return x, sqrt_mod(x * x * x - x, n)[0]


def order8_walk_oracle(n: int, order: int, seed: int = 0) -> tuple[int, int] | None:
    """find_point_of_order with every sample projected into the 2-Sylow subgroup.

    The same x-walk, by walk_point, and the same number of samples, but each
    sample's order there is measured by doubling, never judged from its x;
    the package's sampler must return what this returns, None included.
    """
    v = (order & -order).bit_length() - 1
    x_seed = seed
    for _ in range(_SAMPLE_RETRIES):
        P = walk_point(x_seed, n)
        x_seed = P[0] + 1
        chain, R = [], _scalar_mul_int(order >> v, P, n)
        while R is not None:
            chain.append(R)
            R = _add_int(R, R, n)
        if len(chain) >= 3:
            return chain[-3]
    return None


def field_proof_trace_oracle(v: int, seed: int = 0) -> ProofTrace:
    """proof_trace with its fibers and eta-orbit in FieldElement arithmetic.

    Independent of the package's trace, which runs on plain residues.  The
    level-4 x-values are built here from a field-element sqrt(2), and their
    points from field_sqrt.  The order-8 residues come from
    order8_walk_oracle, and their point is rebuilt with field_point and its
    exact order judged by field_scalar_mul_oracle.  Every quadratic symbol,
    chi, its conjugate and (-1 | p) among them, is Euler's criterion.
    """
    s = element(v, canonical_sqrt2(v))
    chi = euler_criterion((1 + s).residue, v)
    chi_conjugate = euler_criterion((1 - s).residue, v)
    minus_one = euler_criterion(-1, v)
    jac_ok = chi * chi_conjugate == minus_one == 1
    n = curve_order(v, canonical_i(v))
    level4 = tuple(sorted(x.residue for x in {1 + s, 1 - s, s - 1, -1 - s}))

    fibers = []
    preimage_ok = True
    for xr in level4:
        xe = element(v, xr)
        roots = field_sqrt(xe * xe * xe - xe)
        pts: list[tuple[int, int]] = []
        counts: list[int] = []
        if roots is not None:
            for yr in sorted({roots[0].residue, roots[1].residue}):
                cnt = len(field_eta_preimages_oracle(field_affine(xe, element(v, yr))))
                pts.append((xr, yr))
                counts.append(cnt)
                preimage_ok = preimage_ok and (cnt > 0 if chi == 1 else cnt == 0)
        fibers.append(LevelFourFiber(x=xr, x_is_square=euler_criterion(xr, v) == 1,
                                     points=tuple(pts), preimage_counts=tuple(counts)))
    if chi == 1:
        preimage_ok = preimage_ok and n % 32 == 0

    applicable = n % 32 == 0
    order8_point = orbit_x = landed = None
    landed_sq: bool | None = None
    order8_ok = True
    if applicable:
        order8_point = order8_walk_oracle(v, n, seed)
        if order8_point is None:
            order8_ok = False
        else:
            P = field_point(v, *order8_point)
            if field_scalar_mul_oracle(8, P) is not None or field_scalar_mul_oracle(4, P) is None:
                raise AssertionError(f"{order8_point} has no exact order 8 mod {v}")
            Q1 = field_eta_oracle(P)
            Q2 = field_eta_oracle(Q1)
            x1 = None if Q1 is None else Q1[0].residue
            x2 = None if Q2 is None else Q2[0].residue
            orbit_x = (x1, x2)
            landed = x1 if x1 in level4 else (x2 if x2 in level4 else None)
            if landed is None:
                order8_ok = False
            else:
                landed_sq = euler_criterion(landed, v) == 1
                order8_ok = landed_sq
    return ProofTrace(
        p=v, chi=chi, chi_conjugate=chi_conjugate, minus_one_symbol=minus_one,
        jac_identity_holds=jac_ok, n=n, n_mod_32=n % 32, level4_x=level4,
        fibers=tuple(fibers), preimage_direction_holds=preimage_ok,
        order8_applicable=applicable, order8_point=order8_point, orbit_x=orbit_x,
        orbit_landed_x=landed, orbit_landed_is_square=landed_sq,
        order8_direction_holds=order8_ok, consistent=jac_ok and preimage_ok and order8_ok,
    )


def streamed_scan(config: ScanConfig) -> tuple[ScanReport, list[Certificate]]:
    """A scan's report and its certificates, read back from the CSV rows it streamed."""
    buf = io.StringIO()
    report = write_scan_csv(config, buf)
    header, *rows = buf.getvalue().splitlines()
    certificates = []
    for row in rows:
        cell = dict(zip(header.split(","), row.split(","), strict=True))
        number = {k: int(cell[k]) for k in ("p", "a", "b", "c", "d", "chi", "n", "n_mod_32")}
        h = int(cell["h"]) if cell["h"] else None
        # the two columns that are not fields follow from the fields
        if (cell["d_parity"], cell["h_mod_8"]) != (str(number["d"] % 2),
                                                   "" if h is None else str(h % 8)):
            raise AssertionError(f"d_parity or h_mod_8 disagrees with d or h: {row}")
        certificates.append(Certificate(
            **number, h=h, thm2_holds=cell["thm2"] == "1",
            thm1_holds=cell["thm1"] == "1" if cell["thm1"] else None,
            corollary_holds=cell["corollary"] == "1",
        ))
    return report, certificates
