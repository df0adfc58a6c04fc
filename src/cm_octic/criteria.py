"""Per-prime verification of the quadratic-character criteria.

For p = 1 (mod 8), write p = a^2 + b^2 (a odd, b even > 0, a + b = 1 mod 4)
and p = c^2 + 8*d^2 (c, d > 0), let n = #E(F_p) = (a-1)^2 + b^2 for
E: y^2 = x^3 - x, and let chi = (1 + sqrt(2) | p), a Jacobi symbol.
Each certificate independently evaluates:

  curve criterion    chi = +1  <=>  n = 0 (mod 32)
  parity corollary   n = 0 (mod 32)  <=>  d even
  class-number chain chi = +1  <=>  d even  <=>  h(-4p) = 0 (mod 8)

A proof trace additionally walks the structural argument behind the curve
criterion: preimages under eta of the rational points with x = +-1 +- sqrt(2),
whose y need no square root and whose eta-fibers are taken once per square x,
and the eta-orbit of a point of order 8 when 32 | n.  It reads chi and the
roots i and sqrt(2) off the certificate check_prime made.  check_prime
proves p prime, and _certificate_fields, which trusts it, makes the fields:
check_prime builds a Certificate of them, a scan (whose stream proves its
primes) a row of harness._SCHEMA, and a Certificate only for a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classnumber import class_number
from .curve import (_eta_int, _level4_roots, curve_order, eta_level_sets, eta_preimages,
                    find_point_of_order)
from .decompose import _curve_order, eight_decomposition, two_squares
from .errors import InvariantViolation
from .modular import Prime, _i_and_sqrt2, _smaller_root, jacobi


def chi_one_plus_sqrt2(n: int, s: int) -> int:
    """The quadratic character of 1 + sqrt(2) mod the prime n = 1 (mod 8),
    for a root s of 2 mod n.

    Well defined: replacing sqrt(2) by its negative gives the symbol of
    1 - sqrt2, and (1 + sqrt2)(1 - sqrt2) = -1 with (-1 | p) = +1, so the
    two symbols multiply to +1: they are equal, and both roots give the
    same value.  An s with s^2 != 2 (mod n), or a symbol other than +-1,
    raises InvariantViolation.
    """
    if (s * s - 2) % n:
        raise InvariantViolation(f"{s} is not a square root of 2 mod {n}")
    chi = jacobi(s + 1, n)
    if chi not in (1, -1):
        raise InvariantViolation(f"(1 + sqrt(2) | {n}) = {chi}, not +-1")
    return chi


@dataclass(frozen=True)
class Certificate:
    """One prime's verdict on all three criteria.

    h, thm1_holds are None when the class number was not computed.
    """

    p: int
    a: int
    b: int
    c: int
    d: int
    chi: int
    n: int
    n_mod_32: int
    h: int | None
    thm2_holds: bool
    thm1_holds: bool | None
    corollary_holds: bool

    def __post_init__(self) -> None:
        _order_guard(self.p, self.a, self.b, self.n)

    @property
    def all_hold(self) -> bool:
        return _all_hold(self.thm2_holds, self.thm1_holds, self.corollary_holds)


def _order_guard(p: int, a: int, b: int, n: int) -> None:
    # The certificate's own check of #E(F_p) = n, whoever computed it.
    if n != (a - 1) ** 2 + b * b:
        raise InvariantViolation(f"n != (a-1)^2 + b^2 at p={p}")
    if n % 8:
        raise InvariantViolation(f"#E(F_p) = {n} is not divisible by 8 at p={p}")


def _all_hold(thm2_holds: bool, thm1_holds: bool | None, corollary_holds: bool) -> bool:
    return thm2_holds and corollary_holds and thm1_holds is not False


@dataclass(frozen=True)
class ErrorCertificate:
    """A stage failure for one prime; carries which computation broke."""

    p: int
    stage: str
    message: str


def _certificate_fields(n: int, with_class_number: bool) -> tuple | ErrorCertificate:
    """Certificate's fields at the prime n = 1 (mod 8), in order, as plain
    values; or the ErrorCertificate of the stage that raised InvariantViolation."""
    # The integer forms check their own results, and _order_guard the Certificate's.
    stage = "roots"
    try:
        i, s = _i_and_sqrt2(n)
        stage = "two_squares"
        a, b = two_squares(n, i)
        order = _curve_order(n, a, b)
        stage = "eight_decomposition"
        c, d = eight_decomposition(n, i, s)
        stage = "chi"
        chi = chi_one_plus_sqrt2(n, s)
        stage = "class_number"
        h = class_number(n) if with_class_number else None
        stage = "certificate"
        _order_guard(n, a, b, order)
    except InvariantViolation as exc:
        return ErrorCertificate(p=n, stage=stage, message=str(exc))
    n_mod_32 = order % 32
    d_even = d % 2 == 0
    return (n, a, b, c, d, chi, order, n_mod_32, h, (chi == 1) == (n_mod_32 == 0),
            None if h is None else (chi == 1) == d_even == (h % 8 == 0),
            (n_mod_32 == 0) == d_even)


def check_prime(p: int, with_class_number: bool = False) -> Certificate | ErrorCertificate:
    """Evaluate every criterion at p, each side computed independently.
    p is proven prime here, once: anything else raises ValueError."""
    Prime(p)
    if p % 8 != 1:
        raise ValueError(f"check_prime expects p = 1 (mod 8), got {p}")
    fields = _certificate_fields(p, with_class_number)
    return fields if isinstance(fields, ErrorCertificate) else Certificate(*fields)


@dataclass(frozen=True)
class LevelFourFiber:
    """The rational points above one candidate x in {+-1 +- sqrt(2)}."""

    x: int
    x_is_square: bool
    points: tuple[tuple[int, int], ...]
    preimage_counts: tuple[int, ...]


@dataclass(frozen=True)
class ProofTrace:
    """A structural walk of the curve criterion at one prime.

    jac_identity: (1+sqrt2 | p) * (1-sqrt2 | p) agrees with (-1 | p) = +1.
    preimage direction: with chi = +1 every rational point over the level-4
    x-values has eta-preimages and 32 | n; with chi = -1 those preimage sets
    are all empty.  order-8 direction: whenever 32 | n a point of order 8
    exists and eta or eta^2 sends it to an x in the level-4 set which is a
    square.  consistent = all of the above.
    """

    p: int
    chi: int
    chi_conjugate: int
    minus_one_symbol: int
    jac_identity_holds: bool
    n: int
    n_mod_32: int
    level4_x: tuple[int, ...]
    fibers: tuple[LevelFourFiber, ...]
    preimage_direction_holds: bool
    order8_applicable: bool
    order8_point: tuple[int, int] | None
    orbit_x: tuple[int, int] | None
    orbit_landed_x: int | None
    orbit_landed_is_square: bool | None
    order8_direction_holds: bool
    consistent: bool


def proof_trace(cert: Certificate, seed: int = 0) -> ProofTrace:
    """Trace both directions of the curve criterion for a Certificate from
    check_prime, with its chi and the roots i = a/b and sqrt(2) = i*c/(2d).

    Never raises on a mathematical inconsistency: a trace that breaks is
    returned with consistent=False so callers can surface it as a
    counterexample.  A broken group law, such as an eta(P) outside the
    fiber it was taken for, raises InvariantViolation, and so does a
    certificate whose (a, b, c, d) do not decompose p or whose n is not #E.
    """
    n, chi = cert.p, cert.chi
    if cert.a ** 2 + cert.b ** 2 != n or cert.c ** 2 + 8 * cert.d ** 2 != n:
        raise InvariantViolation(f"the certificate's (a, b, c, d) do not decompose p={n}")
    i = _smaller_root(cert.a * pow(cert.b, -1, n) % n, -1, n)
    s = _smaller_root(i * cert.c * pow(2 * cert.d, -1, n) % n, 2, n)
    chi_conjugate = jacobi(1 - s, n)
    minus_one = jacobi(-1, n)
    jac_ok = chi * chi_conjugate == minus_one == 1
    order = curve_order(n, i)
    if order != cert.n:
        raise InvariantViolation(f"#E(F_p) = {order} but the certificate says {cert.n} at p={n}")
    level4 = eta_level_sets(n, i, s)[3]

    fibers = []
    preimage_ok = True
    for xr in level4:
        pts = tuple((xr, yr) for yr in _level4_roots(xr, n, i))
        square = jacobi(xr, n) == 1
        counts = [0, 0]
        for P in eta_preimages(xr, n, i) if square else ():
            Q = _eta_int(P, n, i)
            if Q not in pts:
                raise InvariantViolation(f"eta{P} = {Q} is not above x = {xr} mod {n}")
            counts[pts.index(Q)] += 1
        preimage_ok = preimage_ok and all((cnt > 0) == (chi == 1) for cnt in counts)
        fibers.append(LevelFourFiber(x=xr, x_is_square=square, points=pts,
                                     preimage_counts=tuple(counts)))
    if chi == 1:
        preimage_ok = preimage_ok and order % 32 == 0

    applicable = order % 32 == 0
    order8_point = orbit_x = landed = None
    landed_sq: bool | None = None
    order8_ok = True
    if applicable:
        order8_point = find_point_of_order(n, order, seed)
        if order8_point is None:
            order8_ok = False  # 32 | n guarantees one; counterexample if missing
        else:
            Q1 = _eta_int(order8_point, n, i)
            Q2 = _eta_int(Q1, n, i)
            x1 = None if Q1 is None else Q1[0]
            x2 = None if Q2 is None else Q2[0]
            orbit_x = (x1, x2)
            landed = x1 if x1 in level4 else (x2 if x2 in level4 else None)
            if landed is None:
                order8_ok = False
            else:
                landed_sq = fibers[level4.index(landed)].x_is_square
                order8_ok = landed_sq
    return ProofTrace(
        p=n,
        chi=chi,
        chi_conjugate=chi_conjugate,
        minus_one_symbol=minus_one,
        jac_identity_holds=jac_ok,
        n=order,
        n_mod_32=order % 32,
        level4_x=level4,
        fibers=tuple(fibers),
        preimage_direction_holds=preimage_ok,
        order8_applicable=applicable,
        order8_point=order8_point,
        orbit_x=orbit_x,
        orbit_landed_x=landed,
        orbit_landed_is_square=landed_sq,
        order8_direction_holds=order8_ok,
        consistent=jac_ok and preimage_ok and order8_ok,
    )
