"""Prime-field arithmetic: primality, quadratic symbols, modular square roots.

All functions use exact integer arithmetic on plain residues.  Moduli are
odd primes below 2**62; that bound is part of the contract even though
Python integers would happily go further.

For p = 1 (mod 8) the package gets i and sqrt(2) from _i_and_sqrt2: one
power of the least non-residue z yields both, each squared back before
use.  canonical_i and canonical_sqrt2 return the same ints for a Prime,
cached, and guard the residue class; canonical_i takes i straight from
z^((p-1)/4), the same value for p = 1 (mod 8) and the only one defined for
p = 5 (mod 8).  sqrt_mod and its core _sqrt_residue (Tonelli-Shanks) serve
every other square root, among them the roots mod q of the class-number
count and the points of the curve layer.  _sqrt_residue looks up a
non-residue only when its first guess v^((q+1)/2) is not yet a root, which
never happens for p = 3 (mod 4).

FieldElement and element are not on any package path: they are the
arithmetic of the independent test oracle in tests/conftest.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation

MODULUS_BOUND = 1 << 62

_TRIAL_DIVISORS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Sinclair's bases make Miller-Rabin deterministic for every n < 2**64.  Each
# is reduced mod n first, and a base that becomes 0 is skipped: it says
# nothing about n, and the primes 73, 193, 407521 and 299210837 divide one.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 64-bit inputs."""
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n < 2:
        return False
    for q in _TRIAL_DIVISORS:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """An odd prime modulus in (2, 2**62).

    Construction runs the deterministic primality test; an instance is
    therefore a proof of primality.  Most of the package additionally wants
    p = 1 (mod 8), and each such function raises ValueError otherwise.
    """

    value: int

    def __post_init__(self) -> None:
        if not 2 < self.value < MODULUS_BOUND:
            raise ValueError(f"modulus must lie in (2, 2**62), got {self.value}")
        if not is_prime(self.value):
            raise ValueError(f"modulus must be prime, got {self.value}")

    @classmethod
    def _proven(cls, value: int) -> Prime:
        # For a value its caller has already proven prime in (2, 2**62):
        # skips the range check and the second Miller-Rabin run.
        p = object.__new__(cls)
        object.__setattr__(p, "value", value)
        return p


@dataclass(frozen=True)
class FieldElement:
    """A residue in [0, p) tied to its prime modulus.

    Arithmetic never mixes moduli; doing so is a programming error and
    raises AssertionError explicitly (so the guard survives python -O),
    not a recoverable exception.  Plain ints coerce into the field of the
    other operand.
    """

    residue: int
    modulus: Prime

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.modulus.value:
            raise ValueError(
                f"residue {self.residue} out of range for modulus {self.modulus.value}"
            )

    def _coerce(self, other: FieldElement | int) -> int:
        if isinstance(other, FieldElement):
            if self.modulus != other.modulus:
                raise AssertionError("operands from different prime fields")
            return other.residue
        return other % self.modulus.value

    def __add__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement((self.residue + self._coerce(other)) % self.modulus.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement((self.residue - self._coerce(other)) % self.modulus.value, self.modulus)

    def __rsub__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement((self._coerce(other) - self.residue) % self.modulus.value, self.modulus)

    def __mul__(self, other: FieldElement | int) -> FieldElement:
        return FieldElement(self.residue * self._coerce(other) % self.modulus.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.residue % self.modulus.value, self.modulus)

    def inverse(self) -> FieldElement:
        return FieldElement(pow(self.residue, -1, self.modulus.value), self.modulus)

    def __truediv__(self, other: FieldElement | int) -> FieldElement:
        if isinstance(other, int):
            other = element(self.modulus, other)
        if self.modulus != other.modulus:
            raise AssertionError("operands from different prime fields")
        return self * other.inverse()


def element(p: Prime, value: int) -> FieldElement:
    """Reduce an arbitrary integer into F_p."""
    return FieldElement(value % p.value, p)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd positive n, by the binary algorithm;
    for a prime n, +1 for nonzero squares, -1 for non-squares, 0 if n | a."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _nonresidue(n: int) -> int:
    # The least quadratic non-residue mod the odd prime n.  It is prime, and
    # 2 is a non-residue exactly when n = 3 or 5 (mod 8), so past 2 only odd
    # z are tried.
    if n % 8 in (3, 5):
        return 2
    z = 3
    while jacobi(z, n) != -1:
        z += 2
    return z


def _sqrt_residue(v: int, n: int) -> int:
    # One square root of v mod the odd prime n by Tonelli-Shanks; v must be
    # a nonzero square.  With n - 1 = q * 2^s, q odd, the first guess
    # r = v^((q+1)/2) is a root when t = v^q is 1; for n = 3 (mod 4), where
    # s = 1, that is always so and r = v^((n+1)/4).  Only t != 1 needs the
    # least non-residue z.
    q = n - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # One power gives both r and t, as v*w and v*w^2.
    w = pow(v, (q - 1) // 2, n)
    r = v * w % n
    t = r * w % n
    if t == 1:
        return r
    m, c = s, pow(_nonresidue(n), q, n)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % n
            i += 1
        b = pow(c, 1 << (m - i - 1), n)
        m, c, t, r = i, b * b % n, t * b * b % n, r * b % n
    return r


def _smaller_root(r: int, square: int, n: int) -> int:
    # r in [0, n) must square back to `square`; the smaller of r and n - r
    # is the canonical root.
    if r * r % n != square % n:
        raise InvariantViolation(f"the root {r} of {square} mod {n} does not square back")
    return min(r, n - r)


def sqrt_mod(v: int, n: int) -> tuple[int, int] | None:
    """Both square roots of v mod the odd prime n, smaller residue first.

    Returns None when v is a non-residue; v = 0 yields (0, 0), the doubled
    single root.  The root is squared back before it is returned.
    """
    v %= n
    if v == 0:
        return 0, 0
    if jacobi(v, n) != 1:
        return None
    r = _smaller_root(_sqrt_residue(v, n), v, n)
    return r, n - r


def _i_and_sqrt2(n: int) -> tuple[int, int]:
    # The canonical roots (i, s) of -1 and 2 for the prime n = 1 (mod 8).
    # Both come from one power of the least non-residue z: zeta =
    # z^((n-1)/8) has zeta^4 = -1, so i = zeta^2 and (zeta - zeta^3)^2 = 2.
    zeta = pow(_nonresidue(n), (n - 1) // 8, n)
    i = zeta * zeta % n
    return _smaller_root(i, -1, n), _smaller_root((zeta - i * zeta) % n, 2, n)


@lru_cache(maxsize=512)
def canonical_i(p: Prime) -> int:
    """The smaller square root of -1 mod p, +-z^((p-1)/4) for the least
    non-residue z; requires p = 1 (mod 4).  For p = 1 (mod 8) that is
    zeta^2, the i of _i_and_sqrt2."""
    n = p.value
    if n % 4 != 1:
        raise ValueError(f"-1 is a non-residue mod {n}; need p = 1 (mod 4)")
    return _smaller_root(pow(_nonresidue(n), (n - 1) // 4, n), -1, n)


@lru_cache(maxsize=512)
def canonical_sqrt2(p: Prime) -> int:
    """The smaller square root of 2 mod p, +-(zeta - zeta^3); requires p = 1 (mod 8)."""
    n = p.value
    if n % 8 != 1:
        raise ValueError(f"no 8th root of unity mod {n}; need p = 1 (mod 8)")
    return _i_and_sqrt2(n)[1]
