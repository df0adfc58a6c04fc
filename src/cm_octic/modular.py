"""Prime-field arithmetic: primality, quadratic symbols, modular square roots.

All functions use exact integer arithmetic on plain residues.  Moduli are
odd primes below 2**62; that bound is part of the contract even though
Python integers would happily go further.  A Prime is the proof of that,
made once where a value enters; the field-element arithmetic of the test
oracle lives with the oracle, in tests/conftest.py.

For p = 1 (mod 8) the package gets i and sqrt(2) from _i_and_sqrt2: one
power of the least non-residue z yields both, each squared back before
use.  canonical_i and canonical_sqrt2 return the same ints, cached, and
guard the residue class; canonical_i takes i straight from
z^((p-1)/4), the same value for p = 1 (mod 8) and the only one defined for
p = 5 (mod 8); the selftest requires both to equal _i_and_sqrt2's roots
below 3000.  sqrt_mod and its core _sqrt_residue (Tonelli-Shanks) serve
every other square root, among them the roots mod q of the class-number
count and the points of the curve layer.  _sqrt_residue looks up a
non-residue only when its first guess v^((q+1)/2) is not yet a root, which
never happens for p = 3 (mod 4).  _nonresidue finds the least non-residue
of p = 1 (mod 8) by reciprocity, from the non-residues mod odd primes <= 127.
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
    therefore a proof of primality, made where a value enters the package.
    Most of the package additionally wants p = 1 (mod 8), and each such
    function raises ValueError otherwise.
    """

    value: int

    def __post_init__(self) -> None:
        if not 2 < self.value < MODULUS_BOUND:
            raise ValueError(f"modulus must lie in (2, 2**62), got {self.value}")
        if not is_prime(self.value):
            raise ValueError(f"modulus must be prime, got {self.value}")


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


# (z, marks) for each odd prime z <= 127: marks[r] = 1 when r is a non-residue mod z.
_NONRESIDUES = tuple((z, bytes(r not in squares for r in range(z)))
                     for z in range(3, 128, 2) if is_prime(z)
                     for squares in [{x * x % z for x in range(z)}])


def _nonresidue(n: int) -> int:
    # The least quadratic non-residue mod the odd prime n.  It is prime, and
    # 2 is one exactly when n = 3 or 5 (mod 8).  For n = 1 (mod 8), (z | n) =
    # (n mod z | z) for odd primes z; past the table, and for n = 7 (mod 8),
    # the Jacobi symbol of each odd z decides.
    if n % 8 in (3, 5):
        return 2
    z = 3
    if n % 8 == 1:
        for z, marks in _NONRESIDUES:
            if marks[n % z]:
                return z
        z += 2  # the first odd z past the table
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


# bench/run.py's clear_root_caches empties both caches, so they stay cached under these names.
@lru_cache(maxsize=512)
def canonical_i(n: int) -> int:
    """The smaller square root of -1 mod the prime n, +-z^((n-1)/4) for the
    least non-residue z; requires n = 1 (mod 4).  For n = 1 (mod 8) that is
    zeta^2, the i of _i_and_sqrt2."""
    if n % 4 != 1:
        raise ValueError(f"-1 is a non-residue mod {n}; need p = 1 (mod 4)")
    return _smaller_root(pow(_nonresidue(n), (n - 1) // 4, n), -1, n)


@lru_cache(maxsize=512)
def canonical_sqrt2(n: int) -> int:
    """The smaller square root of 2 mod the prime n, +-(zeta - zeta^3); requires n = 1 (mod 8)."""
    if n % 8 != 1:
        raise ValueError(f"no 8th root of unity mod {n}; need p = 1 (mod 8)")
    return _i_and_sqrt2(n)[1]
