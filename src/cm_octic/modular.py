"""Prime-field arithmetic: primality, quadratic symbols, modular square roots.

All functions use exact integer arithmetic on plain residues.  Moduli are
odd primes below 2**62; that bound is part of the contract even though
Python integers would happily go further.  A Prime is the proof of that,
made once where a value enters; the field-element arithmetic of the test
oracle lives with the oracle, in tests/conftest.py.

is_prime is the package's one primality test: Baillie-PSW, that is trial
division up to 37, a strong base-2 test and a strong Lucas test with
Selfridge's parameters (Baillie & Wagstaff, Math. Comp. 35, 1980;
Pomerance, Selfridge & Wagstaff, Math. Comp. 35, 1980).  It is exact below
2**64: no base-2 strong pseudoprime on Feitsma's list of those below 2**64
passes the Lucas test, as Gilchrist checked.

For p = 1 (mod 8) the package gets i and sqrt(2) from _i_and_sqrt2: one
power of the least non-residue z yields both, each squared back before
use.  canonical_i and canonical_sqrt2 guard the residue class and take the
smaller root from sqrt_mod, cached; the selftest requires them to equal
_i_and_sqrt2's roots below 3000.  sqrt_mod and its core _sqrt_residue
(Tonelli-Shanks) serve every other square root, among them the roots mod q
of the class-number count and the points of the curve layer.
_sqrt_residue looks up a non-residue only when its first guess
v^((q+1)/2) is not yet a root, which never happens for p = 3 (mod 4).
_nonresidue finds the least non-residue of p = 1 (mod 4): 2 for p = 5
(mod 8), and for p = 1 (mod 8) by reciprocity, from the non-residues mod
odd primes <= 127, then by Jacobi symbols up to sqrt(p) + 1.  Both
searches end on any modulus; past their bounds they raise ValueError,
which only a modulus that is not prime reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import InvariantViolation

MODULUS_BOUND = 1 << 62

_TRIAL_DIVISORS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Baillie-PSW primality test, exact for every n below 2**64.

    Trial division by the primes up to 37, then a strong probable-prime
    test to base 2 and a strong Lucas test with Selfridge's parameters
    (Baillie & Wagstaff, Lucas pseudoprimes, Math. Comp. 35, 1980;
    Pomerance, Selfridge & Wagstaff, The pseudoprimes to 25 * 10^9, 1980).
    No composite below 2**64 passes both halves: Gilchrist checked every
    base-2 strong pseudoprime on Feitsma's list of those below 2**64.
    """
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n < 2:
        return False
    for q in _TRIAL_DIVISORS:
        if n % q == 0:
            return n == q
    return _strong_base2(n) and _strong_lucas(n)


def _strong_base2(n: int) -> bool:
    # The strong probable-prime test to base 2 of the odd n > 2: with
    # n - 1 = d * 2^s, d odd, 2^d = 1 or 2^(d * 2^r) = -1 (mod n) for some r < s.
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    # The strong Lucas probable-prime test of the odd n > 2 with Selfridge's
    # parameters: D is the first of 5, -7, 9, -11, ... with (D | n) = -1,
    # P = 1 and Q = (1 - D)/4.  With n + 1 = d * 2^s, d odd, n passes when
    # U_d = 0 or V_(d * 2^r) = 0 (mod n) for some r < s.  A square has no
    # such D, so it is rejected before the search, which would not end.
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D and n share a proper factor
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # U_k, V_k and Q^k along the bits of d, with U and V scaled by a common
    # power of two c and Q^k by c^2.  The addition step is then
    # 2U_(k+1) = U_k + V_k, 2V_(k+1) = D U_k + V_k, with no halving mod n,
    # and its results are reduced by the next doubling.  The test asks only
    # whether U or V is 0 mod the odd n, which the scaling does not change.
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = U + V, D * U + V, 4 * Q * Qk
    if U % n == 0 or V % n == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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
        if not a & 1:
            # a = 2^k * odd in one shift; each 2 is -1 for n = 3, 5 (mod 8).
            k = (a & -a).bit_length() - 1
            a >>= k
            if k & 1 and n & 7 in (3, 5):
                sign = -sign
        if a & n & 2:  # reciprocity: both are 3 (mod 4)
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


# (z, marks) for each odd prime z <= 127: marks[r] = 1 when r is a non-residue mod z.
_NONRESIDUES = tuple((z, bytes(r not in squares for r in range(z)))
                     for z in range(3, 128, 2) if is_prime(z)
                     for squares in [{x * x % z for x in range(z)}])


def _nonresidue(n: int) -> int:
    # The least quadratic non-residue mod the odd prime n = 1 (mod 4), the
    # domain of both callers: _i_and_sqrt2 (n = 1 mod 8), and _sqrt_residue,
    # which asks only when 4 | n - 1.  It is prime, and 2 is one exactly when
    # n = 5 (mod 8); otherwise (z | n) = (n mod z | z) for odd primes z.  Past
    # the table the Jacobi symbol of each odd z decides, up to isqrt(n) + 1.
    # That bound holds for every odd prime n: let m be the least non-residue
    # and k = ceil(n/m).  Then 0 < km - n < m, so km - n is a residue, so k is
    # a non-residue, so k >= m, and (m - 1)m < n.  A search past it means n
    # is not prime.  A square n has no Jacobi symbol -1 at all, so it ends
    # before the search, which would take about sqrt(n) / 2 symbols.
    if n % 8 == 5:
        return 2
    for z, marks in _NONRESIDUES:
        if marks[n % z]:
            return z
    if isqrt(n) ** 2 == n:
        raise ValueError(f"{n} is not prime: it is a square")
    for z in range(z + 2, isqrt(n) + 2, 2):
        if jacobi(z, n) == -1:
            return z
    raise ValueError(f"{n} is not prime: no non-residue up to its square root")


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
        # t has order 2^i < 2^m mod a prime n; a t that m - 1 squarings
        # leave short of 1 means n is not prime.
        t2 = t
        for i in range(1, m):
            t2 = t2 * t2 % n
            if t2 == 1:
                break
        else:
            raise ValueError(f"{n} is not prime: Tonelli-Shanks finds no root of {v}")
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
    """The smaller square root of -1 mod the prime n, by sqrt_mod; requires n = 1 (mod 4)."""
    if n % 4 != 1:
        raise ValueError(f"-1 is a non-residue mod {n}; need p = 1 (mod 4)")
    return sqrt_mod(-1, n)[0]


@lru_cache(maxsize=512)
def canonical_sqrt2(n: int) -> int:
    """The smaller square root of 2 mod the prime n, by sqrt_mod; requires n = 1 (mod 8)."""
    if n % 8 != 1:
        raise ValueError(f"no 8th root of unity mod {n}; need p = 1 (mod 8)")
    return sqrt_mod(2, n)[0]
