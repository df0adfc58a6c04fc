"""Class number h(-4p) by counting reduced binary quadratic forms.

A form (a, b, c) of discriminant b^2 - 4ac = -4p is reduced when
|b| <= a <= c, with b >= 0 whenever |b| = a or a = c; each class holds
exactly one reduced form (Cohen, GTM 138, Section 5.3; Buell, *Binary
Quadratic Forms*, ch. 4).  The discriminant forces b = 2*beta with
beta^2 + p = ac, and every reduced form has a <= sqrt(4p/3).

The count takes about sqrt(p) steps, nearly all of them in C-level slices:

- For a <= sqrt(p), a^2 < p makes c > a automatically, and (-a/2, a/2]
  is a complete residue system mod a, so a carries exactly f(a) forms,
  the number of roots of beta^2 = -p (mod a).  f is multiplicative: 0
  when 4 | a, a factor 1 for 2 || a, and a factor 1 + (-p | q) for each
  odd prime q | a whatever its power (Hensel).  So f(a) = weight(a) when
  every odd prime of a splits, (-p | q) = 1, and 0 when one is inert,
  where weight(a) is 0 for 4 | a and 2^(number of odd primes of a)
  otherwise.  Euler's criterion finds the inert q <= sqrt(4p/3), each of
  which clears its multiples from an `alive` bytearray in one slice
  assignment, and the part of h below sqrt(p) is the sum of weight over
  the a <= sqrt(p) still alive.  The same powers prove p prime: an odd
  composite has a prime factor q <= sqrt(p), where (-p | q) = 0.
- In the band sqrt(p) < a <= sqrt(4p/3) the roots themselves are built
  by CRT from one root of -p mod each prime, lifted to prime powers, and
  a root beta in (-a/2, a/2] counts when c > a, that is beta^2 + p > a^2.

The smallest prime factors, the weights and the odd primes depend on no
p, so they are cached, one table per size class: the power of two above
sqrt(4p/3).  One `classno` call builds only its own class, and a process
builds each class once: under DEFAULT_CAP, 2^3 to 2^17.

Neither tie of the reduction rule needs a branch.  a = c would need
(a - beta)(a + beta) = p, so a = (p + 1)/2, far above the band; and
|b| = a would need |beta| to divide p, so a = 2 <= sqrt(p), where the
half-open (-a/2, a/2] already keeps only beta = +1.  No gcd test either:
a common factor g of a, b, c has g^2 | 4p, so g <= 2, and g = 2 would
need ac even, i.e. beta^2 = -p = 3 (mod 4).
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import isqrt

from .errors import InvariantViolation
from .modular import _sqrt_residue

DEFAULT_CAP = 10_000_000_000

# Maps each weight to twice itself.  Tables end below 2 * sqrt(4 * DEFAULT_CAP / 3),
# under 3*5*7*11*13*17 = 255255, so no weight there exceeds 2^5.
_DOUBLE = bytes(2 * w % 256 for w in range(256))


@cache
def _factor_tables(top: int) -> tuple[list[int], bytearray, list[int]]:
    # spf, weight and the odd primes, for 0 <= a <= top.  For spf each q
    # marks its multiples from q^2 on, largest q first, so the smallest
    # divisor of k, a prime, writes last.
    spf = list(range(top + 1))
    for q in range(isqrt(top), 1, -1):
        spf[q * q :: q] = [q] * len(range(q * q, top + 1, q))
    primes = [q for q in range(3, top + 1, 2) if spf[q] == q]
    weight = bytearray(b"\1") * (top + 1)
    for q in primes:
        weight[q::q] = weight[q::q].translate(_DOUBLE)
    weight[::4] = bytes(len(range(0, top + 1, 4)))
    return spf, weight, primes


def _roots_mod(a: int, n: int, spf: list[int], prime_roots: dict[int, int]) -> list[int]:
    # Every root of beta^2 = -n (mod a), for a with f(a) > 0 (so 4 does
    # not divide a and -n is a square mod each odd prime factor), by CRT
    # over the prime powers of a.  prime_roots caches one root per prime.
    betas, m = [0], 1
    while a > 1:
        q = spf[a]
        qe = q
        a //= q
        while a % q == 0:
            a //= q
            qe *= q
        if q == 2:
            local: tuple[int, ...] = (1,)
        else:
            r = prime_roots.get(q)
            if r is None:
                r = prime_roots[q] = _sqrt_residue(-n % q, q)
            qk = q
            while qk < qe:  # Hensel: a root mod q^k lifts to q^(k+1)
                qk *= q
                r = (r - (r * r + n) * pow(2 * r, -1, qk)) % qk
            local = (r, qe - r)
        t = pow(m, -1, qe)
        betas = [b + m * ((s - b) * t % qe) for b in betas for s in local]
        m *= qe
    return betas


def class_number(n: int) -> int:
    """h(-4n) for the prime n = 1 (mod 8), by counting reduced forms in about sqrt(n) steps.

    n may be at most DEFAULT_CAP: above it the sqrt(4n/3)-entry factor
    table would not fit in time or memory.  A composite n raises ValueError.
    """
    if n % 8 != 1:
        raise ValueError(f"class_number expects p = 1 (mod 8), got {n}")
    if n > DEFAULT_CAP:
        raise ValueError(f"p = {n} exceeds the class-number limit {DEFAULT_CAP}")
    if n < 17:  # 17 is the least prime = 1 (mod 8)
        raise ValueError(f"modulus must be prime, got {n}")
    sqrt_n, top = isqrt(n), isqrt(4 * n // 3)
    spf, weight, primes = _factor_tables(1 << top.bit_length())
    # alive[a] = 0 once an odd prime of a is inert: -n is a non-residue mod q,
    # (-n)^((q-1)/2) = -1 by Euler's criterion; 0 there means q | n.  This
    # stays a power rather than jacobi: one C-level pow on q < 2^17, whose
    # 0 is also the count's proof that n is prime.  The zeros come as a
    # bytearray slice, which a bytearray takes without the copy it makes of
    # a bytes value.
    alive, zero = bytearray(b"\1") * (top + 1), bytearray(top + 1)
    for q in primes:
        if q > top:
            break
        e = pow(-n % q, q >> 1, q)
        if e != 1:
            if not e:
                raise ValueError(f"modulus must be prime, got {n}")
            alive[q::q] = zero[q::q]
    h = sum(compress(weight[1 : sqrt_n + 1], alive[1 : sqrt_n + 1]))
    prime_roots: dict[int, int] = {}
    for a in compress(range(sqrt_n + 1, top + 1), alive[sqrt_n + 1 :]):
        if not weight[a]:
            continue
        for beta in _roots_mod(a, n, spf, prime_roots):
            if beta > a // 2:
                beta -= a
            t = beta * beta + n
            if t % a:
                raise InvariantViolation(f"beta = {beta} is not a root of -{n} mod {a}")
            if t > a * a:
                h += 1
    return h
