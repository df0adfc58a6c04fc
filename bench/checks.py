"""Checks of cm-octic output, computed apart from the package.

Nothing here imports cm_octic.  Every fact is recomputed by a different
route from the one the package takes:

- primes below 10^7 come from a plain sieve of Eratosthenes, primes near
  2^61 from a small-prime sieve followed by Baillie-PSW (a strong base-2
  test plus a strong Lucas test), not from the package's Miller-Rabin;
- the roots i and sqrt(2) come from one 8th root of unity
  zeta = z^((p-1)/8) for a non-residue z, with i = zeta^2 and
  sqrt(2) = zeta - zeta^3, not from Tonelli-Shanks;
- other square roots come from Cipolla's method;
- h(-4p) comes from Dirichlet's class-number formula, not from counting
  reduced forms;
- points are added with a plain integer group law on y^2 = x^3 - x.

Each checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
from math import isqrt

CSV_HEADER = "p,a,b,c,d,chi,n,n_mod_32,d_parity,h,h_mod_8,thm1,thm2,corollary"

# The order-8 search in cm_octic.curve tries this many sampled points and,
# below this bound, falls back to an exhaustive search.
SAMPLER_TRIES = 64
SAMPLER_EXHAUSTIVE_BOUND = 10_000


# ---------------------------------------------------------------- primes


def _eratosthenes(limit: int) -> bytearray:
    # flags[n] == 1 exactly for the primes n < limit.
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


def primes_1_mod_8_sieved(lo: int, hi: int) -> list[int]:
    """Primes p = 1 (mod 8) in [lo, hi) by a sieve of Eratosthenes over [0, hi)."""
    flags = _eratosthenes(hi)
    first = lo + (1 - lo) % 8
    return [q for q in range(first, hi, 8) if flags[q]]


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _half(x: int, n: int) -> int:
    # x / 2 mod n for odd n and 0 <= x < n.
    return (x + n) // 2 if x % 2 else x // 2


def _strong_lucas(n: int) -> bool:
    # Strong Lucas probable-prime test with Selfridge's parameters.
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = _half((P * U + V) % n, n), _half((D * U + P * V) % n, n)
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


_SMALL_PRIMES = [q for q, alive in enumerate(_eratosthenes(1 << 16)) if alive]


def bpsw(n: int) -> bool:
    """Baillie-PSW; no composite below 2^64 passes it."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES[:50]:
        if n % q == 0:
            return n == q
    return _strong_base2(n) and _strong_lucas(n)


def primes_1_mod_8_window(lo: int, hi: int) -> list[int]:
    """Primes p = 1 (mod 8) in [lo, hi) for large lo: small-prime sieve, then BPSW."""
    alive = bytearray([1]) * (hi - lo)
    for q in _SMALL_PRIMES:
        if q * q >= hi:
            break
        first = max(q * q, -(-lo // q) * q)
        alive[first - lo :: q] = bytes(len(range(first, hi, q)))
    first = lo + (1 - lo) % 8
    return [q for q in range(first, hi, 8) if alive[q - lo] and bpsw(q)]


# ------------------------------------------------------------- F_p roots


def _euler(u: int, p: int) -> int:
    e = pow(u % p, (p - 1) // 2, p)
    return 1 if e == 1 else (-1 if e == p - 1 else 0)


def eighth_root_of_unity(p: int) -> int:
    """zeta = z^((p-1)/8) for the least non-residue z; zeta^4 = -1 (mod p)."""
    z = 3
    while _euler(z, p) != -1:
        z += 1
    zeta = pow(z, (p - 1) // 8, p)
    if pow(zeta, 4, p) != p - 1:
        raise ArithmeticError(f"zeta^4 != -1 mod {p}")
    return zeta


def roots_via_zeta(p: int) -> tuple[int, int]:
    """(i, s) with i^2 = -1 and s^2 = 2 mod p, from one 8th root of unity."""
    zeta = eighth_root_of_unity(p)
    i = zeta * zeta % p
    s = (zeta - pow(zeta, 3, p)) % p
    if i * i % p != p - 1 or s * s % p != 2:
        raise ArithmeticError(f"roots from zeta fail to square back mod {p}")
    return i, s


def chi_via_zeta(p: int) -> int:
    """(1 + sqrt2 | p) for p = 1 (mod 8), with sqrt2 = zeta - zeta^3."""
    _, s = roots_via_zeta(p)
    return _euler(1 + s, p)


def cipolla_sqrt(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p."""
    a %= p
    t = 0
    while _euler(t * t - a, p) != -1:
        t += 1
    w = (t * t - a) % p  # work in F_p[sqrt(w)]
    rx, ry = 1, 0
    bx, by = t, 1
    e = (p + 1) // 2
    while e:
        if e & 1:
            rx, ry = (rx * bx + ry * by * w) % p, (rx * by + ry * bx) % p
        bx, by = (bx * bx + by * by * w) % p, 2 * bx * by % p
        e >>= 1
    if rx * rx % p != a:
        raise ArithmeticError(f"Cipolla root of {a} mod {p} fails to square back")
    return rx


# --------------------------------------------------------- curve y^2 = x^3 - x


def on_curve(P: tuple[int, int], p: int) -> bool:
    x, y = P
    return 0 <= x < p and 0 <= y < p and (y * y - (x * x * x - x)) % p == 0


def ec_add(P, Q, p: int):
    """Chord-and-tangent sum on y^2 = x^3 - x; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 - 1) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ec_mul(k: int, P, p: int):
    R = None
    while k:
        if k & 1:
            R = ec_add(R, P, p)
        P = ec_add(P, P, p)
        k >>= 1
    return R


def has_exact_order_8(P, p: int) -> bool:
    return ec_mul(8, P, p) is None and ec_mul(4, P, p) is not None


def two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, a odd, b even > 0, a + b = 1 (mod 4)."""
    i, _ = roots_via_zeta(p)
    r0, r1 = p, i
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    x, y = r1, isqrt(p - r1 * r1)
    a, b = (x, y) if x % 2 else (y, x)
    if (a + b) % 4 != 1:
        a = -a
    if a * a + b * b != p:
        raise ArithmeticError(f"two-square descent failed for {p}")
    return a, b


def order8_sampler_misses(p: int) -> bool:
    """Whether cm_octic's order-8 search at seed 0 finds nothing at p.

    The search walks x = 0, 1, 2, ..., takes each x with x^3 - x a square
    or zero as a sample, and succeeds on the first sample whose 2-primary
    part has order at least 8.  This replays that walk with the integer
    group law here.  Only primes with 32 | #E(F_p) are searched at all.
    """
    a, b = two_squares(p)
    n = (a - 1) ** 2 + b * b
    if n % 32 or p < SAMPLER_EXHAUSTIVE_BOUND:
        return False
    m = n
    while m % 2 == 0:
        m //= 2
    x = 0
    for _ in range(SAMPLER_TRIES):
        rhs = (x * x * x - x) % p
        while rhs and _euler(rhs, p) != 1:
            x += 1
            rhs = (x * x * x - x) % p
        if rhs:
            S = ec_mul(m, (x, cipolla_sqrt(rhs, p)), p)
            t = 0
            while S is not None:
                S = ec_add(S, S, p)
                t += 1
            if t >= 3:
                return False
        x += 1
    return True


# ---------------------------------------------------------- class numbers


class DirichletClassNumber:
    """h(-4p) = (1/2) * sum_{0 < r < 2p} (-4p | r), Dirichlet's formula.

    -4p is a fundamental discriminant for p = 1 (mod 4) and (-4p | 2) = 0.
    For odd r the Kronecker symbol is the Jacobi symbol (-p | r), which is
    completely multiplicative in r, so it is built up from its values at
    primes over a smallest-prime-factor table.
    """

    def __init__(self, p_max: int) -> None:
        limit = 2 * p_max
        spf = list(range(limit + 1))
        for q in range(3, isqrt(limit) + 1, 2):
            if spf[q] == q:
                for m in range(q * q, limit + 1, 2 * q):
                    if spf[m] == m:
                        spf[m] = q
        self._spf = spf

    def __call__(self, p: int) -> int:
        spf = self._spf
        chi = [0] * (2 * p)
        chi[1] = 1
        total = 1
        for r in range(3, 2 * p, 2):
            q = spf[r]
            if q == r:
                v = 0 if q == p else _euler(-p, q)
            else:
                v = chi[q] * chi[r // q]
            chi[r] = v
            total += v
        if total <= 0 or total % 2:
            raise ArithmeticError(f"Dirichlet sum {total} is not a positive even number at {p}")
        return total // 2


# ------------------------------------------------------------- certificates


def certificate_problems(p: int, a: int, b: int, c: int, d: int, chi: int, n: int,
                         n_mod_32: int) -> list[str]:
    """Arithmetic checks shared by scan rows and check --trace certificates."""
    out = []
    if a % 2 == 0 or b % 2 or b <= 0 or (a + b) % 4 != 1 or a * a + b * b != p:
        out.append(f"p={p}: ({a}, {b}) is not the canonical two-square pair")
    if c <= 0 or d <= 0 or c * c + 8 * d * d != p:
        out.append(f"p={p}: ({c}, {d}) does not give p = c^2 + 8 d^2")
    if n != (a - 1) ** 2 + b * b or n != p + 1 - 2 * a or n_mod_32 != n % 32:
        out.append(f"p={p}: n={n} (mod 32: {n_mod_32}) disagrees with (a-1)^2 + b^2")
    if chi != chi_via_zeta(p):
        out.append(f"p={p}: chi={chi:+d} disagrees with the character via zeta")
    return out


def scan_csv_problems(text: str, expected_primes: list[int], with_h: bool) -> list[str]:
    """Check a scan's CSV against the expected prime list and the criteria."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return ["CSV header or final newline is wrong"]
    out = []
    rows = [line.split(",") for line in lines[1:-1]]
    primes = [int(r[0]) for r in rows]
    if primes != expected_primes:
        missing = sorted(set(expected_primes) - set(primes))[:5]
        extra = sorted(set(primes) - set(expected_primes))[:5]
        out.append(f"{len(primes)} rows for {len(expected_primes)} primes "
                   f"(missing {missing}, extra {extra}, or out of order)")
    chi_plus = d_even = 0
    for r in rows:
        if len(r) != 14:
            out.append(f"row {r[0]} has {len(r)} fields")
            continue
        p, a, b, c, d = (int(v) for v in r[:5])
        chi = {"+1": 1, "-1": -1}.get(r[5], 0)
        n, n_mod_32, d_parity = int(r[6]), int(r[7]), int(r[8])
        out += certificate_problems(p, a, b, c, d, chi, n, n_mod_32)
        if d_parity != d % 2:
            out.append(f"p={p}: d_parity={d_parity} for d={d}")
        if r[12:] != ["1", "1"] or (chi == 1) != (n % 32 == 0) or (n % 32 == 0) != (d % 2 == 0):
            out.append(f"p={p}: verdicts {r[12:]} or criteria do not hold")
        if with_h:
            if not r[9] or int(r[10]) != int(r[9]) % 8 or r[11] != "1":
                out.append(f"p={p}: class-number columns {r[9:12]} are inconsistent")
            elif int(r[9]) % 4 or (int(r[9]) % 8 == 0) != (chi == 1):
                out.append(f"p={p}: h={r[9]} breaks 4 | h or the class-number chain")
        elif r[9:12] != ["", "", ""]:
            out.append(f"p={p}: class-number columns {r[9:12]} should be empty")
        chi_plus += chi == 1
        d_even += d % 2 == 0
    if chi_plus != d_even:
        out.append(f"tally chi=+1 ({chi_plus}) differs from tally of even d ({d_even})")
    return out


def class_number_problems(text: str, sample: list[int], h_of) -> list[str]:
    """Recompute h(-4p) for the sampled rows by Dirichlet's formula."""
    h_col = {}
    for line in text.split("\n")[1:-1]:
        r = line.split(",")
        h_col[int(r[0])] = int(r[9])
    return [f"p={p}: h={h_col.get(p)} but Dirichlet's formula gives {h_of(p)}"
            for p in sample if h_col.get(p) != h_of(p)]


def trace_check_outcome(p: int, status: int, text: str) -> tuple[bool, list[str]]:
    """Judge one `check P --trace` request: (failed by the order-8 miss, problems).

    A request fails only when its output shows the sampled order-8 miss: a
    sound certificate, 32 | n, no order-8 point, every other part of the
    trace consistent, and exit status 2.
    """
    doc = json.loads(text)
    out = certificate_problems(doc["p"], doc["a"], doc["b"], doc["c"], doc["d"], doc["chi"],
                               doc["n"], doc["n_mod_32"])
    if doc["p"] != p or not (doc["thm2_holds"] and doc["corollary_holds"]):
        out.append(f"p={p}: certificate is for {doc['p']} or a criterion fails")
    tr = doc["trace"]
    _, s = roots_via_zeta(p)
    level4 = sorted({(1 + s) % p, (1 - s) % p, (s - 1) % p, (-1 - s) % p})
    if tr["chi"] != doc["chi"] or sorted(tr["level4_x"]) != level4:
        out.append(f"p={p}: trace chi or level-4 set disagrees with +-1 +- sqrt2")
    if tr["order8_applicable"] != (doc["n"] % 32 == 0):
        out.append(f"p={p}: order8_applicable={tr['order8_applicable']} for n={doc['n']}")
    point = tr["order8_point"]
    if tr["order8_applicable"] and point is None:
        miss = (status == 2 and not tr["consistent"] and tr["jac_identity_holds"]
                and tr["preimage_direction_holds"] and not tr["order8_direction_holds"])
        if not miss:
            out.append(f"p={p}: order-8 point missing without the sampled-miss signature")
        return miss, out
    if point is not None:
        P = tuple(point)
        landed = tr["orbit_landed_x"]
        if not on_curve(P, p) or not has_exact_order_8(P, p):
            out.append(f"p={p}: order-8 point {P} is off the curve or not of exact order 8")
        if landed not in level4 or landed not in tr["orbit_x"] or _euler(landed, p) != 1:
            out.append(f"p={p}: landed x {landed} is not a square among +-1 +- sqrt2")
    if status != 0 or not tr["consistent"]:
        out.append(f"p={p}: exit status {status}, consistent={tr['consistent']}")
    return False, out
