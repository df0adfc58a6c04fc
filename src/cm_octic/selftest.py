"""Built-in invariant suite over small primes, runnable as `cm-octic selftest`.

Everything here is exhaustive rather than sampled, so a pass is a real
certificate for the covered range, with one stated exception: eta's
additivity is tested on every pair of points at p = 17 and 41, but only on
a lattice of pairs (every third point against every fifth) at 73 to 113.
Checks mirror the package's contract: symbol/sqrt consistency, canonical
roots, the eta endomorphism identities, point counts against the CM order
formula, decomposition oracles, and the criteria themselves with class
numbers on a small range.  The eta identities run on the integer group
law, eta and eta-preimages that proof_trace runs, with points as residue
pairs (x, y) and None for the identity.  The tier-1 tests call these same
checks, so the command and the tests certify one thing.

The expected values come from the naive oracles below (trial division,
exhaustive squaring, a double-loop point enumeration, a table point count,
a bounded c^2 + 8d^2 search, chi by Euler's criterion, h(-4p) from the
full (a, b, c) box), never from the package's own root extraction,
descents, form counting or point sampling.  The primes p = 1 (mod 8) the
checks loop over come from trial division too, not from the scan's prime
stream.  Failures raise AssertionError explicitly, so the checks still
hold under `python -O`.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd, isqrt

from .criteria import Certificate, check_prime
from .curve import _add_int, _eta_int, _scalar_mul_int, curve_order, eta_preimages
from .decompose import eight_decomposition, two_squares
from .errors import InvariantViolation
from .modular import _i_and_sqrt2, canonical_i, canonical_sqrt2, jacobi, sqrt_mod

ETA_PRIMES = (17, 41, 73, 89, 97, 113)
NAIVE_COUNT_BOUND = 100_000


def trial_division_primes(limit: int) -> list[int]:
    """All primes below limit, by trial division."""
    return [n for n in range(2, limit) if all(n % d for d in range(2, isqrt(n) + 1))]


def _primes_1_mod_8(limit: int) -> list[int]:
    # By trial division: a broken prime stream cannot empty the checks.
    return [v for v in trial_division_primes(limit) if v % 8 == 1]


def squares_mod(p: int) -> set[int]:
    """The nonzero quadratic residues mod p."""
    return {x * x % p for x in range(1, p)}


def curve_points_oracle(v: int) -> list[tuple[int, int] | None]:
    """Every point of y^2 = x^3 - x over F_v by a double loop: None for the
    identity first, then the residue pairs (x, y)."""
    pts: list[tuple[int, int] | None] = [None]
    for x in range(v):
        rhs = (x * x * x - x) % v
        for y in range(v):
            if y * y % v == rhs:
                pts.append((x, y))
    return pts


def first_principles_chi(v: int) -> int:
    """chi(1 + sqrt2) mod v by Euler's criterion on a searched sqrt(2)."""
    r = next(r for r in range(v) if r * r % v == 2)
    return 1 if pow(1 + r, (v - 1) // 2, v) == 1 else -1


def naive_point_count(n: int) -> int:
    """#E(F_n) by direct point counting; guarded to n < 10^5."""
    if n >= NAIVE_COUNT_BOUND:
        raise ValueError(f"naive counting is capped at p < {NAIVE_COUNT_BOUND}")
    # roots[r] counts the y with y^2 = r, so x carries roots[x^3 - x] points.
    roots = [0] * n
    for y in range(n):
        roots[y * y % n] += 1
    return 1 + sum(roots[(x * x * x - x) % n] for x in range(n))  # 1 for the identity


def eight_decomposition_search(n: int) -> tuple[int, int]:
    """(c, d) with c^2 + 8*d^2 = n by a bounded search over d <= sqrt(n/8)."""
    if n % 8 != 1:
        raise ValueError(f"p = 1 (mod 8) required for c^2 + 8*d^2, got {n}")
    for d in range(1, isqrt(n // 8) + 1):
        c2 = n - 8 * d * d
        c = isqrt(c2)
        if c * c == c2:
            return c, d
    raise InvariantViolation(f"no c^2 + 8*d^2 representation found for {n}")


def box_class_number(p: int) -> int:
    """h(-4p) by enumerating the full (a, b, c) box with no early pruning."""
    disc = -4 * p
    count = 0
    for a in range(1, isqrt(-disc // 3) + 2):
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # the mirror form is the reduced representative
            if gcd(a, b, c) != 1:
                continue
            count += 1
    return count


def _require(ok: bool, what: str, *where: object) -> None:
    # An explicit raise: a bare assert would vanish under python -O.  The
    # message is built only on failure, so hot loops pay for the test alone.
    if not ok:
        raise AssertionError(f"{what} at {', '.join(map(str, where))}")


def check_symbols_exhaustive() -> str:
    """jacobi and sqrt_mod agree with exhaustive squaring for every odd
    prime <= 257."""
    for v in trial_division_primes(258)[1:]:
        squares = squares_mod(v)
        for a in range(v):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            _require(jacobi(a, v) == expected, "jacobi disagrees with squaring", v, a)
            roots = sqrt_mod(a, v)
            if expected == -1:
                _require(roots is None, "sqrt_mod rooted a non-residue", v, a)
                continue
            _require(roots is not None, "sqrt_mod missed a root", v, a)
            lo, hi = roots
            _require(lo <= hi and lo * lo % v == a and hi == (v - lo) % v,
                     "sqrt_mod roots wrong", v, a, lo, hi)
    return "jacobi/sqrt_mod exhaustive over odd primes <= 257"


def check_canonical_roots() -> str:
    """canonical_i and canonical_sqrt2, Tonelli-Shanks roots from sqrt_mod,
    square back to -1 and 2 for every p = 1 (mod 8) < 3000, and equal the
    roots _i_and_sqrt2 gives the scans and traces from one power of the
    least non-residue."""
    primes = _primes_1_mod_8(3000)
    for v in primes:
        i = canonical_i(v)
        s = canonical_sqrt2(v)
        _require(i * i % v == v - 1, "canonical_i^2 != -1", v)
        _require(s * s % v == 2, "canonical_sqrt2^2 != 2", v)
        _require(i <= v - i and s <= v - s, "canonical root is not the smaller one", v)
        _require(_i_and_sqrt2(v) == (i, s), "_i_and_sqrt2 != canonical roots", v)
    return f"canonical roots verified for {len(primes)} primes < 3000"


def check_eta_suite() -> str:
    """The eta contract over every point of E(F_p), p in ETA_PRIMES, on the
    integer core that proof_trace runs.

    Additivity is checked on all pairs of points for p <= 41, and on the
    pairs (every third point, every fifth point), about 1/15 of them, for
    the larger primes.
    """
    for v in ETA_PRIMES:
        i = canonical_i(v)
        pts = curve_points_oracle(v)
        squares = squares_mod(v) | {0}
        torsion = (0, 0)
        _require(len(pts) == curve_order(v, i), "point count != curve_order", v)
        images = [_eta_int(P, v, i) for P in pts]
        _require({P for P, Q in zip(pts, images) if Q is None} == {None, torsion},
                 "computed kernel wrong", v)
        for P, Q in zip(pts, images):
            i_P = None if P is None else (-P[0] % v, i * P[1] % v)
            _require(_eta_int(Q, v, i) == _scalar_mul_int(2, i_P, v), "eta^2 != [2][i]", v, P)
            if P is not None and P[0] != 0:
                x, y = P
                t = (1 - i) * y * pow(2 * x, -1, v) % v  # the chord slope of P + [i]P
                x0 = t * t % v
                _require(x0 == (x * x - 1) * pow(2 * i * x, -1, v) % v == Q[0],
                         "closed forms disagree", v, P)
                _require((t * (x - x0) - y) % v == Q[1], "y formula disagrees", v, P)
                _require(x0 in squares, "x(eta P) not a square", v, P)
        # eta is a homomorphism.
        step_j, step_k = (1, 1) if v <= 41 else (3, 5)
        for j in range(0, len(pts), step_j):
            for k in range(0, len(pts), step_k):
                _require(_eta_int(_add_int(pts[j], pts[k], v), v, i)
                         == _add_int(images[j], images[k], v),
                         "eta not additive", v, pts[j], pts[k])
        # Preimage criterion, fiber sizes, and the fiber partition.  The
        # fiber over O is the kernel checked above; eta_preimages(x0) is the
        # union of the fibers over the points above x0.
        _require(eta_preimages(0, v, i) == {(1, 0), (v - 1, 0)}, "fiber over (0,0) wrong", v)
        total = 2
        for x0 in sorted({Q[0] for Q in pts[1:]}):
            pre = eta_preimages(x0, v, i)
            total += len(pre)
            _require((len(pre) > 0) == (x0 in squares), "square preimage criterion fails", v, x0)
            fibers = [{P for P in pre if _eta_int(P, v, i) == Q} for Q in pts[1:] if Q[0] == x0]
            _require(sum(map(len, fibers)) == len(pre), "preimage does not map back", v, x0)
            for fiber in fibers:
                _require(len(fiber) in (0, 2), "fiber size not 0 or 2", v, x0)
                if len(fiber) == 2:
                    A, B = fiber
                    _require(_add_int(A, torsion, v) == B, "fiber not a kernel coset", v, x0)
        _require(total == len(pts), "fibers do not partition E(F_p)", v)
    return f"1+i suite on p in {ETA_PRIMES}, additivity on all pairs for p <= 41"


def check_point_counts() -> str:
    """(a-1)^2 + b^2 equals the naive point count for every p = 1 (mod 8) < 2000."""
    primes = _primes_1_mod_8(2000)
    for v in primes:
        _require(curve_order(v, canonical_i(v)) == naive_point_count(v),
                 "curve order != naive count", v)
    return f"CM order = naive count for {len(primes)} primes < 2000"


def check_decompositions() -> str:
    """Cornacchia output matches brute-force search and normalization rules
    for every p = 1 (mod 8) < 20000."""
    primes = _primes_1_mod_8(20000)
    for v in primes:
        i = canonical_i(v)
        a, b = two_squares(v, i)
        _require(a * a + b * b == v, "a^2 + b^2 != p", v)
        _require(eight_decomposition(v, i, canonical_sqrt2(v)) == eight_decomposition_search(v),
                 "descent and search disagree", v)
    return f"decompositions cross-checked for {len(primes)} primes < 20000"


def check_criteria_small() -> str:
    """All three criteria hold, with class numbers, for p < 5000; chi, n and
    h match their first-principles values."""
    primes = _primes_1_mod_8(5000)
    for v in primes:
        cert = check_prime(v, with_class_number=True)
        _require(isinstance(cert, Certificate), "stage failure", v, cert)
        _require(cert.all_hold and cert.thm1_holds is True, "criteria fail", v)
        _require(cert.chi == first_principles_chi(v), "chi != first-principles chi", v)
        _require(cert.n == naive_point_count(v), "n != naive count", v)
        _require(cert.h == box_class_number(v), "h != box count", v, cert.h)
        _require(cert.h % 2 == 0, "h(-4p) odd", v)  # genus parity
    return f"criteria + class numbers verified for {len(primes)} primes < 5000"


CHECKS: tuple[Callable[[], str], ...] = (
    check_symbols_exhaustive,
    check_canonical_roots,
    check_eta_suite,
    check_point_counts,
    check_decompositions,
    check_criteria_small,
)


def run_all() -> bool:
    """Run every check, printing one PASS or FAIL line each and going on past
    any failure; True when all pass."""
    ok = True
    for fn in CHECKS:
        try:
            detail = fn()
        except Exception as exc:
            ok = False
            print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {fn.__name__}: {detail}")
    return ok
