"""Range scanning: prime streaming, parallel certificate checks, output.

A scan cuts [lo, hi) into segments; each segment is streamed and checked
by one worker.  Scans are deterministic: given the same configuration the
emitted CSV/JSON bytes are identical regardless of worker count, because
the per-prime work is pure and results are joined in segment order.
Wall-clock timing lives only on the ScanReport, never in the serialized
output.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from array import array
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import compress
from math import isqrt
from typing import Iterator, TextIO

from .classnumber import DEFAULT_CAP
from .criteria import Certificate, ErrorCertificate, check_prime
from .modular import MODULUS_BOUND, Prime, is_prime

# Candidates step by 8 from one segment start to the next, so _SEGMENT must
# stay a multiple of 8.
_SEGMENT = 1 << 18
# isqrt(2**33) + 1: below _PRESIEVE^2 > 2^33 the pre-sieve alone proves
# each prime, so Miller-Rabin starts above it.
_PRESIEVE = 92682

CSV_HEADER = "p,a,b,c,d,chi,n,n_mod_32,d_parity,h,h_mod_8,thm1,thm2,corollary"


@dataclass(frozen=True)
class ScanConfig:
    """A scan over primes p = 1 (mod 8) in [lo, hi).

    class_number_cap: compute h(-4p) only for p <= cap (0 disables), at
    most classnumber.DEFAULT_CAP.
    """

    lo: int
    hi: int
    class_number_cap: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi <= MODULUS_BOUND:
            raise ValueError(f"need 0 <= lo < hi <= 2**62, got [{self.lo}, {self.hi})")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not 0 <= self.class_number_cap <= DEFAULT_CAP:
            raise ValueError(f"class_number_cap must be in [0, {DEFAULT_CAP}]")


@dataclass
class ScanReport:
    primes_checked: int
    counterexamples: list[Certificate]
    timing: float
    aggregate: dict[str, int]
    certificates: list[Certificate] = field(default_factory=list)
    errors: list[ErrorCertificate] = field(default_factory=list)


def _simple_sieve(limit: int) -> list[int]:
    # Primes strictly below limit.
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return list(compress(range(limit), flags))


def _odd_primes(limit: int) -> tuple[array, array]:
    # The odd primes q < limit and -1/8 mod q for each.  (q mod 8) * q =
    # q^2 = 1 (mod 8), so m = ((q mod 8) * q - 1) / 8 is an integer with
    # 8m = -1 (mod q).
    qs = array("i", _simple_sieve(limit)[1:])
    return qs, array("i", [(q % 8 * q - 1) // 8 for q in qs])


@cache
def _presieve_primes() -> tuple[array, array]:
    # The full table, built on the first window that needs all of it.
    return _odd_primes(_PRESIEVE)


def primes_1_mod_8(lo: int, hi: int) -> Iterator[Prime]:
    """Stream the primes p = 1 (mod 8) in [lo, hi), in increasing order."""
    if not 0 <= lo < hi <= MODULUS_BOUND:
        raise ValueError(f"need 0 <= lo < hi <= 2**62, got [{lo}, {hi})")
    # The candidates = 1 (mod 8) lose the multiples of each odd prime
    # q <= min(sqrt(hi - 1), _PRESIEVE - 1), other than q itself.  Below
    # _PRESIEVE^2 that proves each survivor prime; above it, is_prime does.
    # Either way each value is wrapped without a second proof.
    root = isqrt(hi - 1)
    proven = root < _PRESIEVE
    qs, minus_inv8 = _odd_primes(root + 1) if proven else _presieve_primes()
    start = max(lo + (1 - lo) % 8, 17)  # first value = 1 (mod 8) at or above lo
    for seg_lo in range(start, hi, _SEGMENT):
        candidates = range(seg_lo, min(seg_lo + _SEGMENT, hi), 8)
        m = len(candidates)
        alive = bytearray([1]) * m
        for q, r in zip(qs, minus_inv8):
            k = seg_lo % q * r % q  # seg_lo + 8k = 0 (mod q)
            if k < m:
                if seg_lo + 8 * k == q:
                    k += q
                alive[k::q] = bytes(len(range(k, m, q)))
        for q in compress(candidates, alive):
            if proven or is_prime(q):
                yield Prime._proven(q)


def _check_segment(segment: tuple[int, int, int]) -> list[Certificate | ErrorCertificate]:
    lo, hi, cap = segment
    return [check_prime(p, with_class_number=p.value <= cap) for p in primes_1_mod_8(lo, hi)]


def scan(config: ScanConfig) -> ScanReport:
    """Check every prime p = 1 (mod 8) in [lo, hi); deterministic output order."""
    t0 = time.perf_counter()
    lo, hi, jobs = config.lo, config.hi, config.jobs
    # About four segments per worker, each at most one sieve segment long.
    step = min(_SEGMENT, -(-(hi - lo) // (4 * jobs)))
    segments = ((start, min(start + step, hi), config.class_number_cap)
                for start in range(lo, hi, step))
    if jobs == 1:
        parts = map(_check_segment, segments)
    else:
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_check_segment, segments, chunksize=1)
    results = [r for part in parts for r in part]
    certificates = [r for r in results if isinstance(r, Certificate)]
    errors = [r for r in results if isinstance(r, ErrorCertificate)]
    counterexamples = [c for c in certificates if not c.all_hold]
    aggregate = {
        "chi_plus_1": sum(1 for c in certificates if c.chi == 1),
        "chi_minus_1": sum(1 for c in certificates if c.chi == -1),
        "d_even": sum(1 for c in certificates if c.d % 2 == 0),
        "d_odd": sum(1 for c in certificates if c.d % 2 == 1),
    }
    return ScanReport(
        primes_checked=len(results),
        counterexamples=counterexamples,
        timing=time.perf_counter() - t0,
        aggregate=aggregate,
        certificates=certificates,
        errors=errors,
    )


def certificate_csv_row(cert: Certificate) -> str:
    chi = "+1" if cert.chi == 1 else "-1"
    h = "" if cert.h is None else str(cert.h)
    h_mod_8 = "" if cert.h is None else str(cert.h % 8)
    thm1 = "" if cert.thm1_holds is None else str(int(cert.thm1_holds))
    return (
        f"{cert.p},{cert.a},{cert.b},{cert.c},{cert.d},{chi},{cert.n},{cert.n_mod_32},"
        f"{cert.d % 2},{h},{h_mod_8},{thm1},{int(cert.thm2_holds)},{int(cert.corollary_holds)}"
    )


def write_scan_csv(certificates: list[Certificate], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for cert in certificates:
        out.write(certificate_csv_row(cert) + "\n")


def write_scan_json(report: ScanReport, out: TextIO) -> None:
    doc = {
        "primes_checked": report.primes_checked,
        "aggregate": report.aggregate,
        "counterexamples": [asdict(c) for c in report.counterexamples],
        "certificates": [asdict(c) for c in report.certificates],
    }
    json.dump(doc, out, indent=2)
    out.write("\n")
