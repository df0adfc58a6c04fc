"""Range scanning: prime streaming, parallel certificate checks, output.

A scan cuts [lo, hi) into segments; each segment is streamed and checked
by one worker.  Scans are deterministic: given the same configuration the
emitted CSV/JSON bytes are identical regardless of worker count, because
the per-prime work is pure and results are joined in segment order.
Each segment comes back as its CSV text and its totals, and is written as
soon as it arrives, so no scan holds every certificate at once.  Its rows
are formatted from criteria's tuples of certificate fields, and only a
counterexample becomes a Certificate.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import compress
from math import isqrt
from typing import Callable, Iterator, TextIO

from .classnumber import DEFAULT_CAP
from .criteria import Certificate, ErrorCertificate, _all_hold, _certificate_fields
from .modular import MODULUS_BOUND, is_prime

# Candidates step by 8 from one segment start to the next, so _SEGMENT must
# stay a multiple of 8.
_SEGMENT = 1 << 18
# isqrt(2**33) + 1: below _PRESIEVE^2 > 2^33 the pre-sieve alone proves
# each prime, so Miller-Rabin starts above it.
_PRESIEVE = 92682

CSV_HEADER = "p,a,b,c,d,chi,n,n_mod_32,d_parity,h,h_mod_8,thm1,thm2,corollary"
_COLUMNS = CSV_HEADER.split(",")
# One certificate list item as json.dump(indent=2) lays it out: Certificate's
# fields in order, each filled from the CSV column of its name less "_holds",
# whose text _JSON_TEXT maps column by column (a = 1 is a number, not true).
_ITEM = "    {{\n%s\n    }}" % ",\n".join(
    f'      "{f.name}": {{{_COLUMNS.index(f.name.removesuffix("_holds"))}}}'
    for f in fields(Certificate))
# A CSV row: %+d writes chi as +1 or -1, %d a verdict as 1 or 0.
_ROW = "%d,%d,%d,%d,%d,%+d,%d,%d,%d,%s,%d,%d"
_VERDICT = {"1": "true", "0": "false", "": "null"}
_JSON_TEXT = [{"chi": {"+1": "1"}, "h": {"": "null"}, "thm1": _VERDICT, "thm2": _VERDICT,
               "corollary": _VERDICT}.get(column, {}) for column in _COLUMNS]


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
    """The totals of a scan; its rows went to the writer as segments finished."""

    primes_checked: int = 0
    counterexamples: list[Certificate] = field(default_factory=list)
    aggregate: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("chi_plus_1", "chi_minus_1", "d_even", "d_odd"), 0))
    # (chi, h mod 8) -> primes, over the certificates that carry a class number.
    h_mod_8: Counter[tuple[int, int]] = field(default_factory=Counter)
    errors: list[ErrorCertificate] = field(default_factory=list)

    def add(self, part: ScanReport) -> None:
        self.primes_checked += part.primes_checked
        self.counterexamples += part.counterexamples
        for key, count in part.aggregate.items():
            self.aggregate[key] += count
        self.h_mod_8.update(part.h_mod_8)
        self.errors += part.errors


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


def primes_1_mod_8(lo: int, hi: int) -> Iterator[int]:
    """Stream the primes p = 1 (mod 8) in [lo, hi), in increasing order."""
    if not 0 <= lo < hi <= MODULUS_BOUND:
        raise ValueError(f"need 0 <= lo < hi <= 2**62, got [{lo}, {hi})")
    # The candidates = 1 (mod 8) lose the multiples of each odd prime
    # q <= min(sqrt(hi - 1), _PRESIEVE - 1), other than q itself.  Below
    # _PRESIEVE^2 that proves each survivor prime; above it, is_prime does.
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
        survivors = compress(candidates, alive)
        yield from survivors if proven else filter(is_prime, survivors)


def _check_segment(segment: tuple[int, int, int]) -> tuple[str, ScanReport]:
    # One segment as the parent needs it: its CSV rows as one text, which
    # pickles far faster than the certificates, and its totals.
    lo, hi, cap = segment
    rows = []
    part = ScanReport()
    aggregate = part.aggregate
    for p in primes_1_mod_8(lo, hi):
        values = _certificate_fields(p, p <= cap)
        if isinstance(values, ErrorCertificate):
            part.errors.append(values)
            continue
        rows.append(certificate_csv_row(values))
        _, _, _, _, d, chi, _, _, h, thm2_holds, thm1_holds, corollary_holds = values
        aggregate["chi_plus_1" if chi == 1 else "chi_minus_1"] += 1
        aggregate["d_odd" if d % 2 else "d_even"] += 1
        if h is not None:
            part.h_mod_8[chi, h % 8] += 1
        if not _all_hold(thm2_holds, thm1_holds, corollary_holds):
            part.counterexamples.append(Certificate(*values))
    part.primes_checked = len(rows) + len(part.errors)
    return "\n".join([*rows, ""]), part


def _in_order(pool, segments: Iterator[tuple[int, int, int]],
              ahead: int) -> Iterator[tuple[str, ScanReport]]:
    # pool.imap(_check_segment, segments), except that at most `ahead`
    # segments are handed out and not yet taken: the workers cannot run
    # further ahead of a slow writer, so finished segments cannot pile up.
    pending: deque = deque()
    for segment in segments:
        pending.append(pool.apply_async(_check_segment, (segment,)))
        if len(pending) == ahead:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def scan(config: ScanConfig, write: Callable[[str], object]) -> ScanReport:
    """Check every prime p = 1 (mod 8) in [lo, hi).

    Each segment's CSV rows go to write, in segment order, as soon as the
    segment is checked, and only the totals are kept: memory is bounded by
    the segments in flight, not by the window.
    """
    lo, hi, jobs = config.lo, config.hi, config.jobs
    # About four segments per worker, each at most one sieve segment long.
    step = min(_SEGMENT, -(-(hi - lo) // (4 * jobs)))
    starts = range(lo, hi, step)
    segments = ((start, min(start + step, hi), config.class_number_cap) for start in starts)
    report = ScanReport()
    with contextlib.ExitStack() as stack:
        if jobs == 1:
            parts = map(_check_segment, segments)
        else:
            # A pool starts all its workers at once: no more than the segments
            # or the CPUs can use.  Leaving this block terminates them, also
            # when write raises while segments are still coming.
            workers = min(jobs, len(starts), os.cpu_count() or 1)
            pool = stack.enter_context(multiprocessing.Pool(workers))
            parts = _in_order(pool, segments, 2 * workers)
        for text, part in parts:
            write(text)
            report.add(part)
    return report


def certificate_csv_row(values: tuple) -> str:
    """The CSV row of one certificate, from its field values in Certificate's order."""
    p, a, b, c, d, chi, n, n_mod_32, h, thm2_holds, thm1_holds, corollary_holds = values
    h_columns = ",," if h is None else "%d,%d,%d" % (h, h % 8, thm1_holds)
    return _ROW % (p, a, b, c, d, chi, n, n_mod_32, d % 2, h_columns, thm2_holds, corollary_holds)


def write_scan_csv(config: ScanConfig, out: TextIO) -> ScanReport:
    """Scan, writing the CSV header and then each segment's rows as they come."""
    out.write(CSV_HEADER + "\n")
    return scan(config, out.write)


def write_scan_json(config: ScanConfig, out: TextIO) -> ScanReport:
    """Scan, writing the document json.dump(indent=2) would write.

    Its header (counts, aggregate, counterexamples) comes first but is known
    only at the end, so the scan's CSV rows are spooled to a temporary file
    as segments finish.  After the header they are read back one at a time,
    each filling _ITEM as an item of the certificate list.
    """
    import tempfile

    with tempfile.TemporaryFile("w+") as spool:
        report = scan(config, spool.write)
        head = json.dumps({
            "primes_checked": report.primes_checked,
            "aggregate": report.aggregate,
            "counterexamples": [vars(c) for c in report.counterexamples],
            "certificates": [],
        }, indent=2)
        spool.seek(0)
        # head ends in '"certificates": []\n}'; fill that list instead, whose
        # items json.dump indents two levels deep.
        out.write(head[: -len("]\n}")])
        sep, close = "\n", "]\n}"
        for row in spool:
            values = row.rstrip("\n").split(",")
            out.write(sep + _ITEM.format(*map(dict.get, _JSON_TEXT, values, values)))
            sep, close = ",\n", "\n  ]\n}"
        out.write(close)
    out.write("\n")
    return report
