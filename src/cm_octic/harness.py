"""Range scanning: prime streaming, parallel certificate checks, output.

A scan cuts [lo, hi) into segments; each segment is streamed and checked
by one worker.  The stream sieves with a prefix of one cached table of odd
primes per size class, the power of two above sqrt(hi) capped at
_PRESIEVE, so a process sieves each table once.  Scans are deterministic:
given the same configuration the emitted CSV/JSON bytes are identical
regardless of worker count, because the per-prime work is pure and results
are joined in segment order.  Each segment comes back as its CSV text and
its totals, and is written as soon as it arrives, so no scan holds every
certificate at once.  _check_segment formats each row, in the columns of
_SCHEMA, from criteria's tuple; only a counterexample becomes a Certificate.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
from array import array
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import compress, islice
from math import isqrt
from typing import Callable, Iterator, TextIO

from .classnumber import DEFAULT_CAP
from .criteria import Certificate, ErrorCertificate, _all_hold, _certificate_fields
from .modular import MODULUS_BOUND, is_prime

# Candidates step by 8 from one segment start to the next, so _SEGMENT must
# stay a multiple of 8.
_SEGMENT = 1 << 18
# isqrt(2**33) + 1: below _PRESIEVE^2 > 2^33 the sieve alone proves each
# prime; above it the sieve stops at _PRESIEVE and is_prime's Baillie-PSW
# test decides.
_PRESIEVE = 92682

# The scan's columns in order, each with the %-format of its CSV cells and,
# where a JSON item differs, its JSON text by CSV text.  %+d writes chi as
# +1 or -1, %d a verdict as 1 or 0; %s lets h, h_mod_8 and thm1 be empty.
_VERDICT = {"1": "true", "0": "false", "": "null"}
_SCHEMA = (("p", "%d", {}), ("a", "%d", {}), ("b", "%d", {}), ("c", "%d", {}), ("d", "%d", {}),
           ("chi", "%+d", {"+1": "1"}), ("n", "%d", {}), ("n_mod_32", "%d", {}),
           ("d_parity", "%d", {}), ("h", "%s", {"": "null"}), ("h_mod_8", "%s", {}),
           ("thm1", "%s", _VERDICT), ("thm2", "%d", _VERDICT), ("corollary", "%d", _VERDICT))
_NAMES, _FORMATS, _JSON_TEXT = zip(*_SCHEMA)
CSV_HEADER = ",".join(_NAMES)
_ROW = ",".join(_FORMATS)
# One certificate list item as json.dump(indent=2) lays it out: Certificate's
# fields in order, each filled from the column of its name less "_holds".
_ITEM = "    {{\n%s\n    }}" % ",\n".join(
    f'      "{f.name}": {{{_NAMES.index(f.name.removesuffix("_holds"))}}}'
    for f in fields(Certificate))


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


@cache
def _odd_primes(limit: int) -> tuple[array, array]:
    # The odd primes q < limit and -1/8 mod q for each, sieved over the odd
    # numbers once per limit.  (q mod 8) * q = q^2 = 1 (mod 8), so m =
    # ((q mod 8) * q - 1) / 8 is an integer with 8m = -1 (mod q).
    odds = range(3, limit, 2)
    flags = bytearray([1]) * len(odds)
    for q in range(3, isqrt(limit - 1) + 1, 2):
        if flags[(q - 3) // 2]:
            k = (q * q - 3) // 2
            flags[k::q] = bytes(len(odds[k::q]))
    qs = array("i", compress(odds, flags))
    return qs, array("i", [(q % 8 * q - 1) // 8 for q in qs])


def primes_1_mod_8(lo: int, hi: int) -> Iterator[int]:
    """Stream the primes p = 1 (mod 8) in [lo, hi), in increasing order."""
    if not 0 <= lo < hi <= MODULUS_BOUND:
        raise ValueError(f"need 0 <= lo < hi <= 2**62, got [{lo}, {hi})")
    # The candidates = 1 (mod 8) lose the multiples of each odd prime
    # q <= min(sqrt(hi - 1), _PRESIEVE - 1), other than q itself.  Below
    # _PRESIEVE^2 that proves each survivor prime; above it, is_prime's
    # Baillie-PSW test proves each survivor.
    # Those q are a prefix of the table for their size class, one of at most 18.
    root = isqrt(hi - 1)
    proven = root < _PRESIEVE
    qs, minus_inv8 = _odd_primes(min(1 << root.bit_length(), _PRESIEVE))
    n = bisect_right(qs, root)
    start = max(lo + (1 - lo) % 8, 17)  # first value = 1 (mod 8) at or above lo
    for seg_lo in range(start, hi, _SEGMENT):
        candidates = range(seg_lo, min(seg_lo + _SEGMENT, hi), 8)
        m = len(candidates)
        alive = bytearray([1]) * m
        for q, r in islice(zip(qs, minus_inv8), n):
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
        p, a, b, c, d, chi, n, n_mod_32, h, thm2, thm1, corollary = values
        if h is None:  # two tuples: *-unpacking three h cells formats 8 % slower
            cells = (p, a, b, c, d, chi, n, n_mod_32, d % 2, "", "", "", thm2, corollary)
        else:
            cells = (p, a, b, c, d, chi, n, n_mod_32, d % 2, h, h % 8, int(thm1), thm2, corollary)
            part.h_mod_8[chi, h % 8] += 1
        rows.append(_ROW % cells)
        aggregate["chi_plus_1" if chi == 1 else "chi_minus_1"] += 1
        aggregate["d_odd" if d % 2 else "d_even"] += 1
        if not _all_hold(thm2, thm1, corollary):
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
    lo, hi = config.lo, config.hi
    # One worker count sizes the segments and the pool: no more workers than
    # the CPUs can run, about four segments for each, each at most one sieve
    # segment long, and no more workers than segments.
    workers = min(config.jobs, os.cpu_count() or 1)
    step = min(_SEGMENT, -(-(hi - lo) // (4 * workers)))
    starts = range(lo, hi, step)
    workers = min(workers, len(starts))
    segments = ((start, min(start + step, hi), config.class_number_cap) for start in starts)
    report = ScanReport()
    with contextlib.ExitStack() as stack:
        if workers == 1:
            parts = map(_check_segment, segments)
        else:
            # Leaving this block terminates the workers, also when write
            # raises while segments are still coming.  The workers ignore
            # SIGINT, so Ctrl-C interrupts only this process.
            pool = stack.enter_context(multiprocessing.Pool(
                workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)))
            parts = _in_order(pool, segments, 2 * workers)
        for text, part in parts:
            write(text)
            report.add(part)
    return report


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
