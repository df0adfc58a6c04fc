"""Prime streaming, scan determinism, serialization, CLI exit codes."""

import dataclasses
import hashlib
import io
import json
import multiprocessing
import multiprocessing.pool
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from functools import cache
from itertools import islice, zip_longest
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_octic import harness, selftest
from cm_octic.cli import _json as cli_json
from cm_octic.cli import main
from cm_octic.criteria import Certificate, ErrorCertificate, _certificate_fields, check_prime
from cm_octic.errors import InvariantViolation
from cm_octic.harness import (
    CSV_HEADER,
    ScanConfig,
    primes_1_mod_8,
    scan,
    write_scan_csv,
    write_scan_json,
)
from cm_octic.modular import Prime, is_prime

from conftest import (
    package_env,
    seeded_primes,
    sprp_prime_bases,
    streamed_scan,
    trial_division_primes,
)

PRESIEVE = 92682  # below PRESIEVE^2 the stream proves primes without is_prime


@cache
def presieve_primes() -> list[int]:
    # The odd primes below PRESIEVE, by trial division.
    return trial_division_primes(PRESIEVE)[1:]


def traced_scan_peak(hi: int, fmt: str, jobs: int, out: Path) -> int:
    # The tracemalloc peak of `scan --from 0 --to hi` through the CLI.
    argv = ["scan", "--from", "0", "--to", str(hi), "--jobs", str(jobs),
            "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_when_the_window_is_full(monkeypatch) -> list[int]:
    # At jobs > 1 the parent holds the results of the segments handed out
    # and not yet written, at most 2 * workers of them; how many have come
    # back when its peak is taken depends on how the workers are scheduled.
    # Here each write first waits for every segment handed out, so a scan
    # peaks with its window full whatever the scheduling.  Returns the list
    # of segments outstanding at each write.
    fork = multiprocessing.get_context("fork")
    handed: list[multiprocessing.pool.AsyncResult] = []
    outstanding: list[int] = []

    class HandingPool(multiprocessing.pool.Pool):
        def apply_async(self, *args, **kwargs):
            handed.append(super().apply_async(*args, **kwargs))
            return handed[-1]

    real_scan = harness.scan

    def scan_with_full_windows(config, write):
        def write_full(text):
            outstanding.append(len(handed))
            for result in handed:
                result.wait(60)
                assert result.ready(), "a segment did not come back within 60 s"
            del handed[0]  # the segment being written; held no longer than by the scan
            write(text)
        return real_scan(config, write_full)

    monkeypatch.setattr(harness, "multiprocessing",
                        SimpleNamespace(Pool=lambda n, *init: HandingPool(n, *init, context=fork)))
    monkeypatch.setattr(harness, "scan", scan_with_full_windows)
    return outstanding


def first_difference(got: str, want: str) -> tuple[int, str | None, str | None] | None:
    """None when the two texts are equal, else the first line (from 1, ends
    kept) where their splitlines lists differ, with both versions.

    Asserting it is None is as strict as ==, and a failure prints one line
    pair: pytest's own diff of two long documents took 18 s for strings, and
    over ten minutes for line lists with the CI variable set.
    """
    pairs = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(((k, g, w) for k, (g, w) in enumerate(pairs, 1) if g != w), None)


def scan_csv(config: ScanConfig) -> str:
    buf = io.StringIO()
    write_scan_csv(config, buf)
    return buf.getvalue()


def rigged_fields(**overrides) -> tuple:
    # The certificate fields of p = 17, in Certificate's order, as
    # criteria._certificate_fields returns them, with some replaced.
    fields = dict(
        p=17, a=1, b=4, c=3, d=1, chi=-1, n=16, n_mod_32=16,
        h=None, thm2_holds=True, thm1_holds=None, corollary_holds=True,
    )
    fields.update(overrides)
    return tuple(fields.values())


class TestPrimeStream:
    def test_small_windows(self):
        assert list(primes_1_mod_8(0, 100)) == [17, 41, 73, 89, 97]
        assert list(primes_1_mod_8(0, 17)) == []
        assert list(primes_1_mod_8(100, 140)) == [113, 137]

    def test_matches_trial_division(self):
        expected = [q for q in trial_division_primes(3 * 10**4) if q % 8 == 1]
        assert list(primes_1_mod_8(0, 3 * 10**4)) == expected

    def test_matches_trial_division_across_presieve_bound(self):
        # [PRESIEVE^2 - 10^4, PRESIEVE^2) is proven by the pre-sieve alone;
        # [PRESIEVE^2, PRESIEVE^2 + 10^4) sends its survivors to is_prime.
        # Both lie below (PRESIEVE + 1)^2, so trial division by the odd
        # primes below PRESIEVE decides each candidate.
        for lo, hi in ((PRESIEVE**2 - 10**4, PRESIEVE**2), (PRESIEVE**2, PRESIEVE**2 + 10**4)):
            expected = [q for q in range(lo + (1 - lo) % 8, hi, 8)
                        if all(q % r for r in presieve_primes())]
            streamed = list(primes_1_mod_8(lo, hi))
            assert streamed == expected and streamed, lo

    @pytest.mark.parametrize("residue", range(8))
    def test_sieve_matches_trial_division_across_segments(self, residue, monkeypatch):
        # A segment of 104 integers (a multiple of 8, as _SEGMENT must be)
        # crosses many boundaries; the windows start at every residue mod 8.
        import cm_octic.harness as harness_mod

        monkeypatch.setattr(harness_mod, "_SEGMENT", 104)
        for lo in (residue, 10**4 + residue):
            hi = lo + 1000
            expected = [q for q in trial_division_primes(hi) if q >= lo and q % 8 == 1]
            assert list(primes_1_mod_8(lo, hi)) == expected, lo

    @pytest.mark.parametrize("k", range(2, 17))
    def test_sieve_tables_meet_at_each_power_of_two(self, k):
        # q < 2^k < q2 are the primes next to 2^k.  The first window ends
        # below 4^k, so it sieves with the 2^k table, and its last odd prime
        # q must strike q^2; the second ends at q2^2, in the next size class
        # (capped at PRESIEVE for k = 16), which must hold q2.
        q = next(n for n in range(2**k - 1, 2, -2) if sprp_prime_bases(n))
        q2 = next(n for n in range(2**k + 1, 2**(k + 1), 2) if sprp_prime_bases(n))
        windows = ((q * q, min(4**k, q * q + 2**14)), (max(4**k, q2 * q2 - 2**14), q2 * q2 + 1))
        for lo, hi in windows:
            expected = [n for n in range(lo + (1 - lo) % 8, hi, 8) if sprp_prime_bases(n)]
            assert list(primes_1_mod_8(lo, hi)) == expected, (lo, hi)

    def test_scan_sieves_each_table_once(self):
        # Every segment of this window sieves with the PRESIEVE table, which
        # its first segment builds and the rest take from the cache.
        harness._odd_primes.cache_clear()
        scan(ScanConfig(lo=2**33 - 2**21, hi=2**33, jobs=1), lambda text: None)
        assert harness._odd_primes.cache_info().misses == 1

    def test_wheel_keeps_its_presieve_primes(self):
        # hi above PRESIEVE^2 takes the is_prime path from 0, through
        # the odd primes below PRESIEVE that its pre-sieve strikes multiples of.
        wheel = list(islice(primes_1_mod_8(0, PRESIEVE**2 + 1), 2000))
        sieved = list(islice(primes_1_mod_8(0, 10**5), 2000))
        assert len(sieved) == 2000 and wheel == sieved

    def test_each_prime_is_proven_once(self, monkeypatch):
        # is_prime runs once on each candidate that survives the pre-sieve,
        # never on one with an odd prime factor below PRESIEVE, and never
        # below PRESIEVE^2, where the pre-sieve alone proves each prime.
        import cm_octic.harness as harness_mod
        import cm_octic.modular as modular_mod

        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(harness_mod, "is_prime", counting_is_prime)
        monkeypatch.setattr(modular_mod, "is_prime", counting_is_prime)
        lo, hi = 2**61, 2**61 + 10**4
        small = presieve_primes()
        survivors = [q for q in range(lo + 1, hi, 8) if all(q % r for r in small)]
        wheel = list(primes_1_mod_8(lo, hi))
        assert wheel == [q for q in survivors if is_prime(q)] and wheel
        assert calls == survivors  # once each, in order
        assert not [q for q in calls if any(q % r == 0 for r in small)]
        calls.clear()
        assert len(list(primes_1_mod_8(0, 10**5))) > 0
        assert len(list(primes_1_mod_8(PRESIEVE**2 - 10**4, PRESIEVE**2))) > 0
        assert calls == []

    def test_streamed_primes_equal_proven_ones(self):
        # The stream yields plain ints, on the sieve path and on the
        # is_prime path, and Prime's own proof accepts each one.
        for lo, hi in ((0, 200), (2**61, 2**61 + 2000)):
            streamed = list(primes_1_mod_8(lo, hi))
            assert streamed
            for p in streamed:
                assert type(p) is int and Prime(p).value == p and p % 8 == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            list(primes_1_mod_8(-1, 10))
        with pytest.raises(ValueError):
            list(primes_1_mod_8(50, 50))
        with pytest.raises(ValueError):
            list(primes_1_mod_8(0, (1 << 62) + 1))


class TestScanConfig:
    def test_valid(self):
        cfg = ScanConfig(lo=0, hi=100, class_number_cap=50, jobs=2)
        assert (cfg.lo, cfg.hi, cfg.class_number_cap, cfg.jobs) == (0, 100, 50, 2)
        assert len(dataclasses.fields(ScanConfig)) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lo=-1, hi=10),
            dict(lo=10, hi=10),
            dict(lo=0, hi=(1 << 62) + 1),
            dict(lo=0, hi=10, jobs=0),
            dict(lo=20, hi=10),
            dict(lo=0, hi=10, class_number_cap=-1),
            dict(lo=2**61, hi=2**61 + 1000, class_number_cap=10**10 + 1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScanConfig(**kwargs)


class TestScan:
    def test_first_five_primes(self):
        report, certificates = streamed_scan(ScanConfig(lo=0, hi=100))
        assert report.primes_checked == 5
        assert report.counterexamples == [] and report.errors == []
        assert [c.p for c in certificates] == [17, 41, 73, 89, 97]
        assert report.aggregate == {
            "chi_plus_1": 1, "chi_minus_1": 4, "d_even": 1, "d_odd": 4,
        }

    def test_empty_window(self):
        report, certificates = streamed_scan(ScanConfig(lo=0, hi=16))
        assert report.primes_checked == 0 and certificates == []

    def test_class_number_cap_mixes_rows(self):
        _, certificates = streamed_scan(ScanConfig(lo=0, hi=300, class_number_cap=100))
        with_h = [c for c in certificates if c.h is not None]
        without = [c for c in certificates if c.h is None]
        assert {c.p for c in with_h} == {17, 41, 73, 89, 97}
        assert without and all(c.p > 100 for c in without)
        assert all(c.thm1_holds is True for c in with_h)
        assert all(c.thm1_holds is None for c in without)

    @pytest.mark.parametrize(
        "lo, hi, jobs",
        [
            # 8 segments, each starting at 1 (mod 8); 17, 8017 and 48017 start one
            (17, 17 + 64_000, 2),
            # 8 wheel segments; 2^61 + 10017 starts one
            (2**61 + 1, 2**61 + 1 + 8 * 2504, 2),
            # windows shorter than 4 segments per worker
            (89, 98, 3),
            (17, 18, 2),
        ],
    )
    def test_segments_neither_lose_nor_repeat_primes(self, lo, hi, jobs, monkeypatch):
        serial = scan_csv(ScanConfig(lo=lo, hi=hi))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: jobs)  # a pool on any runner
        assert scan_csv(ScanConfig(lo=lo, hi=hi, jobs=jobs)) == serial
        listed = [int(row.split(",", 1)[0]) for row in serial.splitlines()[1:]]
        assert listed == list(primes_1_mod_8(lo, hi))

    @staticmethod
    def _fake_pool(monkeypatch, cpus):
        # Patches the CPU count, and the pool with one that records its size
        # and its apply_async calls and maps in-process, so no worker is
        # ever started.  Returns the record.
        seen = SimpleNamespace(sizes=[], calls=0)

        class FakePool:
            def __init__(self, processes, *initializer):
                seen.sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def apply_async(self, fn, args):
                seen.calls += 1
                result = fn(*args)
                return SimpleNamespace(get=lambda: result)

        monkeypatch.setattr(harness.multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        return seen

    @pytest.mark.parametrize(
        "jobs, lo, hi, cpus, workers",
        [
            (100_000, 0, 100, 8, 8),  # capped by the CPUs
            (3, 89, 98, 8, 3),  # by the jobs
            (6, 17, 18, 8, 1),  # by the one segment
            (4, 0, 100, None, 1),  # an unknown CPU count counts as one
            (2, 0, 100, 1, 1),  # by the one CPU
        ],
    )
    def test_pool_size_is_capped(self, jobs, lo, hi, cpus, workers, monkeypatch):
        # One worker runs in-process and starts no pool.
        serial = scan_csv(ScanConfig(lo=lo, hi=hi))
        seen = self._fake_pool(monkeypatch, cpus)
        assert scan_csv(ScanConfig(lo=lo, hi=hi, jobs=jobs)) == serial
        assert seen.sizes == ([workers] if workers > 1 else [])

    def test_segments_are_sized_for_the_workers_started(self, monkeypatch):
        # jobs = 10^4 on two CPUs starts two workers, so the window is cut
        # into about four segments for each, not four for each job.
        serial = scan_csv(ScanConfig(lo=0, hi=10**4))
        seen = self._fake_pool(monkeypatch, 2)
        assert scan_csv(ScanConfig(lo=0, hi=10**4, jobs=10**4)) == serial
        assert seen.sizes == [2] and seen.calls == 8

    def test_workers_stay_close_to_a_slow_writer(self, monkeypatch):
        # 32 segments at jobs=2 and a writer far slower than the workers: no
        # more than 2 * workers segments may be started and not yet written,
        # else finished ones pile up in the parent.
        fork = multiprocessing.get_context("fork")
        started = fork.Value("i", 0)
        real_stream = harness.primes_1_mod_8

        def counting_stream(lo, hi):
            # called once per segment, as the worker starts it
            with started.get_lock():
                started.value += 1
            return real_stream(lo, hi)

        monkeypatch.setattr(harness, "_SEGMENT", 1 << 13)
        monkeypatch.setattr(harness, "primes_1_mod_8", counting_stream)
        # Forked workers inherit the patches whatever the platform's default.
        monkeypatch.setattr(harness, "multiprocessing", fork)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any runner
        ahead = []

        def slow_write(text):
            time.sleep(0.005)
            ahead.append(started.value - len(ahead))

        report = scan(ScanConfig(lo=0, hi=1 << 18, jobs=2), slow_write)
        assert len(ahead) == 32 and report.primes_checked == 5719
        assert max(ahead) <= 4, ahead


class TestSerialization:
    def test_csv_golden_rows(self, monkeypatch):
        def rows(config):
            return scan_csv(config).splitlines()[1:]

        assert rows(ScanConfig(lo=0, hi=42, class_number_cap=100)) == [
            "17,1,4,3,1,-1,16,16,1,4,4,1,1,1", "41,5,4,3,2,+1,32,0,0,8,0,1,1,1"]
        assert rows(ScanConfig(lo=0, hi=42)) == [
            "17,1,4,3,1,-1,16,16,1,,,,1,1", "41,5,4,3,2,+1,32,0,0,,,,1,1"]
        # the scan formats whatever tuple the core returns, here with a class
        # number whose chain fails beside a failed curve criterion
        monkeypatch.setattr(harness, "_certificate_fields", lambda p, with_class_number: (
            rigged_fields(p=p, h=12, thm1_holds=False, thm2_holds=False)))
        assert rows(ScanConfig(lo=0, hi=18)) == ["17,1,4,3,1,-1,16,16,1,12,4,0,0,1"]

    def test_columns_agree_with_certificate(self):
        # Every Certificate field, less "_holds", is a column, which the JSON
        # item reads it from; the other columns are derived from fields.
        columns = CSV_HEADER.split(",")
        names = [f.name.removesuffix("_holds") for f in dataclasses.fields(Certificate)]
        assert [name for name in names if name not in columns] == []
        assert [column for column in columns if column not in names] == ["d_parity", "h_mod_8"]
        # the scan formats the core's tuples, which are the Certificate's fields
        assert Certificate(*_certificate_fields(41, True)) == check_prime(41, True)

    def test_csv_layout(self):
        buf = io.StringIO()
        write_scan_csv(ScanConfig(lo=0, hi=100), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "p,a,b,c,d,chi,n,n_mod_32,d_parity,h,h_mod_8,thm1,thm2,corollary"
        assert len(lines) == 6
        assert all(row.count(",") == CSV_HEADER.count(",") for row in lines)

    def test_json_document(self):
        buf = io.StringIO()
        write_scan_json(ScanConfig(lo=0, hi=100, class_number_cap=50), buf)
        doc = json.loads(buf.getvalue())
        assert list(doc) == ["primes_checked", "aggregate", "counterexamples", "certificates"]
        assert doc["primes_checked"] == 5
        assert doc["counterexamples"] == []
        first = doc["certificates"][0]
        assert list(first) == [
            "p", "a", "b", "c", "d", "chi", "n", "n_mod_32",
            "h", "thm2_holds", "thm1_holds", "corollary_holds",
        ]
        assert first["p"] == 17 and first["h"] == 4 and first["thm1_holds"] is True
        above_cap = doc["certificates"][2]  # p = 73 sits above the cap of 50
        assert above_cap["h"] is None and above_cap["thm1_holds"] is None
        assert above_cap["thm2_holds"] is True

    def test_dict_key_order(self):
        # check and the JSON counterexamples serialize through vars, and scan
        # --format json items take their keys from fields(Certificate)
        cert = Certificate(*rigged_fields())
        assert list(vars(cert)) == [
            "p", "a", "b", "c", "d", "chi", "n", "n_mod_32",
            "h", "thm2_holds", "thm1_holds", "corollary_holds",
        ]


# (id, argv, exit status, sha256 of stdout) of each check --trace whose
# bytes are pinned.  chi = +1 runs the order-8 search; chi = -1 never does.
PINNED_TRACES = (
    ("p41", ["check", "41", "--trace"], 0,
     "0404b6123f1210c4f0093ecd1ff6c083643934d452de21f6b81d57751c4a2ba1"),
    ("p113", ["check", "113", "--trace"], 0,
     "ad35622dab12158131aac7fe439710069725a470e9178894789ddfebf1bea612"),
    ("p10009", ["check", "10009", "--trace"], 0,
     "6187c5109bba1ec4309dfe019cb96b6f76357e1c90aa461690a30b6452827e37"),
    ("2^30-chi-minus", ["check", "1073741833", "--trace"], 0,
     "6ebaeb63eaa8a41a6d7a841d5dab5ac36bf25bdf07a045fb50a1a3c8e0f1d402"),
    ("2^30-chi-plus", ["check", "1073741857", "--trace"], 0,
     "be9112d3186e84013b071ec35dca474fb54fe3b6738a70af5da8ee0224100a88"),
    ("2^61-chi-minus", ["check", "2305843009213694009", "--trace"], 0,
     "976fd050dcee1748d3f90b10bb32f08eb84af564611fcd0c4e39f03a54b16a36"),
    ("2^61-chi-plus", ["check", "2305843009213694257", "--trace"], 0,
     "59b5dd2b3c4d08f6cd03fcd9092c4ac2b2d62c323f50a1feee7eb09b31c2cf14"),
    # the two primes where the seed-0 order-8 search rejects the most samples
    ("most-rejects-912165368213634649", ["check", "912165368213634649", "--trace"], 0,
     "a431037143421d76e3b92a52e25dfd5fd1c32d7a480d0b6e5623d563003f4ae5"),
    ("most-rejects-4518101904374809", ["check", "4518101904374809", "--trace"], 0,
     "c59b06502a3a6ba7a928e21edb6648f683f07d29012ab25cdfb2214e632c04cc"),
    # the two primes where the seed-0 order-8 search finds nothing
    ("miss-2476681", ["check", "2476681", "--trace"], 2,
     "6f0353c1137bd5f2afb4c43ccab505352642f9df8d3bcc9d103c61ccd463850b"),
    ("miss-528423887209", ["check", "528423887209", "--trace"], 2,
     "5beb0774989d842208e47f9e923217b8ac69f367f670394b3188a5f338050c7a"),
)


class TestCliCheck:
    @pytest.mark.parametrize(
        "argv, status, digest",
        [pytest.param(argv, status, digest, id=name)
         for name, argv, status, digest in PINNED_TRACES],
    )
    def test_trace_bytes_pinned(self, argv, status, digest, capsys):
        # The trace bytes, order-8 point included, are pinned: a change to
        # the group law or the sampler must not move them.
        assert main(argv) == status
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_pass(self, capsys):
        assert main(["check", "41"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == 41 and doc["chi"] == 1 and "trace" not in doc

    def test_with_class_number_and_trace(self, capsys):
        assert main(["check", "41", "--class-number", "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["h"] == 8 and doc["thm1_holds"] is True
        assert doc["trace"]["consistent"] is True
        assert doc["trace"]["orbit_landed_is_square"] is True

    def test_parser_keeps_no_state_between_calls(self, capsys, monkeypatch):
        # main reuses one parser; a seed or a failed parse must not carry over.
        import cm_octic.cli as cli_mod

        seeds = []
        real_trace = cli_mod.proof_trace

        def recording_trace(p, seed):
            seeds.append(seed)
            return real_trace(p, seed=seed)

        monkeypatch.setattr(cli_mod, "proof_trace", recording_trace)
        assert main(["check", "41", "--trace", "--seed", "3"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "41", "--seed"])
        assert exc.value.code == 1
        assert main(["check", "41", "--trace"]) == 0
        assert main(["check", "41"]) == 0
        assert seeds == [3, 0]
        assert cli_mod._build_parser() is cli_mod._build_parser()
        capsys.readouterr()

    def test_composite_rejected(self, capsys):
        assert main(["check", "15"]) == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_residue_class_rejected(self):
        assert main(["check", "7"]) == 1
        assert main(["check", "13"]) == 1

    def test_counterexample_exit(self, capsys, monkeypatch):
        import cm_octic.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "check_prime",
            lambda p, **kw: Certificate(*rigged_fields(thm2_holds=False)),
        )
        assert main(["check", "17"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["thm2_holds"] is False

    def test_invariant_exit(self, capsys, monkeypatch):
        import cm_octic.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "check_prime",
            lambda p, **kw: ErrorCertificate(p=17, stage="chi", message="boom"),
        )
        assert main(["check", "17"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["stage"] == "chi"


class TestCliTrace:
    @pytest.mark.parametrize(
        "p, status, digest",
        [
            ("41", 0, "608f487ac652ee573695e44ba5e3358740bd0f9c6083d2b8fde953cc7f510b04"),
            # the seed-0 order-8 search finds nothing here, and says so
            ("2476681", 2, "41b78ef29814a38834c56c5dad352163b03c1db9f20edd2c8492781b8d079ce2"),
        ],
        ids=["p41", "miss-2476681"],
    )
    def test_bytes_pinned(self, p, status, digest, capsys):
        assert main(["trace", p]) == status
        out = capsys.readouterr().out
        assert ("order-8 point: none found in the samples" in out) == (status == 2)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p", ["13", "15"], ids=["wrong-class", "composite"])
    def test_bad_prime_is_a_usage_error(self, p, capsys):
        assert main(["trace", p]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("cm-octic: error: ")

    def test_failed_order_check_is_an_invariant_violation(self, monkeypatch, capsys):
        from cm_octic import curve

        # The sampler's odd-part multiplier is never 4, so only the check sees this.
        real = curve._scalar_mul_int
        monkeypatch.setattr(curve, "_scalar_mul_int",
                            lambda k, P, n: None if k == 4 else real(k, P, n))
        assert main(["trace", "41"]) == 3
        assert "no exact order 8 mod 41" in capsys.readouterr().err

    def test_doubling_that_never_reaches_o_is_an_invariant_violation(self):
        # A doubling that fixes every point never reaches O; the order count stops
        # after v2(#E) steps.  A child runs it, so a count without that bound is killed.
        code = ("from cm_octic import curve\nfrom cm_octic.cli import main\n"
                "real = curve._add_int\n"
                "curve._add_int = lambda P, Q, n: P if P == Q else real(P, Q, n)\n"
                "raise SystemExit(main(['check', '41', '--trace']))")
        done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 3, done.stderr
        assert "S is not O after v2(#E) = 5 doublings mod 41" in done.stderr
        assert "Traceback" not in done.stderr


# JSON values as check and decompose print them, and more: big and negative
# ints, strings that need escaping, empty and nested containers.
_JSON_KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)
_JSON_LEAVES = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63)),
    st.booleans(),
    st.none(),
    st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                      st.characters()), max_size=12),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.just(()), st.dictionaries(_JSON_KEYS, inner, max_size=4)),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("argv", [["check", "41"], ["check", "41", "--trace"]])
    def test_planted_fault_prints_the_error_certificate(self, argv, monkeypatch, capsys):
        # Roots that are not roots make check_prime return an ErrorCertificate,
        # with or without --trace; its strings are the writer's only leaves
        # that go through json.dumps.
        from cm_octic import criteria

        monkeypatch.setattr(criteria, "_i_and_sqrt2", lambda n: (2, 3))
        cert = criteria.check_prime(41)
        assert isinstance(cert, ErrorCertificate)
        assert main(argv) == 3
        assert capsys.readouterr().out == json.dumps(vars(cert), indent=2) + "\n"


# (id, argv, sha256 of stdout) of each scan whose bytes are pinned.
PINNED_SCANS = (
    ("csv-sieve", ["scan", "--from", "0", "--to", "200000"],
     "6f407767f1903bc8dc1e09acadd65ff2de1f1686683b9e57357ca4c49306cd0d"),
    ("json-class-numbers",
     ["scan", "--from", "0", "--to", "20000", "--class-number-cap", "20000",
      "--format", "json"],
     "0d80bf89f8387441051d2f08b58a7062d92cb5023a12e5cb3ca852984c47da65"),
    ("csv-wheel", ["scan", "--from", str(2**61), "--to", str(2**61 + 20000)],
     "b9fd66aad0d9e1d0b6fd984b9ecb3425ba6d2e0747e14f2563e99db2eb3629a3"),
    # 2,369 primes; spans 2^33 and PRESIEVE^2, so its scan segments
    # take both the proven and the is_prime path
    ("csv-presieve-bound", ["scan", "--from", "8589834592", "--to", "8590053124"],
     "eb056730915bface11d283dd8541997b088b5238af522a95bfbd85e836de5353"),
    # 23,594 primes; its segments below 2^32 sieve with the 2^16 table, and
    # those above it with the PRESIEVE table, the cap of the 2^17 class
    ("csv-size-classes", ["scan", "--from", str(2**32 - 2**20), "--to", str(2**32 + 2**20)],
     "860b024a19afe31b894fcc43866c46af4b3c273cfe59b2d9efeaf1e1516b11ad"),
    # 119 primes just below the 2**62 modulus bound
    ("csv-modulus-bound", ["scan", "--from", str(2**62 - 20000), "--to", str(2**62)],
     "17b0f94745a0578eb9ce9948f6fc587c37473e8c972d550f10e16068a9c24bcd"),
)


class TestCliScan:
    def test_stdout_csv(self, capsys):
        assert main(["scan", "--from", "0", "--to", "100"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 6
        assert "counterexamples: 0" in captured.err

    def test_json_format(self, capsys):
        assert main(["scan", "--from", "0", "--to", "100", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["primes_checked"] == 5

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        assert main(["scan", "--from", "0", "--to", "100", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().splitlines()[0] == CSV_HEADER

    def test_time_covers_the_write(self, monkeypatch, capsys):
        # The figure on stderr is the whole command's, JSON render included.
        from cm_octic import cli

        def slow_write(config, out):
            time.sleep(0.3)
            return write_scan_json(config, out)

        monkeypatch.setattr(cli, "write_scan_json", slow_write)
        assert main(["scan", "--from", "0", "--to", "100", "--format", "json"]) == 0
        err = capsys.readouterr().err
        assert float(re.search(r" in ([0-9.]+)s;", err).group(1)) >= 0.3, err

    def test_bad_range(self, capsys):
        assert main(["scan", "--from", "100", "--to", "50"]) == 1
        assert "error" in capsys.readouterr().err

    def test_class_number_cap_over_default(self, capsys):
        argv = ["scan", "--from", "0", "--to", "100", "--class-number-cap", "10000000001"]
        assert main(argv) == 1
        assert "class_number_cap" in capsys.readouterr().err

    def test_missing_arguments_remap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--from", "0"])
        assert exc.value.code == 1

    def test_counterexample_exit(self, capsys, monkeypatch):
        import cm_octic.harness as harness_mod

        monkeypatch.setattr(
            harness_mod, "_certificate_fields",
            lambda p, with_class_number: rigged_fields(thm2_holds=False),
        )
        assert main(["scan", "--from", "0", "--to", "20"]) == 2
        captured = capsys.readouterr()
        assert "counterexamples: 1" in captured.err
        assert captured.out.splitlines()[1].endswith(",0,1")

    def test_invariant_exit(self, capsys, monkeypatch):
        import cm_octic.harness as harness_mod

        monkeypatch.setattr(
            harness_mod, "_certificate_fields",
            lambda p, with_class_number: ErrorCertificate(p=17, stage="chi", message="boom"),
        )
        assert main(["scan", "--from", "0", "--to", "20"]) == 3
        assert "invariant violation at p=17" in capsys.readouterr().err

    def test_invariant_exit_keeps_certified_rows(self, tmp_path, capsys, monkeypatch):
        import cm_octic.harness as harness_mod

        real_fields = harness_mod._certificate_fields

        def fail_at_41(p, with_class_number):
            if p == 41:
                return ErrorCertificate(p=41, stage="chi", message="boom")
            return real_fields(p, with_class_number)

        monkeypatch.setattr(harness_mod, "_certificate_fields", fail_at_41)
        target = tmp_path / "scan.csv"
        assert main(["scan", "--from", "0", "--to", "100", "--out", str(target)]) == 3
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [row.split(",", 1)[0] for row in lines[1:]] == ["17", "73", "89", "97"]
        assert "invariant violation at p=41" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param([*argv, "--jobs", str(jobs)], digest,
                         id=name if jobs == 1 else f"{name}-jobs2")
            for jobs in (1, 2)
            for name, argv, digest in PINNED_SCANS
        ],
    )
    def test_output_bytes_pinned(self, argv, digest, capsys):
        # The certificate bytes are pinned, and do not depend on the worker
        # count: a change to them must be deliberate.
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "hi, cap, rows",
        [
            (2000, 2000, ["  chi = +1:  h%8=0: 30", "  chi = -1:  h%8=4: 38"]),
            # 17 is the only prime, and its chi is -1
            (20, 20, ["  chi = +1:  none", "  chi = -1:  h%8=4: 1"]),
            (2000, 0, []),
        ],
        ids=["both-characters", "no-plus-one", "no-class-numbers"],
    )
    def test_class_number_tally(self, hi, cap, rows, capsys):
        argv = ["scan", "--from", "0", "--to", str(hi), "--class-number-cap", str(cap)]
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("checked ") and err[1:] == rows

    def test_bad_out_path_fails_before_scanning(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "scan", calls.append)
        for target in (tmp_path, tmp_path / "missing" / "scan.csv"):
            assert main(["scan", "--from", "0", "--to", "100", "--out", str(target)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("cm-octic: error: ")
        assert calls == []

    @pytest.mark.parametrize(
        "exc, status, err",
        [(OSError(28, "No space left on device"), 1,
          "cm-octic: error: [Errno 28] No space left on device\n"),
         (KeyboardInterrupt(), 130, "cm-octic: interrupted\n")],
        ids=["os-error", "interrupt"],
    )
    def test_failing_sink_stops_the_workers(self, exc, status, err, capsys, monkeypatch):
        # The --out file fails after the header and the first segment, while
        # the pool still has segments to check.  The workers are gone when
        # main returns, not once garbage collection reaches the pool.
        import cm_octic.cli as cli_mod

        class FailingSink(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 2:
                    raise exc
                return super().write(text)

        monkeypatch.setattr(cli_mod, "open", lambda path, mode: FailingSink(), raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any runner
        argv = ["scan", "--from", "0", "--to", "4000000", "--jobs", "2", "--out", "scan.csv"]
        assert main(argv) == status
        assert capsys.readouterr().err == err
        assert multiprocessing.active_children() == []

    def test_error_in_a_middle_segment(self, tmp_path, capsys, monkeypatch):
        # [0, 20000) is 4 segments at jobs=1 and 8 at jobs=2, and p = 10009
        # lies in a middle one of each.  The rows on both sides of it are
        # written, in order, and the bytes do not depend on the job count.
        real_fields = harness._certificate_fields

        def fail_at_10009(p, with_class_number):
            if p == 10009:
                return ErrorCertificate(p=10009, stage="chi", message="planted")
            return real_fields(p, with_class_number)

        monkeypatch.setattr(harness, "_certificate_fields", fail_at_10009)
        # Forked workers inherit the patch whatever the platform's default.
        monkeypatch.setattr(harness, "multiprocessing", multiprocessing.get_context("fork"))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any runner
        expected = [p for p in primes_1_mod_8(0, 20000) if p != 10009]
        outputs = {}
        for jobs in (1, 2):
            for fmt in ("csv", "json"):
                target = tmp_path / f"jobs{jobs}.{fmt}"
                argv = ["scan", "--from", "0", "--to", "20000", "--class-number-cap", "20000",
                        "--format", fmt, "--jobs", str(jobs), "--out", str(target)]
                assert main(argv) == 3
                assert capsys.readouterr().err == "invariant violation at p=10009 [chi]: planted\n"
                outputs[jobs, fmt] = target.read_text()
        rows = outputs[1, "csv"].splitlines()
        assert rows[0] == CSV_HEADER
        assert [int(row.split(",", 1)[0]) for row in rows[1:]] == expected
        doc = json.loads(outputs[1, "json"])
        assert doc["primes_checked"] == len(expected) + 1
        assert [c["p"] for c in doc["certificates"]] == expected
        # the bytes json.dump(indent=2) writes for the whole document
        assert first_difference(outputs[1, "json"], json.dumps(doc, indent=2) + "\n") is None
        assert first_difference(outputs[1, "csv"], outputs[2, "csv"]) is None
        assert first_difference(outputs[1, "json"], outputs[2, "json"]) is None

    @pytest.mark.parametrize(
        "fmt, jobs",
        [("csv", 1), ("csv", 2), ("json", 1), ("json", 2)],
        ids=["1", "2", "json-1", "json-2"],
    )
    def test_memory_does_not_grow_with_the_window(self, fmt, jobs, tmp_path, monkeypatch):
        # With segments 8192 wide, [0, 2^18) has four times the segments and
        # primes of [0, 2^16), but the parent holds only the segments in
        # flight, and JSON reads its spool back one row at a time: its
        # traced peak must stay put.  Holding every certificate until the
        # end took it from 0.46 MB to 1.73 MB at jobs=1.
        # At jobs=2 both windows peak with 2 * workers segments outstanding.
        monkeypatch.setattr(harness, "_SEGMENT", 1 << 13)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: jobs)  # a pool on any runner
        outstanding = write_when_the_window_is_full(monkeypatch) if jobs > 1 else []
        target = tmp_path / f"scan.{fmt}"
        traced_scan_peak(1 << 16, fmt, jobs, target)  # warm-up: the sieve tables and root caches fill
        small = traced_scan_peak(1 << 16, fmt, jobs, target)
        large = traced_scan_peak(1 << 18, fmt, jobs, target)
        assert large <= 1.25 * small, (small, large)
        if jobs > 1:
            ahead = 2 * min(jobs, os.cpu_count() or 1)
            assert len(outstanding) == 8 + 8 + 32 and max(outstanding) == ahead, outstanding

    def test_json_memory_matches_csv(self, tmp_path):
        # The indented JSON of rows read back from the spool weighs some 50
        # times their CSV bytes, so JSON renders one row at a time to peak
        # near the scan that the CSV path runs.  On [0, 3*10^5), reading back
        # a whole segment's bytes at once peaked at 14.1 MB against 0.47 MB
        # for CSV; one row at a time peaks at 0.48 MB.
        traced_scan_peak(10**4, "csv", 1, tmp_path / "warm.csv")  # the sieve tables and root caches fill
        csv = traced_scan_peak(3 * 10**5, "csv", 1, tmp_path / "scan.csv")
        as_json = traced_scan_peak(3 * 10**5, "json", 1, tmp_path / "scan.json")
        assert as_json <= 3 * csv, (csv, as_json)

    @pytest.mark.parametrize(
        "hi, segment, rigged",
        [(16, None, None), (1 << 16, 1 << 13, None), (100, None, {"thm2_holds": False}),
         (100, None, {"h": 8, "thm1_holds": False})],
        ids=["empty", "batches", "counterexamples", "counterexamples-h"],
    )
    def test_json_bytes(self, hi, segment, rigged, monkeypatch):
        # The document is the bytes json.dump(indent=2) writes for it, at
        # either job count: with no certificates, with the rows of many
        # segments read back from the spool, and with counterexamples in the
        # header.  Between them the items hold every kind of value the item
        # template fills in: numbers, chi = -1 and +1, null, true and false,
        # and h and thm1 both null and not.
        if segment:
            monkeypatch.setattr(harness, "_SEGMENT", segment)
        if rigged:
            monkeypatch.setattr(harness, "_certificate_fields",
                                lambda p, with_class_number: rigged_fields(p=p, **rigged))
        # Forked workers inherit the patches whatever the platform's default.
        monkeypatch.setattr(harness, "multiprocessing", multiprocessing.get_context("fork"))
        outputs = []
        for jobs in (1, 2):
            buf = io.StringIO()
            write_scan_json(ScanConfig(lo=0, hi=hi, jobs=jobs), buf)
            outputs.append(buf.getvalue())
        out = outputs[0]
        assert first_difference(out, json.dumps(json.loads(out), indent=2) + "\n") is None
        assert first_difference(outputs[1], out) is None
        doc = json.loads(out)
        report, certificates = streamed_scan(ScanConfig(lo=0, hi=hi))
        # compared as JSON text, where false is not 0 and true is not 1
        assert [json.dumps(c) for c in doc["certificates"]] == [
            json.dumps(vars(c)) for c in certificates]
        assert doc["counterexamples"] == (doc["certificates"] if rigged else [])
        assert doc["primes_checked"] == report.primes_checked == len(certificates)
        if segment:  # the spooled rows fill more than four segments
            assert len(scan_csv(ScanConfig(lo=0, hi=hi))) - len(CSV_HEADER + "\n") > 4 * segment
        else:
            assert len(certificates) == (5 if rigged else 0)

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # far more output than a pipe holds, so the writer meets the closed end
            (["scan", "--from", "0", "--to", "400000"], 1),
            (["scan", "--from", "0", "--to", "400000", "--format", "json"], 1),
            # the pool is still checking segments when the write fails
            (["scan", "--from", "0", "--to", "4000000", "--jobs", "2"], 1),
            # a few kB, still in stdout's buffer when the command returns
            (["check", "41", "--trace"], 0),
            (["trace", "41"], 0),
        ],
        ids=["scan-csv", "scan-json", "scan-csv-jobs2", "check-buffered", "trace-buffered"],
    )
    def test_reader_closing_early_exits_141(self, argv, lines_read):
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as under a shell pipe
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd, "rb")
        if not lines_read:
            reader.close()  # before the child starts, so its every write fails
        child = subprocess.Popen([sys.executable, "-m", "cm_octic.cli", *argv], env=env,
                                 stdout=write_fd, stderr=subprocess.PIPE)
        os.close(write_fd)
        for _ in range(lines_read):
            assert reader.readline()
        reader.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 141, err
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_exits_130_with_one_line(self, jobs, tmp_path):
        # SIGINT to the whole process group, as Ctrl-C sends it, once rows
        # are in the file: only the parent reports it, in one line.
        out = tmp_path / "scan.csv"
        child = subprocess.Popen(
            [sys.executable, "-m", "cm_octic.cli", "scan", "--from", "0", "--to", str(10**8),
             "--jobs", str(jobs), "--out", str(out)],
            env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not (out.exists() and out.stat().st_size > len(CSV_HEADER) + 1):
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(child.pid, signal.SIGINT)
            stdout, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        assert child.returncode == 130, err
        assert stdout == "" and err == "cm-octic: interrupted\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["scan", "--from", "0", "--to", "100", "--format", "xml"],
            ["scan", "--from", "0", "--to", "100", "--seed", "1"],
            ["check", "41", "--format", "json"],
            ["classno", "41", "--cap", "100"],
        ],
    )
    def test_rejected_options(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(extra)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err


# (id, primes, sha256 over each argv, its exit status and its stdout) of
# decompose and curve-order.  27 * 2^56 + 1 = 1 (mod 8) gives Tonelli-Shanks,
# which canonical_i and canonical_sqrt2 run, its longest order loop at 61 bits.
PINNED_ROOT_COMMANDS = (
    ("below-2*10^4", [q for q in trial_division_primes(20000) if q % 4 == 1],
     "b5f32b7ae57066bc5d295bbfbd8defb141086a28b8daea76146718643db439e1"),
    ("seeded-61-bit-1-mod-8", seeded_primes(30, 61, 32, residue=1),
     "7f9da14fda82be6d1d6038dc92035ab568c914cbcfb9dfd46ecd3432a25fd5f3"),
    ("seeded-61-bit-5-mod-8", seeded_primes(30, 61, 32, residue=5),
     "464ce8251255e2dcc4d08a0121cce59e702e8a541d91eba53f92d760e1c0b637"),
    ("2^56-divides-p-1", [27 * 2**56 + 1],
     "8b00ff17a3c8351a5e30fde986140df79f0e15ae2572f93e1f2239bd33e350c2"),
)


class TestCliOther:
    @pytest.mark.parametrize("primes, digest",
                             [pytest.param(primes, digest, id=name)
                              for name, primes, digest in PINNED_ROOT_COMMANDS])
    def test_root_commands_bytes_pinned(self, primes, digest, capsys):
        # decompose and curve-order take their roots from canonical_i and
        # canonical_sqrt2; their bytes must not move with how the roots are made.
        h = hashlib.sha256()
        for p in primes:
            for command in ("decompose", "curve-order"):
                status = main([command, str(p)])
                h.update(f"{command} {p}: {status}\n{capsys.readouterr().out}".encode())
        assert h.hexdigest() == digest

    def test_decompose_one_mod_eight(self, capsys):
        assert main(["decompose", "17"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"p": 17, "a": 1, "b": 4, "c": 3, "d": 1}

    def test_decompose_five_mod_eight(self, capsys):
        assert main(["decompose", "13"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"p": 13, "a": 3, "b": 2}

    def test_decompose_rejects_three_mod_four(self):
        assert main(["decompose", "7"]) == 1

    def test_classno(self, capsys):
        assert main(["classno", "41"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_classno_rejects_composite(self):
        assert main(["classno", "15"]) == 1

    @pytest.mark.parametrize("argv", [["classno", "697"], ["check", "697"], ["trace", "697"],
                                      ["classno", "9998200081"], ["check", "8321"],
                                      ["check", "5777"], ["check", "1194649"]])
    def test_composite_1_mod_8_is_a_usage_error(self, argv, capsys):
        # 697 = 17 * 41 and 99991^2 pass every residue-class check; check
        # and trace reject them by check_prime's proof, classno by the count.
        # 8321 and 1093^2 are base-2 strong pseudoprimes and 5777 a strong
        # Lucas one, none with a factor up to 37: one half of the proof
        # alone rejects each.
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"cm-octic: error: modulus must be prime, got {argv[1]}\n"

    def test_classno_rejects_wrong_class(self):
        assert main(["classno", "13"]) == 1

    def test_classno_rejects_above_limit(self, capsys):
        assert main(["classno", "10000000033"]) == 1
        assert "exceeds the class-number limit" in capsys.readouterr().err

    def test_curve_order(self, capsys):
        assert main(["curve-order", "73"]) == 0
        assert capsys.readouterr().out.strip() == "80"
        # p = 5 (mod 8): canonical_i alone supplies i, as no sqrt(2) exists.
        assert main(["curve-order", "13"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_curve_order_rejects_wrong_class(self):
        assert main(["curve-order", "7"]) == 1

    def test_selftest(self, capsys, monkeypatch):
        # Each of the six checks runs in tier-1 through its own test; this
        # one pins the command's PASS/FAIL lines and exit codes, and that a
        # check failing with any exception does not stop the later ones.
        assert len(selftest.CHECKS) == 6

        def passing():
            return "fine"

        def raising():
            raise InvariantViolation("planted")

        monkeypatch.setattr(selftest, "CHECKS", (passing,))
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == "PASS passing: fine\n"
        monkeypatch.setattr(selftest, "CHECKS", (raising, passing))
        assert main(["selftest"]) == 3
        assert capsys.readouterr().out == (
            "FAIL raising: InvariantViolation: planted\nPASS passing: fine\n"
        )

    def test_selftest_lists_its_own_primes(self, monkeypatch):
        # A prime stream that yields nothing must not empty the checks.
        def empty(lo, hi):
            return iter(())

        monkeypatch.setattr(selftest, "primes_1_mod_8", empty, raising=False)
        monkeypatch.setattr(harness, "primes_1_mod_8", empty)
        assert selftest.check_canonical_roots() == "canonical roots verified for 101 primes < 3000"
        assert selftest.check_point_counts() == "CM order = naive count for 68 primes < 2000"
        assert selftest.check_decompositions() == (
            "decompositions cross-checked for 556 primes < 20000")
        assert selftest.check_criteria_small() == (
            "criteria + class numbers verified for 161 primes < 5000")

    def test_selftest_catches_a_fault_under_optimize(self):
        # python -O strips assert statements; the checks must still fail,
        # and on the planted fault, not on a call that no longer fits.
        code = (
            "import cm_octic.selftest as s\n"
            "s.CHECKS = (s.check_point_counts,)\n"
            "clean = s.run_all()\n"
            "real = s.curve_order\n"
            "s.curve_order = lambda n, i: real(n, i) + 8\n"
            "print(__debug__, clean, s.run_all())\n"
        )
        done = subprocess.run([sys.executable, "-O", "-c", code], env=package_env(),
                              capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        assert lines[-1].split() == ["False", "True", "False"]
        assert lines[-2] == ("FAIL check_point_counts: AssertionError: "
                             "curve order != naive count at 17")


class TestSeedResolution:
    def test_default(self, capsys):
        # check --trace samples with seed 0 unless --seed says otherwise;
        # at p = 113 seed 5 finds another order-8 point.
        outputs = []
        for extra in ([], ["--seed", "0"], ["--seed", "5"]):
            assert main(["check", "113", "--trace", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]
