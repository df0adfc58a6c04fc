"""Acceptance suite: eight criteria, one test and one printed verdict each.

Each test prints a single "[PASS] criterion-N: ..." line on success; an
assertion failure carries the criterion number in its message.
"""

import io
import time
from math import isqrt

from cm_octic import selftest
from cm_octic.criteria import (
    Certificate,
    check_prime,
    chi_one_plus_sqrt2,
    euler_symbol,
    proof_trace,
)
from cm_octic.harness import (
    ScanConfig,
    primes_1_mod_8,
    scan,
    write_scan_csv,
    write_scan_json,
)
from cm_octic.modular import canonical_sqrt2, jacobi, sqrt_mod

from conftest import (
    box_class_number,
    brute_two_squares,
    eight_decomposition_search,
    first_principles_chi,
    streamed_scan,
)


def eratosthenes(limit: int) -> list[int]:
    # independent of the package's segmented sieve
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


def run_criterion(n: int, check) -> str:
    # The shared selftest check, its failure tagged with the criterion number.
    try:
        return check()
    except AssertionError as exc:
        raise AssertionError(f"criterion-{n}: {exc}") from exc


def test_criterion_1_golden_certificates():
    goldens = {
        17: ((1, 4), (3, 1), -1, 16, 4),
        41: ((5, 4), (3, 2), 1, 32, 8),
        73: ((-3, 8), (1, 3), -1, 80, 4),
        113: ((-7, 8), (9, 2), 1, 128, None),
    }
    for v, (ab, cd, chi, n, h) in goldens.items():
        # re-derive every golden from brute-force oracles before comparing
        assert brute_two_squares(v) == ab, f"criterion-1 oracle mismatch at {v}"
        assert eight_decomposition_search(v) == cd, f"criterion-1 oracle mismatch at {v}"
        assert first_principles_chi(v) == chi, f"criterion-1 oracle mismatch at {v}"
        if h is not None:
            assert box_class_number(v) == h, f"criterion-1 oracle mismatch at {v}"
        cert = check_prime(v, with_class_number=h is not None)
        assert isinstance(cert, Certificate), f"criterion-1: stage failure at {v}"
        assert (cert.a, cert.b) == ab, f"criterion-1: two-square mismatch at {v}"
        assert (cert.c, cert.d) == cd, f"criterion-1: eight-decomposition mismatch at {v}"
        assert cert.chi == chi, f"criterion-1: chi mismatch at {v}"
        assert cert.n == n, f"criterion-1: curve order mismatch at {v}"
        assert cert.h == h, f"criterion-1: class number mismatch at {v}"
        assert cert.all_hold, f"criterion-1: criteria failed at {v}"
    print("[PASS] criterion-1: golden certificates exact at p=17, 41, 73, 113")


def test_criterion_2_point_count_oracle():
    t0 = time.perf_counter()
    detail = run_criterion(2, selftest.check_point_counts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion-2: {elapsed:.2f}s exceeds the 5 s budget"
    print(f"[PASS] criterion-2: {detail} in {elapsed:.2f}s (< 5 s)")


def test_criterion_3_exhaustive_eta_suite():
    t0 = time.perf_counter()
    detail = run_criterion(3, selftest.check_eta_suite)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion-3: {elapsed:.2f}s exceeds the 5 s budget"
    print(f"[PASS] criterion-3: {detail} in {elapsed:.2f}s (< 5 s)")


def test_criterion_4_million_scan():
    expected = sum(1 for q in eratosthenes(10**6) if q % 8 == 1)
    t0 = time.perf_counter()
    report = scan(ScanConfig(lo=0, hi=10**6, jobs=1), lambda text: None)
    elapsed = time.perf_counter() - t0
    assert report.errors == [], "criterion-4: invariant violations during scan"
    assert report.counterexamples == [], \
        f"criterion-4: counterexamples at {[c.p for c in report.counterexamples]}"
    assert report.primes_checked == expected, "criterion-4: prime stream miscounts"
    assert elapsed < 60.0, f"criterion-4: {elapsed:.2f}s exceeds the 60 s budget"
    print(f"[PASS] criterion-4: {report.primes_checked} primes < 10^6, "
          f"0 counterexamples, {elapsed:.2f}s (< 60 s)")


def test_criterion_5_class_number_scan():
    expected = sum(1 for q in eratosthenes(10**5) if q % 8 == 1)
    t0 = time.perf_counter()
    report, certificates = streamed_scan(ScanConfig(lo=0, hi=10**5, class_number_cap=10**5))
    elapsed = time.perf_counter() - t0
    assert report.errors == [] and report.counterexamples == [], \
        "criterion-5: three-way chain broke"
    assert report.primes_checked == expected
    assert all(c.h is not None and c.thm1_holds is True for c in certificates), \
        "criterion-5: a class-number verdict is missing"
    assert elapsed < 120.0, f"criterion-5: {elapsed:.2f}s exceeds the 120 s budget"
    print(f"[PASS] criterion-5: chi=+1 <=> d even <=> 8 | h(-4p) for "
          f"{report.primes_checked} primes < 10^5, {elapsed:.2f}s (< 120 s)")


def test_criterion_6_well_definedness():
    t0 = time.perf_counter()
    checked = 0
    for v in primes_1_mod_8(0, 10**6):
        lo, hi = sqrt_mod(2, v)
        s_lo = euler_symbol((lo + 1) % v, v)
        s_hi = euler_symbol((hi + 1) % v, v)
        assert s_lo == s_hi == chi_one_plus_sqrt2(v, canonical_sqrt2(v)), \
            f"criterion-6: chi depends on the root at {v}"
        assert s_lo * euler_symbol((1 - lo) % v, v) == 1, \
            f"criterion-6: conjugate product != +1 at {v}"
        assert jacobi(-1, v) == 1, f"criterion-6: (-1|p) != +1 at {v}"
        checked += 1
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion-6: chi well defined over both roots for "
          f"{checked} primes < 10^6 in {elapsed:.2f}s")


def test_criterion_7_determinism_across_jobs():
    outputs = {}
    for jobs in (1, 4):
        config = ScanConfig(lo=0, hi=10**5, jobs=jobs)
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_scan_csv(config, csv_buf)
        write_scan_json(config, json_buf)
        outputs[jobs] = (csv_buf.getvalue(), json_buf.getvalue())
    assert outputs[1][0] == outputs[4][0], "criterion-7: CSV differs across jobs"
    assert outputs[1][1] == outputs[4][1], "criterion-7: JSON differs across jobs"
    size = len(outputs[1][0])
    print(f"[PASS] criterion-7: scan of [0, 10^5) byte-identical for jobs in "
          f"{{1, 4}} ({size} CSV bytes)")


def test_criterion_8_proof_traces():
    t0 = time.perf_counter()
    traced = 0
    for p in primes_1_mod_8(0, 10**4):
        if chi_one_plus_sqrt2(p, canonical_sqrt2(p)) != 1:
            continue
        tr = proof_trace(check_prime(p))
        assert tr.order8_applicable, f"criterion-8: 32 should divide n at {p}"
        assert tr.order8_point is not None, f"criterion-8: no order-8 point at {p}"
        assert tr.orbit_landed_x is not None and tr.orbit_landed_x in tr.level4_x, \
            f"criterion-8: orbit missed the level-4 set at {p}"
        assert tr.orbit_landed_is_square is True, \
            f"criterion-8: landed x not a square at {p}"
        assert tr.preimage_direction_holds and tr.order8_direction_holds, \
            f"criterion-8: direction check failed at {p}"
        assert tr.consistent, f"criterion-8: inconsistent trace at {p}"
        traced += 1
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion-8: proof trace consistent for all {traced} "
          f"chi=+1 primes < 10^4 in {elapsed:.2f}s")
