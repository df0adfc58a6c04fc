"""Certificates and proof traces for the character criteria."""

import dataclasses
import json
import multiprocessing
import random
import sys
from collections import Counter
from itertools import islice

import pytest

from cm_octic import criteria, curve, decompose, modular, selftest
from cm_octic.criteria import (
    Certificate,
    ErrorCertificate,
    check_prime,
    chi_one_plus_sqrt2,
    proof_trace,
)
from cm_octic.cli import main
from cm_octic.errors import InvariantViolation
from cm_octic.harness import ScanConfig, primes_1_mod_8
from cm_octic.modular import canonical_i, canonical_sqrt2, sqrt_mod

from conftest import (
    euler_criterion,
    field_proof_trace_oracle,
    sprp_prime_bases,
    squares_mod,
    streamed_scan,
    trial_division_primes,
)


def norm_form_gcd(p: int, r: int, k: int) -> tuple[int, int]:
    """(|x|, |y|) with x^2 + k*y^2 = p, for k in (1, 2) and r^2 = -k (mod p).

    Euclid's algorithm in Z[sqrt(-k)], which is Euclidean for these k, on p
    and r + sqrt(-k): their gcd is a prime of norm p.  It shares nothing
    with the package's Cornacchia descent.
    """
    a, b = (p, 0), (r, 1)
    while b != (0, 0):
        (x1, y1), (x2, y2) = a, b
        norm = x2 * x2 + k * y2 * y2
        re, im = x1 * x2 + k * y1 * y2, y1 * x2 - x1 * y2  # a * conj(b)
        q1 = (2 * re + norm) // (2 * norm)  # nearest integers to a / b
        q2 = (2 * im + norm) // (2 * norm)
        a, b = b, (x1 - q1 * x2 + k * q2 * y2, y1 - q1 * y2 - q2 * x2)
    return abs(a[0]), abs(a[1])


def tonelli_shanks_certificate(v: int) -> tuple[int, ...]:
    """(a, b, c, d, chi, n) at the prime v = 1 (mod 8), from sqrt_mod's roots."""
    x, y = norm_form_gcd(v, sqrt_mod(-1, v)[0], 1)
    assert x * x + y * y == v
    a, b = (x, y) if x % 2 else (y, x)
    a = a if (a + b) % 4 == 1 else -a
    c, y = norm_form_gcd(v, sqrt_mod(-2, v)[0], 2)
    assert c * c + 2 * y * y == v and y % 2 == 0
    d = y // 2
    assert c * c + 8 * d * d == v
    chi = euler_criterion(1 + sqrt_mod(2, v)[0], v)
    return a, b, c, d, chi, (a - 1) ** 2 + b * b


class TestChi:
    @pytest.mark.parametrize("v,chi", [(17, -1), (41, 1), (73, -1), (97, -1), (113, 1)])
    def test_examples(self, v, chi):
        s = canonical_sqrt2(v)
        assert chi_one_plus_sqrt2(v, s) == chi_one_plus_sqrt2(v, v - s) == chi
        with pytest.raises(InvariantViolation, match=f"{s + 1} is not a square root of 2"):
            chi_one_plus_sqrt2(v, s + 1)

    @pytest.mark.parametrize("lo", [10**6, 10**12, 2**61], ids=["above-1e6", "above-1e12",
                                                               "above-2^61"])
    def test_matches_euler_of_a_tonelli_shanks_root(self, lo):
        # check_prime takes chi by the binary Jacobi symbol on the root of 2
        # that a power of a non-residue gives; here Euler's criterion takes it
        # on the root Tonelli-Shanks gives.
        primes = list(islice(primes_1_mod_8(lo, lo + 10**6), 300))
        assert len(primes) == 300
        for v in primes:
            assert check_prime(v).chi == euler_criterion(1 + canonical_sqrt2(v), v), v

    def test_euler_oracle_matches_squaring(self):
        # The oracle above, against exhaustive squaring on every odd prime <= 257.
        for v in trial_division_primes(258)[1:]:
            squares = squares_mod(v)
            assert [euler_criterion(r, v) for r in range(v)] == [
                0 if r == 0 else 1 if r in squares else -1 for r in range(v)], v

    def test_rejects_wrong_residue_class(self):
        # 2 is a non-residue mod 13 = 5 (mod 8), so no s can pass as its root.
        for s in range(13):
            with pytest.raises(InvariantViolation, match="not a square root of 2"):
                chi_one_plus_sqrt2(13, s)


class TestFastPathOracle:
    @pytest.mark.parametrize(
        "lo, hi, count",
        [(0, 2 * 10**4, None), (10**12, 10**12 + 10**6, 100), (2**61, 2**61 + 10**6, 100)],
        ids=["below-2e4", "above-1e12", "above-2^61"],
    )
    def test_matches_tonelli_shanks_side(self, lo, hi, count):
        # check_prime's roots come from one power of a non-residue and its
        # descents are Cornacchia's; the other side uses neither.
        primes = list(islice(primes_1_mod_8(lo, hi), count))
        assert len(primes) >= 100
        for v in primes:
            cert = check_prime(v)
            assert isinstance(cert, Certificate), v
            got = (cert.a, cert.b, cert.c, cert.d, cert.chi, cert.n)
            assert got == tonelli_shanks_certificate(v), v
            assert cert.n_mod_32 == cert.n % 32 and cert.thm2_holds and cert.corollary_holds
        # The scan formats its rows from the same core without calling
        # check_prime; its rows must match the other side too.
        report, certificates = streamed_scan(ScanConfig(lo=lo, hi=primes[-1] + 1))
        assert [c.p for c in certificates] == primes and not report.errors
        for cert in certificates:
            got = (cert.a, cert.b, cert.c, cert.d, cert.chi, cert.n)
            assert got == tonelli_shanks_certificate(cert.p), cert.p
            assert cert.n_mod_32 == cert.n % 32 and cert.thm2_holds and cert.corollary_holds

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "lo, hi, cap",
        [(92682**2 - 40000, 92682**2 + 40000, 0), (0, 2 * 10**4, 2 * 10**4)],
        ids=["presieve-bound", "class-numbers"],
    )
    def test_scan_rows_are_check_prime_certificates(self, lo, hi, cap, jobs):
        # Below 92682^2 the stream's sieve proves each prime, above it
        # is_prime does; the second window carries class numbers.
        report, certificates = streamed_scan(ScanConfig(lo=lo, hi=hi, class_number_cap=cap,
                                                        jobs=jobs))
        primes = list(primes_1_mod_8(lo, hi))
        assert len(primes) > 500 and not report.errors and not report.counterexamples
        assert certificates == [check_prime(v, with_class_number=v <= cap)
                                for v in primes]


class TestCertificate:
    @pytest.mark.parametrize(
        "v,a,b,c,d,chi,n,h",
        [
            (17, 1, 4, 3, 1, -1, 16, 4),
            (41, 5, 4, 3, 2, 1, 32, 8),
            (73, -3, 8, 1, 3, -1, 80, 4),
            (113, -7, 8, 9, 2, 1, 128, 8),
        ],
    )
    def test_golden_certificates(self, v, a, b, c, d, chi, n, h):
        cert = check_prime(v, with_class_number=True)
        assert isinstance(cert, Certificate)
        assert (cert.a, cert.b, cert.c, cert.d) == (a, b, c, d)
        assert (cert.chi, cert.n, cert.n_mod_32, cert.h) == (chi, n, n % 32, h)
        assert cert.thm2_holds and cert.corollary_holds and cert.thm1_holds
        assert cert.all_hold

    def test_without_class_number(self):
        cert = check_prime(41)
        assert cert.h is None and cert.thm1_holds is None
        assert cert.all_hold

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            check_prime(13)

    @pytest.mark.parametrize("p", [697, 41041, 99991**2, 9, 1, 0, -7, 2**62 + 1, 2**62 + 57])
    def test_proves_its_argument(self, p):
        # check_prime proves p itself: a composite, 41041 = 7*11*13*41 among
        # them, or a p outside (2, 2**62) is a ValueError and never reaches
        # the roots stage as an ErrorCertificate.
        with pytest.raises(ValueError):
            check_prime(p)

    def test_post_init_guards(self):
        good = dict(
            p=17, a=1, b=4, c=3, d=1, chi=-1, n=16, n_mod_32=16,
            h=None, thm2_holds=True, thm1_holds=None, corollary_holds=True,
        )
        Certificate(**good)
        with pytest.raises(InvariantViolation):
            Certificate(**{**good, "n": 20, "n_mod_32": 20})  # 20 = (a-1)^2 + b^2 fails
        with pytest.raises(InvariantViolation):
            # (3-1)^2 + 4^2 = 20 is consistent but not divisible by 8
            Certificate(**{**good, "a": 3, "b": 4, "n": 20, "p": 25, "n_mod_32": 20})

    def test_all_hold_semantics(self):
        base = dict(
            p=17, a=1, b=4, c=3, d=1, chi=-1, n=16, n_mod_32=16,
            h=None, thm2_holds=True, thm1_holds=None, corollary_holds=True,
        )
        assert Certificate(**base).all_hold
        assert not Certificate(**{**base, "thm2_holds": False}).all_hold
        assert not Certificate(**{**base, "corollary_holds": False}).all_hold
        assert not Certificate(**{**base, "h": 4, "thm1_holds": False}).all_hold
        assert Certificate(**{**base, "h": 4, "thm1_holds": True}).all_hold

    def test_error_certificate_shape(self):
        err = ErrorCertificate(p=17, stage="chi", message="boom")
        assert (err.p, err.stage) == (17, "chi")

    def test_exhaustive_against_first_principles(self):
        # recompute chi and n without the package's own machinery
        selftest.check_criteria_small()


class TestStageFailures:
    @pytest.mark.parametrize(
        "name, stage",
        [
            ("two_squares", "two_squares"),
            ("eight_decomposition", "eight_decomposition"),
            ("chi_one_plus_sqrt2", "chi"),
            ("class_number", "class_number"),
        ],
    )
    def test_stage_labels(self, name, stage, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolation("planted")

        monkeypatch.setattr(criteria, name, broken)
        err = check_prime(41, with_class_number=True)
        assert err == ErrorCertificate(p=41, stage=stage, message="planted")

    @pytest.mark.parametrize(
        "module, name, fake, stage, message",
        [
            (decompose, "_cornacchia", lambda n, r, k: (5, 6) if k == 1 else (3, 2),
             "two_squares", "-5^2 + 6^2 != 41"),
            (criteria, "two_squares", lambda n, i: (5, 6), "two_squares",
             "order mismatch for p=41: (a-1)^2+b^2=52 but p+1-2a=32"),
            (decompose, "_cornacchia", lambda n, r, k: (5, 4) if k == 1 else (3, 3),
             "eight_decomposition", "3^2 + 8*3^2 != 41"),
            (criteria, "jacobi", lambda a, n: 0, "chi", "(1 + sqrt(2) | 41) = 0, not +-1"),
        ],
        ids=["two-squares-sum", "curve-order", "eight-sum", "symbol"],
    )
    def test_integer_forms_keep_their_checks(self, module, name, fake, stage, message,
                                             monkeypatch):
        # Each planted fault is one that only the integer form's own check
        # can catch on the scan path.
        monkeypatch.setattr(module, name, fake, raising=False)
        err = check_prime(41)
        assert err == ErrorCertificate(p=41, stage=stage, message=message)

    def test_root_that_fails_to_square_back(self, monkeypatch, capsys):
        # A residue in place of the non-residue makes the power behind i
        # square to +1; the guard turns that into a stage failure at p = 41.
        real = modular._nonresidue
        monkeypatch.setattr(modular, "_nonresidue", lambda n: 4 if n == 41 else real(n))
        canonical_i.cache_clear()
        canonical_sqrt2.cache_clear()
        try:
            err = check_prime(41)
            assert isinstance(err, ErrorCertificate) and err.stage == "roots"
            assert err.message == "the root 1 of -1 mod 41 does not square back"
            report, certificates = streamed_scan(ScanConfig(lo=0, hi=100))
            assert [c.p for c in certificates] == [17, 73, 89, 97]
            assert [(e.p, e.stage) for e in report.errors] == [(41, "roots")]
            assert main(["scan", "--from", "0", "--to", "100"]) == 3
            assert "invariant violation at p=41 [roots]" in capsys.readouterr().err
        finally:
            canonical_i.cache_clear()
            canonical_sqrt2.cache_clear()

    def test_sqrt2_alone_fails_to_square_back(self, monkeypatch, capsys):
        # i squares back but a corrupted sqrt(2) does not: the roots stage
        # breaks, and the message names the root of 2.
        real = modular._smaller_root

        def corrupt(r, square, n):
            return real((r + 1) % n if (square, n) == (2, 41) else r, square, n)

        monkeypatch.setattr(modular, "_smaller_root", corrupt)
        err = check_prime(41)
        assert err == ErrorCertificate(
            p=41, stage="roots",
            message="the root 25 of 2 mod 41 does not square back")
        report, certificates = streamed_scan(ScanConfig(lo=0, hi=100))
        assert [c.p for c in certificates] == [17, 73, 89, 97]
        assert [(e.p, e.stage) for e in report.errors] == [(41, "roots")]
        assert main(["scan", "--from", "0", "--to", "100"]) == 3
        assert "invariant violation at p=41 [roots]" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_certificate_guard_keeps_the_other_rows(self, jobs, monkeypatch, capsys):
        # An order off by 8 at p = 41 passes the integer forms but not the
        # Certificate's own guard; that prime alone becomes an error, and
        # the scan still writes the rows it certified.
        real = decompose._curve_order
        monkeypatch.setattr(criteria, "_curve_order",
                            lambda n, a, b: real(n, a, b) + (8 if n == 41 else 0))
        # Forked workers inherit the patch whatever the platform's default.
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
        message = "n != (a-1)^2 + b^2 at p=41"
        assert check_prime(41) == ErrorCertificate(p=41, stage="certificate",
                                                   message=message)
        assert main(["scan", "--from", "0", "--to", "100", "--jobs", str(jobs)]) == 3
        out, err = capsys.readouterr()
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["17", "73", "89", "97"]
        assert f"invariant violation at p=41 [certificate]: {message}" in err

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("plant", ["order", "pair-and-order"])
    def test_order_not_divisible_by_8_keeps_the_other_rows(self, plant, jobs, monkeypatch,
                                                           capsys):
        # At p = 10009, in a middle segment of [0, 20000), the order loses
        # 8 | n: off by 4, or as (a-1)^2 + b^2 of a pair whose b is off by
        # one, which passes the first of the certificate guard's checks and
        # not the second.  The scan never builds a Certificate for that
        # prime, so the core's own guard must catch it.
        real_order, real_pair = decompose._curve_order, decompose.two_squares

        def pair(n, i):
            a, b = real_pair(n, i)
            return a, b + (n == 10009)

        if plant == "order":
            monkeypatch.setattr(criteria, "_curve_order",
                                lambda n, a, b: real_order(n, a, b) + 4 * (n == 10009))
            message = "n != (a-1)^2 + b^2 at p=10009"
        else:
            monkeypatch.setattr(criteria, "two_squares", pair)
            monkeypatch.setattr(criteria, "_curve_order", lambda n, a, b: (a - 1) ** 2 + b * b)
            message = "#E(F_p) = 10217 is not divisible by 8 at p=10009"
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
        assert check_prime(10009) == ErrorCertificate(p=10009, stage="certificate",
                                                      message=message)
        assert main(["scan", "--from", "0", "--to", "20000", "--jobs", str(jobs)]) == 3
        out, err = capsys.readouterr()
        assert err == f"invariant violation at p=10009 [certificate]: {message}\n"
        expected = [p for p in primes_1_mod_8(0, 20000) if p != 10009]
        assert [int(row.split(",")[0]) for row in out.splitlines()[1:]] == expected


def seeded_trace_primes(count: int, seed: int) -> list[int]:
    """count primes = 1 (mod 8), spread evenly over 12 to 62 bits, drawn
    from random.Random(seed)."""
    rng = random.Random(seed)
    out: list[int] = []
    for j in range(count):
        bits = 12 + j * 50 // (count - 1)
        while True:
            q = rng.randrange(1 << (bits - 1), 1 << bits) >> 3 << 3 | 1
            if q >> (bits - 1) and sprp_prime_bases(q):
                out.append(q)
                break
    return out


class TestProofTrace:
    def test_chi_minus_one_trace(self):
        tr = proof_trace(check_prime(17))
        assert tr.chi == -1
        assert tr.jac_identity_holds
        assert (tr.n, tr.n_mod_32) == (16, 16)
        assert tr.level4_x == (5, 7, 10, 12)
        assert not tr.order8_applicable
        assert tr.order8_point is None and tr.orbit_landed_x is None
        # chi = -1: every level-4 fiber point has an empty preimage set
        for fiber in tr.fibers:
            assert not fiber.x_is_square
            assert all(c == 0 for c in fiber.preimage_counts)
        assert tr.preimage_direction_holds
        assert tr.consistent

    def test_chi_plus_one_trace(self):
        tr = proof_trace(check_prime(41))
        assert tr.chi == 1
        assert (tr.n, tr.n_mod_32) == (32, 0)
        assert tr.level4_x == (16, 18, 23, 25)
        assert tr.order8_applicable
        assert tr.order8_point is not None
        assert tr.orbit_landed_x in tr.level4_x
        assert tr.orbit_landed_is_square is True
        for fiber in tr.fibers:
            assert fiber.x_is_square
            assert fiber.points and all(c == 2 for c in fiber.preimage_counts)
        assert tr.preimage_direction_holds and tr.order8_direction_holds
        assert tr.consistent

    def test_rejects_wrong_residue_class(self):
        # A trace needs a certificate, and check_prime makes none off 1 (mod 8).
        with pytest.raises(ValueError, match="check_prime expects p = 1"):
            check_prime(29)

    def test_seed_determinism(self):
        cert = check_prime(41)
        assert proof_trace(cert, seed=3) == proof_trace(cert, seed=3)
        assert proof_trace(check_prime(113), seed=9).consistent

    def test_failed_order_check_is_an_invariant_violation(self, monkeypatch, capsys):
        # The scaled sample has order 8 by construction; if the check on it
        # fails, the group law is broken, which is not a counterexample.
        # The sampler's odd-part multiplier is never 4, so only the check sees this.
        real = curve._scalar_mul_int
        monkeypatch.setattr(curve, "_scalar_mul_int",
                            lambda k, P, n: None if k == 4 else real(k, P, n))
        assert main(["check", "41", "--trace"]) == 3
        assert "no exact order 8 mod 41" in capsys.readouterr().err

    def test_off_curve_sum_is_an_invariant_violation(self, monkeypatch, capsys):
        # A sample off the curve can only come from a bug; the first sum
        # built from it breaks the group law's check, and the CLI reports
        # an invariant violation, not a usage error.  At 2^5 || #E = 32 the
        # sampler projects only samples whose x is a non-square; the first
        # is x = 6 mod 41, whose y is planted as 3 (3^2 = 9, not 6^3 - 6 = 5).
        # The eta-fibers take a root of 6^3 - 6 too, so the wrong root is
        # planted only while the search runs.
        real_sqrt, real_search = curve.sqrt_mod, criteria.find_point_of_order

        def search_with_a_wrong_root(*args):
            monkeypatch.setattr(curve, "sqrt_mod",
                                lambda v, n: (3, 38) if v == 6 ** 3 - 6 else real_sqrt(v, n))
            return real_search(*args)

        monkeypatch.setattr(criteria, "find_point_of_order", search_with_a_wrong_root)
        assert main(["check", "41", "--trace"]) == 3
        err = capsys.readouterr().err
        assert "(6, 3) + (6, 3) = " in err and "is not on y^2 = x^3 - x over F_41" in err

    def test_eta_image_outside_the_fiber_is_an_invariant_violation(self, monkeypatch, capsys):
        # eta computed with -i is 1 - i, whose x-map sends the preimages of x0
        # to -x0: a broken group law, which the CLI must not report as a
        # usage error, as a ValueError from a list lookup would be.
        real = criteria._eta_int
        monkeypatch.setattr(criteria, "_eta_int", lambda P, n, i: real(P, n, n - i))
        assert main(["check", "41", "--trace"]) == 3
        assert "is not above x = " in capsys.readouterr().err

    def test_orbit_that_misses_level4_is_a_counterexample(self, monkeypatch, capsys):
        # (0, 0) is in eta's kernel, so its orbit is O, O and never reaches
        # +-1 +- sqrt2: the order-8 judge must fail, and the prose say why.
        monkeypatch.setattr(criteria, "find_point_of_order", lambda n, order, seed: (0, 0))
        tr = proof_trace(check_prime(41))
        assert tr.orbit_x == (None, None) and tr.orbit_landed_x is None
        assert not tr.order8_direction_holds and not tr.consistent
        assert tr.jac_identity_holds and tr.preimage_direction_holds
        assert main(["check", "41", "--trace"]) == 2
        assert json.loads(capsys.readouterr().out)["trace"]["consistent"] is False
        assert main(["trace", "41"]) == 2
        out = capsys.readouterr().out
        assert "the orbit missed the level-4 set" in out and "landed on" not in out
        assert out.endswith("trace consistent: False\n")

    @pytest.mark.parametrize("planted", ["conjugate", "minus-one"])
    def test_broken_symbol_identity_is_a_counterexample(self, planted, monkeypatch, capsys):
        # chi is taken before the fault applies: the trace's own symbols of
        # 1 - sqrt2 and of -1 are the only negative arguments jacobi sees.
        real = criteria.jacobi

        def planted_jacobi(a, n):
            hit = a < 0 and (a == -1) == (planted == "minus-one")
            return -real(a, n) if hit else real(a, n)

        cert = check_prime(41)
        monkeypatch.setattr(criteria, "jacobi", planted_jacobi)
        tr = proof_trace(cert)
        assert (tr.chi, tr.chi_conjugate, tr.minus_one_symbol) == (
            (1, -1, 1) if planted == "conjugate" else (1, 1, -1))
        assert not tr.jac_identity_holds and not tr.consistent
        assert tr.preimage_direction_holds and tr.order8_direction_holds
        assert main(["check", "41", "--trace"]) == 2
        assert json.loads(capsys.readouterr().out)["trace"]["consistent"] is False
        assert main(["trace", "41"]) == 2
        assert capsys.readouterr().out.endswith("trace consistent: False\n")

    @pytest.mark.parametrize("v", [912165368213634649, 4518101904374809])
    def test_order8_search_projects_one_sample(self, v, monkeypatch):
        # The two primes whose seed-0 walk rejects the most samples; 2^5 || #E
        # at both, so the descent rejects them from x alone.  The one sample
        # projected costs one scalar multiplication, and its order check two.
        calls = []
        real = curve._scalar_mul_int

        def counted(k, P, n):
            calls.append(k)
            return real(k, P, n)

        monkeypatch.setattr(curve, "_scalar_mul_int", counted)
        assert proof_trace(check_prime(v)).consistent
        assert len(calls) == 3

    def test_curve_order_is_derived_once(self, monkeypatch, capsys):
        # check --trace at a chi = +1 prime: check_prime's descent gives the
        # certificate's n, and proof_trace's one curve_order gives the
        # trace's n and the order-8 search's; nothing else derives #E or i.
        package = [mod for name, mod in sys.modules.items()
                   if name == "cm_octic" or name.startswith("cm_octic.")]
        counts: Counter[str] = Counter()

        def counting(fn, name):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((decompose, "two_squares"), (curve, "curve_order"),
                             (modular, "canonical_i")):
            original = getattr(module, name)
            wrapper = counting(original, name)
            for mod in package:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        assert main(["check", "41", "--trace"]) == 0
        assert '"chi": 1' in capsys.readouterr().out
        assert [counts[name] for name in ("two_squares", "curve_order", "canonical_i")] == [
            2, 1, 0]

    @pytest.mark.parametrize("p, level4", [(17, (5, 7, 10, 12)), (41, (16, 18, 23, 25))])
    def test_root_work_is_done_once(self, p, level4, monkeypatch, capsys):
        # check --trace derives i, sqrt(2) and chi once, in check_prime; the
        # trace reads them off the certificate.  It takes one Jacobi symbol
        # per level-4 x, and eta_preimages its own one only above a square
        # x; chi and its conjugate are the symbols of 1 + sqrt2 and 1 - sqrt2,
        # two more.  So 6 at chi = -1 (p = 17) and 10 at chi = +1 (p = 41).
        # The document is written without json.dumps.
        package = [mod for name, mod in sys.modules.items()
                   if name == "cm_octic" or name.startswith("cm_octic.")]
        counts: Counter[str] = Counter()

        def counting(fn, name, counted_if=lambda *args, **kwargs: True):
            def counted(*args, **kwargs):
                counts[name] += counted_if(*args)
                return fn(*args, **kwargs)
            return counted

        for module, name, counted_if in (
            (modular, "_i_and_sqrt2", lambda n: True),
            (criteria, "chi_one_plus_sqrt2", lambda n, s: True),
            (modular, "jacobi", lambda a, n: a % n in level4),  # on a level-4 x only
        ):
            original = getattr(module, name)
            wrapper = counting(original, name, counted_if)
            for mod in package:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        monkeypatch.setattr(json, "dumps", counting(json.dumps, "json.dumps"))
        assert main(["check", str(p), "--trace"]) == 0
        assert json.loads(capsys.readouterr().out)["trace"]["level4_x"] == list(level4)
        assert counts == {"_i_and_sqrt2": 1, "chi_one_plus_sqrt2": 1,
                          "jacobi": 6 if p == 17 else 10}

    @pytest.mark.parametrize("forge", ["d+1", "b=0", "foreign", "curve_order"])
    def test_a_certificate_the_trace_cannot_reproduce_is_an_invariant_violation(
            self, forge, monkeypatch, capsys):
        # A trace takes its roots and chi from the certificate, so a
        # certificate that is not check_prime's for its p must never yield
        # a trace: not with d off by one, not with a b that has no inverse
        # mod p, not with another prime's (a, b, c, d), and not when #E from
        # the trace's own curve_order disagrees with its n.
        import cm_octic.cli as cli_mod

        cert = check_prime(41)
        if forge == "d+1":
            cert = dataclasses.replace(cert, d=cert.d + 1)
        elif forge == "b=0":
            cert = dataclasses.replace(cert, b=0, n=(cert.a - 1) ** 2)
        elif forge == "foreign":
            cert = dataclasses.replace(check_prime(73), p=41)
        else:
            real = criteria.curve_order
            monkeypatch.setattr(criteria, "curve_order", lambda n, i: real(n, i) + 8)
        with pytest.raises(InvariantViolation):
            proof_trace(cert)
        monkeypatch.setattr(cli_mod, "check_prime", lambda p, **kw: cert)
        for argv in (["check", "41", "--trace"], ["trace", "41"]):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and "internal invariant violated" in err

    def test_trace_of_a_failed_certificate_is_an_invariant_violation(self, monkeypatch, capsys):
        import cm_octic.cli as cli_mod

        monkeypatch.setattr(cli_mod, "check_prime",
                            lambda p, **kw: ErrorCertificate(p=41, stage="chi", message="boom"))
        assert main(["trace", "41"]) == 3
        assert capsys.readouterr() == ("", "cm-octic: internal invariant violated: boom\n")
        monkeypatch.undo()
        assert main(["trace", "13"]) == 1
        assert "check_prime expects p = 1 (mod 8), got 13" in capsys.readouterr().err

    def test_applicability_matches_order(self):
        for p in primes_1_mod_8(0, 1000):
            tr = proof_trace(check_prime(p))
            assert tr.order8_applicable == (tr.n % 32 == 0)
            assert tr.minus_one_symbol == 1
            assert tr.consistent, p

    def test_level4_character_is_uniform(self):
        # (1+s)(1-s) = -1 and (-1 | p) = +1 force one character across all four
        for p in primes_1_mod_8(0, 3000):
            tr = proof_trace(check_prime(p))
            assert all(f.x_is_square == (tr.chi == 1) for f in tr.fibers)


class TestProofTraceOracle:
    """proof_trace, on plain residues, against its FieldElement oracle in conftest."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(list(primes_1_mod_8(0, 10**4)), id="below-10^4"),
            pytest.param(seeded_trace_primes(20, 18), id="seeded-to-2^62"),
            pytest.param([2476681, 528423887209], id="sampler-misses"),
        ],
    )
    def test_matches_field_oracle(self, values):
        for v in values:
            assert proof_trace(check_prime(v)) == field_proof_trace_oracle(v), v
