"""Certificates and proof traces for the character criteria."""

import pytest

from cm_octic import selftest
from cm_octic.criteria import (
    Certificate,
    ErrorCertificate,
    check_prime,
    chi_one_plus_sqrt2,
    euler_symbol,
    proof_trace,
)
from cm_octic.errors import InvariantViolation
from cm_octic.harness import primes_1_mod_8
from cm_octic.modular import Prime, canonical_sqrt2, element, jacobi, sqrt_mod


class TestEulerSymbol:
    def test_zero(self):
        assert euler_symbol(element(Prime(17), 0)) == 0

    def test_matches_jacobi_exhaustively(self):
        for v in (17, 41, 113):
            p = Prime(v)
            for r in range(v):
                assert euler_symbol(element(p, r)) == jacobi(r, p)


class TestChi:
    @pytest.mark.parametrize("v,chi", [(17, -1), (41, 1), (73, -1), (97, -1), (113, 1)])
    def test_examples(self, v, chi):
        assert chi_one_plus_sqrt2(Prime(v)) == chi

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            chi_one_plus_sqrt2(Prime(13))

    def test_well_defined_over_both_roots(self):
        # the symbol must not depend on which square root of 2 is used
        for p in primes_1_mod_8(0, 10**4):
            lo, hi = sqrt_mod(element(p, 2))
            sym_lo = euler_symbol(lo + 1)
            sym_hi = euler_symbol(hi + 1)
            assert sym_lo == sym_hi == chi_one_plus_sqrt2(p)

    def test_conjugate_product_identity(self):
        # (1+s | p)(1-s | p) = (1 - 2 | p) = (-1 | p) = +1 for p = 1 (mod 8)
        for p in primes_1_mod_8(0, 10**4):
            s = canonical_sqrt2(p)
            assert euler_symbol(1 + s) * euler_symbol(1 - s) == jacobi(-1, p) == 1


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
        cert = check_prime(Prime(v), with_class_number=True)
        assert isinstance(cert, Certificate)
        assert (cert.a, cert.b, cert.c, cert.d) == (a, b, c, d)
        assert (cert.chi, cert.n, cert.n_mod_32, cert.h) == (chi, n, n % 32, h)
        assert cert.thm2_holds and cert.corollary_holds and cert.thm1_holds
        assert cert.all_hold

    def test_without_class_number(self):
        cert = check_prime(Prime(41))
        assert cert.h is None and cert.thm1_holds is None
        assert cert.all_hold

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            check_prime(Prime(13))

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


class TestProofTrace:
    def test_chi_minus_one_trace(self):
        tr = proof_trace(Prime(17))
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
        tr = proof_trace(Prime(41))
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
        with pytest.raises(ValueError):
            proof_trace(Prime(29))

    def test_seed_determinism(self):
        assert proof_trace(Prime(41), seed=3) == proof_trace(Prime(41), seed=3)
        assert proof_trace(Prime(113), seed=9).consistent

    def test_applicability_matches_order(self):
        for p in primes_1_mod_8(0, 1000):
            tr = proof_trace(p)
            assert tr.order8_applicable == (tr.n % 32 == 0)
            assert tr.minus_one_symbol == 1
            assert tr.consistent, p.value

    def test_level4_character_is_uniform(self):
        # (1+s)(1-s) = -1 and (-1 | p) = +1 force one character across all four
        for p in primes_1_mod_8(0, 3000):
            tr = proof_trace(p)
            assert all(f.x_is_square == (tr.chi == 1) for f in tr.fibers)
