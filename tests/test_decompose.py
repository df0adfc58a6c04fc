"""Decompositions p = a^2 + b^2 and p = c^2 + 8 d^2 against brute force."""

import pytest

from cm_octic import decompose, selftest
from cm_octic.curve import curve_order
from cm_octic.decompose import (
    _cornacchia,
    _curve_order,
    _eight_decomposition,
    _two_squares,
    eight_decomposition,
    two_squares,
)
from cm_octic.errors import InvariantViolation
from cm_octic.harness import primes_1_mod_8
from cm_octic.modular import Prime, element, sqrt_mod

from conftest import brute_two_squares, eight_decomposition_search, trial_division_primes

PRIMES_1_MOD_4 = [v for v in trial_division_primes(10**4) if v % 4 == 1]


class TestTwoSquares:
    @pytest.mark.parametrize(
        "v,expected",
        [(17, (1, 4)), (41, (5, 4)), (73, (-3, 8)), (113, (-7, 8)), (5, (-1, 2)), (13, (3, 2))],
    )
    def test_examples(self, v, expected):
        assert two_squares(Prime(v)) == expected

    def test_matches_brute_force_oracle(self):
        # Both residue classes mod 8 share the normalization code path.
        for v in PRIMES_1_MOD_4:
            assert two_squares(Prime(v)) == brute_two_squares(v), v

    def test_oracle_full_scan_range(self):
        for p in primes_1_mod_8(0, 10**5):
            assert two_squares(p) == brute_two_squares(p.value), p.value

    def test_normalization_shape(self):
        for v in PRIMES_1_MOD_4[:200]:
            a, b = two_squares(Prime(v))
            assert a % 2 == 1
            assert b % 2 == 0 and b > 0
            assert (a + b) % 4 == 1
            if v % 8 == 1:
                assert b % 4 == 0 and a % 4 == 1  # forced for p = 1 (mod 8)

    def test_result_independent_of_root_choice(self):
        for v in PRIMES_1_MOD_4[:300]:
            p = Prime(v)
            lo, hi = sqrt_mod(element(p, -1))
            assert _two_squares(v, lo.residue) == _two_squares(v, hi.residue), v
            if v % 8 == 1:
                lo, hi = sqrt_mod(element(p, -8))
                assert _cornacchia(v, lo.residue, 8) == _cornacchia(v, hi.residue, 8), v

    def test_domain_error(self):
        with pytest.raises(ValueError):
            two_squares(Prime(7))  # 7 = 3 (mod 4)

    def test_invariant_rejects_bad_tuple(self, monkeypatch):
        with pytest.raises(InvariantViolation):
            _two_squares(17, 2)  # 2^2 != -1 (mod 17)
        monkeypatch.setattr(decompose, "_cornacchia", lambda n, r, k: (1, -4))
        with pytest.raises(InvariantViolation, match="not a canonical two-square pair"):
            _two_squares(17, 4)  # right sum, b negative


class TestEightDecomposition:
    @pytest.mark.parametrize("v,expected", [(17, (3, 1)), (41, (3, 2)), (113, (9, 2))])
    def test_examples(self, v, expected):
        assert eight_decomposition(Prime(v)) == expected

    def test_oracle_full_scan_range(self):
        for p in primes_1_mod_8(0, 10**5):
            assert eight_decomposition(p) == eight_decomposition_search(p), p.value

    def test_search_path_agrees(self):
        selftest.check_decompositions()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eight_decomposition(Prime(13))  # 13 = 5 (mod 8)

    def test_invariant_rejects_bad_tuple(self, monkeypatch):
        with pytest.raises(InvariantViolation):
            _eight_decomposition(17, 4, 1)  # 1^2 != 2 (mod 17)
        monkeypatch.setattr(decompose, "_cornacchia", lambda n, r, k: (-3, 1))
        with pytest.raises(InvariantViolation, match="must be positive"):
            _eight_decomposition(17, 4, 6)  # right sum, c negative


class TestCurveOrder:
    @pytest.mark.parametrize("v,expected", [(17, 16), (41, 32), (113, 128), (73, 80)])
    def test_examples(self, v, expected):
        assert curve_order(Prime(v)) == expected

    def test_identity_with_trace_form(self):
        # (a-1)^2 + b^2 = p + 1 - 2a given a^2 + b^2 = p; a sign bug breaks it.
        for p in primes_1_mod_8(0, 10**4):
            a, b = two_squares(p)
            assert _curve_order(p.value, a, b) == p.value + 1 - 2 * a
        with pytest.raises(InvariantViolation, match="order mismatch"):
            _curve_order(17, 5, 6)  # 5^2 + 6^2 != 17
