"""Decompositions p = a^2 + b^2 and p = c^2 + 8 d^2 against brute force."""

import pytest

from cm_octic import decompose, selftest
from cm_octic.decompose import _cornacchia, _curve_order, eight_decomposition, two_squares
from cm_octic.errors import InvariantViolation
from cm_octic.harness import primes_1_mod_8
from cm_octic.modular import canonical_i, canonical_sqrt2, sqrt_mod

from conftest import brute_two_squares, eight_decomposition_search, trial_division_primes

PRIMES_1_MOD_4 = [v for v in trial_division_primes(10**4) if v % 4 == 1]


class TestTwoSquares:
    @pytest.mark.parametrize(
        "v,expected",
        [(17, (1, 4)), (41, (5, 4)), (73, (-3, 8)), (113, (-7, 8)), (5, (-1, 2)), (13, (3, 2))],
    )
    def test_examples(self, v, expected):
        assert two_squares(v, canonical_i(v)) == expected

    def test_matches_brute_force_oracle(self):
        # Both residue classes mod 8 share the normalization code path.
        for v in PRIMES_1_MOD_4:
            assert two_squares(v, canonical_i(v)) == brute_two_squares(v), v

    def test_oracle_full_scan_range(self):
        for p in primes_1_mod_8(0, 10**5):
            assert two_squares(p, canonical_i(p)) == brute_two_squares(p), p

    def test_result_independent_of_root_choice(self):
        for v in PRIMES_1_MOD_4[:300]:
            lo, hi = sqrt_mod(-1, v)
            assert two_squares(v, lo) == two_squares(v, hi), v
            if v % 8 == 1:
                lo, hi = sqrt_mod(-8, v)
                assert _cornacchia(v, lo, 8) == _cornacchia(v, hi, 8), v

    def test_domain_error(self):
        # 7 = 3 (mod 4) is no sum of two squares: canonical_i has no root
        # to give, and any i passed in fails the descent's checks.
        with pytest.raises(ValueError):
            canonical_i(7)
        for i in range(7):
            with pytest.raises(InvariantViolation):
                two_squares(7, i)

    def test_invariant_rejects_bad_tuple(self, monkeypatch):
        with pytest.raises(InvariantViolation):
            two_squares(17, 2)  # 2^2 != -1 (mod 17)
        monkeypatch.setattr(decompose, "_cornacchia", lambda n, r, k: (1, -4))
        with pytest.raises(InvariantViolation, match="not a canonical two-square pair"):
            two_squares(17, 4)  # right sum, b negative


class TestEightDecomposition:
    @pytest.mark.parametrize("v,expected", [(17, (3, 1)), (41, (3, 2)), (113, (9, 2))])
    def test_examples(self, v, expected):
        assert eight_decomposition(v, canonical_i(v), canonical_sqrt2(v)) == expected

    def test_oracle_full_scan_range(self):
        for p in primes_1_mod_8(0, 10**5):
            cd = eight_decomposition(p, canonical_i(p), canonical_sqrt2(p))
            assert cd == eight_decomposition_search(p), p

    def test_search_path_agrees(self):
        selftest.check_decompositions()

    def test_domain_error(self):
        # 13 = 5 (mod 8) is no c^2 + 8d^2: canonical_sqrt2 has no root to
        # give, and any roots passed in fail the descent's checks.
        with pytest.raises(ValueError):
            canonical_sqrt2(13)
        for i in range(13):
            for s in range(13):
                with pytest.raises(InvariantViolation):
                    eight_decomposition(13, i, s)

    def test_invariant_rejects_bad_tuple(self, monkeypatch):
        with pytest.raises(InvariantViolation):
            eight_decomposition(17, 4, 1)  # 1^2 != 2 (mod 17)
        monkeypatch.setattr(decompose, "_cornacchia", lambda n, r, k: (-3, 1))
        with pytest.raises(InvariantViolation, match="must be positive"):
            eight_decomposition(17, 4, 6)  # right sum, c negative


class TestCurveOrder:
    def test_identity_with_trace_form(self):
        # (a-1)^2 + b^2 = p + 1 - 2a given a^2 + b^2 = p; a sign bug breaks it.
        for p in primes_1_mod_8(0, 10**4):
            a, b = two_squares(p, canonical_i(p))
            assert _curve_order(p, a, b) == p + 1 - 2 * a
        with pytest.raises(InvariantViolation, match="order mismatch"):
            _curve_order(17, 5, 6)  # 5^2 + 6^2 != 17
