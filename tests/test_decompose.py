"""Decompositions p = a^2 + b^2 and p = c^2 + 8 d^2 against brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_octic import selftest
from cm_octic.decompose import (
    EightDecomposition,
    TwoSquares,
    _cornacchia,
    _normalized,
    curve_order_from_two_squares,
    eight_decomposition,
    two_squares,
)
from cm_octic.errors import InvariantViolation
from cm_octic.harness import primes_1_mod_8
from cm_octic.modular import Prime, element, sqrt_mod

from conftest import brute_eight, brute_two_squares, trial_division_primes

PRIMES_1_MOD_4 = [v for v in trial_division_primes(10**4) if v % 4 == 1]


class TestTwoSquares:
    @pytest.mark.parametrize(
        "v,expected",
        [(17, (1, 4)), (41, (5, 4)), (73, (-3, 8)), (113, (-7, 8)), (5, (-1, 2)), (13, (3, 2))],
    )
    def test_examples(self, v, expected):
        ts = two_squares(Prime(v))
        assert (ts.a, ts.b) == expected

    def test_matches_brute_force_oracle(self):
        # Both residue classes mod 8 share the normalization code path.
        for v in PRIMES_1_MOD_4:
            ts = two_squares(Prime(v))
            assert (ts.a, ts.b) == brute_two_squares(v), v

    def test_oracle_full_scan_range(self):
        for p in primes_1_mod_8(0, 10**5):
            ts = two_squares(p)
            assert (ts.a, ts.b) == brute_two_squares(p.value), p.value

    def test_normalization_shape(self):
        for v in PRIMES_1_MOD_4[:200]:
            ts = two_squares(Prime(v))
            assert ts.a % 2 == 1 or ts.a % 2 == -1
            assert ts.b % 2 == 0 and ts.b > 0
            assert (ts.a + ts.b) % 4 == 1
            if v % 8 == 1:
                assert ts.b % 4 == 0 and ts.a % 4 == 1  # forced for p = 1 (mod 8)

    def test_result_independent_of_root_choice(self):
        for v in PRIMES_1_MOD_4[:300]:
            p = Prime(v)
            lo, hi = sqrt_mod(element(p, -1))
            results = {
                (t.a, t.b)
                for t in (
                    _normalized(p, *_cornacchia(v, lo.residue, 1)),
                    _normalized(p, *_cornacchia(v, hi.residue, 1)),
                )
            }
            assert len(results) == 1, v

    def test_domain_error(self):
        with pytest.raises(ValueError):
            two_squares(Prime(7))  # 7 = 3 (mod 4)

    def test_invariant_rejects_bad_tuple(self):
        p = Prime(17)
        with pytest.raises(InvariantViolation):
            TwoSquares(a=2, b=4, p=p)  # wrong sum
        with pytest.raises(InvariantViolation):
            TwoSquares(a=-1, b=4, p=p)  # right sum, wrong sign class


class TestEightDecomposition:
    @pytest.mark.parametrize("v,expected", [(17, (3, 1)), (41, (3, 2)), (113, (9, 2))])
    def test_examples(self, v, expected):
        e = eight_decomposition(Prime(v))
        assert (e.c, e.d) == expected

    def test_oracle_full_scan_range(self):
        for p in primes_1_mod_8(0, 10**5):
            e = eight_decomposition(p)
            assert (e.c, e.d) == brute_eight(p.value), p.value

    def test_search_path_agrees(self):
        selftest.check_decompositions(2 * 10**4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eight_decomposition(Prime(13))  # 13 = 5 (mod 8)

    def test_invariant_rejects_bad_tuple(self):
        with pytest.raises(InvariantViolation):
            EightDecomposition(c=1, d=1, p=Prime(17))


class TestCurveOrder:
    @pytest.mark.parametrize("v,expected", [(17, 16), (41, 32), (113, 128), (73, 80)])
    def test_examples(self, v, expected):
        assert curve_order_from_two_squares(two_squares(Prime(v))) == expected

    def test_identity_with_trace_form(self):
        # (a-1)^2 + b^2 = p + 1 - 2a given a^2 + b^2 = p; a sign bug breaks it.
        for p in primes_1_mod_8(0, 10**4):
            ts = two_squares(p)
            n = curve_order_from_two_squares(ts)
            assert n == p.value + 1 - 2 * ts.a

    @settings(deadline=None)
    @given(st.sampled_from(PRIMES_1_MOD_4))
    def test_reconstructs_prime(self, v):
        ts = two_squares(Prime(v))
        assert ts.a * ts.a + ts.b * ts.b == v
