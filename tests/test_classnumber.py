"""Class number of discriminant -4p by reduced-form counting."""

import random
from functools import cache

import pytest

from cm_octic import classnumber
from cm_octic.classnumber import DEFAULT_CAP, class_number
from cm_octic.criteria import ErrorCertificate, check_prime
from cm_octic.errors import InvariantViolation
from cm_octic.harness import primes_1_mod_8

from conftest import box_class_number, trial_division_primes


@cache
def box_class_numbers_below_20000() -> dict[int, int]:
    return {p: box_class_number(p) for p in primes_1_mod_8(0, 20000)}


class TestClassNumber:
    @pytest.mark.parametrize("v,h", [(17, 4), (41, 8), (73, 4), (89, 12), (97, 4), (113, 8)])
    def test_examples(self, v, h):
        assert class_number(v) == h

    def test_matches_box_enumeration_oracle(self):
        for v, h in box_class_numbers_below_20000().items():
            assert class_number(v) == h, v

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_tables_serve_any_order(self, order, monkeypatch):
        # From an empty factor table: descending, the table built for the
        # largest p serves every smaller one; shuffled, it grows several
        # times and is reused in between.
        monkeypatch.setattr(classnumber, "_tables", classnumber._factor_tables(1))
        expected = box_class_numbers_below_20000()
        primes = sorted(expected, reverse=True)
        if order == "shuffled":
            random.Random(20).shuffle(primes)
        for v in primes:
            assert class_number(v) == expected[v], v

    @pytest.mark.parametrize(
        "v",
        [
            pytest.param(569, id="569-band-a-5^2-hensel"),
            pytest.param(641, id="641-band-a-3^3-hensel"),
            pytest.param(761, id="761-band-a-2*3*5-crt"),
            pytest.param(1721, id="1721-band-a-3^2*5-hensel-crt"),
        ],
    )
    def test_band_root_paths(self, v):
        # Each p has a counted form whose first coefficient a lies in the
        # band sqrt(p) < a <= sqrt(4p/3) and needs the named root path.
        assert class_number(v) == box_class_number(v)

    @pytest.mark.parametrize(
        "v,h", [(1000033, 360), (10000121, 6000), (1000000009, 19588), (9999999929, 189356)]
    )
    def test_large_pinned(self, v, h):
        # Values of the former O(p) walk (the first two) and of the former
        # count with one Jacobi symbol per prime a (the last two); Dirichlet's
        # formula gives 360 at 1000033.  9999999929 is the largest prime
        # = 1 (mod 8) below 10^10.
        assert class_number(v) == h

    def test_root_that_is_not_a_root(self, monkeypatch):
        # At p = 41 the band holds a = 7; a wrong root mod 7 must not be counted.
        real = classnumber._sqrt_residue
        monkeypatch.setattr(classnumber, "_sqrt_residue", lambda v, n: (real(v, n) + 1) % n)
        with pytest.raises(InvariantViolation, match="not a root of -41 mod 7"):
            class_number(41)
        err = check_prime(41, with_class_number=True)
        assert isinstance(err, ErrorCertificate) and err.stage == "class_number"

    def test_always_even(self):
        # genus theory: -4p has two prime discriminant divisors
        for p in primes_1_mod_8(0, 20000):
            assert class_number(p) % 2 == 0

    def test_cap_enforced(self):
        # The least prime = 1 (mod 8) above the limit.
        with pytest.raises(ValueError, match="exceeds the class-number limit"):
            class_number(10000000033)

    def test_default_cap_value(self):
        assert DEFAULT_CAP == 10_000_000_000

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            class_number(13)

    def test_rejects_every_composite_below_20000(self):
        # The inert-prime loop meets a prime factor q <= sqrt(n) of each odd
        # composite n = 1 (mod 8), where (-n)^((q-1)/2) = 0 mod q; 1 is
        # rejected before the loop.
        primes = set(trial_division_primes(20000))
        composites = [n for n in range(1, 20000, 8) if n not in primes]
        assert len(composites) == 1944
        for n in composites:
            with pytest.raises(ValueError, match=f"modulus must be prime, got {n}$"):
                class_number(n)

    @pytest.mark.parametrize("n", [99991**2, 1, -7, -15, -3])
    def test_rejects_other_non_primes(self, n):
        # 99991^2 = 9998200081 lies below the cap, with no factor below 99991.
        with pytest.raises(ValueError):
            class_number(n)

    def test_moderate_size(self):
        # h(-4 * 100057); cross-checked against the box oracle once, then frozen
        assert class_number(100057) == 168
