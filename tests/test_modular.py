"""Prime-field layer: primality, symbols, roots, canonical witnesses."""

import random
import subprocess
import sys
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_octic import criteria, modular, selftest
from cm_octic.modular import (
    Prime,
    _nonresidue,
    _sqrt_residue,
    _strong_base2,
    _strong_lucas,
    canonical_i,
    canonical_sqrt2,
    is_prime,
    jacobi,
    sqrt_mod,
)

from conftest import (
    euler_criterion,
    nonresidue_by_jacobi,
    package_env,
    sprp_prime_bases,
    squares_mod,
    strong_lucas_by_matrix,
    trial_division_primes,
)

ODD_PRIMES_257 = [p for p in trial_division_primes(258) if p > 2]


def odd_factors(n: int) -> list[int]:
    # The prime factors of the odd n, with multiplicity, by trial division.
    factors, q = [], 3
    while q * q <= n:
        while n % q == 0:
            factors.append(q)
            n //= q
        q += 2
    return factors + [n] * (n > 1)


def next_odd_prime(x: int) -> int:
    # The least odd prime >= x, by the twelve-base strong test.
    x |= 1
    while not sprp_prime_bases(x):
        x += 2
    return x


@st.composite
def odd_semiprimes(draw) -> tuple[int, int]:
    # Odd primes p <= q with p * q < 2^62; prime gaps below 2^64 are under 1600.
    p = next_odd_prime(draw(st.integers(3, 2**31)))
    q = next_odd_prime(draw(st.integers(3, 2**62 // p - 1600)))
    return min(p, q), max(p, q)


def lucas_lehmer_mersenne(e: int) -> bool:
    # Independent primality certificate for 2**e - 1, e an odd prime.
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


class TestIsPrime:
    def test_examples(self):
        assert is_prime(17)
        assert not is_prime(1)
        assert is_prime(2**61 - 1)

    def test_mersenne_61_cross_checked(self):
        # Second, independent route: Lucas-Lehmer plus a trial-division sweep.
        assert lucas_lehmer_mersenne(61)
        m = 2**61 - 1
        assert all(m % q for q in range(2, 10**6))

    def test_agrees_with_trial_division_exhaustive(self):
        small = set(trial_division_primes(2 * 10**5))
        for n in range(2 * 10**5):
            assert is_prime(n) == (n in small), n

    @given(st.integers(min_value=0, max_value=10**6))
    def test_agrees_with_trial_division_sampled(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_prime(-7)

    @pytest.mark.parametrize("lo", [2**33, 10**12, 2**61, 2**62 - 10**6])
    def test_agrees_with_prime_base_sprp_sampled(self, lo):
        # 10,000 consecutive odd n from a seeded start in [lo, lo + 10^6).
        start = random.Random(lo).randrange(lo, lo + 10**6 - 20000) | 1
        window = range(start, start + 20000, 2)
        found = [n for n in window if is_prime(n)]
        assert found == [n for n in window if sprp_prime_bases(n)]
        assert found

    @pytest.mark.parametrize("n", [2047, 3215031751, 2152302898747, 3474749660383,
                                   341550071728321, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # Each is a strong pseudoprime to every prime base up to some bound.
        assert not is_prime(n) and not sprp_prime_bases(n)

    @pytest.mark.parametrize("n", [73, 193, 407521, 299210837])
    def test_primes_dividing_a_base(self, n):
        # Each divides one of Sinclair's seven Miller-Rabin bases, which the
        # Baillie-PSW test replaced and which skipped such a base; they stay
        # as primes that a return to those bases would have to accept.
        assert is_prime(n) and sprp_prime_bases(n)

    @pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 1093**2, 3511**2])
    def test_base2_strong_pseudoprimes_need_the_lucas_half(self, n):
        # Each passes the base-2 half.  Trial division stops the first four,
        # whose least factors are 23, 29, 37 and 31; 8321 = 53 * 157 and the
        # squares of the Wieferich primes 1093 and 3511 reach the square
        # check and the Lucas step.
        assert _strong_base2(n) and not is_prime(n) and not sprp_prime_bases(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes_need_the_base2_half(self, n):
        # Each passes the strong Lucas half and has no factor up to 37, so
        # only the base-2 half rejects it.
        assert _strong_lucas(n) and not _strong_base2(n)
        assert not is_prime(n) and not sprp_prime_bases(n)

    def test_strong_lucas_pseudoprimes_below_10_5(self):
        # The composites below 10^5 with no factor up to 37, the only ones
        # is_prime hands to the Lucas half, that pass it: the strong Lucas
        # pseudoprimes with Selfridge's parameters (OEIS A217255).  Another
        # D sequence or another Lucas step passes other composites.
        small = set(trial_division_primes(10**5))
        passing = [n for n in range(41, 10**5, 2)
                   if n not in small and all(n % q for q in range(3, 38, 2))
                   and _strong_lucas(n)]
        assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                           40309, 58519, 75077, 97439]

    @pytest.mark.parametrize("lo", [10**4, 2**33, 2**61, 2**62 - 10**6])
    def test_strong_lucas_matches_the_definition(self, lo):
        # _strong_lucas leaves out the halvings of its addition step, so it
        # is compared with the test from its definition on 500 consecutive
        # odd n from a seeded start in [lo, lo + 10^6), primes and composites.
        start = random.Random(lo).randrange(lo, lo + 10**6 - 1000) | 1
        window = range(start, start + 1000, 2)
        passing = [n for n in window if _strong_lucas(n)]
        assert passing == [n for n in window if strong_lucas_by_matrix(n)] and passing


class TestPrime:
    @pytest.mark.parametrize("bad", [0, 1, 2, 4, 15, 2**62 + 1, (1 << 62) - 1 + 2])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Prime(bad)

    def test_upper_bound(self):
        with pytest.raises(ValueError):
            Prime(2**62 + 57)  # prime-sized but over the modulus bound


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 17) == 1
        assert jacobi(7, 17) == -1
        assert jacobi(0, 17) == 0

    def test_exhaustive_against_squares(self):
        # jacobi against squaring, every odd prime <= 257;
        # sqrt_mod's two roots square back, sorted and negatives of each
        # other, and it finds none for a non-residue.
        selftest.check_symbols_exhaustive()

    def test_reduces_argument(self):
        assert jacobi(2 + 17 * 5, 17) == 1
        assert jacobi(-15, 17) == 1  # -15 = 2 (mod 17)

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.sampled_from(ODD_PRIMES_257),
    )
    def test_multiplicative(self, a, b, v):
        assert jacobi(a * b, v) == jacobi(a, v) * jacobi(b, v)

    def test_composite_moduli_exhaustive(self):
        # (a | n) is the product of the Legendre symbols (a | q) over n's
        # prime factors q, each from a table of squares: every odd n < 2000,
        # composites and 1 included, and every a in [-n, 2n).
        legendre = {q: [0] + [1 if r in squares else -1 for r in range(1, q)]
                    for q in trial_division_primes(2000)[1:] for squares in [squares_mod(q)]}
        for n in range(1, 2000, 2):
            factors = odd_factors(n)
            expected = [prod(legendre[q][a % q] for q in factors) for a in range(n)]
            assert [jacobi(a, n) for a in range(-n, 2 * n)] == expected * 3, n

    @settings(deadline=None)
    @given(odd_semiprimes(), st.integers(-(2**64), 2**64), st.sampled_from([1, 0, -1]))
    def test_semiprime_moduli(self, pq, a, shared):
        # As _strong_lucas asks it of composites: (a | pq) = (a | p)(a | q)
        # by Euler's criterion, also for a sharing p or q, where it is 0.
        p, q = pq
        a *= {1: 1, 0: p, -1: q}[shared]
        assert jacobi(a, p * q) == euler_criterion(a, p) * euler_criterion(a, q), (a, p, q)


class TestSqrtMod:
    def test_examples(self):
        assert sqrt_mod(2, 17) == (6, 11)
        assert sqrt_mod(-1, 17) == (4, 13)
        assert sqrt_mod(0, 17) == (0, 0)
        assert sqrt_mod(3, 17) is None

    def test_three_mod_four_takes_the_first_guess(self, monkeypatch):
        # For n = 3 (mod 4) the first Tonelli-Shanks guess v^((q+1)/2) is
        # v^((n+1)/4), the root of the classic shortcut, and no non-residue
        # is looked up.  Every square mod the odd primes <= 257, and seeded
        # 61-bit cases.
        cases = [(v, n) for n in ODD_PRIMES_257 if n % 4 == 3 for v in squares_mod(n)]
        rng = random.Random(3)
        wide = []
        while len(wide) < 300:
            n = rng.randrange(1 << 60, 1 << 61) | 3
            if is_prime(n):
                wide.append((pow(rng.randrange(1, n), 2, n), n))
        cases += wide
        monkeypatch.setattr(modular, "_nonresidue", lambda n: pytest.fail(f"non-residue {n}"))
        for v, n in cases:
            assert _sqrt_residue(v, n) == pow(v, (n + 1) // 4, n), (v, n)


class TestCanonicalRoots:
    def test_canonical_i_examples(self):
        assert canonical_i(17) == 4
        assert canonical_i(41) == 9
        assert canonical_i(5) == 2

    def test_canonical_sqrt2_examples(self):
        assert canonical_sqrt2(17) == 6
        assert canonical_sqrt2(41) == 17
        assert canonical_sqrt2(97) == 14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            canonical_i(19)  # 19 = 3 (mod 4)
        with pytest.raises(ValueError):
            canonical_sqrt2(13)  # 13 = 5 (mod 8)
        with pytest.raises(ValueError):
            canonical_sqrt2(23)  # 2 is a square mod 23, but 23 = 7 (mod 8)

    def test_roots_square_back(self):
        # Every p = 1 (mod 8) below 3000, through the check selftest runs.
        selftest.check_canonical_roots()

    def test_selftest_checks_the_scan_roots(self, monkeypatch, capsys):
        # n - i is still a root of -1, and either root gives the same
        # descents, so only the comparison with canonical_i sees that
        # _i_and_sqrt2, which scans and traces run, stopped returning the
        # smaller one.
        real = modular._i_and_sqrt2

        def larger_i(n):
            i, s = real(n)
            return n - i, s

        for mod in (modular, criteria, selftest):
            assert mod._i_and_sqrt2 is real
            monkeypatch.setattr(mod, "_i_and_sqrt2", larger_i)
        assert not selftest.run_all()
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert fails == ["FAIL check_canonical_roots: AssertionError: "
                         "_i_and_sqrt2 != canonical roots at 17"]

    def test_nonresidue_is_least(self):
        # _i_and_sqrt2's roots and Tonelli-Shanks's c are powers of
        # _nonresidue(n); it must be the least non-residue, found here by
        # squaring every residue, for every n = 1 (mod 4), the domain of
        # both callers.
        for n in [n for n in trial_division_primes(2000) if n % 4 == 1]:
            squares = squares_mod(n)
            assert _nonresidue(n) == min(z for z in range(2, n) if z not in squares), n


def nonresidue_cases() -> list[int]:
    # Every prime = 1 (mod 4) below 10^5, and 300 seeded primes = 1 (mod 8)
    # up to 2^62.
    cases = [n for n in trial_division_primes(10**5) if n % 4 == 1]
    rng = random.Random(30)
    wide: set[int] = set()
    while len(wide) < 300:
        n = rng.randrange(1 << 62) >> 3 << 3 | 1
        if sprp_prime_bases(n):
            wide.add(n)
    return cases + sorted(wide)


class TestNonresidue:
    def test_table_marks_the_nonresidues(self):
        # One entry per odd prime up to 127, in order, marking exactly the
        # nonzero residues that are not squares.
        zs = [z for z, _ in modular._NONRESIDUES]
        assert zs == [q for q in trial_division_primes(128) if q > 2]
        for z, marks in modular._NONRESIDUES:
            assert {r for r in range(z) if marks[r]} == set(range(1, z)) - squares_mod(z), z

    @pytest.mark.parametrize("table", ["full", "first-entry"])
    def test_matches_the_jacobi_loop(self, table, monkeypatch):
        # Down to its first entry the table leaves nearly every case to the
        # Jacobi loop that follows it.
        if table == "first-entry":
            monkeypatch.setattr(modular, "_NONRESIDUES", modular._NONRESIDUES[:1])
        for n in nonresidue_cases():
            assert _nonresidue(n) == nonresidue_by_jacobi(n), n


class TestSearchesEnd:
    """A modulus that is not prime ends both searches of the root layer with ValueError."""

    @pytest.mark.parametrize("call", ["sqrt_mod(7, 9)", "sqrt_mod(5, 21)", "canonical_i(9)",
                                      "canonical_i(99991 ** 2)", "canonical_i((2**31 - 1) ** 2)"])
    def test_composite_modulus_raises(self, call):
        # No Jacobi symbol mod a square is -1, so only _nonresidue's square
        # check stops it: its search up to sqrt(n) + 1 would take about 2^30
        # symbols mod (2^31 - 1)^2.  Mod 21, 5 has Jacobi symbol +1 but no
        # root, and Tonelli-Shanks's t = 17 squares to 16, 4, 16, ..., never
        # 1, so only its bound stops the order loop.  A child runs each call,
        # so a search without its bound fails here instead of hanging.
        code = ("import time\nfrom cm_octic.modular import canonical_i, sqrt_mod\n"
                f"start = time.perf_counter()\ntry:\n    {call}\nexcept ValueError as e:\n"
                "    print(time.perf_counter() - start, e)\n")
        done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0 and done.stdout, done.stderr
        seconds, message = done.stdout.split(" ", 1)
        assert float(seconds) < 1 and "is not prime" in message, done.stdout
