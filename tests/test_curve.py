"""Group law, the 1+i endomorphism, its fibers and level sets.

Points are the package's residue pairs (x, y), None for O; the oracle
comparisons rebuild them as FieldElement points in conftest.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_octic import curve, selftest
from cm_octic.curve import (
    _add_int,
    _eta_int,
    _level4_roots,
    _random_point_int,
    _scalar_mul_int,
    curve_order,
    eta_level_sets,
    eta_preimages,
    find_point_of_order,
)
from cm_octic.errors import InvariantViolation
from cm_octic.modular import _i_and_sqrt2, canonical_i, canonical_sqrt2, jacobi, sqrt_mod

from conftest import (
    FieldElement,
    curve_points_oracle,
    element,
    field_add_oracle,
    field_eta_oracle,
    field_eta_preimages_oracle,
    field_point,
    field_scalar_mul_oracle,
    naive_point_count,
    order8_walk_oracle,
    residues,
    sprp_prime_bases,
    squares_mod,
    trial_division_primes,
)

I17 = 4  # canonical_i(17)


def negate(P, n):
    return None if P is None else (P[0], -P[1] % n)


def as_field(p, P):
    # A residue pair as an oracle point, checked on the curve there.
    return None if P is None else field_point(p, *P)


def oracle_sum(p, A, B):
    return residues(field_add_oracle(as_field(p, A), as_field(p, B)))


class TestConstruction:
    def test_on_curve_accepted(self):
        assert residues(field_point(17, 5, 1)) == (5, 1)
        assert _add_int((5, 1), None, 17) == (5, 1)

    def test_off_curve_rejected(self):
        # The oracle's own curve check.
        with pytest.raises(ValueError):
            field_point(17, 2, 5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(AssertionError):
            field_add_oracle(field_point(17, 1, 0), field_point(41, 1, 0))

    def test_identity(self):
        # None is O for every integer core.
        assert _add_int(None, None, 17) is None
        assert _scalar_mul_int(3, None, 17) is None
        assert _scalar_mul_int(-3, None, 17) is None
        assert _eta_int(None, 17, I17) is None


class TestGroupLaw:
    def test_two_torsion_chord(self):
        assert _add_int((1, 0), (16, 0), 17) == (0, 0)

    def test_doubling_two_torsion_gives_identity(self):
        assert _add_int((0, 0), (0, 0), 17) is None

    def test_inverse(self):
        P = (5, 1)
        assert _add_int(P, negate(P, 17), 17) is None
        assert _add_int(None, P, 17) == P
        assert _add_int(P, None, 17) == P

    def test_axioms_on_sampled_triples(self):
        for v in (17, 41, 73):
            pts = [_random_point_int(s, v) for s in range(8)]
            for A, B, C in itertools.islice(itertools.product(pts, repeat=3), 150):
                assert _add_int(A, B, v) == _add_int(B, A, v)
                assert _add_int(_add_int(A, B, v), C, v) == _add_int(A, _add_int(B, C, v), v)

    def test_lagrange_exhaustive(self):
        for p in (17, 41):
            n = curve_order(p, canonical_i(p))
            for P in curve_points_oracle(p):
                assert _scalar_mul_int(n, P, p) is None

    def test_lagrange_sampled(self):
        n = curve_order(97, canonical_i(97))
        for s in range(0, 40, 3):
            assert _scalar_mul_int(n, _random_point_int(s, 97), 97) is None

    def test_scalar_edge_cases(self):
        P = (1, 0)
        assert _scalar_mul_int(0, P, 41) is None
        assert _scalar_mul_int(1, P, 41) == P
        assert _scalar_mul_int(-1, P, 41) == negate(P, 41)
        assert _scalar_mul_int(2, P, 41) is None

    @settings(deadline=None)
    @given(st.integers(-64, 64), st.integers(-64, 64))
    def test_scalar_linearity(self, m, n):
        P = _random_point_int(3, 41)
        assert _scalar_mul_int(m + n, P, 41) == _add_int(
            _scalar_mul_int(m, P, 41), _scalar_mul_int(n, P, 41), 41)

    def test_off_curve_sum_is_an_invariant_violation(self):
        # (2, 5) is off the curve mod 17; a sum computed from it is a broken
        # invariant, not bad input.
        with pytest.raises(InvariantViolation):
            _add_int((2, 5), (5, 1), 17)
        with pytest.raises(InvariantViolation):
            _add_int((2, 5), (2, 5), 17)
        with pytest.raises(InvariantViolation, match="is not on y\\^2 = x\\^3 - x over F_17"):
            _scalar_mul_int(3, (2, 5), 17)

    # Primes of every residue class mod 8, up to 113.
    @pytest.mark.parametrize("v", [3, 5, 7, 11, 13, 17, 19, 41, 97, 113])
    def test_jacobian_scalar_mul_exhaustive(self, v):
        # Every point and every k in (-3p, 3p) against repeated _add_int:
        # the accumulator meets +-P, O and the 2-torsion along the way.
        for P in curve_points_oracle(v):
            minus_P = negate(P, v)
            up = down = None
            for k in range(3 * v):
                assert _scalar_mul_int(k, P, v) == up, (k, P)
                assert _scalar_mul_int(-k, P, v) == down, (-k, P)
                up, down = _add_int(up, P, v), _add_int(down, minus_P, v)


class TestFieldElement:
    """The oracle's own F_p arithmetic, which the curve and trace oracles build on."""

    def test_range_check(self):
        p = 17
        FieldElement(0, p)
        FieldElement(16, p)
        with pytest.raises(ValueError):
            FieldElement(17, p)
        with pytest.raises(ValueError):
            FieldElement(-1, p)

    def test_arithmetic(self):
        p = 17
        a, b = element(p, 11), element(p, 9)
        assert (a + b).residue == 3
        assert (a - b).residue == 2
        assert (a * b).residue == 99 % 17
        assert (-a).residue == 6
        assert (a / b * b) == a
        assert a.inverse() * a == element(p, 1)
        assert (2 * a).residue == 5
        assert (1 - a).residue == 7

    def test_mixed_moduli_is_programming_error(self):
        a = element(17, 3)
        b = element(41, 3)
        # An explicit raise, so the guard holds under python -O as well.
        with pytest.raises(AssertionError, match="different prime fields"):
            a + b
        with pytest.raises(AssertionError, match="different prime fields"):
            a / b


# Primes of 20, 40 and 61 bits, all = 1 (mod 8).
ORACLE_PRIMES = (524353, 549755814121, 2305843009213694257)


class TestGroupLawOracle:
    """_add_int and _scalar_mul_int against the FieldElement oracle in conftest."""

    @pytest.mark.parametrize("v", [17, 41])
    def test_every_ordered_pair(self, v):
        pts = curve_points_oracle(v)
        for A, B in itertools.product(pts, repeat=2):
            assert _add_int(A, B, v) == oracle_sum(v, A, B), (A, B)

    @pytest.mark.parametrize("v", ORACLE_PRIMES)
    def test_seeded_pairs(self, v):
        rng = random.Random(v)
        sampled = [_random_point_int(rng.randrange(v), v) for _ in range(12)]
        # the diagonal gives the doublings, the negations P + (-P)
        pts = sampled + [negate(A, v) for A in sampled] + [(0, 0), (1, 0), (v - 1, 0)]
        for A, B in itertools.product(pts, repeat=2):
            assert _add_int(A, B, v) == oracle_sum(v, A, B), (A, B)

    @pytest.mark.parametrize("v", ORACLE_PRIMES)
    def test_scalar_mul(self, v):
        rng = random.Random(v)
        for _ in range(8):
            P = _random_point_int(rng.randrange(v), v)
            k = rng.randrange(-(1 << 61), 1 << 61)
            expected = residues(field_scalar_mul_oracle(k, as_field(v, P)))
            assert _scalar_mul_int(k, P, v) == expected, (k, P)


class TestEta:
    def test_examples(self):
        assert _eta_int((1, 0), 17, I17) == (0, 0)
        assert _eta_int((0, 0), 17, I17) is None
        assert _eta_int((5, 1), 17, I17) == (4, 14)

    def test_is_homomorphism(self):
        i = canonical_i(73)
        pts = [_random_point_int(s, 73) for s in range(10)]
        for A, B in itertools.combinations(pts, 2):
            assert _eta_int(_add_int(A, B, 73), 73, i) == _add_int(
                _eta_int(A, 73, i), _eta_int(B, 73, i), 73)

    @pytest.mark.parametrize("v", [41, 113])
    def test_matches_field_oracle(self, v):
        i = canonical_i(v)
        for P in curve_points_oracle(v):
            assert _eta_int(P, v, i) == residues(field_eta_oracle(as_field(v, P))), P


class TestEtaPreimages:
    def test_nonsquare_x_has_empty_fiber(self):
        assert eta_preimages(5, 17, I17) == frozenset()

    @pytest.mark.parametrize("v", [41, 113])
    def test_matches_field_oracle(self, v):
        # eta_preimages(x0) is the union of the oracle's fibers over +-Q.
        i = canonical_i(v)
        points = curve_points_oracle(v)[1:]
        for x0 in {Q[0] for Q in points}:
            expected = {residues(P) for Q in points if Q[0] == x0
                        for P in field_eta_preimages_oracle(as_field(v, Q))}
            assert eta_preimages(x0, v, i) == expected, x0


def _i_keeps_x(P, n, i):
    # eta with [i](x, y) = (x, i*y) in place of (-x, i*y).
    return None if P is None else curve._add_int(P, (P[0], i * P[1] % n), n)


def _candidates_use_minus_i(x0, n, i):
    # eta_preimages with x = -i*x0 +- sqrt(1 - x0^2) as its candidates:
    # eta sends the points above them to -x0, not x0.
    if jacobi(x0, n) == -1:
        return frozenset()
    found = set()
    for s in set(sqrt_mod(1 - x0 * x0, n)):
        x = (-i * x0 + s) % n
        found.update((x, y) for y in set(sqrt_mod(x * x * x - x, n) or ()))
    return frozenset(found)


def _tangent_at_two_torsion(P, Q, n):
    # _add_int without its y = 0 case: a 2-torsion point is doubled along
    # its vertical tangent instead of to O.
    if P is not None and P == Q:
        x, y = P
        s = (3 * x * x - 1) * pow(2 * y, -1, n) % n
        x3 = (s * s - 2 * x) % n
        return x3, (s * (x - x3) - y) % n
    return curve._add_int(P, Q, n)


@pytest.mark.parametrize("name, mutant, failure", [
    ("_eta_int", _i_keeps_x, "computed kernel wrong"),
    ("eta_preimages", _candidates_use_minus_i, "preimage does not map back"),
    ("_add_int", _tangent_at_two_torsion, "ValueError"),
], ids=["i-keeps-x", "preimages-minus-i", "doubling-misses-o"])
def test_eta_suite_catches_a_broken_integer_core(name, mutant, failure, monkeypatch, capsys):
    # The selftest's eta suite runs on the integer core that proof_trace
    # runs; each mutant, put in for one of its names, must fail it.
    monkeypatch.setattr(selftest, "CHECKS", (selftest.check_eta_suite,))
    monkeypatch.setattr(selftest, name, mutant)
    assert not selftest.run_all()
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("FAIL check_eta_suite") and failure in out


def x_map_level_sets(n: int) -> list[tuple[int, ...]]:
    """The x in F_n that the x-map of eta, phi(x) = (x^2 - 1)/(2ix), sends to
    0 in exactly k - 1 steps, for k = 1..4; i is found by search."""
    i = next(r for r in range(n) if r * r % n == n - 1)
    phi = [0] + [(x * x - 1) * pow(2 * i * x, -1, n) % n for x in range(1, n)]
    levels: list[set[int]] = [set(), set(), set(), set()]
    for x in range(n):
        y = x
        for level in levels:
            if y == 0:
                level.add(x)
                break
            y = phi[y]
    return [tuple(sorted(level)) for level in levels]


class TestLevelSets:
    def test_p17(self):
        assert eta_level_sets(17, I17, 6) == ((0,), (1, 16), (4, 13), (5, 7, 10, 12))

    def test_matches_x_map_oracle(self):
        # Every p = 1 (mod 8) below 2000, with either sign of each root; i + 1
        # and s + 1 are roots of -1 and 2 only mod 5 and 7.
        primes = [v for v in trial_division_primes(2000) if v % 8 == 1]
        assert len(primes) == 68
        for v in primes:
            i, s = canonical_i(v), canonical_sqrt2(v)
            expected = x_map_level_sets(v)
            for i_, s_ in ((i, s), (v - i, v - s)):
                assert list(eta_level_sets(v, i_, s_)) == expected, v
            for i_, s_ in ((i + 1, s), (i, s + 1)):
                with pytest.raises(InvariantViolation, match="not square roots"):
                    eta_level_sets(v, i_, s_)

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            eta_level_sets(13, 5, 0)  # 13 = 5 (mod 8): 5^2 = -1, but 2 has no root


def seeded_primes(count: int, bits: int, seed: int) -> list[int]:
    """count primes = 1 (mod 8) of the given bit size, from random.Random(seed)."""
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        q = rng.randrange(1 << (bits - 1), 1 << bits) >> 3 << 3 | 1
        if q >> (bits - 1) and sprp_prime_bases(q):
            out.append(q)
    return out


class TestLevelFourPoints:
    @pytest.mark.parametrize("values", [
        pytest.param([v for v in trial_division_primes(10**4) if v % 8 == 1], id="below-10^4"),
        pytest.param(seeded_primes(40, 61, 4), id="seeded-61-bit"),
    ])
    def test_explicit_roots_match_sqrt_mod(self, values):
        for v in values:
            i, s = _i_and_sqrt2(v)
            for x in eta_level_sets(v, i, s)[3]:
                assert _level4_roots(x, v, i) == sqrt_mod(x * x * x - x, v), (v, x)

    def test_off_level_x_is_an_invariant_violation(self):
        # x = 2 is not +-1 +- sqrt(2) mod 41, so neither explicit y is on the curve.
        with pytest.raises(InvariantViolation, match="is not on y\\^2 = x\\^3 - x over F_41"):
            _level4_roots(2, 41, canonical_i(41))


class TestCounting:
    def test_naive_example(self):
        assert naive_point_count(13) == 8

    def test_order_matches_naive_count(self):
        for v in range(5, 500):
            if v % 4 == 1 and all(v % d for d in range(2, v)):
                assert curve_order(v, canonical_i(v)) == naive_point_count(v), v

    def test_naive_guard(self):
        with pytest.raises(ValueError):
            naive_point_count(131071)


class TestSampling:
    @pytest.mark.parametrize("v,seed,xy", [(17, 0, (0, 0)), (41, 1, (1, 0)), (17, 2, (4, 3))])
    def test_walk_examples(self, v, seed, xy):
        assert _random_point_int(seed, v) == xy

    def test_walk_replication(self):
        # independently replay the walk: first x >= seed with x^3 - x a square
        sq = squares_mod(41)
        for seed in range(41):
            x = seed
            while (x**3 - x) % 41 not in sq | {0}:
                x = (x + 1) % 41
            px, py = _random_point_int(seed, 41)
            assert px == x
            rhs = (x**3 - x) % 41
            if rhs == 0:
                assert py == 0
            else:
                assert py * py % 41 == rhs and py == min(py, 41 - py)

    def test_deterministic(self):
        assert _random_point_int(7, 41) == _random_point_int(7, 41)


def has_exact_order_8(p, xy):
    # Judged by the FieldElement oracle, not by the package's own group law.
    P = field_point(p, *xy)
    return field_scalar_mul_oracle(8, P) is None and field_scalar_mul_oracle(4, P) is not None


class TestFindPointOfOrder:
    # #E comes from the caller; here from the naive point count, not from
    # the package's curve_order.
    def test_order_eight_exists_at_41(self):
        xy = find_point_of_order(41, naive_point_count(41))
        assert xy is not None
        assert has_exact_order_8(41, xy)

    def test_needs_32_to_divide_the_order(self):
        # n = 16 at p = 17, so its 2-part Z/4 x Z/4 has no point of order 8
        with pytest.raises(ValueError):
            find_point_of_order(17, 16)

    @pytest.mark.parametrize("v", [41, 113])
    def test_every_seed_finds_order_eight(self, v):
        # seeds near p wrap the walk around to x = 0, 1, ...
        order = naive_point_count(v)
        for seed in range(v):
            xy = find_point_of_order(v, order, seed)
            assert xy is not None and has_exact_order_8(v, xy), seed

    def test_finds_order_eight_at_10009(self):
        p = 10009
        xy = find_point_of_order(10009, naive_point_count(p))
        assert xy is not None
        assert has_exact_order_8(p, xy)


def primes_by_valuation(sizes, seed: int) -> dict[str, list[int]]:
    """One prime = 1 (mod 8) of each bit size with 2^5, 2^6 and 2^(>=7) || #E,
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    classes: dict[str, list[int]] = {"v5": [], "v6": [], "v7+": []}
    for bits in sizes:
        missing = set(classes)
        while missing:
            q = rng.randrange(1 << (bits - 1), 1 << bits) >> 3 << 3 | 1
            if not (q >> (bits - 1) and sprp_prime_bases(q)):
                continue
            order = curve_order(q, sqrt_mod(-1, q)[0])
            v = (order & -order).bit_length() - 1  # 2^v || #E
            key = "v5" if v == 5 else "v6" if v == 6 else "v7+" if v >= 7 else None
            if key in missing:
                classes[key].append(q)
                missing.remove(key)
    return classes


def sampler_mismatches(values, seeds=range(4)) -> list[tuple]:
    """(p, seed, package, oracle) wherever find_point_of_order disagrees with
    the full-projection walk in conftest."""
    out = []
    for v in values:
        order = curve_order(v, canonical_i(v))
        for seed in seeds:
            got, want = find_point_of_order(v, order, seed), order8_walk_oracle(v, order, seed)
            if got != want:
                out.append((v, seed, got, want))
    return out


# Every p = 1 (mod 8) below 2 * 10^4 with 32 | #E.
SMALL_SEARCHED = [v for v in trial_division_primes(20000)
                  if v % 8 == 1 and curve_order(v, canonical_i(v)) % 32 == 0]
# 2476681 and 528423887209 are the seed-0 misses, both with 2^5 || #E.
SEEDED_SEARCHED = primes_by_valuation((20, 27, 34, 41, 48, 55, 61), 27)
SEEDED_SEARCHED["v5"] += [2476681, 528423887209]


class TestSamplerDescent:
    """find_point_of_order decides samples at 2^5 and 2^6 || #E from x alone;
    it must choose as the walk that projects every sample does."""

    def test_small_primes(self):
        assert len(SMALL_SEARCHED) > 250
        assert sampler_mismatches(SMALL_SEARCHED) == []

    @pytest.mark.parametrize("key", ["v5", "v6", "v7+"])
    def test_seeded_primes(self, key):
        assert sampler_mismatches(SEEDED_SEARCHED[key]) == []

    @pytest.mark.parametrize("v", [2476681, 528423887209])
    def test_pinned_misses_still_miss(self, v):
        assert find_point_of_order(v, curve_order(v, canonical_i(v)), 0) is None

    def test_a_flipped_v5_rule_is_caught(self, monkeypatch):
        # Rejecting the non-square x at 2^5 || #E instead of the square ones.
        real = curve._descent_rejects
        monkeypatch.setattr(curve, "_descent_rejects",
                            lambda x, v, n: jacobi(x, n) == -1 if v == 5 else real(x, v, n))
        assert sampler_mismatches(SMALL_SEARCHED[:20], seeds=[0]) != []
