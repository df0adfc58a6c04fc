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
    _random_point_int,
    _scalar_mul_int,
    curve_order,
    eta_level_sets,
    eta_preimages,
    find_point_of_order,
)
from cm_octic.errors import InvariantViolation
from cm_octic.modular import Prime, canonical_i, canonical_sqrt2, sqrt_mod

from conftest import (
    curve_points_oracle,
    field_add_oracle,
    field_eta_oracle,
    field_eta_preimages_oracle,
    field_point,
    field_scalar_mul_oracle,
    naive_point_count,
    residues,
    squares_mod,
    trial_division_primes,
)

P17 = Prime(17)
P41 = Prime(41)
I17 = 4  # canonical_i(P17)


def negate(P, n):
    return None if P is None else (P[0], -P[1] % n)


def as_field(p, P):
    # A residue pair as an oracle point, checked on the curve there.
    return None if P is None else field_point(p, *P)


def oracle_sum(p, A, B):
    return residues(field_add_oracle(as_field(p, A), as_field(p, B)))


class TestConstruction:
    def test_on_curve_accepted(self):
        assert residues(field_point(P17, 5, 1)) == (5, 1)
        assert _add_int((5, 1), None, 17) == (5, 1)

    def test_off_curve_rejected(self):
        # The oracle's own curve check.
        with pytest.raises(ValueError):
            field_point(P17, 2, 5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(AssertionError):
            field_add_oracle(field_point(P17, 1, 0), field_point(P41, 1, 0))

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
        for p in (P17, P41):
            n = curve_order(p)
            for P in curve_points_oracle(p):
                assert _scalar_mul_int(n, P, p.value) is None

    def test_lagrange_sampled(self):
        p = Prime(97)
        n = curve_order(p)
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
        for P in curve_points_oracle(Prime(v)):
            minus_P = negate(P, v)
            up = down = None
            for k in range(3 * v):
                assert _scalar_mul_int(k, P, v) == up, (k, P)
                assert _scalar_mul_int(-k, P, v) == down, (-k, P)
                up, down = _add_int(up, P, v), _add_int(down, minus_P, v)


# Primes of 20, 40 and 61 bits, all = 1 (mod 8).
ORACLE_PRIMES = (524353, 549755814121, 2305843009213694257)


class TestGroupLawOracle:
    """_add_int and _scalar_mul_int against the FieldElement oracle in conftest."""

    @pytest.mark.parametrize("v", [17, 41])
    def test_every_ordered_pair(self, v):
        p = Prime(v)
        pts = curve_points_oracle(p)
        for A, B in itertools.product(pts, repeat=2):
            assert _add_int(A, B, v) == oracle_sum(p, A, B), (A, B)

    @pytest.mark.parametrize("v", ORACLE_PRIMES)
    def test_seeded_pairs(self, v):
        p = Prime(v)
        rng = random.Random(v)
        sampled = [_random_point_int(rng.randrange(v), v) for _ in range(12)]
        # the diagonal gives the doublings, the negations P + (-P)
        pts = sampled + [negate(A, v) for A in sampled] + [(0, 0), (1, 0), (v - 1, 0)]
        for A, B in itertools.product(pts, repeat=2):
            assert _add_int(A, B, v) == oracle_sum(p, A, B), (A, B)

    @pytest.mark.parametrize("v", ORACLE_PRIMES)
    def test_scalar_mul(self, v):
        p = Prime(v)
        rng = random.Random(v)
        for _ in range(8):
            P = _random_point_int(rng.randrange(v), v)
            k = rng.randrange(-(1 << 61), 1 << 61)
            expected = residues(field_scalar_mul_oracle(k, as_field(p, P)))
            assert _scalar_mul_int(k, P, v) == expected, (k, P)


class TestEta:
    def test_examples(self):
        assert _eta_int((1, 0), 17, I17) == (0, 0)
        assert _eta_int((0, 0), 17, I17) is None
        assert _eta_int((5, 1), 17, I17) == (4, 14)

    def test_is_homomorphism(self):
        i = canonical_i(Prime(73))
        pts = [_random_point_int(s, 73) for s in range(10)]
        for A, B in itertools.combinations(pts, 2):
            assert _eta_int(_add_int(A, B, 73), 73, i) == _add_int(
                _eta_int(A, 73, i), _eta_int(B, 73, i), 73)

    @pytest.mark.parametrize("v", [41, 113])
    def test_matches_field_oracle(self, v):
        p = Prime(v)
        i = canonical_i(p)
        for P in curve_points_oracle(p):
            assert _eta_int(P, v, i) == residues(field_eta_oracle(as_field(p, P))), P


class TestEtaPreimages:
    def test_nonsquare_x_has_empty_fiber(self):
        assert eta_preimages((5, 1), 17, I17) == frozenset()

    @pytest.mark.parametrize("v", [41, 113])
    def test_matches_field_oracle(self, v):
        p = Prime(v)
        i = canonical_i(p)
        for Q in curve_points_oracle(p)[1:]:
            expected = {residues(P) for P in field_eta_preimages_oracle(as_field(p, Q))}
            assert eta_preimages(Q, v, i) == expected, Q


def _i_keeps_x(P, n, i):
    # eta with [i](x, y) = (x, i*y) in place of (-x, i*y).
    return None if P is None else curve._add_int(P, (P[0], i * P[1] % n), n)


def _candidates_use_minus_i(Q, n, i):
    # eta_preimages with x = -i*x0 +- sqrt(1 - x0^2) as its candidates.
    x0 = Q[0]
    found = set()
    for s in set(sqrt_mod(1 - x0 * x0, n) or ()):
        x = (-i * x0 + s) % n
        for y in set(sqrt_mod(x * x * x - x, n) or ()):
            if curve._eta_int((x, y), n, i) == Q:
                found.add((x, y))
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
    ("eta_preimages", _candidates_use_minus_i, "square preimage criterion fails"),
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
            p = Prime(v)
            i, s = canonical_i(p), canonical_sqrt2(p)
            expected = x_map_level_sets(v)
            for i_, s_ in ((i, s), (v - i, v - s)):
                assert list(eta_level_sets(v, i_, s_)) == expected, v
            for i_, s_ in ((i + 1, s), (i, s + 1)):
                with pytest.raises(InvariantViolation, match="not square roots"):
                    eta_level_sets(v, i_, s_)

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            eta_level_sets(13, 5, 0)  # 13 = 5 (mod 8): 5^2 = -1, but 2 has no root


class TestCounting:
    def test_naive_example(self):
        assert naive_point_count(Prime(13)) == 8

    def test_order_matches_naive_count(self):
        for v in range(5, 500):
            if v % 4 == 1 and all(v % d for d in range(2, v)):
                p = Prime(v)
                assert curve_order(p) == naive_point_count(p), v

    def test_naive_guard(self):
        with pytest.raises(ValueError):
            naive_point_count(Prime(131071))


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
    def test_order_eight_exists_at_41(self):
        xy = find_point_of_order(P41)
        assert xy is not None
        assert has_exact_order_8(P41, xy)

    def test_needs_32_to_divide_the_order(self):
        # n = 16 at p = 17, so its 2-part Z/4 x Z/4 has no point of order 8
        with pytest.raises(ValueError):
            find_point_of_order(P17)

    @pytest.mark.parametrize("v", [41, 113])
    def test_every_seed_finds_order_eight(self, v):
        # seeds near p wrap the walk around to x = 0, 1, ...
        p = Prime(v)
        for seed in range(v):
            xy = find_point_of_order(p, seed)
            assert xy is not None and has_exact_order_8(p, xy), seed

    def test_finds_order_eight_at_10009(self):
        p = Prime(10009)
        xy = find_point_of_order(p)
        assert xy is not None
        assert has_exact_order_8(p, xy)
