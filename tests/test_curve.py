"""Group law, the 1+i endomorphism, its fibers and level sets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm_octic.curve import (
    INFINITY,
    _add_int,
    _scalar_mul_int,
    Point,
    add,
    curve_order,
    eta_apply,
    eta_level_sets,
    eta_preimages,
    find_point_of_order,
    i_action,
    negate,
    point,
    random_point,
    scalar_mul,
)
from cm_octic.errors import InvariantViolation
from cm_octic.modular import Prime, element

from conftest import (
    curve_points_oracle,
    field_add_oracle,
    field_scalar_mul_oracle,
    naive_point_count,
    squares_mod,
)

P17 = Prime(17)
P41 = Prime(41)


class TestConstruction:
    def test_on_curve_accepted(self):
        P = point(P17, 5, 1)
        assert (P.x.residue, P.y.residue) == (5, 1)
        assert not P.is_infinity

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            point(P17, 2, 5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(AssertionError):
            add(point(P17, 1, 0), point(P41, 1, 0))

    def test_identity(self):
        assert INFINITY.is_infinity
        assert negate(INFINITY) is INFINITY


class TestGroupLaw:
    def test_two_torsion_chord(self):
        R = add(point(P17, 1, 0), point(P17, 16, 0))
        assert (R.x.residue, R.y.residue) == (0, 0)

    def test_doubling_two_torsion_gives_identity(self):
        T = point(P17, 0, 0)
        assert add(T, T) is INFINITY

    def test_inverse(self):
        P = point(P17, 5, 1)
        assert add(P, negate(P)) is INFINITY
        assert add(INFINITY, P) == P
        assert add(P, INFINITY) == P

    def test_axioms_on_sampled_triples(self):
        for p in (P17, P41, Prime(73)):
            pts = [random_point(p, s) for s in range(8)]
            for A, B, C in itertools.islice(itertools.product(pts, repeat=3), 150):
                assert add(A, B) == add(B, A)
                assert add(add(A, B), C) == add(A, add(B, C))

    def test_lagrange_exhaustive(self):
        for p in (P17, P41):
            n = curve_order(p)
            for P in curve_points_oracle(p):
                assert scalar_mul(n, P).is_infinity

    def test_lagrange_sampled(self):
        p = Prime(97)
        n = curve_order(p)
        for s in range(0, 40, 3):
            assert scalar_mul(n, random_point(p, s)).is_infinity

    def test_scalar_edge_cases(self):
        P = point(P41, 1, 0)
        assert scalar_mul(0, P) is INFINITY
        assert scalar_mul(1, P) == P
        assert scalar_mul(-1, P) == negate(P)
        assert scalar_mul(2, P) is INFINITY

    @settings(deadline=None)
    @given(st.integers(-64, 64), st.integers(-64, 64))
    def test_scalar_linearity(self, m, n):
        P = random_point(P41, 3)
        assert scalar_mul(m + n, P) == add(scalar_mul(m, P), scalar_mul(n, P))

    def test_off_curve_sum_is_an_invariant_violation(self):
        # Only a directly built Point can be off the curve; a sum computed
        # from it is a broken invariant, not bad input.
        bad = Point(element(P17, 2), element(P17, 5))
        with pytest.raises(InvariantViolation):
            add(bad, point(P17, 5, 1))
        with pytest.raises(InvariantViolation):
            add(bad, bad)
        with pytest.raises(InvariantViolation, match="is not on y\\^2 = x\\^3 - x over F_17"):
            scalar_mul(3, bad)

    # Primes of every residue class mod 8, up to 113.
    @pytest.mark.parametrize("v", [3, 5, 7, 11, 13, 17, 19, 41, 97, 113])
    def test_jacobian_scalar_mul_exhaustive(self, v):
        # Every point and every k in (-3p, 3p) against repeated _add_int:
        # the accumulator meets +-P, O and the 2-torsion along the way.
        for P in curve_points_oracle(Prime(v)):
            R = None if P.is_infinity else (P.x.residue, P.y.residue)
            minus_R = None if R is None else (R[0], -R[1] % v)
            up = down = None
            for k in range(3 * v):
                assert _scalar_mul_int(k, R, v) == up, (k, R)
                assert _scalar_mul_int(-k, R, v) == down, (-k, R)
                up, down = _add_int(up, R, v), _add_int(down, minus_R, v)


# Primes of 20, 40 and 61 bits, all = 1 (mod 8).
ORACLE_PRIMES = (524353, 549755814121, 2305843009213694257)


class TestGroupLawOracle:
    """add and scalar_mul against the field-object oracle in conftest."""

    @pytest.mark.parametrize("v", [17, 41])
    def test_every_ordered_pair(self, v):
        pts = curve_points_oracle(Prime(v))
        for A, B in itertools.product(pts, repeat=2):
            assert add(A, B) == field_add_oracle(A, B), (A, B)

    @pytest.mark.parametrize("v", ORACLE_PRIMES)
    def test_seeded_pairs(self, v):
        p = Prime(v)
        rng = random.Random(v)
        sampled = [random_point(p, rng.randrange(v)) for _ in range(12)]
        # the diagonal gives the doublings, the negations P + (-P)
        pts = sampled + [negate(A) for A in sampled]
        pts += [point(p, 0, 0), point(p, 1, 0), point(p, v - 1, 0)]
        for A, B in itertools.product(pts, repeat=2):
            assert add(A, B) == field_add_oracle(A, B), (A, B)

    @pytest.mark.parametrize("v", ORACLE_PRIMES)
    def test_scalar_mul(self, v):
        p = Prime(v)
        rng = random.Random(v)
        for _ in range(8):
            P = random_point(p, rng.randrange(v))
            k = rng.randrange(-(1 << 61), 1 << 61)
            assert scalar_mul(k, P) == field_scalar_mul_oracle(k, P), (k, P)


class TestIAction:
    def test_example(self):
        # i = 4 mod 17, so (5, 1) -> (-5, 4) = (12, 4)
        Q = i_action(point(P17, 5, 1))
        assert (Q.x.residue, Q.y.residue) == (12, 4)

    def test_is_homomorphism(self):
        pts = [random_point(P41, s) for s in range(10)]
        for A, B in itertools.combinations(pts, 2):
            assert i_action(add(A, B)) == add(i_action(A), i_action(B))

    def test_fixes_kernel(self):
        T = point(P17, 0, 0)
        assert i_action(T) == T
        assert i_action(INFINITY) is INFINITY


class TestEta:
    def test_examples(self):
        assert eta_apply(point(P17, 1, 0)) == point(P17, 0, 0)
        assert eta_apply(point(P17, 0, 0)) is INFINITY
        Q = eta_apply(point(P17, 5, 1))
        assert (Q.x.residue, Q.y.residue) == (4, 14)

    def test_is_homomorphism(self):
        pts = [random_point(Prime(73), s) for s in range(10)]
        for A, B in itertools.combinations(pts, 2):
            assert eta_apply(add(A, B)) == add(eta_apply(A), eta_apply(B))


class TestEtaPreimages:
    def test_identity_fiber_needs_field(self):
        with pytest.raises(ValueError):
            eta_preimages(INFINITY)

    def test_nonsquare_x_has_empty_fiber(self):
        assert eta_preimages(point(P17, 5, 1)) == frozenset()


class TestLevelSets:
    def test_p17(self):
        levels = [{e.residue for e in lvl} for lvl in eta_level_sets(P17)]
        assert levels == [{0}, {1, 16}, {4, 13}, {5, 7, 10, 12}]

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            eta_level_sets(Prime(13))


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
        P = random_point(Prime(v), seed)
        assert (P.x.residue, P.y.residue) == xy

    def test_walk_replication(self):
        # independently replay the walk: first x >= seed with x^3 - x a square
        p = Prime(41)
        sq = squares_mod(41)
        for seed in range(41):
            x = seed
            while (x**3 - x) % 41 not in sq | {0}:
                x = (x + 1) % 41
            P = random_point(p, seed)
            assert P.x.residue == x
            rhs = (x**3 - x) % 41
            if rhs == 0:
                assert P.y.residue == 0
            else:
                assert P.y.residue == min(P.y.residue, 41 - P.y.residue)

    def test_deterministic(self):
        assert random_point(P41, 7) == random_point(P41, 7)


def has_exact_order_8(p, xy):
    # Judged by the FieldElement oracle, not by the package's own group law.
    P = point(p, *xy)
    return (field_scalar_mul_oracle(8, P).is_infinity
            and not field_scalar_mul_oracle(4, P).is_infinity)


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
