"""Racah machinery: evaluation, weights, norms, shifts, summation by parts."""

import random
from fractions import Fraction

import pytest

from polyident import racah
from polyident.errors import DegenerateParameterError, DomainError
from polyident.racah import (
    RacahSystem,
    _h0_closed,
    _norm_ratio_closed,
    _weight_quotient,
    backward_shift_residual,
    endpoint_value_residual,
    gram_matrix,
    racah_eval,
    racah_h0,
    racah_norm_ratio,
    racah_weight,
    sum_by_parts_residual,
    validation_problems,
)

HALF = Fraction(1, 2)


def spec_system(alpha, l, m) -> RacahSystem:
    return RacahSystem(alpha - HALF, alpha - HALF, Fraction(-m - 1), -l - alpha - HALF, N=m)


SAMPLE_SYSTEMS = [
    RacahSystem(Fraction(0), Fraction(0), Fraction(-3), Fraction(1), N=2),
    RacahSystem(Fraction(0), Fraction(0), Fraction(-2), Fraction(-2), N=1),
    RacahSystem(HALF, HALF, Fraction(-4), Fraction(2), N=3),
    RacahSystem(Fraction(1), Fraction(2), Fraction(-5), Fraction(-7, 2), N=4),
] + [
    spec_system(alpha, l, m)
    for alpha in (Fraction(0), HALF, Fraction(1), Fraction(7, 3))
    for l, m in ((1, 1), (3, 2), (5, 5), (8, 4))
]


class TestConstruction:
    def test_twenty_validated_systems(self):
        assert len(SAMPLE_SYSTEMS) == 20

    def test_gamma_must_match_n(self):
        with pytest.raises(DomainError):
            RacahSystem(Fraction(0), Fraction(0), Fraction(-3), Fraction(1), N=3)

    def test_degenerate_h0_denominator(self):
        # (alpha - delta + 1)_N hits zero: construction must fail loudly
        with pytest.raises(DegenerateParameterError) as err:
            RacahSystem(Fraction(0), Fraction(0), Fraction(-2), Fraction(1), N=1)
        assert err.value.factors

    def test_parse(self):
        sys = RacahSystem.parse("0,0,-3,1", 2)
        assert sys == SAMPLE_SYSTEMS[0]
        with pytest.raises(DomainError):
            RacahSystem.parse("0,0,-3", 2)

    def test_validation_diagnostics_empty_for_valid(self):
        assert validation_problems(SAMPLE_SYSTEMS[2]) == []


class TestClosedFormsOnce:
    # SAMPLE_SYSTEMS[3] is generic; SAMPLE_SYSTEMS[7], the alpha = 0
    # specialization at (l, m) = (8, 4), is a tie: alpha + beta + 1 = 0
    # vanishes on both sides of every norm ratio's quotient
    @pytest.mark.parametrize("index", [3, 7], ids=["generic", "tie"])
    def test_validation_evaluates_each_closed_form_once(self, index, monkeypatch):
        sample = SAMPLE_SYSTEMS[index]
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        real = racah.poch_quotient
        monkeypatch.setattr(racah, "poch_quotient", counting)
        sys = RacahSystem(*sample.as_tuple(), N=sample.N)
        N = sys.N
        # N+1 weights, the mass, N norm ratios (n = 0 is 1) and N+1 endpoints
        assert len(calls) == 3 * N + 3
        built = len(calls)
        for x in range(N + 1):
            racah_weight(x, sys)
            racah_weight.__wrapped__(x, sys)
        for n in range(N + 1):
            racah_norm_ratio(n, sys)
        racah_h0(sys)
        assert len(calls) == built

    @pytest.mark.parametrize("index", [3, 7], ids=["generic", "tie"])
    def test_stored_values_equal_fresh_closed_forms(self, index):
        sys = SAMPLE_SYSTEMS[index]
        al, be, ga, de = sys.as_tuple()
        for x in range(sys.N + 1):
            normalization = (ga + de + 1 + 2 * x) / (ga + de + 1)
            fresh = _weight_quotient(x, al, be, ga, de) * normalization
            assert racah_weight.__wrapped__(x, sys) == fresh
        assert racah_h0(sys) == _h0_closed(sys.N, al, be, ga, de)
        for n in range(sys.N + 1):
            assert racah_norm_ratio(n, sys) == _norm_ratio_closed(n, al, be, ga, de)

    def test_kept_shifted_terms_match_fresh_computation(self):
        # the shifted-system terms the backward shift and summation by parts
        # share, recomputed from an empty cache
        racah._shifted_terms.cache_clear()
        for sys in SAMPLE_SYSTEMS:
            al, be, ga, de = sys.as_tuple()
            shifted = (al + 1, be + 1, ga + 1, de)
            for n in range(1, sys.N + 1):
                terms = racah._shifted_terms(n, sys)
                assert terms == tuple(
                    _weight_quotient(x, *shifted) * racah._eval_raw(n - 1, x, *shifted)
                    for x in range(sys.N)
                )
                assert racah._shifted_terms(n, sys) is terms


class TestEvaluation:
    def test_degree_zero_is_one(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            for x in range(sys.N + 1):
                assert racah_eval(0, x, sys) == 1

    def test_value_one_at_origin(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            for n in range(sys.N + 1):
                assert racah_eval(n, 0, sys) == 1

    def test_two_term_example(self):
        sys = SAMPLE_SYSTEMS[0]  # (0, 0, -3, 1)
        assert racah_eval(1, 2, sys) == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            racah_eval(3, 0, SAMPLE_SYSTEMS[0])
        with pytest.raises(DomainError):
            racah_eval(0, -1, SAMPLE_SYSTEMS[0])


class TestWeights:
    def test_weight_at_origin_is_one(self):
        for sys in SAMPLE_SYSTEMS:
            assert racah_weight(0, sys) == 1

    def test_linearization_weights(self):
        # the alpha = 1/2, l = m = 1 specialization carries the Legendre
        # expansion of x^2: coefficients 2/3 and 1/3
        sys = spec_system(Fraction(0), 1, 1)
        h0 = racah_h0(sys)
        assert racah_weight(0, sys) / h0 == Fraction(2, 3)
        assert racah_weight(1, sys) / h0 == Fraction(1, 3)

    def test_mass_closed_form_equals_direct_sum(self):
        for sys in SAMPLE_SYSTEMS:
            direct = sum(racah_weight(x, sys) for x in range(sys.N + 1))
            assert racah_h0(sys) == direct


class TestNorms:
    def test_degree_zero_ratio(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            assert racah_norm_ratio(0, sys) == 1

    def test_norm_ratio_against_brute_force(self):
        for sys in SAMPLE_SYSTEMS:
            h0 = racah_h0(sys)
            for n in range(sys.N + 1):
                brute = sum(
                    racah_eval(n, x, sys) ** 2 * racah_weight(x, sys)
                    for x in range(sys.N + 1)
                )
                assert brute == h0 * racah_norm_ratio(n, sys)

    def test_gram_matrix_diagonal(self):
        for sys in SAMPLE_SYSTEMS:
            gram = gram_matrix(sys)
            h0 = racah_h0(sys)
            for a in range(sys.N + 1):
                for b in range(sys.N + 1):
                    expected = h0 * racah_norm_ratio(a, sys) if a == b else 0
                    assert gram[a][b] == expected


class TestEndpoint:
    def test_degree_zero(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            assert endpoint_value_residual(0, sys) == 0

    def test_example_system(self):
        sys = SAMPLE_SYSTEMS[0]
        assert endpoint_value_residual(1, sys) == 0

    def test_saalschuetz_instance(self):
        sys = SAMPLE_SYSTEMS[2]  # (1/2, 1/2, -4, 2)
        assert endpoint_value_residual(2, sys) == 0

    def test_all_samples(self):
        for sys in SAMPLE_SYSTEMS:
            for n in range(sys.N + 1):
                assert endpoint_value_residual(n, sys) == 0


class TestBackwardShift:
    def test_interior_point(self):
        assert backward_shift_residual(1, 1, SAMPLE_SYSTEMS[0]) == 0

    def test_left_boundary_convention(self):
        assert backward_shift_residual(1, 0, SAMPLE_SYSTEMS[0]) == 0

    def test_right_boundary_convention(self):
        assert backward_shift_residual(1, 2, SAMPLE_SYSTEMS[0]) == 0

    def test_full_sample(self):
        for sys in SAMPLE_SYSTEMS:
            for n in range(1, sys.N + 1):
                for x in range(sys.N + 1):
                    assert backward_shift_residual(n, x, sys) == 0

    def test_requires_positive_degree(self):
        with pytest.raises(DomainError):
            backward_shift_residual(0, 0, SAMPLE_SYSTEMS[0])


class TestSummationByParts:
    def test_constant_function(self):
        # f constant kills the difference side; the weighted side is the
        # orthogonality of degree n against degree 0
        sys = SAMPLE_SYSTEMS[2]
        f = [Fraction(5)] * (sys.N + 1)
        for n in range(1, sys.N + 1):
            assert sum_by_parts_residual(n, f, sys) == 0

    def test_spec_examples(self):
        assert sum_by_parts_residual(1, [1, 0, 0], SAMPLE_SYSTEMS[0]) == 0
        assert sum_by_parts_residual(2, [0, 1, 4, 9], SAMPLE_SYSTEMS[2]) == 0

    def test_hundred_random_functions(self):
        rng = random.Random(20260810)
        for _ in range(100):
            sys = SAMPLE_SYSTEMS[rng.randrange(len(SAMPLE_SYSTEMS))]
            n = rng.randint(1, sys.N)
            f = [Fraction(rng.randint(-50, 50)) for _ in range(sys.N + 1)]
            assert sum_by_parts_residual(n, f, sys) == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            sum_by_parts_residual(1, [1, 2], SAMPLE_SYSTEMS[0])
