"""Dual addition machinery: linearization weights, the sum S, the expansion."""

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyident import addition, dual_addition, hermite_limit, racah
from polyident.classical import (
    addition_weight,
    even_moment,
    gegenbauer_r,
    inner_product,
    norm_ratio,
)
from polyident.dual_addition import (
    coeff_as_racah_weight_residual,
    dual_addition_coeffs,
    dual_addition_residual,
    dual_addition_term,
    integral_identity_residuals,
    linearization_coeff,
    s_closed,
    s_closed_prefactor,
    s_direct,
    second_hyp_form,
    specialized_racah,
    whipple_factor,
    whipple_proportionality,
)
from polyident.errors import DomainError
from polyident.exact import UniPoly, format_rational, parse_rational, pochhammer
from polyident.racah import (
    RacahSystem,
    racah_eval,
    racah_h0,
    racah_norm_ratio,
    racah_weight,
)
from polyident.addition import sum_of_squares_terms
from polyident.suites import SuiteConfig

HALF = Fraction(1, 2)
GRID_ALPHAS = [Fraction(0), HALF, Fraction(1), Fraction(7, 3)]


def brute_force_expansion(l: int, m: int, alpha: Fraction) -> list[Fraction]:
    """Oracle: expand R_l R_m in the family by exact Gram inversion."""
    product = gegenbauer_r(l, alpha) * gegenbauer_r(m, alpha)
    coeffs = []
    for j in range(m + 1):
        basis = gegenbauer_r(l + m - 2 * j, alpha)
        coeffs.append(
            inner_product(product, basis, alpha) / norm_ratio(l + m - 2 * j, alpha)
        )
    return coeffs


def integral_identity_fractions(n: int, alpha: Fraction, l: int, m: int) -> list[Fraction]:
    """integral_identity_residuals as a Fraction loop: each pairing of S_n
    reduced, the closed value w(j) (h_{l+m-2j}/h_0) R_n(j) a Fraction
    product, and their difference; the reference that the integer
    cross-multiplication is pinned to."""
    sys = specialized_racah(alpha, l, m)
    product = dual_addition.s_direct(n, alpha, l, m)
    return [
        inner_product(product, gegenbauer_r(l + m - 2 * j, alpha), alpha)
        - racah_weight(j, sys) * norm_ratio(l + m - 2 * j, alpha) * value
        for j, value in enumerate(sys.values[n])
    ]


def _key(alpha, l, m):
    """The integers (a, b, l, m) of alpha = a/b, l and m that key a setting's memos."""
    return alpha.numerator, alpha.denominator, l, m


#: every public function of a setting, called at index 0 where it takes one
ENTRY_POINTS = (
    linearization_coeff, coeff_as_racah_weight_residual, s_direct, s_closed_prefactor,
    s_closed, dual_addition_coeffs, dual_addition_residual, integral_identity_residuals,
    whipple_factor,
    lambda index, *setting: dual_addition_term(index, index, *setting),
    lambda index, *setting: second_hyp_form(*setting),
    lambda index, *setting: whipple_proportionality(*setting),
)


class TestDualSetting:
    def test_validation(self):
        # each entry point checks (alpha, l, m) itself: alpha first, then the
        # index pair, with the messages a setting has always had
        for fn in ENTRY_POINTS:
            for alpha, text in ((Fraction(-1, 2), "-1/2"), (Fraction(-3, 4), "-3/4"), (-1, "-1")):
                with pytest.raises(DomainError, match=f"^alpha must exceed -1/2, got {text}$"):
                    fn(0, alpha, 1, 2)
            with pytest.raises(DomainError, match="^need l >= m >= 0, got l=1, m=2$"):
                fn(0, Fraction(0), 1, 2)
            with pytest.raises(DomainError, match="^need l >= m >= 0, got l=1, m=-1$"):
                fn(0, Fraction(0), 1, -1)

    def test_specialized_system_always_validates(self):
        # a checked claim: every admissible setting yields a valid system
        for alpha in GRID_ALPHAS:
            for l in range(9):
                for m in range(l + 1):
                    specialized_racah(alpha, l, m)


class TestLinearizationCoeff:
    def test_legendre_product_of_degree_ones(self):
        s = (Fraction(0), 1, 1)
        assert [linearization_coeff(j, *s) for j in (0, 1)] == [
            Fraction(2, 3),
            Fraction(1, 3),
        ]

    def test_matches_brute_force_oracle(self):
        for alpha, l, m in [
            (HALF, 2, 1),
            (Fraction(0), 3, 3),
            (Fraction(1), 4, 2),
            (Fraction(7, 3), 5, 4),
        ]:
            s = (alpha, l, m)
            oracle = brute_force_expansion(l, m, alpha)
            assert [linearization_coeff(j, *s) for j in range(m + 1)] == oracle

    def test_sum_to_one(self):
        # evaluate the expansion at the right endpoint, where every factor is 1
        for alpha in GRID_ALPHAS:
            for l, m in ((2, 2), (5, 3), (8, 8)):
                s = (alpha, l, m)
                assert sum(linearization_coeff(j, *s) for j in range(m + 1)) == 1

    def test_strict_positivity(self):
        for alpha in GRID_ALPHAS:
            for l in range(9):
                for m in range(l + 1):
                    s = (alpha, l, m)
                    assert all(
                        linearization_coeff(j, *s) > 0 for j in range(m + 1)
                    )


class TestCoeffAsRacahWeight:
    def test_legendre_case(self):
        s = (Fraction(0), 1, 1)
        assert coeff_as_racah_weight_residual(0, *s) == 0

    def test_larger_setting_all_j(self):
        s = (Fraction(3, 2), 4, 3)
        for j in range(4):
            assert coeff_as_racah_weight_residual(j, *s) == 0

    def test_j_zero_pins_inverse_mass(self):
        # w(0) = 1, so the j = 0 coefficient must be exactly 1/h0
        for alpha, l, m in [(HALF, 3, 2), (Fraction(1), 5, 5)]:
            s = (alpha, l, m)
            sys = specialized_racah(*s)
            assert linearization_coeff(0, *s) == 1 / racah_h0(sys)
            assert coeff_as_racah_weight_residual(0, *s) == 0


class TestSumS:
    def test_degree_zero_is_scaled_product(self):
        for alpha, l, m in [(Fraction(0), 1, 1), (HALF, 3, 2)]:
            s = (alpha, l, m)
            sys = specialized_racah(*s)
            product = (gegenbauer_r(l, alpha) * gegenbauer_r(m, alpha)).scale(
                racah_h0(sys)
            )
            assert s_direct(0, *s) == product
            assert s_closed_prefactor(0, *s) == racah_h0(sys)

    @pytest.mark.parametrize(
        "alpha,l,m,n",
        [(Fraction(0), 1, 1, 1), (HALF, 3, 2, 2), (Fraction(1), 4, 4, 4),
         (Fraction(7, 3), 2, 2, 1)],
    )
    def test_direct_equals_closed(self, alpha, l, m, n):
        s = (alpha, l, m)
        assert s_direct(n, *s) == s_closed(n, *s)

    def test_highest_case_still_polynomial(self):
        s = (Fraction(1), 5, 5)
        assert s_direct(5, *s) == s_closed(5, *s)


class TestDualAdditionFormula:
    def test_hand_expanded_legendre_case(self):
        # two-term expansion: x^2 + (x^2-1)/2 = (3x^2-1)/2
        s = (Fraction(0), 1, 1)
        assert dual_addition_residual(0, *s).is_zero
        assert gegenbauer_r(2, Fraction(0)) == UniPoly(
            [Fraction(-1, 2), 0, Fraction(3, 2)]
        )

    def test_j_m_corollary(self):
        # j = m uses the endpoint evaluation of the Racah factor
        s = (Fraction(1), 3, 2)
        assert dual_addition_residual(2, *s).is_zero

    def test_full_grid(self):
        for alpha in GRID_ALPHAS:
            for l in range(9):
                for m in range(l + 1):
                    s = (alpha, l, m)
                    for j in range(m + 1):
                        assert dual_addition_residual(j, *s).is_zero

    def test_fourier_racah_consistency(self):
        # expanding the sums S back through the discrete orthogonality
        # recovers the expansion of R_{l+m-2j} exactly
        for alpha, l, m in [(HALF, 3, 2), (Fraction(0), 4, 3)]:
            s = (alpha, l, m)
            sys = specialized_racah(*s)
            h0 = racah_h0(sys)
            for j in range(m + 1):
                recovered = UniPoly.zero()
                for n in range(m + 1):
                    c = racah_eval(n, j, sys) / (h0 * racah_norm_ratio(n, sys))
                    recovered = recovered + s_direct(n, *s).scale(c)
                assert recovered == gegenbauer_r(l + m - 2 * j, alpha)


class TestSelfDual:
    """The constant-function expansion: the dual addition formula at l = m, j = m."""

    def test_trivial_case(self):
        assert dual_addition_residual(0, Fraction(0), 0, 0).is_zero

    def test_hand_case(self):
        # 1 = x^2 + (1 - x^2)
        assert dual_addition_residual(1, Fraction(0), 1, 1).is_zero

    @pytest.mark.parametrize("m,alpha", [(3, HALF), (5, Fraction(7, 3)), (8, Fraction(1))])
    def test_zero_residual(self, m, alpha):
        assert dual_addition_residual(m, alpha, m, m).is_zero

    def test_terms_match_partition_of_unity_termwise(self):
        # not just equal sums: the term sequences are identical
        for alpha in GRID_ALPHAS:
            for m in range(9):
                s = (alpha, m, m)
                square_terms = sum_of_squares_terms(m, alpha)
                assert len(square_terms) == m + 1
                for n, square in enumerate(square_terms):
                    assert dual_addition_term(n, m, *s) == square


class TestIntegralIdentity:
    @pytest.mark.parametrize(
        "n,j,alpha,l,m",
        [(0, 0, Fraction(0), 1, 1), (1, 1, Fraction(0), 1, 1),
         (2, 1, HALF, 3, 2), (3, 2, Fraction(1), 5, 3)],
    )
    def test_zero_residual(self, n, j, alpha, l, m):
        assert integral_identity_residuals(n, alpha, l, m)[j] == 0

    def test_weights_strictly_positive(self):
        # no j can zero out the right-hand side for admissible settings
        for alpha in GRID_ALPHAS:
            s = (alpha, 6, 4)
            sys = specialized_racah(*s)
            assert all(racah_weight(j, sys) > 0 for j in range(5))

    def test_grid(self):
        for alpha in GRID_ALPHAS:
            for l, m in ((2, 2), (4, 3), (6, 2)):
                s = (alpha, l, m)
                for n in range(m + 1):
                    assert integral_identity_residuals(n, *s) == [0] * (m + 1)

    @given(alpha=st.fractions(min_value=-HALF, max_value=3, max_denominator=13).filter(
               lambda a: a > -HALF),
           l=st.integers(0, 8), data=st.data(),
           scale=st.sampled_from([Fraction(1), Fraction(1001, 1000), Fraction(-2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_cross_multiplication_matches_the_fraction_loop(self, alpha, l, data, scale):
        # S_n scaled off its closed value must give the Fraction loop's
        # residuals too, not only the zeros
        m = data.draw(st.integers(0, l))
        n = data.draw(st.integers(0, m))
        s = (alpha, l, m)
        direct = dual_addition.s_direct
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual_addition, "s_direct", lambda n_, *s_: direct(n_, *s_).scale(scale))
            assert integral_identity_residuals(n, *s) == integral_identity_fractions(n, *s)


class TestWhipple:
    def test_degree_zero_ratio_constant(self):
        s = (HALF, 3, 2)
        first, second = whipple_proportionality(*s)[0]
        assert first == second  # degree zero: both 4F3 forms are 1 termwise

    def test_spec_point(self):
        s = (HALF, 3, 2)
        first, second = whipple_proportionality(*s)[1]
        assert first == Fraction(-3, 10)

    def test_zero_values_pair_up(self):
        # at this setting one j zeroes both the 4F3 and the integral
        s = (Fraction(1), 5, 3)
        nums, den = second_hyp_form(*s)
        assert nums[2][2] == 0 and den != 0
        assert racah_eval(2, 2, specialized_racah(*s)) == 0
        whipple_proportionality(*s)

    def test_twofold_whipple_prefactor_identity(self):
        # the Racah-value 4F3 equals the second form times elementary factors
        for alpha in GRID_ALPHAS:
            for l, m in ((3, 2), (5, 5), (6, 1)):
                s = (alpha, l, m)
                sys = specialized_racah(*s)
                nums, den = second_hyp_form(*s)
                n_independent = (
                    lambda n: pochhammerq(HALF - alpha - n, n)
                    * pochhammerq(-l - n - 2 * alpha, n)
                    / (pochhammerq(alpha + HALF, n) * pochhammerq(Fraction(-l), n))
                )
                for n in range(m + 1):
                    for j in range(m + 1):
                        lhs = racah_eval(n, j, sys)
                        rhs = (
                            n_independent(n)
                            * whipple_factor(j, *s)
                            * Fraction(nums[n][j], den)
                        )
                        assert lhs == rhs

    def test_grid_constancy(self):
        for alpha in GRID_ALPHAS:
            for l, m in ((4, 3), (6, 2)):
                s = (alpha, l, m)
                assert len(whipple_proportionality(*s)) == m + 1

    @pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(7, 3)], ids=str)
    def test_weight_change_of_the_pairing(self, alpha):
        # <(x^2-1)^n P, R>_alpha = (-1)^n (alpha+1)_n/(alpha+3/2)_n <P, R>_{alpha+n},
        # the factor the check divides out of its constants
        l, m = 5, 3
        for n in range(m + 1):
            product = gegenbauer_r(l - n, alpha + n) * gegenbauer_r(m - n, alpha + n)
            factor = (-1) ** n * pochhammer(alpha + 1, n) / pochhammer(alpha + 3 * HALF, n)
            for j in range(m + 1):
                poly = gegenbauer_r(l + m - 2 * j, alpha)
                basis = dual_addition._product_bases(*_key(alpha, l, m))[n]
                assert inner_product(basis, poly, alpha) == (
                    factor * inner_product(product, poly, alpha + n))

    @pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(7, 3)], ids=str)
    def test_constants_match_the_pairing_at_weight_alpha_plus_n(self, alpha):
        # the oracle: the integral at weight alpha + n over the j-dependent
        # factors and each 4F3, in Fractions, at the first j where it is defined
        for l, m in ((3, 2), (5, 3), (6, 4)):
            s = (alpha, l, m)
            sys = specialized_racah(*s)
            nums, den = second_hyp_form(*s)
            expected = []
            for n in range(m + 1):
                product = gegenbauer_r(l - n, alpha + n) * gegenbauer_r(m - n, alpha + n)
                ratios = ([], [])
                for j in range(m + 1):
                    poly = gegenbauer_r(l + m - 2 * j, alpha)
                    integral = inner_product(product, poly, alpha + n)
                    base = racah_weight(j, sys) * norm_ratio(l + m - 2 * j, alpha)
                    for value, scale, acc in (
                        (sys.values[n][j], base, ratios[0]),
                        (Fraction(nums[n][j], den), base * whipple_factor(j, *s), ratios[1]),
                    ):
                        if value:
                            acc.append(integral / (scale * value))
                assert all(len(set(acc)) == 1 for acc in ratios)
                expected.append((ratios[0][0], ratios[1][0]))
            assert whipple_proportionality(*s) == expected


def pochhammerq(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


class TestCaches:
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(7, 3)], ids=["0", "7/3"])
    def test_cached_values_match_fresh_computation(self, alpha):
        # the memoised functions return what an uncached call computes, on
        # the default (l, m, n) grid and the shifted alphas whipple uses
        config = SuiteConfig()
        for m, l in itertools.combinations_with_replacement(range(config.l_max + 1), 2):
            key = _key(alpha, l, m)
            for memo in (dual_addition._s_sums, dual_addition._product_bases):
                assert memo(*key) == memo.__wrapped__(*key)
            assert [s_direct(n, alpha, l, m) for n in range(m + 1)] == list(
                dual_addition._s_sums.__wrapped__(*key))
        for shift in range(config.l_max + 1):
            for k in range(2 * config.l_max + 1):
                cached = even_moment(k, alpha + shift)
                assert cached == even_moment.__wrapped__(k, alpha + shift)
                assert type(cached) is Fraction

    def test_cached_closed_forms_match_fresh_computation(self):
        # norm_ratio and addition_weight over the degrees and shifted alphas
        # the default grid reaches
        config = SuiteConfig()
        for alpha in config.alphas:
            for shift in range(config.l_max + 1):
                for n in range(2 * config.l_max + 1):
                    for fn in (norm_ratio, addition_weight):
                        cached = fn(n, alpha + shift)
                        assert cached == fn.__wrapped__(n, alpha + shift)
                        assert type(cached) is Fraction

    def test_memoised_values_after_cache_clear_match_fresh_computation(self):
        # each memoised closed form, recomputed from an empty cache, equals
        # an uncached call, and a second call returns the stored value
        alphas = (Fraction(0), Fraction(1, 2), Fraction(7, 3))
        dual_keys = [_key(alpha, l, m) for alpha in alphas for l, m in ((3, 2), (6, 4))]
        cases = (
            (addition.addition_lhs, [(n, alpha) for n in range(7) for alpha in alphas]),
            *((memo, dual_keys) for memo in (
                dual_addition._linearization_coeffs, dual_addition._s_sums,
                dual_addition._product_bases, dual_addition._coeff_factors)),
            *((memo, [(l, m) for l in range(7) for m in range(l + 1)]) for memo in (
                hermite_limit._product_blocks, hermite_limit._linearized_blocks)),
            (hermite_limit._hermite_at_mixed_argument, [(n,) for n in range(9)]),
            (hermite_limit._kernel, [(a, b) for a in range(9) for b in range(9)]),
        )
        for fn, calls in cases:
            fn.cache_clear()
            for args in calls:
                value = fn(*args)
                assert value == fn.__wrapped__(*args)
                assert fn(*args) is value

    def test_closed_form_is_not_the_cached_sum(self):
        # s_closed shares a cache with dual_addition_term, never with s_direct
        s = (Fraction(1, 2), 4, 3)
        fresh = dual_addition._s_sums.__wrapped__(*_key(*s))
        for n in range(s[2] + 1):
            assert s_closed(n, *s) is not s_direct(n, *s)
            assert s_closed(n, *s) == fresh[n]


# The four closed forms as products and quotients of Fraction shifted
# factorials, as the paper states them: the oracle for their integer
# quotients.


def _linearization_coeff_fractions(j, al, l, m):
    pre = Fraction(math.factorial(l) * math.factorial(m)) / (
        pochhammer(2 * al + 1, l) * pochhammer(2 * al + 1, m)
    )
    return (
        pre
        * (l + m + al + HALF - 2 * j)
        / (al + HALF)
        * pochhammer(al + HALF, j)
        * pochhammer(al + HALF, l - j)
        * pochhammer(al + HALF, m - j)
        * pochhammer(2 * al + 1, l + m - j)
        / (
            math.factorial(j)
            * math.factorial(l - j)
            * math.factorial(m - j)
            * pochhammer(al + Fraction(3, 2), l + m - j)
        )
    )


def _s_closed_prefactor_fractions(n, al, l, m):
    return (
        pochhammer(2 * al + 1, l + n)
        * pochhammer(2 * al + 1, m + n)
        * pochhammer(al + HALF, l + m)
        / (
            Fraction(2 ** (2 * n))
            * pochhammer(al + HALF, l)
            * pochhammer(al + HALF, m)
            * pochhammer(2 * al + 1, l + m)
            * pochhammer(al + 1, n) ** 2
        )
    )


def _whipple_factor_fractions(j, al, l, m):
    return (
        pochhammer(Fraction(j - l), m - j)
        * pochhammer(j + al + HALF, m - j)
        / (pochhammer(al + HALF, m - j) * pochhammer(l + 2 * al + 1, m - j))
    )


def _coeff_factor_fractions(n, al, l, m):
    ratio = 1 if n == 0 else (al + n) / (al + Fraction(n, 2))
    return (
        ratio
        * pochhammer(2 * al + 1, n)
        / (Fraction(2 ** (2 * n)) * pochhammer(al + 1, n) ** 2)
        * pochhammer(Fraction(-l), n)
        * pochhammer(Fraction(-m), n)
        / math.factorial(n)
    )


class TestIntegerClosedForms:
    @pytest.mark.parametrize("alpha", ["0", "1/2", "1", "7/3", "-1/3", "5/7", "13/5"])
    def test_integer_quotients_equal_their_fraction_forms(self, alpha):
        alpha = parse_rational(alpha)
        forms = (
            (linearization_coeff, _linearization_coeff_fractions),
            (s_closed_prefactor, _s_closed_prefactor_fractions),
            (whipple_factor, _whipple_factor_fractions),
            (lambda n, *s: dual_addition._coeff_factors(*_key(*s))[n], _coeff_factor_fractions),
        )
        for m, l in itertools.combinations_with_replacement(range(11), 2):
            s = (alpha, l, m)
            for index in range(m + 1):
                for integer_form, fraction_form in forms:
                    value = integer_form(index, *s)
                    assert type(value) is Fraction
                    assert value == fraction_form(index, *s), (integer_form, index, s)


setting_alphas = st.fractions(min_value=-HALF, max_value=10, max_denominator=12).filter(
    lambda a: a > -HALF
)


class TestCacheKeys:
    @given(alpha=setting_alphas, l=st.integers(0, 8), m=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_equal_values_hash_equal_across_construction_and_pickle(self, alpha, l, m):
        # an alpha from a Fraction, from its "p/q" string and through pickle
        # keys the same memo entries; the Racah system by arithmetic and by
        # parsing the string the racah suite uses is one kept system
        l, m = max(l, m), min(l, m)
        for other in (parse_rational(format_rational(alpha)), pickle.loads(pickle.dumps(alpha))):
            assert _key(other, l, m) == _key(alpha, l, m)
            assert s_direct(m, other, l, m) is s_direct(m, alpha, l, m)
        a = format_rational(alpha - HALF)
        d = format_rational(-l - alpha - HALF)
        system = RacahSystem.parse(f"{a},{a},{-m - 1},{d}", m)
        left = specialized_racah(alpha, l, m)
        for value in (left, pickle.loads(pickle.dumps(left))):
            assert value == system
            # the hash is the field tuple's, N included
            assert hash(value) == hash(system) == hash(
                (system.alpha, system.beta, system.gamma, system.delta, system.N))
        # both routes reach the one kept system, whose key is its
        # parameters over their least common denominator
        assert left is system
        D, numerators = racah._over_common_denominator(system.as_tuple())
        assert dual_addition.racah_form(alpha, l, m) == (D, *numerators)
