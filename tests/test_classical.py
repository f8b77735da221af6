"""Classical polynomial constructors and the exact Gegenbauer-weight calculus."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyident.classical import (
    difference_residual,
    even_moment,
    gegenbauer_pairing,
    gegenbauer_r,
    hermite,
    inner_product,
    jacobi_r,
    norm_ratio,
)
from polyident import suites
from polyident.errors import DomainError
from polyident.exact import UniPoly, format_rational, pochhammer

from surd_values import pythagorean_point

ALPHAS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)]

#: alpha in (-1/2, 3] with denominators <= 13, (-1/2, 0) included
kernel_alphas = st.fractions(
    min_value=Fraction(-1, 2), max_value=3, max_denominator=13
).filter(lambda a: a > Fraction(-1, 2))
#: R_n as it is and scaled off its bound, so that the kernels' failing
#: branches are compared too
scales = st.sampled_from([Fraction(1), Fraction(1001, 1000), Fraction(999, 1000),
                          Fraction(-1), Fraction(3, 2)])


def jacobi_r_fractions(n: int, alpha: Fraction, beta: Fraction) -> UniPoly:
    """jacobi_r as a Fraction loop: each 2F1 term a quotient of shifted
    factorials, ((1-x)/2)^k expanded binomially; the reference that the
    integer kernel is pinned to."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        c = (pochhammer(Fraction(-n), k) * pochhammer(n + alpha + beta + 1, k)
             / (pochhammer(alpha + 1, k) * math.factorial(k)))
        for i in range(k + 1):
            coeffs[i] += c * Fraction(math.comb(k, i) * (-1) ** i, 2**k)
    return UniPoly(coeffs)


def value_at(poly: UniPoly, x: Fraction) -> Fraction:
    """poly(x) as a plain Fraction sum, without Horner's integer numerator."""
    return sum((c * x**i for i, c in enumerate(poly.coeffs)), Fraction(0))


def r_bound_fractions(poly: UniPoly, alpha: str, n: int) -> Fraction:
    """The r-bound task as a Fraction loop over its 50 circle points: the
    largest max(|poly(x)| - 1, 0)."""
    rng = random.Random(f"r-bound:{alpha}:{n}")
    points = [pythagorean_point(Fraction(rng.randint(-999, 999), 1000))[0] for _ in range(50)]
    return max(max(abs(value_at(poly, x)) - 1, Fraction(0)) for x in points)


class TestJacobiR:
    def test_degree_zero_is_one(self):
        for alpha, beta in [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(7, 3))]:
            assert jacobi_r(0, alpha, beta) == UniPoly.one()

    def test_legendre_degree_two(self):
        assert jacobi_r(2, Fraction(0), Fraction(0)) == UniPoly(
            [Fraction(-1, 2), 0, Fraction(3, 2)]
        )

    def test_value_one_at_one(self):
        for n in range(9):
            for alpha, beta in [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(5, 2))]:
                assert jacobi_r(n, alpha, beta)(Fraction(1)) == 1

    def test_leading_coefficient(self):
        for n in range(9):
            for alpha, beta in [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(2))]:
                lead = pochhammer(n + alpha + beta + 1, n) / (
                    Fraction(2**n) * pochhammer(alpha + 1, n)
                )
                assert jacobi_r(n, alpha, beta).coeff(n) == lead

    @given(n=st.integers(0, 8), alpha=kernel_alphas, beta=kernel_alphas)
    @example(n=8, alpha=Fraction(-6, 13), beta=Fraction(3))
    @settings(max_examples=60, deadline=None)
    def test_integer_sum_matches_the_fraction_loop(self, n, alpha, beta):
        assert jacobi_r.__wrapped__(n, alpha, beta) == jacobi_r_fractions(n, alpha, beta)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            jacobi_r(2, Fraction(-1), Fraction(0))
        with pytest.raises(DomainError):
            jacobi_r(2, Fraction(0), Fraction(-3, 2))


class TestGegenbauerR:
    def test_degree_one_is_x(self):
        assert gegenbauer_r(1, Fraction(1, 2)) == UniPoly.x()

    def test_matches_jacobi_construction(self):
        # two independent constructions, compared coefficientwise
        for alpha in ALPHAS:
            for n in range(13):
                assert gegenbauer_r(n, alpha) == jacobi_r(n, alpha, alpha)

    def test_parity(self):
        poly = gegenbauer_r(4, Fraction(1, 3))
        assert all(poly.coeff(i) == 0 for i in (1, 3))

    def test_chebyshev_parameter(self):
        # alpha = -1/2 must not divide by zero and gives cos(k phi) values
        t2 = gegenbauer_r(2, Fraction(-1, 2))
        assert t2 == UniPoly([Fraction(-1), 0, Fraction(2)])


class TestHermite:
    @pytest.mark.parametrize(
        "n,coeffs",
        [(0, [1]), (1, [0, 2]), (2, [-2, 0, 4]), (3, [0, -12, 0, 8])],
    )
    def test_small_cases(self, n, coeffs):
        assert hermite(n) == UniPoly([Fraction(c) for c in coeffs])

    def test_leading_coefficient(self):
        for n in range(13):
            assert hermite(n).coeff(n) == 2**n


class TestMoments:
    def test_normalization(self):
        for alpha in ALPHAS:
            assert even_moment(0, alpha) == 1

    def test_uniform_weight_second_moment(self):
        assert even_moment(1, Fraction(0)) == Fraction(1, 3)

    def test_half_weight_fourth_moment(self):
        assert even_moment(2, Fraction(1, 2)) == Fraction(1, 8)

    def test_domain(self):
        with pytest.raises(DomainError):
            even_moment(1, Fraction(-1))


class TestInnerProduct:
    def test_constant_normalization(self):
        for alpha in ALPHAS:
            assert inner_product(UniPoly.one(), UniPoly.one(), alpha) == 1

    def test_legendre_degree_one_norm(self):
        p = gegenbauer_r(1, Fraction(0))
        assert inner_product(p, p, Fraction(0)) == Fraction(1, 3)

    def test_parity_orthogonality(self):
        alpha = Fraction(3, 4)
        value = inner_product(gegenbauer_r(1, alpha), gegenbauer_r(2, alpha), alpha)
        assert value == 0

    def test_bilinear(self):
        alpha = Fraction(1, 2)
        p, q, r = (gegenbauer_r(k, alpha) for k in (1, 2, 3))
        lhs = inner_product(p + q.scale(Fraction(2, 3)), r, alpha)
        rhs = inner_product(p, r, alpha) + Fraction(2, 3) * inner_product(q, r, alpha)
        assert lhs == rhs


# alpha > -1, the weight's domain, with alpha = -1/2 drawn on its own
weight_alphas = st.just(Fraction(-1, 2)) | st.fractions(
    min_value=-1, max_value=20, max_denominator=12
).filter(lambda a: a > -1)
# two factors of degree <= 20 make a product of degree <= 40
factor_coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                         max_size=21)


class TestInnerProductOracle:
    @given(a=factor_coeffs, b=factor_coeffs, alpha=weight_alphas)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_moment_sum(self, a, b, alpha):
        # the plain sum of c_{2k} times the k-th even moment over the
        # product's coefficients
        p, q = UniPoly(a), UniPoly(b)
        coeffs = (p * q).coeffs
        expected = sum(
            (c * even_moment(k, alpha) for k, c in enumerate(coeffs[::2])), Fraction(0)
        )
        value = inner_product(p, q, alpha)
        assert value == expected
        assert type(value) is Fraction

    @given(a=factor_coeffs, bs=st.lists(factor_coeffs, min_size=1, max_size=4),
           alpha=weight_alphas)
    @settings(max_examples=100, deadline=None)
    def test_one_pairing_serves_every_partner(self, a, bs, alpha):
        # one vector for p, formed for the largest partner degree, against
        # the plain moment sum of each product
        p, qs = UniPoly(a), [UniPoly(b) for b in bs]
        pair = gegenbauer_pairing(p, alpha, max(q.degree for q in qs))
        for q in qs:
            coeffs = (p * q).coeffs
            expected = sum(
                (c * even_moment(k, alpha) for k, c in enumerate(coeffs[::2])), Fraction(0)
            )
            assert pair(q) == expected

    def test_pairing_rejects_a_partner_above_its_degree(self):
        pair = gegenbauer_pairing(UniPoly.one(), Fraction(0), 2)
        assert pair(UniPoly([0, 0, 1])) == Fraction(1, 3)
        with pytest.raises(DomainError):
            pair(UniPoly([0, 0, 0, 1]))

    @pytest.mark.parametrize("alpha", [Fraction(-1, 2), Fraction(-9, 10), Fraction(7, 3)])
    def test_degree_forty_monomials(self, alpha):
        for k in range(21):
            monomial = UniPoly([0] * (2 * k) + [1])
            assert inner_product(monomial, UniPoly.one(), alpha) == even_moment(k, alpha)


class TestNormRatio:
    @pytest.mark.parametrize(
        "n,alpha,expected",
        [(0, Fraction(0), Fraction(1)),
         (1, Fraction(0), Fraction(1, 3)),
         (2, Fraction(0), Fraction(1, 5)),
         # degree 0 is 1 by definition; the closed form reads 0/0 at -1/2
         (0, Fraction(-1, 2), Fraction(1)),
         (0, Fraction(7, 3), Fraction(1))],
    )
    def test_frozen_values(self, n, alpha, expected):
        assert norm_ratio(n, alpha) == expected

    def test_eq57_passes_at_the_chebyshev_weight(self):
        report = suites._execute(("eq57", {"alpha": "-1/2"}), suites.SuiteConfig())
        assert (report.status, report.residual) == ("pass", "0"), report.parameters

    def test_orthogonality_grid(self):
        # exact Gram structure for 0 <= m <= n <= 10 over the alpha set
        for alpha in ALPHAS:
            polys = [gegenbauer_r(n, alpha) for n in range(11)]
            for m in range(11):
                for n in range(m, 11):
                    value = inner_product(polys[m], polys[n], alpha)
                    if m == n:
                        assert value == norm_ratio(n, alpha)
                    else:
                        assert value == 0


class TestDifferenceFormula:
    def test_degree_two_both_sides(self):
        # both sides equal (3/2)(x^2 - 1) for the uniform weight
        alpha = Fraction(0)
        lhs = gegenbauer_r(2, alpha) - gegenbauer_r(0, alpha)
        assert lhs == UniPoly([Fraction(-3, 2), 0, Fraction(3, 2)])
        assert difference_residual(2, alpha).is_zero

    @pytest.mark.parametrize("n,alpha", [(3, Fraction(1, 2)), (5, Fraction(7, 3))])
    def test_zero_residual(self, n, alpha):
        assert difference_residual(n, alpha).is_zero

    def test_full_grid(self):
        for alpha in ALPHAS:
            for n in range(2, 11):
                assert difference_residual(n, alpha).is_zero

    def test_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            difference_residual(1, Fraction(0))


class TestBoundedness:
    def test_unit_bound_at_rational_circle_points(self):
        ss = [Fraction(k, 17) for k in range(-25, 26)]
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for n in range(11):
                poly = gegenbauer_r(n, alpha)
                for s in ss[:50]:
                    x, _ = pythagorean_point(s)
                    assert abs(poly(x)) <= 1

    @given(n=st.integers(0, 8), alpha=kernel_alphas, scale=scales,
           k=st.integers(-999, 999))
    @example(n=0, alpha=Fraction(-1, 3), scale=Fraction(1001, 1000), k=0)
    @settings(max_examples=150, deadline=None)
    def test_integer_excess_matches_the_fraction_loop(self, n, alpha, scale, k):
        poly = gegenbauer_r(n, alpha).scale(scale)
        s = Fraction(k, 1000)
        x, _ = pythagorean_point(s)
        assert suites._excess_over_one(poly, s) == max(abs(value_at(poly, x)) - 1, 0)

    def test_scaled_polynomials_fail_r_bound(self, monkeypatch):
        # R_n times 1 + 1/1000 passes 1 near x = 1: each task must report the
        # residual of the Fraction loop, and those at n = 0 fail everywhere
        def scaled(n, alpha):
            return gegenbauer_r(n, alpha).scale(Fraction(1001, 1000))

        monkeypatch.setattr(suites.classical, "gegenbauer_r", scaled)
        config = suites.SuiteConfig()
        failed = []
        for params in suites.REGISTRY["r-bound"].grid(config):
            result = suites.run_task("r-bound", params, config)
            n = int(params["n"])
            expected = r_bound_fractions(scaled(n, Fraction(params["alpha"])), params["alpha"], n)
            assert result.residual == format_rational(expected), params
            assert result.passed == (expected == 0), params
            if not result.passed:
                failed.append((params["alpha"], n))
        assert {("0", 0), ("1/2", 0), ("1", 0)} <= set(failed)

    @given(k=st.integers(0, 8), scale=scales, m=st.integers(-99, 99))
    @settings(max_examples=100, deadline=None)
    def test_integer_cosine_residual_matches_the_fraction_loop(self, k, scale, m):
        # chebyshev-t: the parameter -1/2 polynomial at cos(phi) against
        # Re (cos phi + i sin phi)^k, both as Fractions
        poly = jacobi_r(k, Fraction(-1, 2), Fraction(-1, 2)).scale(scale)
        s = Fraction(m, 100)
        cos_phi, sin_phi = pythagorean_point(s)
        re, im = Fraction(1), Fraction(0)
        for _ in range(k):
            re, im = re * cos_phi - im * sin_phi, re * sin_phi + im * cos_phi
        assert suites._cosine_residual(poly, k, s) == value_at(poly, cos_phi) - re
