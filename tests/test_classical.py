"""Classical polynomial constructors and the exact Gegenbauer-weight calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from polyident.exact import UniPoly, pochhammer, pythagorean_point

ALPHAS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)]


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
