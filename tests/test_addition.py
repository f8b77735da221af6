"""Addition and product formulas in the surd quotient ring."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyident import addition, suites
from polyident.addition import (
    AdditionInstance,
    addition_coefficient,
    addition_lhs,
    addition_residual,
    addition_rhs,
    mixed_argument,
    product_formula_residual,
    sum_of_squares_residual,
    t_one_residual,
    t_one_rhs,
)
from polyident.classical import gegenbauer_r, jacobi_r
from polyident.errors import DomainError
from polyident.exact import SurdPoly, format_rational, pythagorean_point

from surd_values import substitute

HALF = Fraction(1, 2)
GRID_ALPHAS = [Fraction(0), HALF, Fraction(1), Fraction(7, 3)]

#: alpha in (-1/2, 3] with denominators <= 13, (-1/2, 0) included
addition_alphas = st.fractions(
    min_value=-HALF, max_value=3, max_denominator=13
).filter(lambda a: a > -HALF)


def chain_rhs(inst: AdditionInstance, with_t_factor: bool) -> SurdPoly:
    """The expansion side as a chain of SurdPoly products per term,
    u^k and v^k reduced by the ring: the reference that the integer
    kernel behind addition_rhs and t_one_rhs is pinned to."""
    n, alpha = inst.n, inst.alpha
    u, v = SurdPoly.variable("u"), SurdPoly.variable("v")
    total = SurdPoly.zero()
    for k in range(n + 1):
        term = SurdPoly.constant(addition.addition_coefficient(n, k, alpha))
        term = term * u.pow(k) * SurdPoly.from_unipoly(gegenbauer_r(n - k, alpha + k), "x")
        term = term * v.pow(k) * SurdPoly.from_unipoly(gegenbauer_r(n - k, alpha + k), "y")
        if with_t_factor:
            term = term * SurdPoly.from_unipoly(jacobi_r(k, alpha - HALF, alpha - HALF), "t")
        total = total + term
    return total


def identify_y_with_x(p: SurdPoly) -> SurdPoly:
    """Map y -> x and v -> u; the constructor reduces the new u powers."""
    out = {}
    for (a, b, c, e, f), q in p.terms.items():
        mono = (a + b, 0, c, e + f, 0)
        out[mono] = out.get(mono, 0) + q
    return SurdPoly(out)


class TestInstanceValidation:
    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            AdditionInstance(2, Fraction(-1, 2))

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            AdditionInstance(-1, Fraction(0))


class TestAdditionLhs:
    def test_degree_zero(self):
        assert addition_lhs(AdditionInstance(0, Fraction(2))) == SurdPoly.one()

    def test_degree_one_is_the_argument(self):
        assert addition_lhs(AdditionInstance(1, Fraction(3, 4))) == mixed_argument()

    def test_degree_two_reduction(self):
        # -1/2 + 3/2 (xy + uvt)^2 with u^2, v^2 eliminated
        lhs = addition_lhs(AdditionInstance(2, Fraction(0)))
        expected = mixed_argument().substitute_into(gegenbauer_r(2, Fraction(0)))
        assert lhs == expected
        assert all(e <= 1 and f <= 1 for (_, _, _, e, f) in lhs.terms)


class TestAdditionRhs:
    def test_first_expansion_coefficient_is_one(self):
        for alpha in GRID_ALPHAS + [Fraction(9, 7)]:
            assert addition_coefficient(1, 1, alpha) == 1

    def test_degree_one_total(self):
        inst = AdditionInstance(1, Fraction(5, 3))
        assert addition_rhs(inst) == mixed_argument()

    @pytest.mark.parametrize("n,alpha", [(2, Fraction(0)), (4, Fraction(3, 2))])
    def test_equals_lhs(self, n, alpha):
        assert addition_residual(AdditionInstance(n, alpha)).is_zero

    def test_full_grid(self):
        for alpha in GRID_ALPHAS:
            for n in range(9):
                assert addition_residual(AdditionInstance(n, alpha)).is_zero

    def test_pythagorean_point_oracle(self):
        # independent of canonical-form equality: sample both sides at
        # random rational circle points
        rng = random.Random(20260810)
        inst = AdditionInstance(4, HALF)
        lhs, rhs = addition_lhs(inst), addition_rhs(inst)
        for _ in range(1000):
            s1 = Fraction(rng.randint(-200, 200), 201)
            s2 = Fraction(rng.randint(-200, 200), 201)
            s3 = Fraction(rng.randint(-200, 200), 201)
            x, u = pythagorean_point(s1)
            y, v = pythagorean_point(s2)
            t, _ = pythagorean_point(s3)
            bindings = {"x": x, "u": u, "y": y, "v": v, "t": t}
            assert substitute(lhs, bindings) == substitute(rhs, bindings)


class TestIntegerExpansion:
    @given(n=st.integers(0, 8), alpha=addition_alphas)
    @example(n=8, alpha=Fraction(-6, 13))
    @example(n=7, alpha=Fraction(3))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_product_chain(self, n, alpha):
        inst = AdditionInstance(n, alpha)
        assert addition_rhs(inst) == chain_rhs(inst, with_t_factor=True)
        assert t_one_rhs(inst) == chain_rhs(inst, with_t_factor=False)

    @pytest.mark.parametrize("n,alpha,k", [(4, HALF, 2), (3, Fraction(-1, 3), 3),
                                           (6, Fraction(13, 5), 0)])
    def test_a_perturbed_coefficient_fails_eq42(self, n, alpha, k, monkeypatch):
        # one coefficient times 1 + 1/1000: the kernel must find the same
        # residual as the product chain
        coefficient = addition.addition_coefficient
        monkeypatch.setattr(addition, "addition_coefficient", lambda n_, k_, a: (
            coefficient(n_, k_, a) * (Fraction(1001, 1000) if k_ == k else 1)))
        inst = AdditionInstance(n, alpha)
        expected = addition_lhs(inst) - chain_rhs(inst, with_t_factor=True)
        assert not expected.is_zero
        result = suites.run_task(
            "eq42", {"n": str(n), "alpha": format_rational(alpha)}, suites.SuiteConfig())
        assert not result.passed
        assert result.residual == format_rational(expected.max_abs_coeff())


class TestProductFormula:
    def test_degree_one_odd_moment_vanishes(self):
        assert product_formula_residual(AdditionInstance(1, Fraction(2))).is_zero

    @pytest.mark.parametrize("n,alpha", [(2, Fraction(0)), (5, Fraction(1))])
    def test_zero_residual(self, n, alpha):
        assert product_formula_residual(AdditionInstance(n, alpha)).is_zero

    def test_full_grid(self):
        for alpha in GRID_ALPHAS:
            for n in range(9):
                assert product_formula_residual(AdditionInstance(n, alpha)).is_zero


class TestTOne:
    def test_degree_zero(self):
        assert t_one_residual(AdditionInstance(0, Fraction(1))).is_zero

    @pytest.mark.parametrize("n,alpha", [(2, Fraction(0)), (5, Fraction(7, 3))])
    def test_zero_residual(self, n, alpha):
        assert t_one_residual(AdditionInstance(n, alpha)).is_zero

    def test_lhs_is_cosine_difference(self):
        # at x = cos a, y = cos b the t = 1 argument is cos(a - b)
        inst = AdditionInstance(5, HALF)
        value_poly = addition_lhs(inst).set_t(1)
        for s1, s2 in ((Fraction(1, 3), Fraction(1, 7)), (Fraction(2, 5), Fraction(-3, 4))):
            x, u = pythagorean_point(s1)
            y, v = pythagorean_point(s2)
            cos_diff = x * y + u * v
            direct = gegenbauer_r(5, HALF)(cos_diff)
            assert substitute(value_poly, {"x": x, "u": u, "y": y, "v": v}) == direct

    def test_y_equals_x_reduces_to_partition_of_unity(self):
        # substituting y -> x, v -> u turns the t = 1 expansion into the
        # sum-of-squares identity with left side 1
        for n, alpha in ((3, Fraction(0)), (5, Fraction(1))):
            inst = AdditionInstance(n, alpha)
            collapsed_lhs = identify_y_with_x(addition_lhs(inst).set_t(1))
            assert collapsed_lhs == SurdPoly.one()
            collapsed_rhs = identify_y_with_x(t_one_rhs(inst))
            assert collapsed_rhs == SurdPoly.one()


class TestSumOfSquares:
    def test_degree_zero(self):
        assert sum_of_squares_residual(0, Fraction(0)).is_zero

    def test_hand_case(self):
        # 1 = x^2 + (1 - x^2)
        assert sum_of_squares_residual(1, Fraction(0)).is_zero

    @pytest.mark.parametrize("n,alpha", [(4, Fraction(7, 3)), (8, HALF)])
    def test_zero_residual(self, n, alpha):
        assert sum_of_squares_residual(n, alpha).is_zero


class TestChebyshevIdentification:
    def test_cosine_multiples(self):
        # the t-factor family at the lowest parameter hits cos(k phi)
        # exactly on rational points of the circle
        for k in range(7):
            poly = jacobi_r(k, -HALF, -HALF)
            for s in (Fraction(1, 2), Fraction(-2, 7), Fraction(9, 11)):
                cos_phi, sin_phi = pythagorean_point(s)
                re, im = Fraction(1), Fraction(0)
                for _ in range(k):
                    re, im = re * cos_phi - im * sin_phi, re * sin_phi + im * cos_phi
                assert poly(cos_phi) == re
