"""Hermite identities, biorthogonality, and exact dyadic limit checks."""

import math
from fractions import Fraction

import pytest

from polyident import hermite_limit, suites
from polyident.classical import hermite
from polyident.errors import DomainError, LimitViolationError
from polyident.exact import UniPoly, pochhammer
from polyident.hermite_limit import (
    DECAY_RATIO,
    HermiteSetting,
    alpha_scaled,
    biorthogonality_value,
    hermite_addition_residual,
    hermite_dual_addition_residual,
    hermite_dual_inverse_residual,
    hermite_product_residual,
    limit_rate_check,
)

POWERS = tuple(range(4, 17))


class TestHermiteSurdIdentities:
    def test_degree_zero(self):
        assert hermite_addition_residual(0).is_zero

    def test_degree_one_hand_expansion(self):
        # 2(xy + vt) = 2x*y + 2t*v
        assert hermite_addition_residual(1).is_zero

    def test_addition_up_to_twelve(self):
        for n in range(13):
            assert hermite_addition_residual(n).is_zero

    def test_product_odd_moment_drop(self):
        assert hermite_product_residual(1).is_zero

    def test_product_up_to_twelve(self):
        for n in range(13):
            assert hermite_product_residual(n).is_zero


class TestDualAdditionHermite:
    def test_l_m_one_j_zero(self):
        # H_2 = H_1^2 - 2 H_0^2 = 4x^2 - 2
        s = HermiteSetting(1, 1)
        assert hermite_dual_addition_residual(0, s).is_zero
        assert hermite(2) == UniPoly([-2, 0, 4])

    def test_l_m_one_j_one(self):
        s = HermiteSetting(1, 1)
        assert hermite_dual_addition_residual(1, s).is_zero

    def test_specific_setting(self):
        s = HermiteSetting(3, 2)
        assert hermite_dual_addition_residual(1, s).is_zero

    def test_inverse_l_m_one(self):
        s = HermiteSetting(1, 1)
        # n = 0: H_2 + 2 H_0 = 4x^2 = H_1^2
        assert hermite_dual_inverse_residual(0, s).is_zero
        assert hermite_dual_inverse_residual(1, s).is_zero

    def test_inverse_specific(self):
        assert hermite_dual_inverse_residual(2, HermiteSetting(4, 3)).is_zero

    def test_linearization_specialization(self):
        # the n = 0 inverse is the classical linearization formula
        for l, m in ((3, 3), (5, 2)):
            lhs = UniPoly.zero()
            for j in range(m + 1):
                c = (
                    Fraction(2**j)
                    * pochhammer(Fraction(-l), j)
                    * pochhammer(Fraction(-m), j)
                    / math.factorial(j)
                )
                lhs = lhs + hermite(l + m - 2 * j).scale(c)
            assert lhs == hermite(l) * hermite(m)

    def test_full_grid_to_twelve(self):
        for l in range(13):
            for m in range(l + 1):
                s = HermiteSetting(l, m)
                for j in range(m + 1):
                    assert hermite_dual_addition_residual(j, s).is_zero
                for n in range(m + 1):
                    assert hermite_dual_inverse_residual(n, s).is_zero


class TestBiorthogonality:
    def test_diagonal_corrected(self):
        for n in (0, 1, 5, 20):
            assert biorthogonality_value(n, n, "corrected") == 1

    def test_printed_fails_at_2_1(self):
        assert biorthogonality_value(2, 1, "as-printed") == -1

    def test_corrected_vanishes_at_2_1(self):
        assert biorthogonality_value(2, 1, "corrected") == 0

    def test_kronecker_grid(self):
        for n in range(21):
            for k in range(21):
                expected = Fraction(1) if n == k else Fraction(0)
                assert biorthogonality_value(n, k, "corrected") == expected

    def test_unknown_kernel(self):
        with pytest.raises(DomainError):
            biorthogonality_value(1, 1, "other")

    def test_corrected_kernel_is_the_matrix_inverse(self):
        # the expansion and its inverse are lower/upper triangular matrices
        # whose product is the corrected kernel; symbolically this check
        # multiplies them over a finite window
        size = 12
        forward = [
            [pochhammer(Fraction(-n), j) / math.factorial(n) for n in range(size)]
            for j in range(size)
        ]
        inverse = [
            [pochhammer(Fraction(-j), n) / math.factorial(j) for j in range(size)]
            for n in range(size)
        ]
        for n in range(size):
            for k in range(size):
                entry = sum(inverse[n][j] * forward[j][k] for j in range(size))
                assert entry == (1 if n == k else 0)
                assert entry == biorthogonality_value(n, k, "corrected")


class TestScaledGegenbauer:
    def test_exact_alpha_powers(self):
        alpha = Fraction(16)
        from polyident.classical import gegenbauer_r

        poly = alpha_scaled(gegenbauer_r(3, alpha), 3, alpha)
        # x^3 coefficient is the plain leading coefficient; the x^1
        # coefficient picks up one alpha power
        base = gegenbauer_r(3, alpha)
        assert poly.coeff(3) == base.coeff(3)
        assert poly.coeff(1) == base.coeff(1) * alpha


class TestLimitRates:
    def test_eq53_single_point(self):
        report = limit_rate_check("eq53", {"n": 2}, POWERS, x=Fraction(1, 2))
        assert report.passed
        # the deviation roughly halves with every doubling of alpha
        d10 = report.deviations[POWERS.index(10)]
        d11 = report.deviations[POWERS.index(11)]
        assert d11 <= DECAY_RATIO * d10

    def test_eq52_exact_low_degrees(self):
        # degrees 0 and 1 are exact at every alpha: deviations identically 0
        for n in (0, 1):
            report = limit_rate_check("eq52", {"n": n}, POWERS, x=Fraction(1, 2))
            report.require_decay()
            assert all(d == 0 for d in report.deviations)

    def test_eq54n_example_value(self):
        # frozen limit: 2 (-1)_1 / ((-3)_1 (-2)_1) = -1/3
        target = (
            Fraction(2)
            * pochhammer(Fraction(-1), 1)
            / (pochhammer(Fraction(-3), 1) * pochhammer(Fraction(-2), 1))
        )
        assert target == Fraction(-1, 3)
        report = limit_rate_check(
            "eq54n", {"n": 1, "j": 1, "l": 3, "m": 2}, POWERS
        )
        assert report.passed

    def test_eq56_degree_zero(self):
        report = limit_rate_check("eq56", {"n": 0, "l": 3, "m": 2}, POWERS)
        assert report.passed

    def test_all_targets_small_grid(self):
        for l in range(5):
            for m in range(l + 1):
                for n in range(m + 1):
                    for j in range(m + 1):
                        limit_rate_check(
                            "eq54j", {"n": n, "j": j, "l": l, "m": m}, POWERS
                        ).require_decay()
                        limit_rate_check(
                            "eq54n", {"n": n, "j": j, "l": l, "m": m}, POWERS
                        ).require_decay()
                for j in range(m + 1):
                    limit_rate_check("eq55", {"j": j, "l": l, "m": m}, POWERS).require_decay()
                for n in range(m + 1):
                    limit_rate_check("eq56", {"n": n, "l": l, "m": m}, POWERS).require_decay()

    def test_monotonicity_violation_raises(self):
        report = limit_rate_check("eq53", {"n": 2}, POWERS, x=Fraction(1, 2)).require_decay()
        report.deviations[-1] = report.deviations[0]  # corrupt the tail
        with pytest.raises(LimitViolationError):
            report.require_decay()

    def test_unknown_target(self):
        with pytest.raises(DomainError):
            limit_rate_check("eq99", {}, POWERS)

    def test_alpha_powers_must_increase(self):
        with pytest.raises(DomainError):
            limit_rate_check("eq53", {"n": 2}, (5, 4), x=Fraction(1, 2))


class TestBiorthogonalityLimit:
    def test_diagonal(self):
        report = limit_rate_check("eq30-limit", {"n": 1, "k": 1, "l": 3, "m": 2}, POWERS)
        assert report.passed

    def test_off_diagonal(self):
        report = limit_rate_check("eq30-limit", {"n": 2, "k": 1, "l": 3, "m": 2}, POWERS)
        assert report.passed

    def test_degree_zero_exact_for_every_alpha(self):
        report = limit_rate_check("eq30-limit", {"n": 0, "k": 0, "l": 3, "m": 2}, POWERS)
        report.require_decay()
        assert all(d == 0 for d in report.deviations)

    def test_small_grid(self):
        for l in range(5):
            for m in range(l + 1):
                for n in range(m + 1):
                    for k in range(m + 1):
                        limit_rate_check(
                            "eq30-limit", {"n": n, "k": k, "l": l, "m": m}, POWERS
                        ).require_decay()


class TestDualAdditionLimit:
    def test_consistency_small_grid(self):
        for l in range(5):
            for m in range(l + 1):
                for j in range(m + 1):
                    report = limit_rate_check("eq40-to-eq46", {"j": j, "l": l, "m": m}, POWERS)
                    assert report.passed


def _limit_tasks(config):
    return [task for task in suites.hermite_tasks(config) if task[0] in hermite_limit._LIMITS]


class TestLimitWindow:
    """The decay is judged from the first alpha = 2^s >= 2 (l+m)^2."""

    def test_largest_indices_at_limit_lm_max_8_pass(self):
        # at l = 8 the first doublings of 4..16 are not yet in the 1/alpha
        # regime; judged from alpha = 2^s >= 2 (l+m)^2 every record passes
        config = suites.SuiteConfig(jobs=1, limit_lm_max=8)
        tasks = [task for task in _limit_tasks(config) if task[1].get("l") == "8"]
        reports = [suites._execute(task, config) for task in tasks]
        assert len(reports) > 900
        assert [r for r in reports if r.status != "pass"] == []

    def test_window_starts_at_twice_the_squared_index_sum(self):
        report = limit_rate_check("eq55", {"j": 6, "l": 6, "m": 6}, POWERS)
        assert report.alphas[0] == 512  # the first 2^s >= 2 * 12^2 = 288
        assert report.alphas[-1] == 2**16
        assert report.passed
        report = limit_rate_check("eq53", {"n": 2}, POWERS, x=Fraction(1, 2))
        assert report.alphas[0] == 16  # no l, m: judged from the first power

    def test_offset_limit_fails_for_every_target(self, monkeypatch):
        # a deviation that settles at 1/1000 instead of 0, as a limit off by
        # 1/1000 gives, must fail every limit record of the small grid
        def offset(build):
            def offset_build(idx, x):
                deviation = build(idx, x)
                return lambda alpha: deviation(alpha) + Fraction(1, 1000)
            return offset_build

        monkeypatch.setattr(hermite_limit, "_LIMITS", {
            target: (description, offset(build))
            for target, (description, build) in hermite_limit._LIMITS.items()
        })
        config = suites.SuiteConfig(jobs=1, limit_lm_max=2)
        reports = [suites._execute(task, config) for task in _limit_tasks(config)]
        assert {r.identity_id for r in reports} == set(hermite_limit._LIMITS)
        assert {r.status for r in reports} == {"fail"}

    @pytest.mark.parametrize(
        "target, indices, powers",
        [("eq55", {"j": 0, "l": 8, "m": 8}, tuple(range(4, 10))),
         ("eq40-to-eq46", {"j": 1, "l": 2, "m": 1}, (4,)),
         ("eq53", {"n": 2}, (10,))],
        ids=["one-power-left", "none-left", "single-power"],
    )
    def test_short_window_is_an_error(self, target, indices, powers):
        with pytest.raises(DomainError, match="needs two alpha powers"):
            limit_rate_check(target, indices, powers, x=Fraction(1, 2))

    def test_short_window_is_an_error_record(self):
        config = suites.SuiteConfig(jobs=1, alpha_powers=tuple(range(4, 10)))
        params = {"l": "8", "m": "8", "target": "eq55", "j": "0"}
        report = suites._execute(("eq55", params), config)
        assert report.status == "error"
        assert report.parameters["error"].startswith("DomainError: eq55 at ")
