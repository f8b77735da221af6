"""Hermite identities, biorthogonality, and exact alpha -> oo limit checks."""

import math
import random
from fractions import Fraction

import pytest

from polyident import exact, hermite_limit, suites
from polyident.classical import gegenbauer_r, hermite
from polyident.dual_addition import DualSetting, dual_addition_term
from polyident.errors import DomainError
from polyident.exact import UniPoly, pochhammer
from polyident.hermite_limit import (
    HermiteSetting,
    biorthogonality_value,
    hermite_addition_residual,
    hermite_dual_addition_residual,
    hermite_dual_inverse_residual,
    hermite_dual_addition_term,
    hermite_product_residual,
    limit_rate_check,
)


def alpha_scaled(poly: UniPoly, k: int, alpha: Fraction) -> UniPoly:
    """Test-only oracle: alpha^{k/2} poly(alpha^{-1/2} x) for a polynomial of
    parity k, coefficient by coefficient in ``Fraction``s."""
    return UniPoly(c * alpha ** ((k - i) // 2) for i, c in enumerate(poly.coeffs))


def as_pairs(values):
    """Rational components in the limit samples' integer-pair convention."""
    return tuple((Fraction(v).numerator, Fraction(v).denominator) for v in values)


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


#: the checks that read the blocks of a Hermite setting
BLOCK_READERS = ("eq46", "eq47", "eq40-to-eq46")


def _tasks_at(identity, l, m):
    """The tasks of ``identity`` at (l, m): one for eq46 and eq47, one per j
    for eq40-to-eq46."""
    base = {"l": str(l), "m": str(m)}
    if identity == "eq40-to-eq46":
        return [dict(base, j=str(j)) for j in range(m + 1)]
    return [base]


class TestBlocksOncePerTask:
    @pytest.mark.parametrize("identity", BLOCK_READERS)
    def test_each_block_is_formed_once(self, identity, monkeypatch):
        # the m+1 product and m+1 linearized blocks of (l, m) are formed
        # once per process, by whichever check reaches them first: the
        # other checks at (l, m) read the same blocks
        formed = {"product": 0, "linearized": 0}

        def counting(kind, build):
            def wrapped(i, s):
                formed[kind] += 1
                return build(i, s)

            return wrapped

        for kind in formed:
            name = f"_{kind}_block"
            monkeypatch.setattr(hermite_limit, name, counting(kind, getattr(hermite_limit, name)))
        hermite_limit.hermite_setting.cache_clear()
        l, m = 6, 4
        order = [identity, *(other for other in BLOCK_READERS if other != identity)]
        for reader in order:
            for params in _tasks_at(reader, l, m):
                assert suites.run_task(reader, params, suites.SuiteConfig()).passed
            assert formed == {"product": m + 1, "linearized": m + 1}, reader
        hermite_limit.hermite_setting.cache_clear()

    def test_blocks_are_kept_by_their_setting(self):
        # one setting per (l, m) per process, keeping its blocks; a setting
        # built directly forms its own, equal blocks
        hermite_limit.hermite_setting.cache_clear()
        shared = hermite_limit.hermite_setting(6, 4)
        assert hermite_limit.hermite_setting(6, 4) is shared
        assert shared.product_blocks is hermite_limit.hermite_setting(6, 4).product_blocks
        assert hermite_limit.hermite_setting(4, 4) is not shared
        direct = HermiteSetting(6, 4)
        assert direct == shared
        assert direct.product_blocks is not shared.product_blocks
        for i in range(shared.m + 1):
            assert shared.product_blocks[i] == hermite_limit._product_block(i, direct)
            assert shared.linearized_blocks[i] == hermite_limit._linearized_block(i, direct)
        assert hermite_limit.hermite_setting.cache_info().misses == 2


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

    @pytest.mark.parametrize("kernel", ["as-printed", "corrected"])
    def test_integer_sum_matches_the_fraction_loop(self, kernel):
        # the oracle: each kernel entry a Fraction, summed over every j up to
        # max(n, k), zero terms included
        def entry(a, b):
            return pochhammer(Fraction(-a), b) / math.factorial(a)

        for n in range(21):
            for k in range(21):
                js = range(max(n, k) + 1)
                if kernel == "as-printed":
                    terms = (entry(n, j) * pochhammer(Fraction(-j), k) / math.factorial(k)
                             for j in js)
                else:
                    terms = (entry(j, n) * entry(k, j) for j in js)
                value = biorthogonality_value(n, k, kernel)
                assert type(value) is Fraction
                assert value == sum(terms, Fraction(0)), (n, k)

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
        base = gegenbauer_r(3, 16)
        nums = hermite_limit._scaled_numerators(base, 3, 16)
        poly = UniPoly(Fraction(c, base.den) for c in nums)
        # x^3 coefficient is the plain leading coefficient; the x^1
        # coefficient picks up one alpha power
        assert poly.coeff(3) == base.coeff(3)
        assert poly.coeff(1) == base.coeff(1) * 16
        assert poly == alpha_scaled(base, 3, Fraction(16))

    @pytest.mark.parametrize("k, shift", [(0, 0), (1, 2), (4, 1), (7, 3)])
    def test_numerators_match_the_fraction_scaling(self, k, shift):
        for alpha in (3, 5, 11):
            base = gegenbauer_r(k, alpha + shift)
            nums = hermite_limit._scaled_numerators(base, k, alpha)
            assert UniPoly(Fraction(c, base.den) for c in nums) == alpha_scaled(
                base, k, Fraction(alpha))


def _passes(target, indices, x=None) -> bool:
    return limit_rate_check(target, indices, x=x)[0] == 0


class TestLimitRates:
    def test_eq53_single_point(self):
        # R_2(x) = ((2 alpha + 3) x^2 - 1)/(2 alpha + 2) is of type (1, 1)
        # in 1/alpha: three points fix it, two more confirm it
        assert limit_rate_check("eq53", {"n": 2}, x=Fraction(1, 2))[:2] == (0, 5)

    def test_eq52_exact_low_degrees(self):
        # degrees 0 and 1 are exact at every alpha: one sample and two
        # confirmations
        for n in (0, 1):
            assert limit_rate_check("eq52", {"n": n}, x=Fraction(1, 2))[:2] == (0, 3)

    def test_eq54n_example_value(self):
        # frozen limit: 2 (-1)_1 / ((-3)_1 (-2)_1) = -1/3
        target = (
            Fraction(2)
            * pochhammer(Fraction(-1), 1)
            / (pochhammer(Fraction(-3), 1) * pochhammer(Fraction(-2), 1))
        )
        assert target == Fraction(-1, 3)
        build = hermite_limit._LIMITS["eq54n"][1]
        assert build({"n": 1, "j": 1, "l": 3, "m": 2}, None).claimed == (target,)
        assert _passes("eq54n", {"n": 1, "j": 1, "l": 3, "m": 2})

    def test_eq56_degree_zero(self):
        assert _passes("eq56", {"n": 0, "l": 3, "m": 2})

    def test_all_targets_small_grid(self):
        for l in range(5):
            for m in range(l + 1):
                for n in range(m + 1):
                    for j in range(m + 1):
                        assert _passes("eq54j", {"n": n, "j": j, "l": l, "m": m})
                        assert _passes("eq54n", {"n": n, "j": j, "l": l, "m": m})
                for j in range(m + 1):
                    assert _passes("eq55", {"j": j, "l": l, "m": m})
                for n in range(m + 1):
                    assert _passes("eq56", {"n": n, "l": l, "m": m})

    def test_unknown_target(self):
        with pytest.raises(DomainError):
            limit_rate_check("eq99", {})


class TestBiorthogonalityLimit:
    def test_diagonal(self):
        assert _passes("eq30-limit", {"n": 1, "k": 1, "l": 3, "m": 2})

    def test_off_diagonal(self):
        assert _passes("eq30-limit", {"n": 2, "k": 1, "l": 3, "m": 2})

    def test_degree_zero_exact_for_every_alpha(self):
        # the pairing of R_0 with itself is 1 at every alpha: one sample and
        # two confirmations
        check = limit_rate_check("eq30-limit", {"n": 0, "k": 0, "l": 3, "m": 2})
        assert check[:2] == (0, 3)

    def test_small_grid(self):
        for l in range(5):
            for m in range(l + 1):
                for n in range(m + 1):
                    for k in range(m + 1):
                        assert _passes("eq30-limit", {"n": n, "k": k, "l": l, "m": m})


def _coefficientwise_terms(l, m, j):
    """The rescaled dual addition terms of eq40-to-eq46, one component per
    coefficient, in place of the factor-by-factor route."""
    s = HermiteSetting(l, m)
    rescale = 2 ** (l + m - j) * hermite_limit._lm_pochhammer(s, j)

    def quantity(alpha):
        alpha = Fraction(alpha)
        dual = DualSetting(alpha=alpha, l=l, m=m)
        terms = (
            alpha_scaled(dual_addition_term(n, j, dual), l + m, alpha).scale(rescale * alpha**-j)
            for n in range(m + 1)
        )
        return as_pairs(term.coeff(i) for term in terms for i in range(l + m + 1))

    return quantity


class TestDualAdditionLimit:
    def test_consistency_small_grid(self):
        for l in range(5):
            for m in range(l + 1):
                for j in range(m + 1):
                    assert _passes("eq40-to-eq46", {"j": j, "l": l, "m": m})

    def test_degenerate_point_at_3_3_0(self):
        # the n = 0 scalar at (l, m, j) = (3, 3, 0) is the same at every
        # alpha, so extending its fraction through a second sample would
        # meet an infinite inverse difference; that sample is predicted, so
        # it confirms the fraction instead
        claim = hermite_limit._LIMITS["eq40-to-eq46"][1]({"j": 0, "l": 3, "m": 3}, None)
        fraction = exact._Thiele()
        for alpha in (3, 4, 5):
            fraction.feed((1, alpha), claim.quantity(alpha)[0])
        assert (len(fraction.nodes), fraction.confirmed) == (1, 2)
        assert Fraction(*fraction((0, 1))) == Fraction(*claim.quantity(3)[0])
        assert _passes("eq40-to-eq46", {"j": 0, "l": 3, "m": 3})

    @pytest.mark.parametrize("l, m, j", [(5, 4, 2), (5, 5, 1)])
    def test_coefficientwise_route_agrees(self, l, m, j):
        # coefficient by coefficient, some continued fractions meet a zero
        # tail on the way to 1/alpha = 0; the limits still are the Hermite
        # terms the factor-by-factor route compares with
        limits, _points = exact.limit_at_infinity(_coefficientwise_terms(l, m, j), 100)
        s = HermiteSetting(l, m)
        assert limits == tuple(
            hermite_dual_addition_term(n, j, s).coeff(i)
            for n in range(m + 1) for i in range(l + m + 1)
        )
        assert _passes("eq40-to-eq46", {"j": j, "l": l, "m": m})


def _limit_tasks(config):
    return [task for task in suites.suite_tasks("hermite", config)
            if task[0] in hermite_limit._LIMITS]


def _offset(limits, offset):
    """The table ``limits`` of limit builders, with ``offset`` added to each
    claimed limit (to each polynomial's constant term)."""

    def shift(claimed):
        return claimed + (UniPoly([offset]) if isinstance(claimed, UniPoly) else offset)

    def offset_build(build):
        def build_offset(idx, x):
            claim = build(idx, x)
            return claim._replace(claimed=tuple(map(shift, claim.claimed)))
        return build_offset

    return {
        target: (description, offset_build(build))
        for target, (description, build) in limits.items()
    }


def _degenerate_everywhere(alpha):
    raise DomainError("degenerate at every alpha")


class TestLimitWindow:
    """The window of samples alpha = 3, 4, 5, ..., cut at a budget set by
    the indices."""

    def test_largest_indices_at_limit_lm_max_8_pass(self):
        config = suites.SuiteConfig(jobs=1, limit_lm_max=8)
        tasks = [task for task in _limit_tasks(config) if task[1].get("l") == "8"]
        reports = [suites._execute(task, config) for task in tasks]
        assert len(reports) > 900
        assert [r for r in reports if r.status != "pass" or r.residual != "0"] == []

    def test_window_starts_at_alpha_three(self):
        seen = []

        def quantity(alpha):
            seen.append(alpha)
            return ((1, 1),)

        assert exact.limit_at_infinity(quantity, 8) == ((Fraction(1),), 3)
        assert seen == [3, 4, 5]
        assert all(type(alpha) is int for alpha in seen)

    def test_offset_limit_fails_for_every_target(self, monkeypatch):
        # a claimed limit off by any nonzero rational fails every limit
        # record of the default grid, however slowly its quantity converges
        rng = random.Random(1607)
        offsets = (Fraction(1, 1000), Fraction(1, 10**12),
                   Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)))
        config = suites.SuiteConfig(jobs=1)
        tasks = _limit_tasks(config)
        assert len(tasks) == 440
        limits = hermite_limit._LIMITS
        for offset in offsets:
            monkeypatch.setattr(hermite_limit, "_LIMITS", _offset(limits, offset))
            reports = [suites._execute(task, config) for task in tasks]
            assert {r.identity_id for r in reports} == set(hermite_limit._LIMITS)
            assert {r.status for r in reports} == {"fail"}, offset
            assert {r.residual for r in reports} == {exact.format_rational(offset)}, offset

    @pytest.mark.parametrize(
        "quantity",
        [lambda alpha: ((1, 2**alpha),),
         lambda alpha: ((1, 1), (1, 2**alpha)),
         _degenerate_everywhere],
        ids=["not-rational", "one-component-not-rational", "every-alpha-degenerate"],
    )
    def test_short_window_is_an_error(self, quantity):
        with pytest.raises(DomainError, match="no interpolant confirmed within 20 values"):
            exact.limit_at_infinity(quantity, 20)

    def test_short_window_is_an_error_record(self, monkeypatch):
        monkeypatch.setattr(hermite_limit, "_budget", lambda *indices: 4)
        params = {"l": "8", "m": "8", "target": "eq55", "j": "8"}
        report = suites._execute(("eq55", params), suites.SuiteConfig(jobs=1))
        assert report.status == "error"
        assert report.parameters["error"] == (
            "DomainError: no interpolant confirmed within 4 values of alpha"
        )


def _dyadic_deviation(target, idx, x, alpha):
    """Test-only oracle: |scaled quantity - claimed limit| at one alpha,
    computed without the reconstruction; for eq40-to-eq46 from the whole
    rescaled expansion, not factor by factor."""
    claim = hermite_limit._LIMITS[target][1](idx, x)
    if target != "eq40-to-eq46":
        return max(abs(Fraction(*q) - c) for q, c in zip(claim.quantity(alpha), claim.claimed))
    l, m, j = idx["l"], idx["m"], idx["j"]
    rescale = 2 ** (l + m - j) * hermite_limit._lm_pochhammer(HermiteSetting(l, m), j)
    degree = l + m - 2 * j
    lhs = alpha_scaled(gegenbauer_r(degree, alpha), degree, Fraction(alpha)).scale(rescale)
    terms = [Fraction(*pair) for pair in _coefficientwise_terms(l, m, j)(alpha)]
    width = l + m + 1
    sides = [lhs] + [UniPoly(terms[n * width:(n + 1) * width]) for n in range(m + 1)]
    return max((side - c).max_abs_coeff() for side, c in zip(sides, claim.claimed))


class TestDyadicOracle:
    """The claimed limits, checked apart from the reconstruction: the
    deviation at alpha = 2^s shrinks by 0.6 per doubling, judged from the
    first 2^s >= 2 (l+m)^2, where the approach is in its 1/alpha regime."""

    @staticmethod
    def _decays(target, idx, x=None):
        onset = 2 * (idx["l"] + idx["m"]) ** 2 if "l" in idx else 0
        alphas = [2**s for s in range(4, 14) if 2**s >= onset]
        deviations = [_dyadic_deviation(target, idx, x, alpha) for alpha in alphas]
        return all(
            later <= Fraction(6, 10) * earlier
            for earlier, later in zip(deviations, deviations[1:])
        )

    def test_claims_decay_on_a_small_grid(self):
        for n in range(5):
            for target in ("eq52", "eq53"):
                assert self._decays(target, {"n": n}, Fraction(3, 5)), (target, n)
        for task, params in _limit_tasks(suites.SuiteConfig(jobs=1, limit_lm_max=2)):
            idx = {key: int(params[key]) for key in "njklm" if key in params}
            if task not in ("eq52", "eq53"):
                assert self._decays(task, idx), (task, idx)

    def test_oracle_sees_an_offset(self, monkeypatch):
        monkeypatch.setattr(
            hermite_limit, "_LIMITS", _offset(hermite_limit._LIMITS, Fraction(1, 1000))
        )
        assert not self._decays("eq55", {"j": 1, "l": 2, "m": 2})
        assert not self._decays("eq40-to-eq46", {"j": 0, "l": 1, "m": 1})
