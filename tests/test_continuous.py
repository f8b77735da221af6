"""High-precision side: hypergeometric engine, special functions, quadrature.

Unit tests here run at reduced precision where quadrature is involved so
the whole file stays fast; the acceptance module repeats the headline
checks at the full 60 digits.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyident import continuous, quadrature
from polyident.continuous import (
    WilsonContext,
    WilsonParams,
    _wilson_sum,
    conical_f,
    conical_routes,
    contiguous_residual,
    dual_addition_function_residual,
    dual_integral_closed_form_residual,
    gamma_abs_sq,
    gauss_2f1,
    log_gamma,
    phi,
    phi_bound_violation,
    to_mpf,
    wilson_backward_shift_residual,
    wilson_norm,
    wilson_orthogonality_residual,
    wilson_poly,
    wilson_weight,
    working_precision,
)
from polyident.errors import DomainError, PrecisionError
from polyident.exact import pochhammer, terminating_hyp
from polyident.quadrature import POINTS_PER_UNIT, self_refining_integral


def tol(digits: int) -> mp.mpf:
    return mp.mpf(10) ** -digits


@pytest.fixture(autouse=True)
def _high_ambient_precision():
    # the routines, and the reference values in the tests, compute at the
    # ambient precision: by default the working precision of 60 digits
    with working_precision(60):
        yield


class TestGauss2F1:
    def test_empty_tail(self):
        assert gauss_2f1(1.3, -2.2, 0.7, 0) == 1

    def test_terminating_matches_exact_core(self):
        # z = -4 lies beyond the unit disc, where mpmath transforms the argument
        for z in (Fraction(-4, 7), Fraction(-4)):
            exact = terminating_hyp(
                [Fraction(-3), Fraction(5, 2)], [Fraction(7, 3)], 3, z=z
            )
            numeric = gauss_2f1(-3, mp.mpf(5) / 2, mp.mpf(7) / 3, to_mpf(z))
            assert abs(numeric - to_mpf(exact)) < tol(55)

    def test_pfaff_and_direct_paths_agree(self):
        # DLMF 15.8.1: 2F1(a, b; c; z) = (1-z)^-a 2F1(a, c-b; c; z/(z-1))
        a, b, c = mp.mpc(0.5, 0.2), mp.mpc(0.5, -0.2), mp.mpf(1.5)
        z = mp.mpf("-0.9")
        direct = gauss_2f1(a, b, c, z)
        with mp.workdps(70):
            pfaff = (1 - z) ** (-a) * mp.hyp2f1(a, c - b, c, z / (z - 1))
        assert abs(direct - pfaff) < tol(55)

    def test_rejects_positive_argument(self):
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, 2, 0.5)

    def test_rejects_lower_pole(self):
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, -2, -0.5)

    @pytest.mark.parametrize(
        "lam", [mp.mpf(10) ** 6, mp.mpf(10) ** 400, -2 * continuous.MAX_PARAMETER]
    )
    def test_parameters_out_of_reach_fail_at_once(self, lam):
        # phi at spectral parameter lam: a, b = 3/2 +- i lam/2
        a, b = mp.mpf(1.5) + 1j * lam / 2, mp.mpf(1.5) - 1j * lam / 2
        with pytest.raises(PrecisionError, match="out of reach"):
            gauss_2f1(a, b, 2, -mp.sinh(1) ** 2)

    def test_series_beyond_the_term_cap_fails(self, monkeypatch):
        # at z = -0.79 the series converges like 0.79^k and needs hundreds of
        # terms at 60 digits, as the suite's slowest series do
        a, b, c, z = mp.mpc(1.5, 1), mp.mpc(1.5, -1), mp.mpf(2), mp.mpf("-0.79")
        value = gauss_2f1(a, b, c, z)
        monkeypatch.setattr(continuous, "MAX_SERIES_TERMS", 50)
        with pytest.raises(PrecisionError, match="did not converge"):
            gauss_2f1(a, b, c, z)
        monkeypatch.setattr(continuous, "MAX_SERIES_TERMS", 2000)
        assert gauss_2f1(a, b, c, z) == value


class TestPhi:
    def test_value_one_at_origin(self):
        assert phi(0.7, 1, 0.5, 0) == 1

    def test_bound_on_samples(self):
        # (200, 0.88): a large spectral parameter, where the series cancels heavily
        for lam, t in ((0.3, 0.2), (2.5, 1.0), (0.0, 2.0), (200, 0.88)):
            assert phi_bound_violation(lam, 1, 0.5, t) == 0

    def test_quadratic_transform(self):
        # doubled spectral parameter at equal parameters vs doubled argument
        value = abs(phi(2 * 0.7, 1, 1, 0.3) - phi(0.7, 1, -0.5, 0.6))
        assert value < tol(52)

    def test_contiguous_relation(self):
        assert abs(contiguous_residual(0.5, 1, -0.5, 0.4)) < tol(50)
        assert abs(contiguous_residual(1.3, 2, 1, 0.8)) < tol(50)

    def test_contiguous_at_zero_spectral_point(self):
        assert abs(contiguous_residual(0, 1, -0.5, 0.4)) < tol(50)

    def test_contiguous_at_origin(self):
        assert abs(contiguous_residual(0.5, 1, -0.5, 0)) == 0


class TestLogGamma:
    def test_integers(self):
        assert abs(log_gamma(1)) == 0
        assert abs(log_gamma(5) - mp.log(24)) < tol(55)

    def test_half_line_modulus(self):
        nu = mp.mpf("0.7")
        expected = mp.pi / mp.cosh(mp.pi * nu)
        assert abs(gamma_abs_sq(mp.mpc(0.5, nu)) - expected) < tol(55)

    def test_duplication(self):
        z = mp.mpc(0.8, 0.3)
        with mp.workdps(70):
            lhs = mp.e ** log_gamma(2 * z)
            rhs = (
                mp.e ** (log_gamma(z) + log_gamma(z + mp.mpf(1) / 2))
                * 2 ** (2 * z - 1)
                / mp.sqrt(mp.pi)
            )
            assert abs(lhs - rhs) < tol(50) * abs(rhs)

    def test_pole(self):
        with pytest.raises(DomainError):
            log_gamma(0)


class TestConical:
    def test_origin_reduces_to_gamma_prefactor(self):
        g, k = mp.mpf(1), mp.mpf("0.8")
        value = conical_f(g, 0, k)
        with mp.workdps(70):
            expected = (
                mp.e ** (log_gamma(mp.mpc(g, k)) + log_gamma(mp.mpc(g, -k)))
                / (2 * mp.gamma(2 * g))
            )
        assert abs(value - expected) < tol(50)

    def test_two_routes_agree(self):
        route_phi, route_gauss = conical_routes(1, 0.5, 0.8)
        assert abs(route_phi - route_gauss) < tol(50)

    def test_spectral_sign_symmetry(self):
        plus = conical_f(1, 0.5, 0.8)
        minus = conical_f(1, 0.5, -0.8)
        assert abs(plus - minus) < tol(50)

    def test_rejects_nonpositive_g(self):
        with pytest.raises(DomainError):
            conical_f(0, 1, 1)
        with pytest.raises(DomainError):
            conical_routes(-1, 1, 1)

    def test_rejects_nonpositive_g_with_given_prefactor(self):
        # eq6's per-node form skips the log-gamma, not the domain check
        with pytest.raises(DomainError):
            conical_f(0, 1, 1, log_prefactor=0)

    @pytest.mark.parametrize("prec", [46, 60, 80])
    def test_prefactor_matches_two_loggamma_form(self, prec):
        # at r = 0 both routes are the prefactor exp(lg(g+ik) + lg(g-ik) - lg(2g)) / 2
        for g, k in (("1", "0.8"), ("1.5", "0"), ("0.5", "-0.6"), ("3.5", "12")):
            with working_precision(prec):
                g_, k_ = mp.mpf(g), mp.mpf(k)
                value = conical_f(g_, 0, k_)
            with mp.workdps(prec + 30):
                expected = mp.e ** (
                    mp.loggamma(mp.mpc(g_, k_)) + mp.loggamma(mp.mpc(g_, -k_))
                    - mp.loggamma(2 * g_)
                ) / 2
                assert abs(value - expected) < mp.mpf(10) ** -prec * abs(expected)

    @pytest.mark.parametrize("prec", [46, 60, 80])
    def test_eq6_kernel_matches_eight_term_sum(self, prec):
        from polyident.continuous import _conical_log_kernel

        g, p, q = mp.mpf(2), mp.mpf("0.8"), mp.mpf("1.2")
        for k in ("1e-6", "0.4", "3", "25"):
            with working_precision(prec):
                k_ = mp.mpf(k)
                value = _conical_log_kernel(g, p, q, k_)
            with mp.workdps(prec + 30):
                expected = (
                    mp.re(mp.loggamma((g + 1j * (p + q + k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (p + q - k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (p - q + k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (p - q - k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (-p + q + k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (-p + q - k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (-p - q + k_)) / 2))
                    + mp.re(mp.loggamma((g + 1j * (-p - q - k_)) / 2))
                    - 2 * mp.re(mp.loggamma(1j * k_))
                )
                assert abs(value - expected) < mp.mpf(10) ** -prec * max(1, abs(expected))

    def test_eq6_node_takes_five_log_gammas(self, monkeypatch):
        # four for the eight-gamma numerator, one for Re log Gamma(g+ik), which
        # the divisor |Gamma(g+ik)|^2 and the prefactor of F(g;t,2k) share;
        # log Gamma(2g) is taken once per integral
        from polyident import continuous

        calls = []
        original_log_gamma = continuous.log_gamma

        def counting_log_gamma(z):
            calls.append(z)
            return original_log_gamma(z)

        per_node = []

        def sampling_integral(f, *args):
            for k in ("0.5", "2", "7"):
                before = len(calls)
                f(mp.mpf(k))
                per_node.append(len(calls) - before)
            return mp.mpf(0)

        monkeypatch.setattr(continuous, "log_gamma", counting_log_gamma)
        monkeypatch.setattr(continuous, "self_refining_integral", sampling_integral)
        with working_precision(46):
            continuous.conical_product_residual(
                Fraction(1, 4), Fraction(2, 5), Fraction(3, 5), 1, tol(20)
            )
        assert per_node == [5, 5, 5]


class TestWilsonPolynomials:
    def test_degree_zero(self):
        params = WilsonParams.from_spectral(0.2, 0.4, 1)
        assert wilson_poly(0, 0.3, params) == 1

    def test_depends_on_square_only(self):
        from polyident.continuous import _wilson_poly_complex

        params = WilsonParams.from_spectral(0.2, 0.4, 1)
        x = mp.mpf("0.7")
        with working_precision(60):
            plus = _wilson_poly_complex(2, x, params)
            minus = _wilson_poly_complex(2, -x, params)
        assert abs(plus - minus) < tol(55)

    def test_parameters_conjugate_pairs_with_real_sum(self):
        params = WilsonParams.from_spectral(0.3, 0.7, Fraction(1, 2))
        a, b, c, d = params
        assert mp.conj(a) == d and mp.conj(b) == c
        total = a + b + c + d
        assert mp.im(total) == 0
        assert abs(total - 2) < tol(55)  # 2 alpha + 1 at alpha = 1/2

    def test_terminating_sum_matches_exact_core(self):
        # real-parameter variant evaluated through exact rationals
        n = 2
        a, b, c, d = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(5, 4))
        xsq = Fraction(9, 16)
        series = Fraction(0)
        term = Fraction(1)
        for k in range(n + 1):
            series += term
            if k < n:
                top = (
                    (Fraction(-n) + k)
                    * (n + a + b + c + d - 1 + k)
                    * ((a + k) ** 2 + xsq)
                )
                bot = (a + b + k) * (a + c + k) * (a + d + k) * (k + 1)
                term *= top / bot
        exact = (
            pochhammer(a + b, n) * pochhammer(a + c, n) * pochhammer(a + d, n) * series
        )
        params = WilsonParams(mp.mpf(0.25), mp.mpf(0.5), mp.mpf(0.75), mp.mpf(1.25))
        numeric = wilson_poly(n, to_mpf(xsq), params)
        assert abs(numeric - to_mpf(exact)) < tol(55)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            WilsonParams.from_spectral(0.1, 0.1, -0.5)

    def test_high_degree_keeps_its_working_precision(self):
        # the alternating sum cancels ~21 digits at n = 28, past the ten guard digits
        lam, mu, alpha, xsq = Fraction(1, 5), Fraction(2, 5), Fraction(1, 2), Fraction(9, 100)
        with working_precision(80):
            value = wilson_poly(28, xsq, WilsonParams.from_spectral(lam, mu, alpha))
        with working_precision(160):
            reference = wilson_poly(28, xsq, WilsonParams.from_spectral(lam, mu, alpha))
        with mp.workdps(170):
            assert abs(value - reference) < mp.mpf(10) ** -80 * abs(reference)

    @pytest.mark.parametrize("n", [150, 200])
    def test_a_sum_that_cancels_every_digit_is_taken_again_until_it_fits(self, n):
        # at 60 digits the first pass cancels all of its 70 working digits,
        # so one more pass at 70 + 71 digits still falls short; the value
        # must agree with one pass at 1500 digits on the same parameters
        with working_precision(60):
            params = WilsonParams.from_spectral(Fraction(1, 5), Fraction(2, 5), 1)
            value = wilson_poly(n, Fraction(1, 16), params)
        with mp.workdps(1500):
            reference, lost = continuous._wilson_sum(n, mp.mpf(1) / 4, params)
            assert lost < 1000
            assert abs(mp.im(reference)) < mp.mpf(10) ** -1000 * abs(reference)
            assert abs(value - mp.re(reference)) < mp.mpf(10) ** -60 * abs(reference)

    @pytest.mark.parametrize("n", [2, 28])
    def test_non_conjugate_parameters_are_not_real(self, n):
        params = WilsonParams(
            mp.mpc(0.5, 0.2), mp.mpc(0.5, 0.3), mp.mpc(0.5, -0.1), mp.mpc(0.5, 0.4)
        )
        with working_precision(80), pytest.raises(PrecisionError):
            wilson_poly(n, Fraction(9, 100), params)

    def test_exactly_cancelling_sum_is_zero(self):
        # W_1 = 4h(h^2 - x^2) at a = b = c = d = h: the sum is exactly 0 at h = x = 1/4
        assert wilson_poly(1, Fraction(1, 16), WilsonParams.from_spectral(0, 0, 0)) == 0


class TestWilsonWeight:
    def test_even(self):
        assert wilson_weight(0.3, 0.2, 0.4, 1) == wilson_weight(-0.3, 0.2, 0.4, 1)

    def test_positive(self):
        assert wilson_weight(0.5, 0.2, 0.4, 1) > 0

    def test_zero_at_origin(self):
        assert wilson_weight(0, 0.2, 0.4, 1) == 0

    def test_decay(self):
        reference = wilson_weight(0.5, 0.2, 0.4, 1)
        far = wilson_weight(18, 0.2, 0.4, 1)
        assert far < mp.mpf(10) ** -40 * reference

    @pytest.mark.parametrize("prec", [46, 60, 80])
    @pytest.mark.parametrize("nu", ["1e-6", "0.3", "5", "30"])
    def test_matches_direct_gamma_product(self, nu, prec):
        # |Gamma(h + i(nu +- lam +- mu))|^2 over |Gamma(2 i nu)|^2, straight from mp.gamma
        with working_precision(prec):
            x = mp.mpf(nu)
            value = wilson_weight(x, Fraction(1, 5), Fraction(2, 5), 1)
        with mp.workdps(prec + 30):
            lam, mu = mp.mpf(1) / 5, mp.mpf(2) / 5
            h = mp.mpf(1) / 2 + mp.mpf(1) / 4  # alpha/2 + 1/4 at alpha = 1
            expected = mp.mpf(1)
            for s1 in (1, -1):
                for s2 in (1, -1):
                    expected *= abs(mp.gamma(mp.mpc(h, x + s1 * lam + s2 * mu))) ** 2
            expected /= abs(mp.gamma(2j * x)) ** 2
            assert abs(value - expected) < mp.mpf(10) ** -prec * expected

    @pytest.mark.parametrize("prec", [46, 60, 80])
    @pytest.mark.parametrize("nu", ["1e-6", "0.3", "5", "30"])
    def test_dlmf_5_4_3(self, nu, prec):
        # |Gamma(2 i nu)|^2 = pi / (2 nu sinh(2 pi nu)), the weight's denominator
        with mp.workdps(prec + 10):
            x = mp.mpf(nu)
            closed = mp.pi / (2 * x * mp.sinh(2 * mp.pi * x))
        with mp.workdps(prec + 30):
            direct = abs(mp.gamma(2j * x)) ** 2
            assert abs(closed - direct) < mp.mpf(10) ** -(prec + 5) * direct


def _sech(x):
    return 1 / mp.cosh(x)


class TestQuadrature:
    def test_gaussian(self):
        # entire integrand: any pole corner is a valid one
        value = self_refining_integral(lambda x: mp.e ** (-x * x), tol(40), 1j)
        assert abs(value - mp.sqrt(mp.pi)) < tol(39)

    def test_stable_under_precision_doubling(self):
        # doubling the working precision (and hence refining further) must
        # reproduce the value within the looser run's tolerance
        with working_precision(30):
            coarse = WilsonContext(Fraction(1, 5), Fraction(2, 5), 1)
            a = coarse.integrate(lambda nu: coarse.poly(1, nu) ** 2 * coarse.weight(nu), tol(22))
        with working_precision(60):
            fine = WilsonContext(Fraction(1, 5), Fraction(2, 5), 1)
            b = fine.integrate(lambda nu: fine.poly(1, nu) ** 2 * fine.weight(nu), tol(40))
        assert abs(a - b) < tol(20)

    def test_mirrored_integrand_identical(self):
        f = lambda x: mp.e ** (-x * x) * mp.cosh(x)
        a = self_refining_integral(f, tol(30), 1j)
        b = self_refining_integral(lambda x: f(-x), tol(30), 1j)
        assert a == b

    def test_no_decay_raises(self):
        with pytest.raises(PrecisionError):
            self_refining_integral(lambda x: mp.mpf(1), tol(10), 1j)

    @pytest.mark.parametrize("zero", [1, mp.mpf(1) / 2], ids=["s=1", "s=1/2"])
    def test_an_isolated_zero_on_a_node_does_not_cut_the_integral(self, zero):
        # (x^2 - a^2)^2 sech(pi x / 2) with a = sinh(zero) vanishes at the
        # node s = zero, well before it decays; the moments of sech(pi x / 2)
        # are 2, 2 and 10, so it integrates to 10 - 4 a^2 + 2 a^4
        with working_precision(40):
            a = mp.sinh(zero)
            value = self_refining_integral(
                lambda x: (x * x - a * a) ** 2 / mp.cosh(mp.pi * x / 2), tol(30), 1j
            )
            assert abs(value - (10 - 4 * a**2 + 2 * a**4)) < tol(30)

    def test_precision_is_not_a_parameter(self):
        # the integral computes at the context precision; a fourth argument is an error
        with pytest.raises(TypeError):
            self_refining_integral(_sech, tol(20), 1j, 60)

    # sech x has its nearest poles at +-i pi/2 and integrates to pi

    @pytest.mark.parametrize("prec", [46, 60, 80])
    def test_sech_at_its_strip(self, prec):
        origin_calls = []

        def f(x):
            if x == 0:
                origin_calls.append(x)
            return _sech(x)

        tolerance = mp.mpf(10) ** -(prec - 20)
        with working_precision(prec):
            value = self_refining_integral(f, tolerance, 1j * mp.pi / 2)
            assert abs(value - mp.pi) < tolerance
        assert len(origin_calls) == 1  # f(0) once per integral, not once per level

    @pytest.mark.parametrize("prec", [46, 60, 80])
    @pytest.mark.parametrize("a", [0, 5])
    def test_off_axis_sech_pair_at_its_pole(self, a, prec):
        # sech(x - a) + sech(x + a) integrates to 2 pi; its poles nearest the
        # real line are at +-a +- i pi/2, so the corner is a + i pi/2
        tolerance = mp.mpf(10) ** -(prec - 20)
        with working_precision(prec):
            value = self_refining_integral(
                lambda x: _sech(x - a) + _sech(x + a), tolerance, mp.mpc(a, mp.pi / 2)
            )
            assert abs(value - 2 * mp.pi) < tolerance

    @pytest.mark.parametrize("prec", [46, 60])
    def test_understated_abscissa_is_never_a_wrong_value(self, prec):
        # stating the poles of sech(x - 20) + sech(x + 20) on the imaginary
        # axis claims a mapped strip of pi/2 where Im asinh(20 + i pi/2) is
        # 0.078: the rate guard keeps the strip stop off, so the result is
        # within tolerance or the refinement budget runs out
        tolerance = mp.mpf(10) ** -(prec - 20)
        with working_precision(prec):
            try:
                value = self_refining_integral(
                    lambda x: _sech(x - 20) + _sech(x + 20), tolerance, 1j * mp.pi / 2
                )
            except PrecisionError:
                return
            assert abs(value - 2 * mp.pi) < tolerance

    @pytest.mark.parametrize("strip", [10, mp.mpf("0.1")], ids=["overstated", "understated"])
    def test_sech_with_a_wrong_strip(self, strip):
        # an overstated strip predicts faster convergence than the
        # differences show, so the rate guard keeps the strip stop off;
        # any pole on the imaginary axis above i maps to the half-width
        # pi/2, so 10i overstates nothing in s: the understated abscissa
        # test above overstates the mapped strip
        prec = 60
        tolerance = tol(40)
        with working_precision(prec):
            value = self_refining_integral(_sech, tolerance, 1j * strip)
            assert abs(value - mp.pi) < tolerance

    def test_strip_must_be_positive(self):
        with pytest.raises(DomainError):
            self_refining_integral(_sech, tol(20), 0j)

    def test_eq8_node_count_at_the_defaults(self, monkeypatch):
        from polyident import continuous, suites

        counts = []
        original = continuous.self_refining_integral

        def counting(f, *args):
            def counted(x):
                counts.append(x)
                return f(x)

            return original(counted, *args)

        monkeypatch.setattr(continuous, "self_refining_integral", counting)
        params = {"m": "0", "n": "0", "lambda": "1/5", "mu": "2/5", "alpha": "1"}
        assert suites.run_task("eq8", params, suites.SuiteConfig()).passed
        assert len(counts) <= 120  # 114; 129 probing whole units of s, 259 in nu

    def test_eq8_printed_after_eq8_computes_no_weight_twice(self, monkeypatch):
        # every integral on one context lands on the same ladder of nodes,
        # whatever its cutoff, so the weight cache gives the second check
        # every node eq8 computed; eq8-printed's n = 2 integrand decays more
        # slowly, so the weights it adds all lie beyond eq8's cutoff
        import functools

        from polyident import continuous, suites

        fresh = functools.lru_cache(maxsize=None)(suites._cached_wilson_context.__wrapped__)
        monkeypatch.setattr(suites, "_cached_wilson_context", fresh)
        computed = []
        original = continuous.wilson_weight

        def counting(nu, *args):
            computed.append(nu)
            return original(nu, *args)

        monkeypatch.setattr(continuous, "wilson_weight", counting)
        params = {"lambda": "1/5", "mu": "2/5", "alpha": "1"}
        config = suites.SuiteConfig()
        assert suites.run_task("eq8", dict(params, m="0", n="0"), config).passed
        first = list(computed)
        assert suites.run_task("eq8-printed", dict(params, n="2"), config).passed
        added = computed[len(first):]
        assert fresh.cache_info().currsize == 1
        assert len(set(computed)) == len(computed)
        # eq8's last node is the check one step past its cutoff, not summed
        step = mp.mpf(1) / POINTS_PER_UNIT
        assert added and min(added) > mp.sinh(mp.asinh(max(first)) - step)


class TestAbsoluteGegenbauerNorm:
    def test_gamma_prefactor_numerically(self):
        # the exact side verifies mass-normalized norms only; the absolute
        # constant 2^{2a+1} Gamma(a+1)^2 / Gamma(2a+2) is checked here by
        # direct quadrature at sampled parameters
        from polyident.classical import gegenbauer_r, norm_ratio

        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            a = to_mpf(alpha)
            mass = 2 ** (2 * a + 1) * mp.gamma(a + 1) ** 2 / mp.gamma(2 * a + 2)
            for n in (0, 1, 3):
                poly = gegenbauer_r(n, alpha)
                coeffs = [to_mpf(c) for c in poly.coeffs]
                integrand = lambda x: mp.polyval(coeffs[::-1], x) ** 2 * (1 - x * x) ** a
                value = mp.quad(integrand, [-1, 0, 1])
                expected = mass * to_mpf(norm_ratio(n, alpha))
                assert abs(value - expected) < tol(40) * expected


class TestWilsonOrthogonality:
    def test_small_gram(self):
        with working_precision(40):
            ctx = WilsonContext(Fraction(1, 5), Fraction(2, 5), 1)
            for m in range(3):
                for n in range(m, 3):
                    residual = wilson_orthogonality_residual(m, n, ctx, tol(20))
                    assert residual < tol(15)

    def test_norm_variants_ratio(self):
        # corrected / printed = ((alpha + 1/2)_n)^2
        n, alpha = 2, 1
        corrected = wilson_norm(n, 0.2, 0.4, alpha, variant="corrected")
        printed = wilson_norm(n, 0.2, 0.4, alpha, variant="printed")
        expected = to_mpf(pochhammer(Fraction(alpha) + Fraction(1, 2), n) ** 2)
        assert abs(corrected / printed - expected) < tol(50)

    def test_printed_norm_fails_quadrature(self):
        # pinned discrepancy: the integral exceeds the printed norm by the
        # squared shifted factorial
        with working_precision(40):
            ctx = WilsonContext(Fraction(1, 5), Fraction(2, 5), 1)
            integral = ctx.integrate(
                lambda nu: ctx.poly(1, nu) ** 2 * ctx.weight(nu), tol(25)
            )
            printed = wilson_norm(1, ctx.lam, ctx.mu, ctx.alpha, variant="printed")
            ratio = integral / printed
            assert abs(ratio - mp.mpf(9) / 4) < tol(15)  # ((3/2)_1)^2 at alpha = 1


class TestDualProduct:
    # the dual product formula is the phi-weighted closed form at n = 0
    def test_residual_small(self):
        with working_precision(40):
            ctx = WilsonContext(Fraction(2, 5), Fraction(7, 10), 1)
            residual = dual_integral_closed_form_residual(0, Fraction(3, 10), ctx, tol(18))
        assert residual < tol(15)

    def test_t_zero_matches_degree_zero_norm(self):
        with working_precision(40):
            ctx = WilsonContext(Fraction(3, 10), Fraction(2, 5), 1)
            residual = dual_integral_closed_form_residual(0, 0, ctx, tol(18))
        assert residual < tol(15)


class TestDualIntegralClosedForm:
    def test_degree_zero_equals_dual_product(self):
        # written out, the dual product formula: the degree-0 Wilson norm
        # times two Jacobi functions against the weight integral of the
        # spectral Jacobi function; W_0 = 1 makes the n = 0 residual this one
        with working_precision(40):
            ctx = WilsonContext(Fraction(3, 10), Fraction(1, 2), 1)
            t, half = to_mpf(Fraction(1, 5)), mp.mpf(1) / 2
            product = (
                wilson_norm(0, ctx.lam, ctx.mu, ctx.alpha)
                * mp.re(phi(2 * ctx.lam, ctx.alpha, -half, t))
                * mp.re(phi(2 * ctx.mu, ctx.alpha, -half, t))
            )
            integral = ctx.integrate(
                lambda nu: mp.re(phi(2 * nu, ctx.alpha, -half, t))
                * wilson_weight(nu, ctx.lam, ctx.mu, ctx.alpha),
                tol(18) * mp.mpf(10) ** -continuous.REFINEMENT_DIGITS * abs(product),
            )
            r_product = abs(product - integral) / abs(product)
            r_integral = dual_integral_closed_form_residual(0, Fraction(1, 5), ctx, tol(18))
        assert r_product < tol(15)
        assert r_integral == r_product

    def test_degree_one(self):
        with working_precision(40):
            ctx = WilsonContext(Fraction(3, 10), Fraction(1, 2), 1)
            residual = dual_integral_closed_form_residual(1, Fraction(1, 5), ctx, tol(18))
        assert residual < tol(15)

    def test_printed_variant_discrepancy(self):
        with working_precision(40):
            ctx = WilsonContext(Fraction(3, 10), Fraction(1, 2), 1)
            printed = dual_integral_closed_form_residual(
                1, Fraction(1, 5), ctx, tol(18), variant="printed"
            )
        expected = to_mpf(pochhammer(Fraction(3, 2), 1) ** 2) - 1  # 5/4
        assert abs(printed - expected) < tol(12)


class TestBackwardShift:
    def test_pointwise_identity(self):
        residual = wilson_backward_shift_residual(2, Fraction(7, 10), 0.3, 0.5, 1)
        assert residual < tol(30)

    def test_several_points(self):
        for x in (Fraction(1, 10), Fraction(6, 5), Fraction(2)):
            assert wilson_backward_shift_residual(1, x, 0.3, 0.5, 1) < tol(30)

    def test_degree_must_be_positive(self):
        with pytest.raises(DomainError):
            wilson_backward_shift_residual(0, 0.5, 0.3, 0.5, 1)


class TestDualAdditionFunction:
    def test_t_zero_trivial(self, monkeypatch):
        monkeypatch.setattr(continuous, "_truncation_budget", lambda: 4)
        with working_precision(40):
            result = dual_addition_function_residual(
                0, Fraction(3, 10), Fraction(1, 5), Fraction(2, 5), 1, tolerance=tol(18),
            )
        assert result.residual < tol(30)

    def test_small_t_expansion(self):
        with working_precision(40):
            result = dual_addition_function_residual(
                Fraction(1, 10), Fraction(3, 10), Fraction(1, 5), Fraction(2, 5), 1,
                tolerance=tol(18),
            )
        assert result.residual < tol(15)
        assert result.tail_decreasing

    def test_budget_out_on_decreasing_tail_raises(self, monkeypatch):
        monkeypatch.setattr(continuous, "_truncation_budget", lambda: 4)
        with working_precision(46), pytest.raises(
            PrecisionError, match="truncation budget of 4 terms"
        ):
            dual_addition_function_residual(
                1, Fraction(3, 10), Fraction(1, 5), Fraction(2, 5), 1, tolerance=tol(20),
            )

    def test_growing_tail_is_flagged_divergent(self, monkeypatch):
        # at t = 2, sinh(2t)^2 is about 745 and the terms grow: the budget
        # runs out on a tail that is not decreasing, reported, not raised
        monkeypatch.setattr(continuous, "_truncation_budget", lambda: 6)
        with working_precision(46):
            result = dual_addition_function_residual(
                2, Fraction(3, 10), Fraction(1, 5), Fraction(2, 5), 1, tolerance=tol(20),
            )
        assert not result.tail_decreasing
        assert result.terms_used == 6

    def test_half_parameter(self):
        with working_precision(40):
            result = dual_addition_function_residual(
                Fraction(1, 10), Fraction(3, 10), Fraction(1, 5), Fraction(2, 5),
                Fraction(1, 2), tolerance=tol(18),
            )
        assert result.residual < tol(15)


# -- the trimmed kernels against the expressions they replaced.  Each oracle
# keeps the replaced expression as it was written, and each comparison is
# ==, so a trim that moves a single bit fails.

#: the working digits the suites run at: the precision floor, the default
#: and a deeper one
working_digits = st.sampled_from([46, 60, 100])
#: Jacobi and Wilson parameters alpha, beta >= -1/2, as the suites pass them
parameters = st.fractions(min_value=Fraction(-1, 2), max_value=3, max_denominator=12)
spectral = st.fractions(min_value=-5, max_value=5, max_denominator=12)
#: arguments t >= 0, the origin drawn on its own
arguments = st.just(Fraction(0)) | st.fractions(min_value=0, max_value=2, max_denominator=12)


def _phi_oracle(lam, alpha, beta, t):
    """phi with its parameters s +- i lam/2 formed through a complex product,
    and hyp2f1 called at every argument, z = 0 included."""
    lam = mp.mpc(lam)
    alpha, beta, t = to_mpf(alpha), to_mpf(beta), to_mpf(t)
    z = -mp.sinh(t) ** 2
    s = (alpha + beta + 1) / 2
    return mp.hyp2f1(s + lam * 1j / 2, s - lam * 1j / 2, alpha + 1, z,
                     maxterms=continuous.MAX_SERIES_TERMS)


def _wilson_sum_oracle(n, x, params):
    """_wilson_sum with i x formed anew in every factor of every term."""
    a, b, c, d = params
    x = mp.mpc(x)
    pre = mp.mpc(1)
    for p in (a + b, a + c, a + d):
        for i in range(n):
            pre *= p + i
    total = mp.mpc(1)
    term = mp.mpc(1)
    largest = 1
    for k in range(n):
        term *= (
            (-n + k)
            * (n + a + b + c + d - 1 + k)
            * (a + 1j * x + k)
            * (a - 1j * x + k)
            / ((a + b + k) * (a + c + k) * (a + d + k) * (k + 1))
        )
        total += term
        largest = max(largest, mp.mag(term))
    lost = (largest - mp.mag(total)) * math.log10(2) if total else mp.mp.dps
    return pre * total, lost


class TestTrimmedKernelOracles:
    @given(digits=working_digits, lam=spectral, shift=st.sampled_from([0, 1, -1]),
           alpha=parameters, beta=parameters, t=arguments)
    @settings(max_examples=80, deadline=None)
    def test_phi_matches_the_complex_product_form(self, digits, lam, shift, alpha, beta, t):
        # real lam, and lam +- i as contiguous_residual passes it
        with working_precision(digits):
            lam = to_mpf(lam) + shift * 1j
            assert phi(lam, alpha, beta, t) == _phi_oracle(lam, alpha, beta, t)

    @given(digits=working_digits, g=st.fractions(min_value=0, max_value=3, max_denominator=12)
           .filter(lambda g: g > 0), r=arguments, k=spectral)
    @settings(max_examples=60, deadline=None)
    def test_conical_routes_match_the_complex_product_form(self, digits, g, r, k):
        with working_precision(digits):
            g, r, k = to_mpf(g), to_mpf(r), to_mpf(k)
            pre = mp.e ** (2 * mp.re(log_gamma(mp.mpc(g, k))) - log_gamma(2 * g)) / 2
            expected = (
                pre * _phi_oracle(k, g - mp.mpf(1) / 2, -mp.mpf(1) / 2, r),
                pre * mp.hyp2f1(g + 1j * k, g - 1j * k, g + mp.mpf(1) / 2,
                                -mp.sinh(r / 2) ** 2, maxterms=continuous.MAX_SERIES_TERMS),
            )
            assert conical_routes(g, r, k) == expected

    @given(digits=working_digits, n=st.integers(min_value=0, max_value=6),
           x=st.fractions(min_value=0, max_value=4, max_denominator=12),
           offset=st.sampled_from([0, 0.5j, -0.5j]),
           lam=spectral, mu=spectral, alpha=parameters.filter(lambda a: a > Fraction(-1, 2)),
           shifted=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_wilson_sum_matches_the_loop_with_i_x_inside(self, digits, n, x, offset, lam,
                                                        mu, alpha, shifted):
        # real x, and x +- i/2 as the backward shift passes it, on the
        # spectral parameters and on their half-shift
        with working_precision(digits):
            params = WilsonParams.from_spectral(lam, mu, alpha)
            if shifted:
                params = params.shifted()
            x = to_mpf(x) + offset
            assert _wilson_sum(n, x, params) == _wilson_sum_oracle(n, x, params)

    @given(digits=working_digits, xsq=st.fractions(min_value=0, max_value=16, max_denominator=12),
           lam=spectral, mu=spectral, alpha=parameters.filter(lambda a: a > Fraction(-1, 2)))
    @settings(max_examples=40, deadline=None)
    def test_wilson_poly_of_degree_zero_is_what_the_sum_gives(self, digits, xsq, lam, mu, alpha):
        with working_precision(digits):
            params = WilsonParams.from_spectral(lam, mu, alpha)
            value = wilson_poly(0, xsq, params)
            expected = mp.re(+_wilson_sum_oracle(0, mp.sqrt(to_mpf(xsq)), params)[0])
            assert value == expected == 1 and type(value) is type(expected)

    @given(digits=working_digits, a=spectral, b=spectral, im=spectral,
           c=st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(max_examples=60, deadline=None)
    def test_gauss_2f1_is_exactly_one_at_the_origin(self, digits, a, b, c, im):
        with working_precision(digits):
            a, b = mp.mpc(to_mpf(a), to_mpf(im)), mp.mpc(to_mpf(b), -to_mpf(im))
            c = to_mpf(c)
            if c <= 0 and mp.isint(c):
                with pytest.raises(DomainError):
                    gauss_2f1(a, b, c, 0)
                return
            value = gauss_2f1(a, b, c, 0)
            assert value == 1 and value == mp.hyp2f1(a, b, c, 0)
            assert type(value) is type(mp.hyp2f1(a, b, c, 0))

    @pytest.mark.parametrize("c", [0, -1, -7])
    def test_gauss_2f1_at_the_origin_still_rejects_a_lower_pole(self, c):
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, c, 0)

    def test_gauss_2f1_at_the_origin_still_rejects_parameters_out_of_reach(self):
        with pytest.raises(PrecisionError, match="out of reach"):
            gauss_2f1(continuous.MAX_PARAMETER + 1, 1, 2, 0)

    def test_strip_stop_share_is_the_53_bit_hundredth(self):
        with mp.workprec(53):
            assert mp.mpf(quadrature.STRIP_STOP_SHARE) == mp.mpf(1) / 100
