"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
a FAIL line is always followed by the pytest assertion with the offending
cases.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

from polyident import addition, classical, continuous, dual_addition, hermite_limit, racah
from polyident.exact import terminating_hyp
from polyident.suites import EQ7_POINTS, SuiteConfig, racah_systems

from surd_values import pythagorean_point

GRID_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3))
HALF = Fraction(1, 2)


def conclude(number: int, name: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert not failures, f"criterion {number} failed at: {failures[:10]}"


def dual_grid():
    for alpha in GRID_ALPHAS:
        for l in range(9):
            for m in range(l + 1):
                yield alpha, l, m


def test_criterion_1_dual_addition_formula():
    start = time.monotonic()
    failures = []
    for alpha, l, m in dual_grid():
        for j in range(m + 1):
            if not dual_addition.dual_addition_residual(j, alpha, l, m).is_zero:
                failures.append((str(alpha), l, m, j))
    conclude(1, "dual addition formula, exact grid", failures,
             time.monotonic() - start)


def test_criterion_2_sum_evaluation():
    failures = []
    for alpha, l, m in dual_grid():
        for n in range(m + 1):
            if dual_addition.s_direct(n, alpha, l, m) != dual_addition.s_closed(n, alpha, l, m):
                failures.append((str(alpha), l, m, n))
    conclude(2, "weighted Racah sum equals closed form", failures)


def test_criterion_3_linearization_weights():
    failures = []
    for alpha, l, m in dual_grid():
        for j in range(m + 1):
            if dual_addition.coeff_as_racah_weight_residual(j, alpha, l, m) != 0:
                failures.append((str(alpha), l, m, j))
    # brute-force expansion oracle at the Legendre corner
    s11 = (Fraction(0), 1, 1)
    product = classical.gegenbauer_r(1, Fraction(0)) * classical.gegenbauer_r(1, Fraction(0))
    oracle = [
        classical.inner_product(product, classical.gegenbauer_r(2 - 2 * j, Fraction(0)), Fraction(0))
        / classical.norm_ratio(2 - 2 * j, Fraction(0))
        for j in (0, 1)
    ]
    if oracle != [Fraction(2, 3), Fraction(1, 3)]:
        failures.append(("oracle", oracle))
    if [dual_addition.linearization_coeff(j, *s11) for j in (0, 1)] != oracle:
        failures.append(("coeff-vs-oracle",))
    conclude(3, "linearization coefficients are Racah weights", failures)


def test_criterion_4_racah_machinery():
    failures = []
    systems = [
        racah.RacahSystem.parse(p["system"], int(p["N"]))
        for p in racah_systems(SuiteConfig())
    ]
    assert len(systems) == 20 and all(sys.N <= 8 for sys in systems)
    for sys in systems:
        h0 = racah.racah_h0(sys)
        if h0 != sum(racah.racah_weight(x, sys) for x in range(sys.N + 1)):
            failures.append(("mass", sys.as_tuple()))
        gram = racah.gram_matrix(sys)
        for a in range(sys.N + 1):
            for b in range(sys.N + 1):
                target = h0 * racah.racah_norm_ratio(a, sys) if a == b else 0
                if gram[a][b] != target:
                    failures.append(("gram", sys.as_tuple(), a, b))
        for n in range(sys.N + 1):
            if racah.endpoint_value_residual(n, sys) != 0:
                failures.append(("endpoint", sys.as_tuple(), n))
        for n in range(1, sys.N + 1):
            for x in range(sys.N + 1):  # x = 0 and x = N hit both conventions
                if racah.backward_shift_residual(n, x, sys) != 0:
                    failures.append(("shift", sys.as_tuple(), n, x))
            f = [Fraction((-1) ** k * k * k + 3, k + 1) for k in range(sys.N + 1)]
            if racah.sum_by_parts_residual(n, f, sys) != 0:
                failures.append(("parts", sys.as_tuple(), n))
    conclude(4, "Racah weights, norms, shift, summation by parts", failures)


def test_criterion_5_classical_addition_product():
    failures = []
    for alpha in GRID_ALPHAS:
        for n in range(9):
            if not addition.addition_residual(n, alpha).is_zero:
                failures.append(("addition", str(alpha), n))
            if not addition.product_formula_residual(n, alpha).is_zero:
                failures.append(("product", str(alpha), n))
            if not addition.t_one_residual(n, alpha).is_zero:
                failures.append(("t-one", str(alpha), n))
            if not addition.sum_of_squares_residual(n, alpha).is_zero:
                failures.append(("squares", str(alpha), n))
    conclude(5, "addition/product formulas in the surd ring", failures)


def test_criterion_6_hermite_suite():
    failures = []
    for n in range(13):
        if not hermite_limit.hermite_addition_residual(n).is_zero:
            failures.append(("addition", n))
        if not hermite_limit.hermite_product_residual(n).is_zero:
            failures.append(("product", n))
    for l in range(13):
        for m in range(l + 1):
            for j in range(m + 1):
                if not hermite_limit.hermite_dual_addition_residual(j, l, m).is_zero:
                    failures.append(("dual", l, m, j))
            for n in range(m + 1):
                if not hermite_limit.hermite_dual_inverse_residual(n, l, m).is_zero:
                    failures.append(("inverse", l, m, n))
    for n in range(21):
        for k in range(21):
            value = hermite_limit.biorthogonality_value(n, k, "corrected")
            if value != (1 if n == k else 0):
                failures.append(("corrected", n, k))
    if hermite_limit.biorthogonality_value(2, 1, "as-printed") != -1:
        failures.append(("printed-pin",))
    conclude(6, "Hermite identities and biorthogonality", failures)


def test_criterion_7_limit_suite():
    # every default limit record: the reconstructed limit equals its claim
    checks = []
    for n in range(5):
        for x in (Fraction(1, 2), Fraction(3, 5)):
            checks += [(target, {"n": n}, x) for target in ("eq52", "eq53")]
    for l in range(5):
        for m in range(l + 1):
            for a in range(m + 1):
                checks.append(("eq55", {"j": a, "l": l, "m": m}, None))
                checks.append(("eq56", {"n": a, "l": l, "m": m}, None))
                checks.append(("eq40-to-eq46", {"j": a, "l": l, "m": m}, None))
                for b in range(m + 1):
                    checks.append(("eq54j", {"n": a, "j": b, "l": l, "m": m}, None))
                    checks.append(("eq54n", {"n": a, "j": b, "l": l, "m": m}, None))
                    checks.append(("eq30-limit", {"n": a, "k": b, "l": l, "m": m}, None))
    assert len(checks) == 440
    failures = [
        (target, indices, x) for target, indices, x in checks
        if hermite_limit.limit_rate_check(target, indices, x=x)[0] != 0
    ]
    conclude(7, "exact alpha -> oo limits by rational reconstruction", failures)


@pytest.mark.slow
def test_criterion_8_continuous_suite():
    start = time.monotonic()
    failures = []
    prec = 60
    int_tol = mp.mpf(10) ** -25
    mid_tol = mp.mpf(10) ** -20
    point_tol = mp.mpf(10) ** -50

    with continuous.working_precision(prec):
        ctx = continuous.WilsonContext(Fraction(1, 5), Fraction(2, 5), 1)
        for m in range(4):
            for n in range(m, 4):
                residual = continuous.wilson_orthogonality_residual(m, n, ctx, int_tol)
                if residual > int_tol:
                    failures.append(("eq8", m, n, mp.nstr(residual, 5)))

        for t, lam, mu, alpha in EQ7_POINTS:
            point_ctx = continuous.WilsonContext(Fraction(lam), Fraction(mu), Fraction(alpha))
            residual = continuous.dual_integral_closed_form_residual(
                0, Fraction(t), point_ctx, int_tol
            )
            if residual > int_tol:
                failures.append(("eq7", t, lam, mu, alpha, mp.nstr(residual, 5)))

        ctx13 = continuous.WilsonContext(Fraction(3, 10), Fraction(1, 2), 1)
        for n in range(4):
            residual = continuous.dual_integral_closed_form_residual(
                n, Fraction(1, 5), ctx13, mid_tol
            )
            if residual > mid_tol:
                failures.append(("eq13", n, mp.nstr(residual, 5)))

        for t, nu, lam, mu, alpha in (
            ("1/10", "3/10", "1/5", "2/5", "1"),
            ("1/5", "3/10", "1/5", "2/5", "1/2"),
        ):
            result = continuous.dual_addition_function_residual(
                Fraction(t), Fraction(nu), Fraction(lam), Fraction(mu), Fraction(alpha),
                tolerance=mid_tol,
            )
            if result.residual > mid_tol or not result.tail_decreasing:
                failures.append(("eq15", t, alpha, mp.nstr(result.residual, 5)))

        for alpha, lam, t in (("1", "7/10", "3/10"), ("1/4", "13/10", "4/5"),
                              ("5/2", "-3/5", "6/5")):
            a = continuous.to_mpf(Fraction(alpha))
            lv = continuous.to_mpf(Fraction(lam))
            tv = continuous.to_mpf(Fraction(t))
            residual = abs(
                continuous.phi(2 * lv, a, a, tv)
                - continuous.phi(lv, a, -mp.mpf(1) / 2, 2 * tv)
            )
            if residual > point_tol:
                failures.append(("eq16", alpha, lam, t, mp.nstr(residual, 5)))
        for alpha, beta, lam, t in (
            ("1", "-1/2", "1/2", "2/5"), ("2", "1", "13/10", "4/5"),
        ):
            residual = abs(
                continuous.contiguous_residual(
                    continuous.to_mpf(Fraction(lam)),
                    Fraction(alpha), Fraction(beta), Fraction(t),
                )
            )
            if residual > point_tol:
                failures.append(("eq34", alpha, beta, lam, t, mp.nstr(residual, 5)))

    conclude(8, "continuous suite at 60 digits", failures, time.monotonic() - start)


def test_criterion_9_cross_representation_oracles():
    failures = []
    for alpha in GRID_ALPHAS:
        for n in range(13):
            if classical.gegenbauer_r(n, alpha) != classical.jacobi_r(n, alpha, alpha):
                failures.append(("eq50", str(alpha), n))

    # exact rationals vs big floats for terminating series
    with continuous.working_precision(60):
        exact = terminating_hyp(
            [Fraction(-3), Fraction(5, 2)], [Fraction(7, 3)], 3, z=Fraction(-4, 7)
        )
        numeric = continuous.gauss_2f1(-3, mp.mpf(5) / 2, mp.mpf(7) / 3, -mp.mpf(4) / 7)
        if abs(numeric - continuous.to_mpf(exact)) > mp.mpf(10) ** -55:
            failures.append(("gauss-oracle",))

    for alpha in (Fraction(0), HALF, Fraction(1)):
        for n in range(11):
            poly = classical.gegenbauer_r(n, alpha)
            for k in range(-25, 25):
                x, _ = pythagorean_point(Fraction(k, 26))
                if abs(poly(x)) > 1:
                    failures.append(("r-bound", str(alpha), n, k))

    with continuous.working_precision(60):
        for lam, t in ((0.0, 0.5), (1.5, 1.0), (3.0, 0.25), (0.7, 2.0)):
            if continuous.phi_bound_violation(lam, 1, HALF, t) > 0:
                failures.append(("phi-bound", lam, t))
    conclude(9, "cross-representation oracles and bounds", failures)
