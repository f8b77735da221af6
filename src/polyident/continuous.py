"""High-precision side: Jacobi/Gegenbauer functions and Wilson polynomials.

Arbitrary-precision reals and complexes are mpmath's mpf/mpc.  Every
routine computes at mpmath's context precision, which the caller sets
once, inside ``working_precision(P)``: P digits plus ten guard digits.
``polyident eval`` runs each evaluation at the configured P;
``suites.run_task`` runs each numeric task at the P its tolerance needs,
capped at the configured one.  A residual that integrates or sums a
truncated series takes its ``tolerance`` as a required argument and
refines to 10^-REFINEMENT_DIGITS of it.  Every Jacobi, Gegenbauer and
conical function here is a Gauss function 2F1 at an argument
-sinh^2 t <= 0, evaluated by ``mpmath.hyp2f1`` (DLMF 15.8 argument
transformations with adaptive internal precision).

Two printed closed forms are handled in both a "printed" and a
"corrected" variant: the Wilson norm and the closed form of the
phi-weighted Wilson integral.  Quadrature shows the printed prefactor
Gamma(alpha+1/2)^2 must read Gamma(n+alpha+1/2)^2 in both; the suites pin
the discrepancy ratio ((alpha+1/2)_n)^2 as an expected result rather than
silently fixing it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp
from mpmath.libmp import NoConvergence

from .errors import DomainError, PrecisionError
from .quadrature import self_refining_integral

_GUARD = 10

#: an integral or a truncated series stops at its tolerance times
#: 10^-REFINEMENT_DIGITS, so a check needs that many digits beyond it
REFINEMENT_DIGITS = 3


def working_precision(digits: int):
    """mpmath's context at ``digits`` plus the guard digits, the precision
    every routine here computes at; use it as a ``with`` block."""
    return mp.workdps(digits + _GUARD)


def agreement_bound() -> mp.mpf:
    """10^{-P+10} inside ``working_precision(P)``: how closely two
    evaluations of one value must agree."""
    return mp.mpf(10) ** (10 + _GUARD - mp.mp.dps)


def to_mpf(x) -> mp.mpf:
    """Convert int/float/str/Fraction to mpf at the working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def log_gamma(z):
    """Principal-branch log of the gamma function.

    Backed by mpmath's implementation (argument recurrence plus Stirling
    with reflection), whose relative error is well inside the guard digits
    of the working precision.  Poles raise DomainError.
    """
    try:
        return mp.loggamma(z)
    except ValueError as exc:
        raise DomainError(f"log_gamma pole at {z}") from exc


def gamma_abs_sq(z) -> mp.mpf:
    """|Gamma(z)|^2 for Re z > 0, via 2 Re log Gamma(z)."""
    return mp.e ** (2 * mp.re(log_gamma(z)))


#: the most terms one 2F1 series may sum.  The continuous suite needs at
#: most 2,316 at 200 digits, the precision ceiling (757 at 60 digits;
#: counted over every series of a full run), so this leaves a factor 2.6.
MAX_SERIES_TERMS = 6000

#: the largest |a| and |b| a 2F1 may have, fifty times the largest the
#: continuous suite uses (|a| = 202 at 200 digits)
MAX_PARAMETER = 10**4


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z <= 0.

    Backed by ``mpmath.hyp2f1``, which transforms the argument (DLMF 15.8)
    where the series converges slowly and raises its internal precision to
    absorb cancellation.  When it cannot reach the working precision it
    raises PrecisionError, and so it does when a series would need more
    than MAX_SERIES_TERMS terms.  Beyond |a| or |b| = MAX_PARAMETER it
    raises PrecisionError at once: the terms then grow for thousands of
    terms at arguments of order one, and at |a| = 10^400 a few hundred
    terms alone take seconds.  Within these bounds a series that fails
    fails in about a second.
    """
    z = mp.mpf(z)
    if z > 0:
        raise DomainError(f"argument must satisfy z <= 0, got {z}")
    if mp.im(c) == 0 and mp.re(c) <= 0 and mp.isint(mp.re(c)):
        raise DomainError(f"lower parameter at a pole: c = {c}")
    if max(abs(a), abs(b)) > MAX_PARAMETER:
        raise PrecisionError(
            f"2F1 parameters out of reach: |a| or |b| exceeds {MAX_PARAMETER} "
            f"(a = {mp.nstr(a, 8)}, b = {mp.nstr(b, 8)})"
        )
    try:
        return mp.hyp2f1(a, b, c, z, maxterms=MAX_SERIES_TERMS)
    except NoConvergence as exc:
        raise PrecisionError(
            f"2F1 at z = {mp.nstr(z, 8)} did not converge: {exc}"
        ) from exc


def phi(lam, alpha, beta, t):
    """Jacobi function: a Gauss function at argument -sinh^2 t, value 1 at t = 0."""
    lam = mp.mpc(lam)
    alpha = to_mpf(alpha)
    beta = to_mpf(beta)
    t = to_mpf(t)
    z = -mp.sinh(t) ** 2
    s = (alpha + beta + 1) / 2
    return gauss_2f1(s + lam * 1j / 2, s - lam * 1j / 2, alpha + 1, z)


def contiguous_residual(lam, alpha, beta, t):
    """Residual of the spectral-shift contiguous relation.

    [phi_{lam-i} - phi_{lam+i}]/(i lam) = sinh^2 t/(alpha+1) phi_lam^{(alpha+1,beta)}.
    At lam = 0 the divided form is 0/0, so the underlying undivided Gauss
    contiguous relation is checked instead.
    """
    lam = mp.mpc(lam)
    alpha = to_mpf(alpha)
    beta = to_mpf(beta)
    t = to_mpf(t)
    z = -mp.sinh(t) ** 2
    s = (alpha + beta + 1) / 2
    if lam == 0:
        a, b, c = s + mp.mpf(1) / 2, s - mp.mpf(1) / 2, alpha + 1
        lhs = gauss_2f1(a, b, c, z) - gauss_2f1(a - 1, b + 1, c, z)
        rhs = (b - a + 1) * z / c * gauss_2f1(a, b + 1, c + 1, z)
        return lhs - rhs
    lhs = (phi(lam - 1j, alpha, beta, t) - phi(lam + 1j, alpha, beta, t)) / (1j * lam)
    rhs = mp.sinh(t) ** 2 / (alpha + 1) * phi(lam, alpha + 1, beta, t)
    return lhs - rhs


def conical_routes(g, r, k, log_prefactor=None):
    """The two evaluations of the conical function F(g; r, 2k), g > 0.

    ``log_prefactor`` is the log of twice Gamma(g+ik) Gamma(g-ik) / (2 Gamma(2g)),
    taken with one complex log-gamma unless given: g +- ik are conjugate, so
    the pair is exp(2 Re log Gamma(g+ik)).  Route one is the prefactor times
    the Jacobi function phi_k^{(g-1/2,-1/2)}(r), route two the Gauss series
    at -sinh^2(r/2); they agree through the quadratic argument transform.
    """
    g, r, k = (to_mpf(x) for x in (g, r, k))
    if not g > 0:
        raise DomainError(f"g must be positive, got {g}")
    if log_prefactor is None:
        log_prefactor = 2 * mp.re(log_gamma(mp.mpc(g, k))) - log_gamma(2 * g)
    pre = mp.e ** log_prefactor / 2
    route_phi = pre * phi(k, g - mp.mpf(1) / 2, -mp.mpf(1) / 2, r)
    route_gauss = pre * gauss_2f1(
        g + 1j * k, g - 1j * k, g + mp.mpf(1) / 2, -mp.sinh(r / 2) ** 2
    )
    return route_phi, route_gauss


def conical_f(g, r, k, log_prefactor=None):
    """Conical function F(g; r, 2k), checked along the two routes of
    :func:`conical_routes`.

    Disagreement of the routes beyond 10^{-P+10} inside
    ``working_precision(P)`` raises PrecisionError.
    """
    route_phi, route_gauss = conical_routes(g, r, k, log_prefactor)
    if abs(route_phi - route_gauss) > agreement_bound() * (1 + abs(route_gauss)):
        raise PrecisionError("conical function routes disagree")
    return route_gauss


class WilsonParams(NamedTuple):
    """The four Wilson parameters built from spectral points (lam, mu).

    Parameters come in two conjugate pairs with real sum 2 alpha + 1.
    """

    a: mp.mpc
    b: mp.mpc
    c: mp.mpc
    d: mp.mpc

    @staticmethod
    def from_spectral(lam, mu, alpha) -> "WilsonParams":
        lam = to_mpf(lam)
        mu = to_mpf(mu)
        alpha = to_mpf(alpha)
        if not alpha > -mp.mpf(1) / 2:
            raise DomainError(f"alpha must exceed -1/2, got {alpha}")
        h = alpha / 2 + mp.mpf(1) / 4
        return WilsonParams(
            a=mp.mpc(h, lam + mu),
            b=mp.mpc(h, lam - mu),
            c=mp.mpc(h, mu - lam),
            d=mp.mpc(h, -lam - mu),
        )

    def shifted(self) -> "WilsonParams":
        half = mp.mpf(1) / 2
        return WilsonParams(*(p + half for p in self))


def _wilson_sum(n: int, x, params: WilsonParams):
    """The Wilson polynomial at the ambient precision, and the decimal digits
    its alternating sum cancelled: log10 of its largest |term| over |sum|,
    estimated to a bit from the binary exponents; all of them when the sum
    is exactly 0."""
    a, b, c, d = params
    x = mp.mpc(x)
    pre = mp.mpc(1)
    for p in (a + b, a + c, a + d):
        for i in range(n):
            pre *= p + i
    total = mp.mpc(1)
    term = mp.mpc(1)
    largest = 1  # mp.mag(1), the k = 0 term
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


def _wilson_poly_complex(n: int, x, params: WilsonParams):
    """Wilson polynomial at (possibly complex) spectral point x.

    The sum cancels more digits as the degree grows (21 at n = 28 near
    x = 3/10).  When it cancels more than the guard digits, it is taken
    again with that many extra digits, and again until what it cancels fits
    in the extra digits plus the guard digits, so the value keeps its
    working precision.  A pass that cancels every digit it has only bounds
    the loss from below: at 60 digits, n = 150 and n = 200 read 71 digits
    lost at first and take three passes.  A sum that is exactly 0 with the
    extra digits is taken as 0.
    """
    value, lost = _wilson_sum(n, x, params)
    extra = 0
    while lost > extra + _GUARD:
        extra = math.ceil(lost)
        with mp.workdps(mp.mp.dps + extra):
            value, lost = _wilson_sum(n, x, params)
        if not value:
            break
    return +value


def wilson_poly(n: int, xsq, params: WilsonParams) -> mp.mpf:
    """Wilson polynomial of degree n in the squared variable.

    For conjugate-pair parameters the value at real x^2 >= 0 is real; the
    imaginary part of the computed value is checked against 10^{-P+10}
    inside ``working_precision(P)``.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    x = mp.sqrt(to_mpf(xsq))
    value = _wilson_poly_complex(n, x, params)
    scale = max(mp.mpf(1), abs(value))
    if abs(mp.im(value)) > agreement_bound() * scale:
        raise PrecisionError("Wilson polynomial value is not real")
    return mp.re(value)


def wilson_weight(nu, lam, mu, alpha) -> mp.mpf:
    """Wilson orthogonality weight |Gamma(i nu +- i lam +- i mu + h)/Gamma(2 i nu)|^2.

    Even in nu and nonnegative; the removable pole of 1/Gamma(2 i nu) at
    nu = 0 makes the weight vanish there, which is taken as its value.  The
    numerator takes four complex log-gammas; the denominator is
    |Gamma(2 i nu)|^2 = pi / (2 nu sinh(2 pi nu)) (DLMF 5.4.3).
    """
    nu = to_mpf(nu)
    if nu == 0:
        return mp.mpf(0)
    lam = to_mpf(lam)
    mu = to_mpf(mu)
    h = to_mpf(alpha) / 2 + mp.mpf(1) / 4
    log_total = mp.mpf(0)
    for s1 in (1, -1):
        for s2 in (1, -1):
            log_total += mp.re(log_gamma(mp.mpc(h, nu + s1 * lam + s2 * mu)))
    return mp.e ** (2 * log_total) * 2 * nu * mp.sinh(2 * mp.pi * nu) / mp.pi


def _gamma_prefactor(n: int, lam, mu, alpha, variant: str = "corrected"):
    """Gamma(n+alpha+1/2)^2 |Gamma(n+alpha+1/2+2i lam)|^2
    |Gamma(n+alpha+1/2+2i mu)|^2 / Gamma(2n+2 alpha+1) for mpf lam, mu, alpha.

    variant="printed" puts the historical Gamma(alpha+1/2)^2 in front,
    smaller by ((alpha+1/2)_n)^2; the two agree at n = 0.
    """
    if variant not in ("corrected", "printed"):
        raise DomainError(f"unknown variant {variant!r}")
    half = mp.mpf(1) / 2
    front = n + alpha + half if variant == "corrected" else alpha + half
    return (
        gamma_abs_sq(front)
        * gamma_abs_sq(mp.mpc(n + alpha + half, 2 * lam))
        * gamma_abs_sq(mp.mpc(n + alpha + half, 2 * mu))
        / mp.gamma(2 * n + 2 * alpha + 1)
    )


def wilson_norm(n: int, lam, mu, alpha, variant: str = "corrected") -> mp.mpf:
    """Closed-form squared norm of the Wilson polynomials used here.

    variant="corrected": Gamma(n+alpha+1/2)^2 |Gamma(n+alpha+1/2+2i lam)|^2
    |Gamma(n+alpha+1/2+2i mu)|^2 / Gamma(2n+2 alpha+1) * (n+2 alpha)_n n!,
    which quadrature confirms.  variant="printed" keeps the historical
    Gamma(alpha+1/2)^2 prefactor, smaller by ((alpha+1/2)_n)^2; it is kept
    for the pinned-discrepancy checks.
    """
    lam = to_mpf(lam)
    mu = to_mpf(mu)
    alpha = to_mpf(alpha)
    return (
        _gamma_prefactor(n, lam, mu, alpha, variant)
        * mp.rf(n + 2 * alpha, n)
        * mp.factorial(n)
    )


class WilsonContext:
    """Caches node-level quantities shared by the gamma-weight integrals.

    Quadrature refinement revisits the same abscissas, and the Gram matrix
    of one parameter set shares its weight function across all (m, n)
    pairs, so caching by exact node value removes most gamma evaluations.
    Each value is cached at the working precision of its first use, so a
    context serves one precision.
    """

    def __init__(self, lam, mu, alpha):
        self.lam = to_mpf(lam)
        self.mu = to_mpf(mu)
        self.alpha = to_mpf(alpha)
        self.params = WilsonParams.from_spectral(lam, mu, alpha)
        self._weights: dict = {}
        self._polys: dict = {}
        self._phis: dict = {}

    def weight(self, nu) -> mp.mpf:
        value = self._weights.get(nu)
        if value is None:
            value = wilson_weight(nu, self.lam, self.mu, self.alpha)
            self._weights[nu] = value
        return value

    def poly(self, k: int, nu) -> mp.mpf:
        key = (k, nu)
        value = self._polys.get(key)
        if value is None:
            value = wilson_poly(k, nu * nu, self.params)
            self._polys[key] = value
        return value

    def phi_node(self, t, nu) -> mp.mpf:
        key = (t, nu)
        value = self._phis.get(key)
        if value is None:
            value = mp.re(phi(2 * nu, self.alpha, -mp.mpf(1) / 2, t))
            self._phis[key] = value
        return value

    def integrate(self, f: Callable, tolerance) -> mp.mpf:
        """(1/4 pi) times the full-line integral of ``f``, an even product of
        the weight with entire functions of nu.  The weight's poles are at
        nu = +-lam +-mu + i(alpha/2 + 1/4 + k), k = 0, 1, ..., so the
        quadrature is told the corner (|lam| + |mu|) + i(alpha/2 + 1/4):
        the largest |Re| and the smallest |Im| of a pole, which bound the
        strip its sinh substitution maps them to.  Every integral on the
        context lands on the quadrature's one ladder of nodes, so the
        weight cache serves them all."""
        pole = mp.mpc(abs(self.lam) + abs(self.mu), self.alpha / 2 + mp.mpf(1) / 4)
        return self_refining_integral(f, tolerance, pole) / (4 * mp.pi)


def wilson_orthogonality_residual(
    m: int, n: int, ctx: WilsonContext, tolerance: mp.mpf
) -> mp.mpf:
    """Relative residual of the Wilson orthogonality relation.

    The gamma-weight integral of W_m W_n over the real line (divided by
    4 pi) is compared against delta_{m,n} times the corrected closed-form
    norm; the difference is scaled by sqrt(norm_m norm_n).
    """
    value = ctx.integrate(
        lambda nu: ctx.poly(m, nu) * ctx.poly(n, nu) * ctx.weight(nu),
        tolerance * mp.mpf(10) ** -REFINEMENT_DIGITS,
    )
    target = wilson_norm(n, ctx.lam, ctx.mu, ctx.alpha) if m == n else mp.mpf(0)
    scale = mp.sqrt(
        wilson_norm(m, ctx.lam, ctx.mu, ctx.alpha)
        * wilson_norm(n, ctx.lam, ctx.mu, ctx.alpha)
    )
    return abs(value - target) / scale


def _conical_log_kernel(g, p, q, k) -> mp.mpf:
    """log of the eight-gamma quotient of the eq6 kernel at k != 0:

        prod Gamma((g + i(+-p +-q +-k))/2) / |Gamma(ik)|^2.

    The eight numerator factors are four conjugate pairs, and
    Re log Gamma(conj z) = Re log Gamma(z), so each pair takes one complex
    log-gamma; |Gamma(ik)|^2 = pi / (k sinh(pi k)) (DLMF 5.4.3).

    This is log :func:`wilson_weight` (k/2, p/2, q/2, g - 1/2), to 1e-49 at
    50 digits, but routing eq6 through it moves eq6's printed residuals
    (2.6340593e-39 to 1.7560395e-39), so the two stay apart until records
    state margins instead of bare residuals.
    """
    log_num = mp.mpf(0)
    for s1 in (1, -1):
        for s2 in (1, -1):
            # the s3 = -1 factor is the conjugate of this one
            log_num += 2 * mp.re(log_gamma(mp.mpc(g, s1 * p + s2 * q + k) / 2))
    return log_num - mp.log(mp.pi / (k * mp.sinh(mp.pi * k)))


def conical_product_residual(t, lam, mu, alpha, tolerance: mp.mpf) -> mp.mpf:
    """Relative residual of the conical-function form of the dual product.

    Re-derives the formula in its original shape: F(g;t,2p) F(g;t,2q) as a
    half-line integral of F(g;t,2k) against the kernel

        prod Gamma((g + i(+-p +-q +-k))/2) / (|Gamma(ik)|^2 |Gamma(g+ik)|^2 Gamma(g)^2),

    with g = alpha+1/2, p = 2 lam, q = 2 mu.  Numerically equivalent to the
    Jacobi-function form but exercises the conical prefactors.  The
    eight-gamma quotient is ``_conical_log_kernel``; Re log Gamma(g+ik)
    is taken once per node, for both the divisor |Gamma(g+ik)|^2 and the
    prefactor of F(g;t,2k), and log Gamma(2g) and log Gamma(g) once per
    integral.  The kernel's poles are at k = +-p +-q +- i(g + 2j),
    j = 0, 1, ...; the rest of the integrand is entire in k, so the
    quadrature is told the corner (|p| + |q|) + i g.
    """
    g = to_mpf(alpha) + mp.mpf(1) / 2
    t = to_mpf(t)
    p = 2 * to_mpf(lam)
    q = 2 * to_mpf(mu)
    lhs = mp.re(conical_f(g, t, p) * conical_f(g, t, q))
    log_gamma_g2 = 2 * mp.re(log_gamma(g))
    log_gamma_2g = log_gamma(2 * g)

    def kernel(k):
        if k == 0:
            return mp.mpf(0)
        log_gamma_gk2 = 2 * mp.re(log_gamma(mp.mpc(g, k)))
        f_val = mp.re(conical_f(g, t, k, log_gamma_gk2 - log_gamma_2g))
        return f_val * mp.e ** (
            _conical_log_kernel(g, p, q, k) - log_gamma_gk2 - log_gamma_g2
        )

    # half-line integral of an even integrand: (1/8 pi) int_0^inf = (1/16 pi) int_R
    integral = self_refining_integral(
        kernel,
        tolerance * mp.mpf(10) ** -REFINEMENT_DIGITS * abs(lhs),
        mp.mpc(abs(p) + abs(q), g),
    ) / (16 * mp.pi)
    return abs(lhs - integral) / abs(lhs)


def dual_integral_closed_form_residual(
    n: int, t, ctx: WilsonContext, tolerance: mp.mpf, variant: str = "corrected"
) -> mp.mpf:
    """Relative residual of the closed form of the phi-weighted Wilson integral.

    The integral of phi_{2 nu} W_n against the gamma weight equals, in the
    corrected variant,

        Gamma(n+alpha+1/2)^2 |Gamma(n+alpha+1/2+2i lam)|^2
        |Gamma(n+alpha+1/2+2i mu)|^2 / Gamma(2n+2 alpha+1)
        * sinh^{2n} t / (alpha+1)_n * phi_{2 lam}^{(alpha+n,-1/2)}(t)
                                    * phi_{2 mu}^{(alpha+n,-1/2)}(t).

    variant="printed" uses the historical Gamma(alpha+1/2)^2 prefactor.
    At n = 0 (W_0 = 1) this is the dual product formula: the product of
    two Jacobi functions with its gamma prefactor is the gamma-weight
    integral of the spectral Jacobi function.
    """
    t = to_mpf(t)
    half = mp.mpf(1) / 2
    closed = (
        _gamma_prefactor(n, ctx.lam, ctx.mu, ctx.alpha, variant)
        * mp.sinh(t) ** (2 * n)
        / mp.rf(ctx.alpha + 1, n)
        * mp.re(phi(2 * ctx.lam, ctx.alpha + n, -half, t))
        * mp.re(phi(2 * ctx.mu, ctx.alpha + n, -half, t))
    )
    integral = ctx.integrate(
        lambda nu: ctx.phi_node(t, nu) * ctx.poly(n, nu) * ctx.weight(nu),
        tolerance * mp.mpf(10) ** -REFINEMENT_DIGITS * abs(closed),
    )
    return abs(integral - closed) / abs(closed)


def wilson_backward_shift_residual(n: int, x, lam, mu, alpha) -> mp.mpf:
    """Pointwise residual of the Wilson backward shift identity at real x.

    With G(y) the meromorphic extension of the weight,

        G(x) W_n(x^2; a,b,c,d) = H(x + i/2) - H(x - i/2),
        H(y) = G'(y) W_{n-1}(y^2; a+1/2,...) / (2 i y),

    where G' uses the half-shifted parameters.  The degree drops by one on
    the shifted side; this is the identity in the form the weighted
    integral recursion needs.  The printed form keeps degree n on both
    sides and fails numerically; the suite checks only this corrected
    form and pins no printed-variant check for it.
    """
    if n < 1:
        raise DomainError(f"backward shift needs n >= 1, got {n}")
    params = WilsonParams.from_spectral(lam, mu, alpha)
    x = to_mpf(x)

    def weight_ext(y, ps: WilsonParams):
        total = mp.mpc(0)
        for p in ps:
            total += log_gamma(p + 1j * y) + log_gamma(p - 1j * y)
        total -= log_gamma(2j * y) + log_gamma(-2j * y)
        return mp.e**total

    lhs = weight_ext(x, params) * _wilson_poly_complex(n, x, params)
    shifted = params.shifted()

    def half_term(y):
        return weight_ext(y, shifted) * _wilson_poly_complex(n - 1, y, shifted) / (2j * y)

    rhs = half_term(x + 0.5j) - half_term(x - 0.5j)
    return abs(lhs - rhs)


class TruncatedExpansionResult(NamedTuple):
    """Outcome of a truncated spectral-expansion check."""

    residual: mp.mpf
    terms_used: int
    tail_decreasing: bool


def _truncation_budget() -> int:
    """Terms the eq15 expansion may use: twice the working digits.  The
    suite's eq15 tasks need at most 17 of 76 at P = 60, and 116 of 356 at
    P = 200."""
    return 2 * mp.mp.dps


def dual_addition_function_residual(
    t,
    nu,
    lam,
    mu,
    alpha,
    tolerance: mp.mpf,
) -> TruncatedExpansionResult:
    """Truncated dual addition expansion for Gegenbauer functions.

    phi_{4 nu}^{(alpha,alpha)}(t) is expanded as

        sum_k (sinh 2t)^{2k} / ((alpha+1)_k (k+2 alpha)_k k!)
              phi_{4 lam}^{(alpha+k,alpha+k)}(t) phi_{4 mu}^{(alpha+k,alpha+k)}(t)
              W_k(nu^2; ...).

    Terms are added until one falls below tolerance * 1e-3.  If the last
    five term magnitudes are not decreasing, the result is flagged as
    (formally) divergent rather than raising.  If they are decreasing but
    the budget runs out first, the expansion was cut short, not shown to
    fail, and PrecisionError names the budget.
    """
    budget = _truncation_budget()
    stop = tolerance * mp.mpf(10) ** -REFINEMENT_DIGITS
    t = to_mpf(t)
    nu = to_mpf(nu)
    alpha = to_mpf(alpha)
    params = WilsonParams.from_spectral(lam, mu, alpha)
    lam = to_mpf(lam)
    mu = to_mpf(mu)
    target = mp.re(phi(4 * nu, alpha, alpha, t))
    sinh_sq = mp.sinh(2 * t) ** 2
    total = mp.mpf(0)
    magnitudes: list = []
    for k in range(budget):
        term = (
            sinh_sq**k
            / (mp.rf(alpha + 1, k) * mp.rf(k + 2 * alpha, k) * mp.factorial(k))
            * mp.re(phi(4 * lam, alpha + k, alpha + k, t))
            * mp.re(phi(4 * mu, alpha + k, alpha + k, t))
            * wilson_poly(k, nu * nu, params)
        )
        total += term
        magnitudes.append(abs(term))
        if k > 0 and abs(term) < stop:
            break
    tail = magnitudes[-5:]
    decreasing = all(later < earlier for earlier, later in zip(tail, tail[1:]))
    # the budget (at least two terms) ran out unless the last term stopped it
    if decreasing and not abs(term) < stop:
        raise PrecisionError(
            f"truncation budget of {budget} terms ran out before a "
            f"term fell below {mp.nstr(stop, 3)}"
        )
    return TruncatedExpansionResult(
        residual=abs(target - total),
        terms_used=len(magnitudes),
        tail_decreasing=decreasing,
    )


def phi_bound_violation(lam, alpha, beta, t) -> mp.mpf:
    """max(|phi| - 1, 0) for real spectral parameter; the bound holds for
    alpha >= beta >= -1/2."""
    return max(abs(phi(lam, alpha, beta, t)) - 1, mp.mpf(0))
