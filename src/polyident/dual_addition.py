"""Dual addition machinery for Gegenbauer polynomials.

The product R_l R_m of two Gegenbauer polynomials expands in the family
with coefficients that are, after normalization, exactly the orthogonality
weights of a Racah system with parameters

    (alpha - 1/2, alpha - 1/2, -m - 1, -l - alpha - 1/2),  N = m.

Inserting a Racah polynomial of the expansion index into that sum yields a
closed product form (the sum S below), and expanding back through Racah
orthogonality gives the dual addition formula: R_{l+m-2j} as a sum over n
of (x^2-1)^n R_{l-n}^{(alpha+n)} R_{m-n}^{(alpha+n)} times Racah values.
Everything here is exact; identity checks compare canonical coefficient
vectors, not samples.

A setting is its values (alpha, l, m), passed last to every function of
it; each function checks alpha > -1/2 and then l >= m >= 0 itself.  The
values that several checks or indices of one setting share are memoised
once per setting, as a tuple over their index, by the integers
(a, b, l, m) of alpha = a/b, l and m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .classical import X2M1, addition_weight, gegenbauer_pairing, gegenbauer_r, norm_ratio
from .errors import DomainError, IdentityViolationError, check_index, check_lm
from .exact import UniPoly, rising_product, terminating_hyp_numerators
from .racah import RacahSystem, racah_h0, racah_weight, system_over

_HALF = Fraction(1, 2)


def racah_form(alpha: Fraction | int, l: int, m: int) -> tuple[int, int, int, int, int]:
    """(D, A, B, G, E): the parameters of the Racah system above for
    (alpha, l, m) over their least common denominator D, unchecked, as
    :func:`~polyident.racah.system_over` keeps the system.

    From alpha = a/b (an ``int`` alpha has a numerator and a denominator
    too), alpha - 1/2 = (2a - b)/(2b), reduced by the one common factor
    that 2a - b and 2b can have; gamma = -m - 1 and delta = -l - alpha -
    1/2 = -(alpha - 1/2) - (l + 1) are then integers over the same D.
    """
    A, D = 2 * alpha.numerator - alpha.denominator, 2 * alpha.denominator
    common = math.gcd(A, D)
    A, D = A // common, D // common
    return D, A, A, -(m + 1) * D, -A - (l + 1) * D


def specialized_racah(alpha: Fraction | int, l: int, m: int) -> RacahSystem:
    """The Racah system whose weights are the linearization coefficients.

    Validity of this system for every admissible setting is a checked
    claim: construction runs the full RacahSystem validation.  It is the
    system :func:`~polyident.racah.system_over` keeps for its parameters,
    so a racah-suite task on the same specialization reads the same one.
    """
    return system_over(*racah_form(alpha, l, m), m)


def _checked(alpha: Fraction | int, l: int, m: int) -> tuple[int, int, int, int]:
    """The memo key (a, b, l, m), alpha = a/b, after checking the domain of
    every function here: alpha > -1/2, then l >= m >= 0."""
    a, b = alpha.numerator, alpha.denominator
    if 2 * a + b <= 0:
        raise DomainError(f"alpha must exceed -1/2, got {alpha}")
    check_lm(l, m)
    return a, b, l, m


def _lm_pochhammer(k: int, l: int, m: int) -> int:
    """(-l)_k (-m)_k."""
    return rising_product(-l, 1, k) * rising_product(-m, 1, k)


# The closed forms below are integer quotients: with alpha = a/b and
# c = 2a + b, 2 alpha + 1 = c/b, alpha + 1/2 = c/(2b) and alpha + 3/2 =
# (c + 2b)/(2b), so each shifted factorial is a rising product of integers
# (:func:`~polyident.exact.rising_product`) over a power of b or 2b, and
# those powers cancel.


@lru_cache(maxsize=None)
def _linearization_coeffs(a: int, b: int, l: int, m: int) -> tuple[Fraction, ...]:
    f = math.factorial
    c = 2 * a + b
    return tuple(Fraction(
        f(l) * f(m) * (2 * b * (l + m - 2 * j) + c)
        * rising_product(c, 2 * b, j) * rising_product(c, 2 * b, l - j)
        * rising_product(c, 2 * b, m - j) * rising_product(c, b, l + m - j) * b**j,
        rising_product(c, b, l) * rising_product(c, b, m) * c * f(j) * f(l - j) * f(m - j)
        * rising_product(c + 2 * b, 2 * b, l + m - j),
    ) for j in range(m + 1))


def linearization_coeff(j: int, alpha: Fraction | int, l: int, m: int) -> Fraction:
    """Coefficient of R_{l+m-2j} in the expansion of R_l R_m.

    Computed from the explicit product-formula coefficients

        l! m! (l+m+alpha+1/2-2j) (alpha+1/2)_j (alpha+1/2)_{l-j}
        (alpha+1/2)_{m-j} (2 alpha+1)_{l+m-j}
        / ((2 alpha+1)_l (2 alpha+1)_m (alpha+1/2) j! (l-j)! (m-j)!
           (alpha+3/2)_{l+m-j}),

    as one integer quotient; strictly positive for alpha > -1/2.  The m+1
    coefficients of a setting are memoised together: eq17 and eq18 both
    read every one.
    """
    key = _checked(alpha, l, m)
    check_index(j, m, "index")
    return _linearization_coeffs(*key)[j]


def coeff_as_racah_weight_residual(j: int, alpha: Fraction | int, l: int, m: int) -> Fraction:
    """linearization_coeff minus w(j)/h0 of the specialized system; must be 0."""
    coeff = linearization_coeff(j, alpha, l, m)
    sys = specialized_racah(alpha, l, m)
    return coeff - racah_weight(j, sys) / racah_h0(sys)


@lru_cache(maxsize=None)
def _s_sums(a: int, b: int, l: int, m: int) -> tuple[UniPoly, ...]:
    alpha = Fraction(a, b)
    sys = specialized_racah(alpha, l, m)
    return tuple(
        UniPoly.combination(
            (racah_weight(j, sys) * value, gegenbauer_r(l + m - 2 * j, alpha))
            for j, value in enumerate(values)
        )
        for values in sys.values
    )


def s_direct(n: int, alpha: Fraction | int, l: int, m: int) -> UniPoly:
    """The weighted sum S: over j, w(j) R_{l+m-2j} times the Racah value at j.

    The m+1 terms are summed in one integer pass (:meth:`UniPoly.combination`);
    the m+1 sums of a setting are memoised together, since eq45 and eq58
    read every one.
    """
    key = _checked(alpha, l, m)
    check_index(n, m, "index")
    return _s_sums(*key)[n]


def s_closed_prefactor(n: int, alpha: Fraction | int, l: int, m: int) -> Fraction:
    """(2 alpha+1)_{l+n} (2 alpha+1)_{m+n} (alpha+1/2)_{l+m}
    / (2^{2n} (alpha+1/2)_l (alpha+1/2)_m (2 alpha+1)_{l+m} (alpha+1)_n^2),
    as one integer quotient."""
    a, b, l, m = _checked(alpha, l, m)
    c = 2 * a + b
    return Fraction(
        rising_product(c, b, l + n) * rising_product(c, b, m + n)
        * rising_product(c, 2 * b, l + m),
        4**n * rising_product(c, 2 * b, l) * rising_product(c, 2 * b, m)
        * rising_product(c, b, l + m) * rising_product(a + b, b, n) ** 2,
    )


@lru_cache(maxsize=None)
def _product_bases(a: int, b: int, l: int, m: int) -> tuple[UniPoly, ...]:
    """(x^2-1)^n R_{l-n}^{(alpha+n)}(x) R_{m-n}^{(alpha+n)}(x) for n = 0..m."""
    alpha = Fraction(a, b)
    return tuple(gegenbauer_r(l - n, alpha + n) * gegenbauer_r(m - n, alpha + n) * X2M1.pow(n)
                 for n in range(m + 1))


def s_closed(n: int, alpha: Fraction | int, l: int, m: int) -> UniPoly:
    """Closed form of the sum S: prefactor times the n-th product basis
    polynomial (x^2-1)^n R_{l-n}^{(alpha+n)}(x) R_{m-n}^{(alpha+n)}(x).

    Must equal s_direct coefficientwise.
    """
    key = _checked(alpha, l, m)
    check_index(n, m, "index")
    return _product_bases(*key)[n].scale(s_closed_prefactor(n, alpha, l, m))


@lru_cache(maxsize=None)
def _coeff_factors(a: int, b: int, l: int, m: int) -> tuple[Fraction, ...]:
    """:func:`~polyident.classical.addition_weight` (n, alpha) times
    (-l)_n (-m)_n / n! for n = 0..m, the j-independent factors of
    :func:`dual_addition_coeffs`, which every j of a setting needs."""
    alpha = Fraction(a, b)
    return tuple(addition_weight(n, alpha) * Fraction(_lm_pochhammer(n, l, m), math.factorial(n))
                 for n in range(m + 1))


def dual_addition_coeffs(j: int, alpha: Fraction | int, l: int, m: int) -> tuple[Fraction, ...]:
    """The coefficients of the product basis polynomials, n = 0..m, in the
    dual addition expansion of R_{l+m-2j}: one look-up of the Racah values
    for the whole column."""
    key = _checked(alpha, l, m)
    check_index(j, m, "index")
    values = specialized_racah(alpha, l, m).values
    return tuple(factor * values[n][j] for n, factor in enumerate(_coeff_factors(*key)))


def dual_addition_term(n: int, j: int, alpha: Fraction | int, l: int, m: int) -> UniPoly:
    """The degree-n term of the dual addition expansion of R_{l+m-2j}."""
    key = _checked(alpha, l, m)
    check_index(n, m, "index")
    return _product_bases(*key)[n].scale(dual_addition_coeffs(j, alpha, l, m)[n])


def dual_addition_residual(j: int, alpha: Fraction | int, l: int, m: int) -> UniPoly:
    """R_{l+m-2j} minus its dual addition expansion; must be zero.

    At l = m and j = m the left side is R_0 = 1, and the expansion is the
    constant-function expansion (a partition of unity).
    """
    key = _checked(alpha, l, m)
    coeffs = dual_addition_coeffs(j, alpha, l, m)
    # summed as expansion - R and negated, sparing a Fraction negation per term
    return -UniPoly.combination((
        (-1, gegenbauer_r(l + m - 2 * j, alpha)),
        *zip(coeffs, _product_bases(*key)),
    ))


def integral_identity_residuals(n: int, alpha: Fraction | int, l: int,
                                m: int) -> list[Fraction | int]:
    """Fourier coefficients of S_n against every R_{l+m-2j}, j = 0..m,
    minus their closed values; each must be 0.

    Both sides are mass-normalized, so the overall weight mass cancels:
    <S_n, R_{l+m-2j}> = w(j) (h_{l+m-2j}/h_0) * (Racah value at j).
    S_n is paired once for every j.  Each pairing stays an unreduced
    integer pair, compared with the closed value's three factors by
    cross-multiplying, as in :func:`whipple_proportionality`; a residual
    is formed as a ``Fraction`` only where they differ.
    """
    pairing = gegenbauer_pairing(s_direct(n, alpha, l, m), alpha, l + m)
    sys = specialized_racah(alpha, l, m)
    residuals: list[Fraction | int] = []
    for j, value in enumerate(sys.values[n]):
        deg = l + m - 2 * j
        num, den = pairing.unreduced(gegenbauer_r(deg, alpha))
        weight, ratio = racah_weight(j, sys), norm_ratio(deg, alpha)
        if (num * weight.denominator * ratio.denominator * value.denominator
                == den * weight.numerator * ratio.numerator * value.numerator):
            residuals.append(0)
        else:
            residuals.append(Fraction(num, den) - weight * ratio * value)
    return residuals


def second_hyp_form(alpha: Fraction | int, l: int, m: int) -> tuple[list[list[int]], int]:
    """The second terminating 4F3 representation of the triple-product
    integral at every (n, j) of a setting, as one grid of integer
    numerators indexed [n][j] over its one common denominator (nonzero, of
    either sign; :func:`~polyident.exact.terminating_hyp_numerators`).

    Row n carries the upper parameters n-m and -m-n-2 alpha, column j the
    parameters j-m and l-j+alpha+1/2; each series ends after min(m-n, m-j)
    terms, where n-m or j-m stops it.
    """
    _checked(alpha, l, m)
    return terminating_hyp_numerators(
        [(Fraction(n - m), -m - n - 2 * alpha) for n in range(m + 1)],
        [(Fraction(j - m), l - j + alpha + _HALF) for j in range(m + 1)],
        [Fraction(-m), -m - alpha + _HALF, Fraction(l - m + 1)],
        m,
    )


def whipple_factor(j: int, alpha: Fraction | int, l: int, m: int) -> Fraction:
    """j-dependent elementary factor linking the two 4F3 forms.

    A twofold Whipple transformation turns the Racah-value 4F3 into the
    second form times explicit shifted-factorial quotients; this is the
    part of those quotients that varies with j (it never vanishes for
    admissible indices):

        (j-l)_{m-j} (j+alpha+1/2)_{m-j}
        / ((alpha+1/2)_{m-j} (l+2 alpha+1)_{m-j}),

    as one integer quotient.
    """
    a, b, l, m = _checked(alpha, l, m)
    check_index(j, m, "index")
    k, c = m - j, 2 * a + b
    return Fraction(
        rising_product(j - l, 1, k) * rising_product(c + 2 * b * j, 2 * b, k) * b**k,
        rising_product(c, 2 * b, k) * rising_product(c + b * l, b, k),
    )


def whipple_proportionality(alpha: Fraction | int, l: int,
                            m: int) -> list[tuple[Fraction, Fraction]]:
    """Common proportionality constants of the triple-product integral.

    For each n and j, the normalized integral of
    R_{l-n}^{(alpha+n)} R_{m-n}^{(alpha+n)} R_{l+m-2j} against
    (1-x^2)^{alpha+n}, divided by the j-dependent weight factors
    w(j) h_{l+m-2j}/h_0, is proportional to the Racah-value 4F3; divided
    additionally by :func:`whipple_factor` it is proportional to the
    second 4F3 form.  Both constants must be independent of j; they are
    returned for n = 0..m.  A j where a 4F3 vanishes must have vanishing
    integral and is skipped.

    The factors that depend on j alone (R_{l+m-2j}, w(j) h_{l+m-2j}/h_0
    and that weight times :func:`whipple_factor`) are formed once per
    setting, and the second 4F3 once, as a grid of integer numerators over
    one denominator.  The integral at n pairs the memoised product basis
    polynomial (x^2-1)^n R_{l-n}^{(alpha+n)} R_{m-n}^{(alpha+n)} at weight
    alpha; since <(x^2-1)^n P, R>_alpha = (-1)^n (alpha+1)_n/(alpha+3/2)_n
    <P, R>_{alpha+n} for the mass-normalized weights, that factor, the same
    for every j, is divided out of the returned constants only.  Each ratio
    stays an unreduced integer pair, compared with the first by
    cross-multiplying; only the returned constants are reduced.

    Raises IdentityViolationError if a ratio fails to be constant or a
    zero fails to pair.
    """
    a, b, l, m = key = _checked(alpha, l, m)
    sys = specialized_racah(alpha, l, m)
    values, (second, second_den) = sys.values, second_hyp_form(alpha, l, m)
    # the j-only factors, formed once per setting: R_{l+m-2j}, the weight
    # w(j) h_{l+m-2j}/h_0 and that weight times the Whipple factor
    polys = [gegenbauer_r(l + m - 2 * j, alpha) for j in range(m + 1)]
    bases = [racah_weight(j, sys) * norm_ratio(l + m - 2 * j, alpha) for j in range(m + 1)]
    whipple_bases = [base * whipple_factor(j, alpha, l, m) for j, base in enumerate(bases)]
    constants = []
    for n, basis in enumerate(_product_bases(*key)):
        # each ratio integral/(scale * value) as an unreduced integer pair
        ratios: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
        pairing = gegenbauer_pairing(basis, alpha, l + m)
        for j in range(m + 1):
            num, den = pairing.unreduced(polys[j])
            value = values[n][j]
            checks = (
                (value.numerator, value.denominator, bases[j], ratios[0]),
                (second[n][j], second_den, whipple_bases[j], ratios[1]),
            )
            for value_num, value_den, scale, acc in checks:
                if value_num == 0:
                    if num != 0:
                        raise IdentityViolationError(
                            f"integral nonzero where 4F3 vanishes (j={j})"
                        )
                    continue
                acc.append((num * scale.denominator * value_den,
                            den * scale.numerator * value_num))
        for which, acc in zip(("first", "second"), ratios):
            if not acc:
                raise IdentityViolationError(f"no usable j for the {which} 4F3")
            p0, q0 = acc[0]
            if any(p * q0 != p0 * q for p, q in acc):
                raise IdentityViolationError(
                    f"{which} 4F3 ratio varies over j: {[str(Fraction(*r)) for r in acc]}"
                )
        # (-1)^n (alpha+1)_n/(alpha+3/2)_n, with alpha = a/b: the weight
        # change of the pairing above
        shift = Fraction((-2) ** n * rising_product(a + b, b, n),
                         rising_product(2 * a + 3 * b, 2 * b, n))
        constants.append((Fraction(*ratios[0][0]) / shift, Fraction(*ratios[1][0]) / shift))
    return constants
