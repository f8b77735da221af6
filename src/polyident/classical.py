"""Renormalized Jacobi, Gegenbauer and Hermite polynomials, exactly.

All constructors expand terminating hypergeometric series over the
rationals and normalize so the Jacobi/Gegenbauer value at x = 1 is 1.
Integration against the Gegenbauer weight (1-x^2)^alpha on [-1, 1] is
done in mass-normalized form (the weight scaled to total mass 1), which
keeps every inner product rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exact import UniPoly, pochhammer

#: the polynomial x^2 - 1
X2M1 = UniPoly((-1, 0, 1))


def _require_alpha(alpha: Fraction, lower: Fraction, what: str) -> None:
    if alpha <= lower:
        raise DomainError(f"{what} requires alpha > {lower}, got {alpha}")


@lru_cache(maxsize=None)
def jacobi_r(n: int, alpha: Fraction, beta: Fraction) -> UniPoly:
    """Jacobi polynomial normalized to value 1 at x = 1.

    Built by exact termwise summation of the terminating 2F1 with argument
    (1-x)/2; the leading coefficient is (n+alpha+beta+1)_n / (2^n (alpha+1)_n).
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    alpha, beta = Fraction(alpha), Fraction(beta)
    _require_alpha(alpha, Fraction(-1), "jacobi_r")
    _require_alpha(beta, Fraction(-1), "jacobi_r")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        c = (
            pochhammer(Fraction(-n), k)
            * pochhammer(n + alpha + beta + 1, k)
            / (pochhammer(alpha + 1, k) * math.factorial(k))
        )
        if c == 0:
            continue
        # ((1-x)/2)^k expanded binomially
        for i in range(k + 1):
            coeffs[i] += c * Fraction(math.comb(k, i) * (-1) ** i, 2**k)
    return UniPoly(coeffs)


@lru_cache(maxsize=None)
def gegenbauer_r(n: int, alpha: Fraction) -> UniPoly:
    """Gegenbauer polynomial (value 1 at x = 1) from its power series.

    The usual prefactor n!/(2 alpha + 1)_n is folded into each term through
    the exact identity (2a)_n = 2^n (a)_{ceil(n/2)} (a+1/2)_{floor(n/2)}
    with a = alpha + 1/2, so the construction stays valid at alpha = -1/2
    where prefactor and sum vanish together.  Must agree coefficientwise
    with jacobi_r(n, alpha, alpha).
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    alpha = Fraction(alpha)
    _require_alpha(alpha, Fraction(-1), "gegenbauer_r")
    half = Fraction(1, 2)
    hi, lo = (n + 1) // 2, n // 2
    denom = Fraction(2**n) * pochhammer(alpha + 1, lo)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        # (alpha+1/2)_{n-k} / (2 alpha+1)_n, with the common block cancelled
        bracket = pochhammer(alpha + half + hi, n - k - hi) / denom
        coeffs[n - 2 * k] = (
            Fraction(math.factorial(n) * (-1) ** k * 2 ** (n - 2 * k))
            / Fraction(math.factorial(k) * math.factorial(n - 2 * k))
            * bracket
        )
    return UniPoly(coeffs)


@lru_cache(maxsize=None)
def hermite(n: int) -> UniPoly:
    """Hermite polynomial with leading coefficient 2^n (weight e^{-x^2})."""
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = Fraction(
            math.factorial(n) * (-1) ** k * 2 ** (n - 2 * k),
            math.factorial(k) * math.factorial(n - 2 * k),
        )
    return UniPoly(coeffs)


@lru_cache(maxsize=None)
def even_moment(k: int, alpha: Fraction) -> Fraction:
    """Normalized moment of x^{2k} against (1-x^2)^alpha on [-1, 1].

    Equals (1/2)_k / (alpha+3/2)_k; the Beta-function mass cancels, so the
    value is rational for rational alpha.  Odd moments vanish by symmetry.
    """
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    alpha = Fraction(alpha)
    _require_alpha(alpha, Fraction(-1), "even_moment")
    return pochhammer(Fraction(1, 2), k) / pochhammer(alpha + Fraction(3, 2), k)


def inner_product(p: UniPoly, q: UniPoly, alpha: Fraction) -> Fraction:
    """Mass-normalized inner product of two polynomials in the Gegenbauer weight.

    Sums c_{2k} M_k over the even coefficients c of p q, where M_k is the
    moment of x^{2k} (:func:`even_moment`).  M_k = B(k+1/2, alpha+1) /
    B(1/2, alpha+1) (DLMF 5.12.1), so M_0 = 1 and

        M_{k+1} / M_k = (k+1/2) / (k+alpha+3/2) = (2k+1) b / (2a + (2k+3) b)

    for alpha = a/b.  The sum runs as integer Horner over that ratio, from
    the highest moment down, and one ``Fraction`` is built at the end.  The
    ratio's denominator is positive for alpha > -1.
    """
    alpha = Fraction(alpha)
    _require_alpha(alpha, Fraction(-1), "inner_product")
    prod = p * q
    evens = prod.nums[::2]
    if not evens:
        return Fraction(0)
    a, b = alpha.numerator, alpha.denominator
    # num/den is c_{2k} + M_{k+1}/M_k (c_{2k+2} + ...), from the top k down
    num, den = evens[-1], 1
    for k in range(len(evens) - 2, -1, -1):
        bot = 2 * a + (2 * k + 3) * b
        num = evens[k] * bot * den + (2 * k + 1) * b * num
        den *= bot
    return Fraction(num, den * prod.den)


@lru_cache(maxsize=None)
def norm_ratio(n: int, alpha: Fraction) -> Fraction:
    """Squared norm of gegenbauer_r(n, alpha) relative to the n = 0 norm.

    At n = 0 that is 1 by definition; the closed form reads 0/0 there at
    alpha = -1/2 (the Chebyshev weight).
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    alpha = Fraction(alpha)
    _require_alpha(alpha, Fraction(-1), "norm_ratio")
    if n == 0:
        return Fraction(1)
    return (
        (n + 2 * alpha + 1)
        / (2 * n + 2 * alpha + 1)
        * math.factorial(n)
        / pochhammer(2 * alpha + 2, n)
    )


@lru_cache(maxsize=None)
def addition_weight(k: int, alpha: Fraction) -> Fraction:
    """(alpha+k)/(alpha+k/2) (2 alpha+1)_k / (2^{2k} (alpha+1)_k^2).

    The k-dependent factor that the coefficients of the addition formula and
    of the dual addition expansion share; (alpha+k)/(alpha+k/2) is 1 at
    k = 0, also at alpha = 0.
    """
    ratio = 1 if k == 0 else (alpha + k) / (alpha + Fraction(k, 2))
    return (
        ratio
        * pochhammer(2 * alpha + 1, k)
        / (Fraction(2 ** (2 * k)) * pochhammer(alpha + 1, k) ** 2)
    )


def difference_residual(n: int, alpha: Fraction) -> UniPoly:
    """Residual of the two-step difference formula

        R_n - R_{n-2} = (n+alpha-1/2)/(alpha+1) (x^2-1) R_{n-2}^{(alpha+1)},

    which must be the zero polynomial for every n >= 2.
    """
    if n < 2:
        raise DomainError(f"difference formula needs n >= 2, got {n}")
    alpha = Fraction(alpha)
    _require_alpha(alpha, Fraction(-1), "difference_residual")
    lhs = gegenbauer_r(n, alpha) - gegenbauer_r(n - 2, alpha)
    rhs = (X2M1 * gegenbauer_r(n - 2, alpha + 1)).scale(
        (n + alpha - Fraction(1, 2)) / (alpha + 1)
    )
    return lhs - rhs
