"""Renormalized Jacobi, Gegenbauer and Hermite polynomials, exactly.

All constructors expand terminating hypergeometric series over the
rationals and normalize so the Jacobi/Gegenbauer value at x = 1 is 1.
Integration against the Gegenbauer weight (1-x^2)^alpha on [-1, 1] is
done in mass-normalized form (the weight scaled to total mass 1), which
keeps every inner product rational.  The memoised constructors and closed
forms are keyed by integers, (n, numerator, denominator) of each
parameter (:func:`~polyident.exact.integer_keyed`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError
from .exact import UniPoly, _reduced, integer_keyed, pochhammer

#: the polynomial x^2 - 1
X2M1 = UniPoly((-1, 0, 1))


def _require_alpha(alpha: Fraction, lower: Fraction, what: str) -> None:
    if alpha <= lower:
        raise DomainError(f"{what} requires alpha > {lower}, got {alpha}")


@integer_keyed
def jacobi_r(n: int, alpha: Fraction, beta: Fraction) -> UniPoly:
    """Jacobi polynomial normalized to value 1 at x = 1.

    The terminating 2F1 sum over k of (-n)_k (n+alpha+beta+1)_k
    / ((alpha+1)_k k!) ((1-x)/2)^k, in integers: with alpha+1 = p1/q1 and
    n+alpha+beta+1 = p2/q2, term k+1 over term k is
    (k-n)(p2+k q2) q1 / (2 (k+1)(p1+k q1) q2), so every term is an integer
    over W, the product of the n ratio denominators (positive for
    alpha > -1).  The terms are summed by Horner's rule in 1-x and the sum
    is reduced once.  The leading coefficient is
    (n+alpha+beta+1)_n / (2^n (alpha+1)_n).
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    alpha, beta = Fraction(alpha), Fraction(beta)
    _require_alpha(alpha, Fraction(-1), "jacobi_r")
    _require_alpha(beta, Fraction(-1), "jacobi_r")
    p1, q1 = alpha.numerator + alpha.denominator, alpha.denominator
    top = n + alpha + beta + 1
    p2, q2 = top.numerator, top.denominator
    # term k = heads[k] * tail_k / W, tail_k the ratio denominators from k on
    heads = [1]
    for k in range(n):
        heads.append(heads[-1] * (k - n) * (p2 + k * q2) * q1)
    acc = [heads[n]]
    tail = 1
    for k in range(n - 1, -1, -1):
        tail *= 2 * (k + 1) * (p1 + k * q1) * q2
        # acc * (1 - x) + term k
        acc = [a - b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += heads[k] * tail
    return _reduced(acc, tail)


@integer_keyed
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


@integer_keyed
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
    """Mass-normalized inner product of two polynomials in the Gegenbauer
    weight: a one-off :func:`gegenbauer_pairing` of p, applied to q."""
    return gegenbauer_pairing(p, alpha, q.degree)(q)


class GegenbauerPairing:
    """q -> <p, q> for every q of degree <= ``degree``, from the integer
    vector of :func:`gegenbauer_pairing`: ``unreduced(q)`` is the value as an
    integer pair (numerator, denominator > 0), and calling the pairing
    gives it as a ``Fraction``."""

    __slots__ = ("vector", "den", "degree")

    def __init__(self, vector: list[int], den: int, degree: int):
        self.vector, self.den, self.degree = vector, den, degree

    def unreduced(self, q: UniPoly) -> tuple[int, int]:
        if q.degree > self.degree:
            raise DomainError(f"pairing formed for degree <= {self.degree}, got {q.degree}")
        return sum(map(mul, q.nums, self.vector)), self.den * q.den

    def __call__(self, q: UniPoly) -> Fraction:
        return Fraction(*self.unreduced(q))


def gegenbauer_pairing(p: UniPoly, alpha: Fraction, degree: int) -> GegenbauerPairing:
    """q -> <p, q>, the mass-normalized inner product in the Gegenbauer
    weight, for every q of degree <= ``degree``.

    <p, x^i> = sum_j p_j M_{(i+j)/2} over i + j even, where M_k is the
    moment of x^{2k} (:func:`even_moment`).  M_k = B(k+1/2, alpha+1) /
    B(1/2, alpha+1) (DLMF 5.12.1), so for alpha = a/b

        M_k = prod_{i<k} (2i+1) b / (2a + (2i+3) b),

    and with D the product of those denominators up to the highest moment
    used, every D M_k is an integer.  The pairing forms v_i = D p.den
    <p, x^i> once, as integers; each <p, q> is then one integer dot product
    over D p.den q.den.  D is positive for alpha > -1.
    """
    alpha = Fraction(alpha)
    _require_alpha(alpha, Fraction(-1), "gegenbauer_pairing")
    a, b = alpha.numerator, alpha.denominator
    top = max(p.degree + degree, 0) // 2
    # D M_k = prod_{i<k} (2i+1) b * prod_{k<=i<top} (2a + (2i+3) b)
    scaled = [1] * (top + 1)
    tail = 1
    for k in range(top, 0, -1):
        scaled[k] = tail
        tail *= 2 * a + (2 * k + 1) * b
    scaled[0] = tail
    head = 1
    for k in range(1, top + 1):
        head *= (2 * k - 1) * b
        scaled[k] *= head
    evens, odds = p.nums[::2], p.nums[1::2]
    vector = [sum(map(mul, odds if i % 2 else evens, scaled[(i + 1) // 2:]))
              for i in range(degree + 1)]
    return GegenbauerPairing(vector, tail * p.den, degree)


@integer_keyed
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


@integer_keyed
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
