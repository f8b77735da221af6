"""Classical addition and product formulas for Gegenbauer polynomials.

The argument substitution x y + (1-x^2)^{1/2} (1-y^2)^{1/2} t and the
half-integer powers (1-x^2)^{k/2} live in the surd quotient ring, where
u stands for (1-x^2)^{1/2} and v for (1-y^2)^{1/2}.  Canonical-form
equality in that ring is a complete proof of each polynomial identity;
rational point evaluation on the circle is kept as a second, independent
oracle in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classical import X2M1, addition_weight, even_moment, gegenbauer_r, jacobi_r
from .errors import DomainError
from .exact import Monomial, SurdPoly, UniPoly, _surd, integer_keyed, pochhammer

_HALF = Fraction(1, 2)


def _checked(n: int, alpha: Fraction | int) -> Fraction:
    """alpha as a ``Fraction``, after checking that the degree n >= 0 and
    alpha > -1/2: the domain of every check of (n, alpha) below."""
    alpha = Fraction(alpha)
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if 2 * alpha.numerator + alpha.denominator <= 0:
        raise DomainError(f"alpha must exceed -1/2, got {alpha}")
    return alpha


def mixed_argument() -> SurdPoly:
    """The composite argument x y + u v t."""
    x, y, t = (SurdPoly.variable(v) for v in ("x", "y", "t"))
    u, v = SurdPoly.variable("u"), SurdPoly.variable("v")
    return x * y + u * v * t


@integer_keyed
def addition_lhs(n: int, alpha: Fraction) -> SurdPoly:
    """R_n at the composite argument, reduced to canonical form.

    Memoised by the integers of (n, alpha): the addition, product and
    t = 1 checks of (n, alpha) all start from it.
    """
    return mixed_argument().substitute_into(gegenbauer_r(n, _checked(n, alpha)))


def addition_coefficient(n: int, k: int, alpha: Fraction) -> Fraction:
    """The k-th expansion coefficient of the addition formula.

    C(n,k) (n+2 alpha+1)_k times :func:`~polyident.classical.addition_weight`,
    (alpha+k)/(alpha+k/2) (2 alpha+1)_k / (2^{2k} (alpha+1)_k^2).
    """
    return math.comb(n, k) * pochhammer(n + 2 * alpha + 1, k) * addition_weight(k, alpha)


def _rhs(n: int, alpha: Fraction | int, with_t_factor: bool) -> SurdPoly:
    """Sum over k of addition_coefficient(n, k, alpha) u^k v^k
    R_{n-k}^{(alpha+k)}(x) R_{n-k}^{(alpha+k)}(y), times the t-factor
    R_k^{(alpha-1/2)}(t) when asked, in one integer pass.

    u^k = (1-x^2)^{floor(k/2)} u^{k mod 2}: the even power joins the x
    factor P_k = (1-x^2)^{floor(k/2)} R_{n-k}^{(alpha+k)}(x), and likewise
    for v and y, so term k has its numerators on the canonical monomials
    x^i y^j t^c (u v)^{k mod 2}.  The terms are summed over one common
    denominator and reduced once.
    """
    alpha = _checked(n, alpha)
    even_power = UniPoly.one()  # (1-x^2)^{floor(k/2)}
    terms, den = [], 1
    for k in range(n + 1):
        if k and k % 2 == 0:
            even_power = even_power * -X2M1
        coeff = addition_coefficient(n, k, alpha)
        factor = gegenbauer_r(n - k, alpha + k) * even_power
        t_factor = jacobi_r(k, alpha - _HALF, alpha - _HALF) if with_t_factor else UniPoly.one()
        q = coeff.denominator * factor.den**2 * t_factor.den
        terms.append((coeff.numerator, q, factor.nums, t_factor.nums, k % 2))
        den = math.lcm(den, q)
    out: dict[Monomial, int] = {}
    for num, q, xs, ts, e in terms:
        scale = num * (den // q)
        for i, a in enumerate(xs):
            if not a:  # P_k has one parity: every other coefficient is 0
                continue
            for j, b in enumerate(xs):
                if b:
                    ab = scale * a * b
                    for c, t in enumerate(ts):
                        if t:
                            key = (i, j, c, e, e)
                            out[key] = out.get(key, 0) + ab * t
    return _surd(out, den)


def addition_rhs(n: int, alpha: Fraction | int) -> SurdPoly:
    """Expansion side of the addition formula; equals addition_lhs exactly.

    The factor (1-x^2)^{k/2} enters as u^k (reduced canonically), the
    t-dependence through Gegenbauer polynomials of parameter alpha - 1/2.
    """
    return _rhs(n, alpha, with_t_factor=True)


def addition_residual(n: int, alpha: Fraction | int) -> SurdPoly:
    return addition_lhs(n, alpha) - addition_rhs(n, alpha)


def product_formula_residual(n: int, alpha: Fraction | int) -> SurdPoly:
    """R_n(x) R_n(y) minus the normalized t-average of the addition LHS.

    Integration against (1-t^2)^{alpha-1/2} (scaled to mass 1, which is
    exactly the Gamma prefactor of the product formula) maps t^{2k} to
    (1/2)_k/(alpha+1)_k and kills odd powers; the result has no u, v left.
    """
    integral = addition_lhs(n, alpha).map_t_powers(
        lambda c: 0 if c % 2 else even_moment(c // 2, alpha - _HALF)
    )
    product = SurdPoly.from_unipoly(
        gegenbauer_r(n, alpha), "x"
    ) * SurdPoly.from_unipoly(gegenbauer_r(n, alpha), "y")
    return product - integral


def t_one_rhs(n: int, alpha: Fraction | int) -> SurdPoly:
    """Expansion side of the t = 1 addition formula (the t-factor is 1 there)."""
    return _rhs(n, alpha, with_t_factor=False)


def t_one_residual(n: int, alpha: Fraction | int) -> SurdPoly:
    """Substitute t = 1 in the addition LHS and subtract the t = 1 expansion."""
    return addition_lhs(n, alpha).set_t(1) - t_one_rhs(n, alpha)


def _sum_of_squares_pairs(n: int, alpha: Fraction) -> list[tuple[Fraction, UniPoly]]:
    """(addition_coefficient(n,k,alpha), (1-x^2)^k (R_{n-k}^{(alpha+k)}(x))^2)
    for k = 0..n."""
    alpha = _checked(n, alpha)
    one_minus_x2 = -X2M1
    pairs = []
    for k in range(n + 1):
        poly = gegenbauer_r(n - k, alpha + k)
        pairs.append((addition_coefficient(n, k, alpha), one_minus_x2.pow(k) * poly * poly))
    return pairs


def sum_of_squares_terms(n: int, alpha: Fraction) -> list[UniPoly]:
    """Terms of the x = y, t = 1 specialization: a partition of unity.

    Each term is addition_coefficient(n,k,alpha) (1-x^2)^k
    (R_{n-k}^{(alpha+k)}(x))^2; their sum is 1, which bounds |R_n| by 1
    on [-1, 1].
    """
    return [poly.scale(c) for c, poly in _sum_of_squares_pairs(n, alpha)]


def sum_of_squares_residual(n: int, alpha: Fraction) -> UniPoly:
    """1 minus the partition of unity, summed in one integer pass (as the
    partition minus 1, then negated); must be zero."""
    return -UniPoly.combination(((-1, UniPoly.one()), *_sum_of_squares_pairs(n, alpha)))
