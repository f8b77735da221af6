"""Hermite-polynomial identities and exact large-parameter limit checks.

The Gegenbauer identities degenerate, under x -> alpha^{-1/2} x with
suitable alpha-power rescaling, to Hermite-polynomial identities; the
specialized Racah orthogonality degenerates to a biorthogonality of
shifted factorials.  With the indices fixed, every scaled pre-limit
quantity is rational in alpha, so its limit is exact: it is reconstructed
from alpha = 3, 4, 5, ... (:func:`~polyident.exact.limit_at_infinity`),
read off at 1/alpha = 0 and compared with the claimed limit, with no slack.

The sample convention is fraction-free: each builder's quantity takes an
``int`` alpha and returns its components as integer pairs (numerator,
denominator), not necessarily reduced.  A power alpha^{+-a} lands on the
pair's numerator or denominator, the scaled Gegenbauer polynomials scale
their integer numerators, and the pairing of eq30-limit is one integer dot
product over a common denominator.

The Hermite expansions take their index pair (l, m) last and check
l >= m >= 0 themselves; their m+1 product and m+1 linearized blocks are
memoised by (l, m), a tuple of each kind per pair.

The biorthogonality kernel is implemented in two variants: the historical
printed form, which fails (pinned regression: value -1 at (n, k) = (2, 1)),
and the corrected form, which both yields delta_{n,k} and is the literal
matrix composition of the two Hermite expansion formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .classical import gegenbauer_r, hermite
from .dual_addition import _lm_pochhammer, dual_addition_coeffs, specialized_racah
from .errors import DomainError, check_index, check_lm
from .exact import SurdPoly, UniPoly, limit_at_infinity, magnitude, pochhammer, rising_product
from .racah import racah_h0, racah_norm_ratio, racah_weight

_HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def _hermite_at_mixed_argument(n: int) -> SurdPoly:
    """H_n(x y + v t), with v standing for (1-y^2)^{1/2}.

    Memoised by n: the addition and the product check of n both start
    from it.
    """
    x, y, t, v = (SurdPoly.variable(w) for w in ("x", "y", "t", "v"))
    return (x * y + v * t).substitute_into(hermite(n))


def hermite_addition_residual(n: int) -> SurdPoly:
    """H_n(x y + v t) minus its binomial expansion; must be zero.

    The expansion is sum_k C(n,k) H_{n-k}(x) H_k(t) (1-y^2)^{k/2} y^{n-k},
    with (1-y^2)^{k/2} represented as v^k in the surd ring.
    """
    lhs = _hermite_at_mixed_argument(n)
    y, v = SurdPoly.variable("y"), SurdPoly.variable("v")
    rhs = SurdPoly.zero()
    for k in range(n + 1):
        term = SurdPoly.constant(Fraction(math.comb(n, k)))
        term = term * SurdPoly.from_unipoly(hermite(n - k), "x")
        term = term * SurdPoly.from_unipoly(hermite(k), "t")
        term = term * v.pow(k)
        term = term * y.pow(n - k)
        rhs = rhs + term
    return lhs - rhs


def hermite_product_residual(n: int) -> SurdPoly:
    """H_n(x) y^n minus the normalized Gaussian t-average of H_n(x y + v t).

    Gaussian moments: t^{2k} -> (1/2)_k, odd powers -> 0.
    """
    integral = _hermite_at_mixed_argument(n).map_t_powers(
        lambda c: 0 if c % 2 else pochhammer(_HALF, c // 2)
    )
    target = SurdPoly.from_unipoly(hermite(n), "x") * SurdPoly.variable("y").pow(n)
    return target - integral


@lru_cache(maxsize=None)
def _kernel(a: int, b: int) -> Fraction:
    """(-a)_b / a!, the entry of the dual addition kernel and its inverse."""
    return pochhammer(Fraction(-a), b) / math.factorial(a)


# The blocks of (l, m) are formed once per process, m+1 of each kind, so
# eq46, eq47 and eq40-to-eq46 at one (l, m) read the same blocks.


@lru_cache(maxsize=None)
def _linearized_blocks(l: int, m: int) -> tuple[UniPoly, ...]:
    """2^j (-l)_j (-m)_j H_{l+m-2j} for j = 0..m."""
    return tuple(hermite(l + m - 2 * j).scale(2**j * _lm_pochhammer(j, l, m))
                 for j in range(m + 1))


@lru_cache(maxsize=None)
def _product_blocks(l: int, m: int) -> tuple[UniPoly, ...]:
    """(-2)^n (-l)_n (-m)_n H_{l-n} H_{m-n} for n = 0..m."""
    return tuple((hermite(l - n) * hermite(m - n)).scale((-2) ** n * _lm_pochhammer(n, l, m))
                 for n in range(m + 1))


def hermite_dual_addition_term(n: int, j: int, l: int, m: int) -> UniPoly:
    check_lm(l, m)
    return _product_blocks(l, m)[n].scale(_kernel(n, j))


def hermite_dual_addition_residual(j: int, l: int, m: int) -> UniPoly:
    """Dual addition formula for Hermite polynomials; residual must be zero.

        2^j (-l)_j (-m)_j H_{l+m-2j} = sum_{n=j}^m [(-n)_j/n!] (-2)^n
                                       (-l)_n (-m)_n H_{l-n} H_{m-n}.

    The j = 0 case is the classical linearization formula read backwards.
    """
    check_lm(l, m)
    check_index(j, m, "index j")
    products = _product_blocks(l, m)
    # summed as rhs - lhs and negated: negating one UniPoly costs less than
    # negating each Fraction kernel
    return -UniPoly.combination((
        (-1, _linearized_blocks(l, m)[j]),
        # the kernel (-n)_j/n! is 0 for n < j
        *((_kernel(n, j), products[n]) for n in range(j, m + 1)),
    ))


def hermite_dual_inverse_residual(n: int, l: int, m: int) -> UniPoly:
    """Inverse expansion; residual must be zero.

        sum_{j=n}^m [(-j)_n/j!] 2^j (-l)_j (-m)_j H_{l+m-2j}
            = (-2)^n (-l)_n (-m)_n H_{l-n} H_{m-n}.

    The n = 0 case is the Hermite linearization formula.
    """
    check_lm(l, m)
    check_index(n, m, "index n")
    linearized = _linearized_blocks(l, m)
    return UniPoly.combination((
        # the kernel (-j)_n/j! is 0 for j < n
        *((_kernel(j, n), linearized[j]) for j in range(n, m + 1)),
        (-1, _product_blocks(l, m)[n]),
    ))


def biorthogonality_value(n: int, k: int, kernel: str = "corrected") -> Fraction:
    """Finite biorthogonality sum for shifted factorials.

    kernel="as-printed": sum_j [(-n)_j/n!] [(-j)_k/k!], the historical form,
    which does NOT give delta_{n,k} (it yields -1 at (2, 1)).
    kernel="corrected": sum_j [(-j)_n/j!] [(-k)_j/k!], which gives
    delta_{n,k} and is the kernel actually composing the dual addition
    formula with its inverse.

    Either sum is one integer sum over one denominator, formed as a
    ``Fraction`` once: the printed terms are (-n)_j (-j)_k over n! k!, the
    corrected ones (-j)_n (-k)_j top!/j! over top! k!, with top = max(n, k).
    Only j with both shifted factorials nonzero is summed: k <= j <= n for
    the printed kernel, n <= j <= k for the corrected one.
    """
    if n < 0 or k < 0:
        raise DomainError("indices must be >= 0")
    if kernel == "as-printed":
        num = sum(rising_product(-n, 1, j) * rising_product(-j, 1, k) for j in range(k, n + 1))
        return Fraction(num, math.factorial(n) * math.factorial(k))
    if kernel == "corrected":
        top = max(n, k)
        num = sum(rising_product(-j, 1, n) * rising_product(-k, 1, j)
                  * rising_product(j + 1, 1, top - j) for j in range(n, k + 1))
        return Fraction(num, math.factorial(top) * math.factorial(k))
    raise DomainError(f"unknown kernel {kernel!r}")


def _scaled_numerators(poly: UniPoly, k: int, alpha: int) -> list[int]:
    """The numerators, over ``poly.den``, of alpha^{k/2} poly(alpha^{-1/2} x)
    for a polynomial of parity k and degree at most k.

    Parity makes every alpha exponent an integer: the x^i numerator picks
    up alpha^{(k-i)/2} with k - i even.
    """
    return [c * alpha ** ((k - i) // 2) if c else 0 for i, c in enumerate(poly.nums)]


#: a component of a sampled quantity: (numerator, denominator), unreduced
Pair = tuple[int, int]


class LimitClaim(NamedTuple):
    """A limit builder's output: ``quantity``, an int alpha -> its components
    as integer pairs, tends to ``claimed`` after ``assemble`` turns the
    components' limits into values."""

    quantity: Callable[[int], tuple[Pair, ...]]
    claimed: tuple
    assemble: Callable[[tuple[Fraction, ...]], tuple] = tuple


def _point(x: Fraction | None, target: str) -> Fraction:
    if x is None:
        raise DomainError(f"{target} needs an evaluation point x")
    return x


def _lm(idx: Mapping[str, int], *names: str) -> tuple[int, int]:
    """(l, m), after checking l >= m >= 0 and each named index lies in 0..m."""
    l, m = idx["l"], idx["m"]
    check_lm(l, m)
    for name in names:
        check_index(idx[name], m, f"index {name}")
    return l, m


def _budget(*indices: int) -> int:
    """Values of alpha to try: over twice what any record at l, m <= 8 needs."""
    return 8 + 4 * sum(indices)


def _eq52(idx, x) -> LimitClaim:
    n, x = idx["n"], _point(x, "eq52")
    p, q = x.numerator, x.denominator

    def quantity(alpha):
        # at x = p/q the x^i term is c_i alpha^{(n-i)/2} p^i q^{n-i} / q^n,
        # and alpha^{(n-i)/2} q^{n-i} = (alpha q^2)^{(n-i)/2} by parity
        poly = gegenbauer_r(n, alpha)
        scale = alpha * q * q
        return ((sum(c * p**i * scale ** ((n - i) // 2) for i, c in enumerate(poly.nums) if c),
                 poly.den * q**n),)

    return LimitClaim(quantity, (hermite(n)(x) / 2**n,))


def _eq53(idx, x) -> LimitClaim:
    n, x = idx["n"], _point(x, "eq53")

    def quantity(alpha):
        poly = gegenbauer_r(n, alpha)
        return ((poly.numerator_at(x.numerator, x.denominator),
                 poly.den * x.denominator ** poly.degree),)

    return LimitClaim(quantity, (Fraction(x) ** n,))


def _eq54(scaled: str):
    """alpha^{-a} R_n(j) -> 2^a (-b)_a/((-l)_a (-m)_a), where a is the
    ``scaled`` index (j or n) and b the other one."""

    def build(idx, x) -> LimitClaim:
        l, m = _lm(idx, "n", "j")
        n, j = idx["n"], idx["j"]
        a, b = (j, n) if scaled == "j" else (n, j)
        claimed = Fraction(2**a * rising_product(-b, 1, a), _lm_pochhammer(a, l, m))

        def quantity(alpha):
            value = specialized_racah(alpha, l, m).values[n][j]
            return ((value.numerator, value.denominator * alpha**a),)

        return LimitClaim(quantity, (claimed,))

    return build


def _eq55(idx, x) -> LimitClaim:
    (l, m), j = _lm(idx, "j"), idx["j"]
    claimed = Fraction(_lm_pochhammer(j, l, m), 2**j * math.factorial(j))

    def quantity(alpha):
        weight = racah_weight(j, specialized_racah(alpha, l, m))
        return ((weight.numerator * alpha**j, weight.denominator),)

    return LimitClaim(quantity, (claimed,))


def _norm_limit(n: int, l: int, m: int) -> Fraction:
    """2^n n!/((-l)_n (-m)_n), the limit of alpha^{-n} h_n."""
    return Fraction(2**n * math.factorial(n), _lm_pochhammer(n, l, m))


def _eq56(idx, x) -> LimitClaim:
    (l, m), n = _lm(idx, "n"), idx["n"]

    def quantity(alpha):
        sys = specialized_racah(alpha, l, m)
        h0, ratio = racah_h0(sys), racah_norm_ratio(n, sys)
        return ((h0.numerator * ratio.numerator, h0.denominator * ratio.denominator * alpha**n),)

    return LimitClaim(quantity, (_norm_limit(n, l, m),))


def _eq30_limit(idx, x) -> LimitClaim:
    """alpha^{-n} sum_j [w(j)/h_0] R_n(j) R_k(j) -> delta_{n,k} 2^n n!/((-l)_n (-m)_n),
    the diagonal of the corrected-kernel pairing."""
    l, m = _lm(idx, "n", "k")
    n, k = idx["n"], idx["k"]

    def quantity(alpha):
        # sum_j w(j) R_n(j) R_k(j) as one integer dot product over the lcm of
        # its terms' denominators
        sys = specialized_racah(alpha, l, m)
        values, h0 = sys.values, racah_h0(sys)
        terms = []
        for j, (u, v) in enumerate(zip(values[n], values[k])):
            w = racah_weight(j, sys)
            terms.append((w.numerator * u.numerator * v.numerator,
                          w.denominator * u.denominator * v.denominator))
        den = math.lcm(*(d for _, d in terms))
        num = sum(t * (den // d) for t, d in terms)
        return ((num * h0.denominator, den * h0.numerator * alpha**n),)

    return LimitClaim(quantity, (_norm_limit(n, l, m) if n == k else Fraction(0),))


@lru_cache(maxsize=None)
def _scaled_gegenbauer_limit(k: int, shift: int) -> UniPoly:
    """The limit of alpha^{k/2} R_k^{(alpha+shift)}(alpha^{-1/2} x), coefficient
    by coefficient."""

    def quantity(alpha):
        poly = gegenbauer_r(k, alpha + shift)
        return [(c, poly.den) for c in _scaled_numerators(poly, k, alpha)]

    return UniPoly(limit_at_infinity(quantity, _budget(k, shift))[0])


def _eq40_to_eq46(idx, x) -> LimitClaim:
    """The dual addition formula's own limit to its Hermite counterpart.

    The expansion of R_{l+m-2j}, times rescale alpha^{(l+m)/2 - j}, at
    alpha^{-1/2} x: its n-th term is rescale alpha^{n-j} c_n (c_n its dual
    addition coefficient; the record's points are theirs) times two scaled
    Gegenbauer polynomials with parameter alpha + n, reconstructed once,
    and (x^2/alpha - 1)^n -> (-1)^n.
    """
    (l, m), j = _lm(idx, "j"), idx["j"]
    rescale = 2 ** (l + m - j) * _lm_pochhammer(j, l, m)

    def scalars(alpha):
        coeffs = dual_addition_coeffs(j, alpha, l, m)
        return tuple((rescale * c.numerator * alpha ** max(n - j, 0),
                      c.denominator * alpha ** max(j - n, 0)) for n, c in enumerate(coeffs))

    def assemble(limits):
        factor = _scaled_gegenbauer_limit
        terms = ((factor(l - n, n) * factor(m - n, n)).scale((-1) ** n * c)
                 for n, c in enumerate(limits))
        return (factor(l + m - 2 * j, 0).scale(rescale), *terms)

    hermite_terms = (hermite_dual_addition_term(n, j, l, m) for n in range(m + 1))
    return LimitClaim(scalars, (_linearized_blocks(l, m)[j], *hermite_terms), assemble)


#: target id -> (description of the limit, builder of its claim)
_LIMITS: dict[str, tuple[str, Callable[..., LimitClaim]]] = {
    "eq52": ("2^{-n} H_n(x) from alpha^{n/2} R_n(alpha^{-1/2} x)", _eq52),
    "eq53": ("x^n from R_n^{(alpha,alpha)}(x)", _eq53),
    "eq54j": ("2^j (-n)_j/((-l)_j (-m)_j) from alpha^{-j} * Racah value", _eq54("j")),
    "eq54n": ("2^n (-j)_n/((-l)_n (-m)_n) from alpha^{-n} * Racah value", _eq54("n")),
    "eq55": ("(-l)_j (-m)_j/(2^j j!) from alpha^j * weight", _eq55),
    "eq56": ("2^n n!/((-l)_n (-m)_n) from alpha^{-n} * squared norm", _eq56),
    "eq30-limit": (
        "delta_{n,k}-weighted pairing of the corrected biorthogonality "
        "kernel sum_j [(-j)_n/j!][(-k)_j/k!]",
        _eq30_limit,
    ),
    "eq40-to-eq46": ("Hermite dual addition terms from the rescaled expansion", _eq40_to_eq46),
}


def limit_rate_check(
    target: str, indices: Mapping[str, int], x: Fraction | None = None
) -> tuple[Fraction, int, str]:
    """The exact limit of ``target``'s scaled quantity against its claim:
    the largest |limit - claimed limit|, the samples of alpha it took and
    the description of the limit.

    ``indices`` carries the indices the target needs: n and a rational
    evaluation point x for eq52/eq53; n, j, l, m for eq54j/eq54n; j, l, m
    for eq55 and eq40-to-eq46; n, l, m for eq56; n, k, l, m for eq30-limit.
    """
    if target not in _LIMITS:
        raise DomainError(f"unknown limit target {target!r}")
    description, build = _LIMITS[target]
    claim = build(dict(indices), x)
    limits, points = limit_at_infinity(claim.quantity, _budget(*indices.values()))
    residual = max(
        magnitude(value - claimed)
        for value, claimed in zip(claim.assemble(limits), claim.claimed, strict=True)
    )
    return residual, points, description
