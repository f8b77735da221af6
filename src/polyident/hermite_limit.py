"""Hermite-polynomial identities and exact large-parameter limit checks.

The Gegenbauer identities degenerate, under x -> alpha^{-1/2} x with
suitable alpha-power rescaling, to Hermite-polynomial identities; the
specialized Racah orthogonality degenerates to a biorthogonality of
shifted factorials.  Every pre-limit quantity is rational in alpha, so
the limits are checked in exact arithmetic on the dyadic sequence
alpha = 2^s: a first-order O(1/alpha) approach forces each deviation to
at most 0.6 times its predecessor when alpha doubles.  For the targets
indexed by l and m that regime starts near alpha = 2 (l+m)^2, so their
decay is judged from the first alpha = 2^s at or above it.

The biorthogonality kernel is implemented in two variants: the historical
printed form, which fails (pinned regression: value -1 at (n, k) = (2, 1)),
and the corrected form, which both yields delta_{n,k} and is the literal
matrix composition of the two Hermite expansion formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .classical import gegenbauer_r, hermite
from .dual_addition import DualSetting, dual_addition_term, specialized_racah
from .errors import DomainError, LimitViolationError, check_index
from .exact import SurdPoly, UniPoly, pochhammer
from .racah import racah_eval, racah_h0, racah_norm_ratio, racah_weight

_HALF = Fraction(1, 2)
DECAY_RATIO = Fraction(6, 10)  # 0.5 + 0.1 slack per doubling of alpha


@dataclass(frozen=True)
class HermiteSetting:
    """Index pair (l, m) with l >= m >= 0."""

    l: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.l:
            raise DomainError(f"need l >= m >= 0, got l={self.l}, m={self.m}")


def _hermite_at_mixed_argument(n: int) -> SurdPoly:
    """H_n(x y + v t), with v standing for (1-y^2)^{1/2}."""
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


def _lm_pochhammer(s: HermiteSetting, k: int) -> Fraction:
    """(-l)_k (-m)_k."""
    return pochhammer(Fraction(-s.l), k) * pochhammer(Fraction(-s.m), k)


def _kernel(a: int, b: int) -> Fraction:
    """(-a)_b / a!, the entry of the dual addition kernel and its inverse."""
    return pochhammer(Fraction(-a), b) / math.factorial(a)


def _linearized_block(j: int, s: HermiteSetting) -> UniPoly:
    """2^j (-l)_j (-m)_j H_{l+m-2j}."""
    return hermite(s.l + s.m - 2 * j).scale(2**j * _lm_pochhammer(s, j))


def _product_block(n: int, s: HermiteSetting) -> UniPoly:
    """(-2)^n (-l)_n (-m)_n H_{l-n} H_{m-n}."""
    return (hermite(s.l - n) * hermite(s.m - n)).scale((-2) ** n * _lm_pochhammer(s, n))


def hermite_dual_addition_term(n: int, j: int, s: HermiteSetting) -> UniPoly:
    return _product_block(n, s).scale(_kernel(n, j))


def hermite_dual_addition_residual(j: int, s: HermiteSetting) -> UniPoly:
    """Dual addition formula for Hermite polynomials; residual must be zero.

        2^j (-l)_j (-m)_j H_{l+m-2j} = sum_{n=j}^m [(-n)_j/n!] (-2)^n
                                       (-l)_n (-m)_n H_{l-n} H_{m-n}.

    The j = 0 case is the classical linearization formula read backwards.
    """
    check_index(j, s.m, "index j")
    rhs = UniPoly.zero()
    for n in range(s.m + 1):
        rhs = rhs + hermite_dual_addition_term(n, j, s)
    return _linearized_block(j, s) - rhs


def hermite_dual_inverse_residual(n: int, s: HermiteSetting) -> UniPoly:
    """Inverse expansion; residual must be zero.

        sum_{j=n}^m [(-j)_n/j!] 2^j (-l)_j (-m)_j H_{l+m-2j}
            = (-2)^n (-l)_n (-m)_n H_{l-n} H_{m-n}.

    The n = 0 case is the Hermite linearization formula.
    """
    check_index(n, s.m, "index n")
    lhs = UniPoly.zero()
    for j in range(s.m + 1):
        lhs = lhs + _linearized_block(j, s).scale(_kernel(j, n))
    return lhs - _product_block(n, s)


def biorthogonality_value(n: int, k: int, kernel: str = "corrected") -> Fraction:
    """Finite biorthogonality sum for shifted factorials.

    kernel="as-printed": sum_j [(-n)_j/n!] [(-j)_k/k!], the historical form,
    which does NOT give delta_{n,k} (it yields -1 at (2, 1)).
    kernel="corrected": sum_j [(-j)_n/j!] [(-k)_j/k!], which gives
    delta_{n,k} and is the kernel actually composing the dual addition
    formula with its inverse.
    """
    if n < 0 or k < 0:
        raise DomainError("indices must be >= 0")
    js = range(max(n, k) + 1)
    if kernel == "as-printed":
        terms = (_kernel(n, j) * pochhammer(Fraction(-j), k) / math.factorial(k) for j in js)
    elif kernel == "corrected":
        terms = (_kernel(j, n) * _kernel(k, j) for j in js)
    else:
        raise DomainError(f"unknown kernel {kernel!r}")
    return sum(terms, Fraction(0))


@dataclass
class LimitReport:
    """Scaled deviations of a pre-limit quantity along a dyadic alpha sequence."""

    target: str
    indices: dict
    limit_description: str
    alphas: list[Fraction] = field(default_factory=list)
    deviations: list[Fraction] = field(default_factory=list)

    @property
    def excess(self) -> Fraction:
        """Worst breach of the dyadic decay, 0 when every step decays: a
        ratio's excess over DECAY_RATIO, or the deviation after a zero one."""
        worst = Fraction(0)
        for earlier, later in zip(self.deviations, self.deviations[1:]):
            if later > DECAY_RATIO * earlier:
                worst = max(worst, later if earlier == 0 else later / earlier - DECAY_RATIO)
        return worst

    @property
    def passed(self) -> bool:
        return self.excess == 0

    def require_decay(self) -> "LimitReport":
        if not self.passed:
            pairs = [
                (str(a), str(d)) for a, d in zip(self.alphas, self.deviations)
            ]
            raise LimitViolationError(
                f"deviation sequence for {self.target} {self.indices} "
                f"fails the {DECAY_RATIO} dyadic decay: {pairs}"
            )
        return self


def alpha_scaled(poly: UniPoly, k: int, alpha: Fraction) -> UniPoly:
    """alpha^{k/2} poly(alpha^{-1/2} x) for a polynomial of parity k.

    Parity makes every alpha exponent an integer: the x^i coefficient picks
    up alpha^{(k-i)/2} with k - i even.
    """
    return UniPoly(c * alpha ** ((k - i) // 2) for i, c in enumerate(poly.coeffs))


# -- dyadic limit checks: each builder takes the indices (and the evaluation
# point x, for eq52 and eq53) and returns the deviation as a function of
# alpha; it computes the alpha-independent limit once.

Deviation = Callable[[Fraction], Fraction]


def _point(x: Fraction | None, target: str) -> Fraction:
    if x is None:
        raise DomainError(f"{target} needs an evaluation point x")
    return x


def _setting(idx: Mapping[str, int], *names: str) -> HermiteSetting:
    """HermiteSetting(l, m), after checking each named index lies in 0..m."""
    s = HermiteSetting(idx["l"], idx["m"])
    for name in names:
        check_index(idx[name], s.m, f"index {name}")
    return s


def _system(alpha: Fraction, s: HermiteSetting):
    return specialized_racah(DualSetting(alpha=alpha, l=s.l, m=s.m))


def _eq52(idx, x) -> Deviation:
    n, x = idx["n"], _point(x, "eq52")
    limit = hermite(n)(x) / 2**n
    return lambda alpha: abs(alpha_scaled(gegenbauer_r(n, alpha), n, alpha)(x) - limit)


def _eq53(idx, x) -> Deviation:
    n, x = idx["n"], _point(x, "eq53")
    limit = Fraction(x) ** n
    return lambda alpha: abs(gegenbauer_r(n, alpha)(x) - limit)


def _eq54(scaled: str):
    """alpha^{-a} R_n(j) -> 2^a (-b)_a/((-l)_a (-m)_a), where a is the
    ``scaled`` index (j or n) and b the other one."""

    def build(idx, x) -> Deviation:
        s = _setting(idx, "n", "j")
        n, j = idx["n"], idx["j"]
        a, b = (j, n) if scaled == "j" else (n, j)
        limit = 2**a * pochhammer(Fraction(-b), a) / _lm_pochhammer(s, a)
        return lambda alpha: abs(alpha**-a * racah_eval(n, j, _system(alpha, s)) - limit)

    return build


def _eq55(idx, x) -> Deviation:
    s, j = _setting(idx, "j"), idx["j"]
    limit = _lm_pochhammer(s, j) / (2**j * math.factorial(j))
    return lambda alpha: abs(alpha**j * racah_weight(j, _system(alpha, s)) - limit)


def _norm_limit(n: int, s: HermiteSetting) -> Fraction:
    """2^n n!/((-l)_n (-m)_n), the limit of alpha^{-n} h_n."""
    return 2**n * math.factorial(n) / _lm_pochhammer(s, n)


def _eq56(idx, x) -> Deviation:
    s, n = _setting(idx, "n"), idx["n"]
    limit = _norm_limit(n, s)

    def deviation(alpha):
        sys = _system(alpha, s)
        return abs(alpha**-n * racah_h0(sys) * racah_norm_ratio(n, sys) - limit)

    return deviation


def _eq30_limit(idx, x) -> Deviation:
    """alpha^{-n} sum_j [w(j)/h_0] R_n(j) R_k(j) -> delta_{n,k} 2^n n!/((-l)_n (-m)_n),
    the diagonal of the corrected-kernel pairing."""
    s = _setting(idx, "n", "k")
    n, k = idx["n"], idx["k"]
    limit = _norm_limit(n, s) if n == k else Fraction(0)

    def deviation(alpha):
        sys = _system(alpha, s)
        h0 = racah_h0(sys)
        value = sum(
            racah_weight(j, sys) / h0 * racah_eval(n, j, sys) * racah_eval(k, j, sys)
            for j in range(s.m + 1)
        )
        return abs(alpha**-n * value - limit)

    return deviation


def _eq40_to_eq46(idx, x) -> Deviation:
    """The dual addition formula's own limit to its Hermite counterpart.

    The expansion of R_{l+m-2j} is multiplied by
    2^{l+m} (-l)_j (-m)_j 2^{-j} alpha^{(l+m-2j)/2} and x is replaced by
    alpha^{-1/2} x; the deviation is the largest coefficient deviation of
    the left-hand side and of each term from their Hermite counterparts.
    """
    s = _setting(idx, "j")
    j, degree = idx["j"], s.l + s.m - 2 * idx["j"]
    rescale = 2 ** (s.l + s.m - j) * _lm_pochhammer(s, j)
    lhs_limit = _linearized_block(j, s)
    term_limits = [hermite_dual_addition_term(n, j, s) for n in range(s.m + 1)]

    def deviation(alpha):
        dual = DualSetting(alpha=alpha, l=s.l, m=s.m)
        lhs = alpha_scaled(gegenbauer_r(degree, alpha), degree, alpha).scale(rescale)
        dev = (lhs - lhs_limit).max_abs_coeff()
        for n, limit in enumerate(term_limits):
            term = alpha_scaled(dual_addition_term(n, j, dual), s.l + s.m, alpha)
            dev = max(dev, (term.scale(rescale * alpha**-j) - limit).max_abs_coeff())
        return dev

    return deviation


#: target id -> (description of the limit, builder of its deviation)
_LIMITS: dict[str, tuple[str, Callable[..., Deviation]]] = {
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
    target: str,
    indices: Mapping[str, int],
    alpha_powers: Sequence[int],
    x: Fraction | None = None,
) -> LimitReport:
    """Exact scaled deviations of ``target`` at alpha = 2^s.

    ``indices`` carries the indices the target needs: n and a rational
    evaluation point x for eq52/eq53; n, j, l, m for eq54j/eq54n; j, l, m
    for eq55 and eq40-to-eq46; n, l, m for eq56; n, k, l, m for eq30-limit.
    Only the powers with 2^s >= 2 (l+m)^2 are evaluated (all of them for
    eq52 and eq53), and at least two must be left, else DomainError.
    The report is returned whether or not the deviations decay; call
    :meth:`LimitReport.require_decay` to raise on a violation.
    """
    if target not in _LIMITS:
        raise DomainError(f"unknown limit target {target!r}")
    if any(a >= b for a, b in zip(alpha_powers, alpha_powers[1:])):
        raise DomainError("alpha powers must be strictly increasing")
    description, build = _LIMITS[target]
    idx = dict(indices)
    onset = 2 * (idx["l"] + idx["m"]) ** 2 if "l" in idx else 0
    powers = [s_pow for s_pow in alpha_powers if 2**s_pow >= onset]
    if len(powers) < 2:
        raise DomainError(
            f"{target} at {idx} needs two alpha powers with 2^s >= {onset}, "
            f"got {tuple(alpha_powers)}"
        )
    deviation = build(idx, x)
    report = LimitReport(
        target=target,
        indices=dict(idx, **({"x": str(x)} if x is not None else {})),
        limit_description=description,
    )
    for s_pow in powers:
        alpha = Fraction(2**s_pow)
        report.alphas.append(alpha)
        report.deviations.append(deviation(alpha))
    return report
