"""Hermite-polynomial identities and exact large-parameter limit checks.

The Gegenbauer identities degenerate, under x -> alpha^{-1/2} x with
suitable alpha-power rescaling, to Hermite-polynomial identities; the
specialized Racah orthogonality degenerates to a biorthogonality of
shifted factorials.  Every pre-limit quantity is rational in alpha, so
the limits are checked in exact arithmetic on the dyadic sequence
alpha = 2^s: a first-order O(1/alpha) approach forces each deviation to
at most 0.6 times its predecessor when alpha doubles.

The biorthogonality kernel is implemented in two variants: the historical
printed form, which fails (pinned regression: value -1 at (n, k) = (2, 1)),
and the corrected form, which both yields delta_{n,k} and is the literal
matrix composition of the two Hermite expansion formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .classical import gegenbauer_r, hermite
from .dual_addition import DualSetting, dual_addition_coeff, specialized_racah
from .errors import DomainError, LimitViolationError
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


def hermite_addition_residual(n: int) -> SurdPoly:
    """H_n(x y + v t) minus its binomial expansion; must be zero.

    The expansion is sum_k C(n,k) H_{n-k}(x) H_k(t) (1-y^2)^{k/2} y^{n-k},
    with (1-y^2)^{k/2} represented as v^k in the surd ring.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    x, y, t, v = (SurdPoly.variable(w) for w in ("x", "y", "t", "v"))
    lhs = (x * y + v * t).substitute_into(hermite(n))
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
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    x, y, t, v = (SurdPoly.variable(w) for w in ("x", "y", "t", "v"))
    lhs = (x * y + v * t).substitute_into(hermite(n))
    integral = lhs.map_t_powers(lambda c: 0 if c % 2 else pochhammer(_HALF, c // 2))
    target = SurdPoly.from_unipoly(hermite(n), "x") * y.pow(n)
    return target - integral


def _check_range(i: int, hi: int, what: str) -> None:
    if not 0 <= i <= hi:
        raise DomainError(f"{what} must lie in 0..{hi}, got {i}")


def hermite_dual_addition_term(n: int, j: int, s: HermiteSetting) -> UniPoly:
    l, m = s.l, s.m
    coeff = (
        pochhammer(Fraction(-n), j)
        / math.factorial(n)
        * Fraction((-2) ** n)
        * pochhammer(Fraction(-l), n)
        * pochhammer(Fraction(-m), n)
    )
    return (hermite(l - n) * hermite(m - n)).scale(coeff)


def hermite_dual_addition_residual(j: int, s: HermiteSetting) -> UniPoly:
    """Dual addition formula for Hermite polynomials; residual must be zero.

        2^j (-l)_j (-m)_j H_{l+m-2j} = sum_{n=j}^m [(-n)_j/n!] (-2)^n
                                       (-l)_n (-m)_n H_{l-n} H_{m-n}.

    The j = 0 case is the classical linearization formula read backwards.
    """
    _check_range(j, s.m, "index j")
    l, m = s.l, s.m
    lhs = hermite(l + m - 2 * j).scale(
        Fraction(2**j) * pochhammer(Fraction(-l), j) * pochhammer(Fraction(-m), j)
    )
    rhs = UniPoly.zero()
    for n in range(s.m + 1):
        rhs = rhs + hermite_dual_addition_term(n, j, s)
    return lhs - rhs


def hermite_dual_inverse_residual(n: int, s: HermiteSetting) -> UniPoly:
    """Inverse expansion; residual must be zero.

        sum_{j=n}^m [(-j)_n/j!] 2^j (-l)_j (-m)_j H_{l+m-2j}
            = (-2)^n (-l)_n (-m)_n H_{l-n} H_{m-n}.

    The n = 0 case is the Hermite linearization formula.
    """
    _check_range(n, s.m, "index n")
    l, m = s.l, s.m
    lhs = UniPoly.zero()
    for j in range(s.m + 1):
        c = (
            pochhammer(Fraction(-j), n)
            / math.factorial(j)
            * Fraction(2**j)
            * pochhammer(Fraction(-l), j)
            * pochhammer(Fraction(-m), j)
        )
        lhs = lhs + hermite(l + m - 2 * j).scale(c)
    rhs = (hermite(l - n) * hermite(m - n)).scale(
        Fraction((-2) ** n) * pochhammer(Fraction(-l), n) * pochhammer(Fraction(-m), n)
    )
    return lhs - rhs


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
    total = Fraction(0)
    if kernel == "as-printed":
        for j in range(max(n, k) + 1):
            total += (
                pochhammer(Fraction(-n), j)
                / math.factorial(n)
                * pochhammer(Fraction(-j), k)
                / math.factorial(k)
            )
    elif kernel == "corrected":
        for j in range(max(n, k) + 1):
            total += (
                pochhammer(Fraction(-j), n)
                / math.factorial(j)
                * pochhammer(Fraction(-k), j)
                / math.factorial(k)
            )
    else:
        raise DomainError(f"unknown kernel {kernel!r}")
    return total


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


def alpha_scaled_gegenbauer(k: int, param: Fraction, alpha: Fraction) -> UniPoly:
    """alpha^{k/2} R_k^{(param,param)}(alpha^{-1/2} x) as an exact polynomial.

    Parity makes every alpha exponent an integer: the x^i coefficient picks
    up alpha^{(k-i)/2} with k - i even.
    """
    base = gegenbauer_r(k, param)
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(k + 1):
        c = base.coeff(i)
        if c != 0:
            coeffs[i] = c * alpha ** ((k - i) // 2)
    return UniPoly(coeffs)


def _spec_system(alpha: Fraction, l: int, m: int):
    return specialized_racah(DualSetting(alpha=alpha, l=l, m=m))


def _limit_targets(target: str, idx: Mapping[str, int]) -> Fraction:
    l, m = idx.get("l", 0), idx.get("m", 0)
    n, j = idx.get("n", 0), idx.get("j", 0)
    if target in ("eq54j", "eq54n"):
        a, b = (j, n) if target == "eq54j" else (n, j)
        return (
            Fraction(2**a)
            * pochhammer(Fraction(-b), a)
            / (pochhammer(Fraction(-l), a) * pochhammer(Fraction(-m), a))
        )
    if target == "eq55":
        return (
            pochhammer(Fraction(-l), j)
            * pochhammer(Fraction(-m), j)
            / (Fraction(2**j) * math.factorial(j))
        )
    if target == "eq56":
        return (
            Fraction(2**n)
            * math.factorial(n)
            / (pochhammer(Fraction(-l), n) * pochhammer(Fraction(-m), n))
        )
    raise DomainError(f"unknown limit target {target!r}")


_DESCRIPTIONS = {
    "eq52": "2^{-n} H_n(x) from alpha^{n/2} R_n(alpha^{-1/2} x)",
    "eq53": "x^n from R_n^{(alpha,alpha)}(x)",
    "eq54j": "2^j (-n)_j/((-l)_j (-m)_j) from alpha^{-j} * Racah value",
    "eq54n": "2^n (-j)_n/((-l)_n (-m)_n) from alpha^{-n} * Racah value",
    "eq55": "(-l)_j (-m)_j/(2^j j!) from alpha^j * weight",
    "eq56": "2^n n!/((-l)_n (-m)_n) from alpha^{-n} * squared norm",
}


def limit_rate_check(
    target: str,
    indices: Mapping[str, int],
    alpha_powers: Sequence[int],
    x: Fraction | None = None,
    raise_on_failure: bool = True,
) -> LimitReport:
    """Exact scaled deviations at alpha = 2^s; raises on decay violation.

    ``indices`` carries the indices the target needs (n for eq52/eq53 plus
    a rational evaluation point x; n, j, l, m for eq54*; j, l, m for eq55;
    n, l, m for eq56).  With raise_on_failure=False the report is returned
    for inspection even when the decay criterion fails.
    """
    if list(alpha_powers) != sorted(set(alpha_powers)):
        raise DomainError("alpha powers must be strictly increasing")
    idx = dict(indices)
    report = LimitReport(
        target=target,
        indices=dict(idx, **({"x": str(x)} if x is not None else {})),
        limit_description=_DESCRIPTIONS.get(target, target),
    )
    n = idx.get("n", 0)
    for s_pow in alpha_powers:
        alpha = Fraction(2**s_pow)
        if target == "eq52":
            if x is None:
                raise DomainError("eq52 needs an evaluation point x")
            value = alpha_scaled_gegenbauer(n, alpha, alpha)(x)
            dev = abs(value - hermite(n)(x) / Fraction(2**n))
        elif target == "eq53":
            if x is None:
                raise DomainError("eq53 needs an evaluation point x")
            dev = abs(gegenbauer_r(n, alpha)(x) - Fraction(x) ** n)
        elif target in ("eq54j", "eq54n"):
            l, m, j = idx["l"], idx["m"], idx["j"]
            sys = _spec_system(alpha, l, m)
            value = racah_eval(n, j, sys)
            power = -j if target == "eq54j" else -n
            dev = abs(alpha**power * value - _limit_targets(target, idx))
        elif target == "eq55":
            l, m, j = idx["l"], idx["m"], idx["j"]
            sys = _spec_system(alpha, l, m)
            dev = abs(alpha**j * racah_weight(j, sys) - _limit_targets(target, idx))
        elif target == "eq56":
            l, m = idx["l"], idx["m"]
            sys = _spec_system(alpha, l, m)
            h_n = racah_h0(sys) * racah_norm_ratio(n, sys)
            dev = abs(alpha ** (-n) * h_n - _limit_targets(target, idx))
        else:
            raise DomainError(f"unknown limit target {target!r}")
        report.alphas.append(alpha)
        report.deviations.append(dev)
    return report.require_decay() if raise_on_failure else report


def racah_to_biorthogonality_limit(
    n: int,
    k: int,
    l: int,
    m: int,
    alpha_powers: Sequence[int],
    raise_on_failure: bool = True,
) -> LimitReport:
    """Rescaled Racah orthogonality sum degenerating to the biorthogonality.

    The quantity alpha^{-n} sum_j [w(j)/h_0] R_n(j) R_k(j) converges to
    delta_{n,k} 2^n n!/((-l)_n (-m)_n), which is the diagonal of the
    corrected-kernel pairing; deviations must decay dyadically.
    """
    if not (0 <= n <= m and 0 <= k <= m and m <= l):
        raise DomainError("need n, k <= m <= l")
    target = _limit_targets("eq56", {"n": n, "l": l, "m": m}) if n == k else Fraction(0)
    report = LimitReport(
        target="eq30-limit",
        indices={"n": n, "k": k, "l": l, "m": m},
        limit_description=(
            "delta_{n,k}-weighted pairing of the corrected biorthogonality "
            "kernel sum_j [(-j)_n/j!][(-k)_j/k!]"
        ),
    )
    for s_pow in alpha_powers:
        alpha = Fraction(2**s_pow)
        sys = _spec_system(alpha, l, m)
        h0 = racah_h0(sys)
        value = sum(
            racah_weight(j, sys) / h0 * racah_eval(n, j, sys) * racah_eval(k, j, sys)
            for j in range(m + 1)
        )
        report.alphas.append(alpha)
        report.deviations.append(abs(alpha ** (-n) * value - target))
    return report.require_decay() if raise_on_failure else report


def _scaled_dual_addition_term(
    n: int, j: int, l: int, m: int, alpha: Fraction, rescale: Fraction
) -> UniPoly:
    """One term of the rescaled dual addition expansion, exactly in alpha.

    The whole expansion is multiplied by rescale * alpha^{(l+m-2j)/2} and x
    is replaced by alpha^{-1/2} x; all alpha powers combine to integers.
    """
    coeff = (
        dual_addition_coeff(n, j, DualSetting(alpha=alpha, l=l, m=m))
        * alpha ** (-j)
        * rescale
    )
    x2_minus_alpha = UniPoly((-alpha, Fraction(0), Fraction(1)))
    poly = (
        alpha_scaled_gegenbauer(l - n, alpha + n, alpha)
        * alpha_scaled_gegenbauer(m - n, alpha + n, alpha)
        * x2_minus_alpha.pow(n)
    )
    return poly.scale(coeff)


def dual_addition_hermite_limit(
    j: int,
    l: int,
    m: int,
    alpha_powers: Sequence[int],
    raise_on_failure: bool = True,
) -> LimitReport:
    """The dual addition formula's own limit to its Hermite counterpart.

    At each alpha = 2^s the rescaled expansion terms (and the rescaled
    left-hand side) are compared coefficientwise against the Hermite dual
    addition terms; the maximum coefficient deviation must decay
    dyadically.
    """
    hs = HermiteSetting(l=l, m=m)
    _check_range(j, m, "index j")
    rescale = (
        Fraction(2 ** (l + m))
        * pochhammer(Fraction(-l), j)
        * pochhammer(Fraction(-m), j)
        / Fraction(2**j)
    )
    lhs_target = hermite(l + m - 2 * j).scale(
        Fraction(2**j) * pochhammer(Fraction(-l), j) * pochhammer(Fraction(-m), j)
    )
    report = LimitReport(
        target="eq40-to-eq46",
        indices={"j": j, "l": l, "m": m},
        limit_description="Hermite dual addition terms from the rescaled expansion",
    )
    for s_pow in alpha_powers:
        alpha = Fraction(2**s_pow)
        scaled_lhs = alpha_scaled_gegenbauer(l + m - 2 * j, alpha, alpha).scale(rescale)
        dev = (scaled_lhs - lhs_target).max_abs_coeff()
        for n in range(m + 1):
            scaled = _scaled_dual_addition_term(n, j, l, m, alpha, rescale)
            target = hermite_dual_addition_term(n, j, hs)
            dev = max(dev, (scaled - target).max_abs_coeff())
        report.alphas.append(alpha)
        report.deviations.append(dev)
    return report.require_decay() if raise_on_failure else report
