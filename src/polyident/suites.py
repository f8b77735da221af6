"""Verification suites: parameter grids, task dispatch, report assembly.

Each identity is declared once, by :func:`identity` on the handler that
checks it: its id, suite, description, parameter grid and, for a numeric
check, tolerance.  A suite's tasks (identity id plus a flat string
parameter map) are the points of its identities' grids; a dispatcher
parses the parameters once and executes one task at a time.  Tasks are
pure, so suites can fan out over a process pool; reports are sorted before
emission, making output independent of execution order.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from . import addition, classical, continuous, dual_addition, hermite_limit, racah
from .errors import ConfigError, DomainError
from .exact import (
    UniPoly,
    format_rational,
    magnitude,
    parse_rational,
    pochhammer,
    terminating_hyp,
)
from .lazy import lazy_import
from .report import VerificationReport

mp = lazy_import("mpmath")
#: loaded by the first run that forks a pool, not by one that runs in-process
futures = lazy_import("concurrent.futures")

SUITE_NAMES = ("dual-addition", "classical-addition", "racah", "hermite", "continuous")

_HALF = Fraction(1, 2)

#: lowest accepted precision_digits.  It keeps every declared tolerance below
#: 1e-5: the loosest, eq13's 10^-(P-40), is 1e-6 at P = 46 (eq13-printed's,
#: ((alpha+1/2)_n)^2 times that, at most 2.25e-6), but 1e-5 at P = 45.
PRECISION_FLOOR = 46

#: highest accepted precision_digits.  The full continuous suite passes at
#: 200 digits in under a minute on two cores; at 300 it runs for minutes
#: and its eq15 expansion gives up.
PRECISION_CEILING = 200

#: highest accepted grid sizes, each where its suite at the default alphas
#: still passes within 25 s at --jobs 2 on a 2-vCPU host.  The grids grow
#: like the fourth power of their bound or faster: dual-addition takes 13 s
#: at l_max 28 and 23 s at 32, hermite 11 s at hermite_lm_max 64 and 30 s
#: at 80, and 10 s at limit_lm_max 12 and 28 s at 14.
GRID_CEILINGS = {"l_max": 32, "hermite_lm_max": 64, "limit_lm_max": 12}

#: the most alphas, and alpha-by-(l, m) cells, a config may ask for: at
#: --jobs 2 on a 2-vCPU host, with alphas k/7, dual-addition takes 23 s with
#: 4 alphas at l_max 32, 17 s with 5 at 28, 12 s with 6 at 24 and 3.4 s with
#: 53 at 8; with 64 alphas classical-addition takes 0.9 s and racah 0.8 s.
ALPHA_CEILINGS = {"len(alphas)": 64, "len(alphas) * (l_max + 1)^2": 4 * 33**2}

#: the most digits an alpha's numerator or denominator may have.  The exact
#: work grows with them: dual-addition at its default grid takes 0.4 s at
#: 20 digits, 1.0 s at 100 and 5.0 s at 300, classical-addition 20 s at its
#: one grid at 4,000, and past 4,300 digits an alpha cannot be written
#: into a record.
ALPHA_DIGITS_CEILING = 100

#: the most alpha-by-(l, m) cells, each alpha weighed by its digits (those
#: of the longer of its numerator and denominator), at least 2: twice the
#: cells ceiling, so alphas of one or two digits meet the cells ceiling
#: first.  The digits cost more at larger l: at --jobs 2 on a 2-vCPU host,
#: dual-addition with one alpha takes 5.7 s at l_max 32 with 1 or 2 digits,
#: 8.3 s with 4 and 18.6 s with 8, 20.7 s with 9 digits at 30, 15.0 s with
#: 10 at 28, 10.6 s with 12 at 25, 8.1 s with 16 at 22, 2.4 s with 50 at 12
#: and 1.5 s with 100 at 8; two alphas of 4 digits take 17.6 s at 32.
DIGIT_CELLS_CEILING = 2 * 4 * 33**2

#: eq48-corrected checks each n in 0..BIORTHOGONALITY_MAX against every k
#: in the same range
BIORTHOGONALITY_MAX = 20

#: tolerance kind -> offset of its default 10^-(P - offset)
_TOLERANCE_OFFSETS = {"integral": 35, "pointwise": 10}


@dataclass(frozen=True)
class SuiteConfig:
    """Grid and precision configuration shared by all suites."""

    alphas: tuple[Fraction, ...] = (Fraction(0), _HALF, Fraction(1), Fraction(7, 3))
    l_max: int = 8
    hermite_lm_max: int = 12
    limit_lm_max: int = 4
    precision_digits: int = 60
    integral_tolerance: str | None = None  # integral kind; default 10^-(P-35), 1e-25 at P=60
    pointwise_tolerance: str | None = None  # pointwise kind; default 10^-(P-10), 1e-50 at P=60
    jobs: int = 0
    timings: bool = False

    def __post_init__(self):
        """Reject settings that empty a grid, do not parse or make a check vacuous."""
        floors = {"l_max": 0, "hermite_lm_max": 0, "limit_lm_max": 0, "jobs": 0,
                  "precision_digits": PRECISION_FLOOR}
        for name, floor in floors.items():
            value = getattr(self, name)
            if value < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
        ceilings = dict(GRID_CEILINGS, precision_digits=PRECISION_CEILING)
        for name, ceiling in ceilings.items():
            value = getattr(self, name)
            if value > ceiling:
                raise ConfigError(f"{name} must be <= {ceiling}, got {value}")
        if not self.alphas:
            raise ConfigError("alphas must not be empty")
        # before the checks that read every alpha; the repeated-alpha one is quadratic
        sizes = (len(self.alphas), len(self.alphas) * (self.l_max + 1) ** 2)
        for (name, ceiling), value in zip(ALPHA_CEILINGS.items(), sizes):
            if value > ceiling:
                raise ConfigError(f"{name} must be <= {ceiling}, got {value}")
        bound = 10**ALPHA_DIGITS_CEILING
        if any(abs(a.numerator) >= bound or a.denominator >= bound for a in self.alphas):
            raise ConfigError(f"alphas must have numerators and denominators of at most "
                              f"{ALPHA_DIGITS_CEILING} digits")
        digits = sum(max(2, len(str(max(abs(a.numerator), a.denominator)))) for a in self.alphas)
        if digits * (self.l_max + 1) ** 2 > DIGIT_CELLS_CEILING:
            raise ConfigError(f"sum(max(2, digits(alpha))) * (l_max + 1)^2 must be <= "
                              f"{DIGIT_CELLS_CEILING}, got {digits * (self.l_max + 1) ** 2}")
        # a repeated alpha would run, and report, the same tasks twice
        repeated = sorted({a for a in self.alphas if self.alphas.count(a) > 1})
        if repeated:
            raise ConfigError(
                f"bad value for alphas: {', '.join(map(str, repeated))} repeated"
            )
        # An explicit tolerance must parse, be no looser than its default at
        # the floor and no finer than 10^-P: finer ones ask more than
        # precision_digits resolve, and checks that pass read as failures.
        finest = f"1e-{self.precision_digits}"
        for kind, offset in _TOLERANCE_OFFSETS.items():
            name = f"{kind}_tolerance"
            value = getattr(self, name)
            if value is None:
                continue
            try:
                tolerance = mp.mpf(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {name}: {value!r}") from exc
            loosest = f"1e{offset - PRECISION_FLOOR}"
            if not (mp.isfinite(tolerance) and 0 < tolerance <= mp.mpf(loosest)):
                raise ConfigError(
                    f"{name} must be finite, positive and at most {loosest}, got {value!r}"
                )
            if tolerance < mp.mpf(finest):
                raise ConfigError(
                    f"{name} must be at least {finest} at precision_digits "
                    f"{self.precision_digits}, got {value!r}"
                )

    def tolerance(self, kind: str) -> mp.mpf:
        """The explicit tolerance of ``kind``, else its default 10^-(P - offset)."""
        value = getattr(self, f"{kind}_tolerance")
        if value is not None:
            return mp.mpf(value)
        return mp.mpf(10) ** (-self.precision_digits + _TOLERANCE_OFFSETS[kind])


#: a parameter grid: the parameter maps, canonical strings, of an identity's
#: tasks under a config
Grid = Callable[[SuiteConfig], Iterable[dict[str, str]]]


@dataclass(frozen=True)
class Identity:
    """One identity check: its suite, the description `list` prints, the
    handler that runs one task of it, the grid of its tasks' parameters
    and, for a numeric check, its tolerance as (kind, e): the kind's
    tolerance times 10^e."""

    suite: str
    description: str
    handler: Callable[..., TaskResult]
    grid: Grid
    tolerance: tuple[str, int] | None = None

    @property
    def mode(self) -> str:
        return "exact" if self.tolerance is None else "numeric"

    def threshold(self, config: SuiteConfig) -> mp.mpf:
        """The declared tolerance under ``config``."""
        kind, exponent = self.tolerance
        return config.tolerance(kind) * mp.mpf(10) ** exponent


#: identity id -> declaration, filled by :func:`identity`.  The ids are the
#: wire format of the report stream and the `list` subcommand.
REGISTRY: dict[str, Identity] = {}


def identity(identity_id: str, suite: str, description: str, grid: Grid,
             tolerance: tuple[str, int] | None = None):
    """Declare the decorated handler as the check of ``identity_id``.

    The check runs one task at each point of ``grid(config)``, in the order
    :func:`suite_tasks` sets.  The handler is called as ``handler(p,
    config)`` with the task's parsed parameters ``p`` (see
    :func:`run_task`); a numeric check declares ``tolerance``, and its
    handler is called as ``handler(p, config, threshold)`` with the
    declared threshold, at the working precision.
    """

    def declare(handler):
        if identity_id in REGISTRY:
            raise ValueError(f"identity {identity_id!r} declared twice")
        REGISTRY[identity_id] = Identity(suite, description, handler, grid, tolerance)
        return handler

    return declare


# ---------------------------------------------------------------------------
# parameter grids; ids that share one share its function object


def _fixed(keys: str, rows) -> Grid:
    """The grid of one parameter map per row, whatever the config: the
    space-separated ``keys`` paired with the row's values."""
    names = keys.split()
    return lambda config: (dict(zip(names, row)) for row in rows)


def racah_systems(config: SuiteConfig):
    """The Racah systems, as ``system`` and ``N``: four generic tuples and,
    at each alpha, four dual-addition specializations (twenty at the
    default alphas, each with N <= 8)."""
    systems = [("0,0,-3,1", 2), ("0,0,-2,-2", 1), ("1/2,1/2,-4,2", 3), ("1,2,-5,-7/2", 4)]
    for alpha in config.alphas:
        for l, m in ((1, 1), (3, 2), (5, 5), (8, 4)):
            D, *numerators = dual_addition.racah_form(alpha, l, m)
            systems.append((",".join(format_rational(Fraction(x, D)) for x in numerators), m))
    for system, n_points in systems:
        yield {"system": system, "N": str(n_points)}


def _racah_degrees(config: SuiteConfig):
    """Each Racah system at each degree n = 0..N."""
    for base in racah_systems(config):
        for n in range(int(base["N"]) + 1):
            yield dict(base, n=str(n))


def _racah_shift_degrees(config: SuiteConfig):
    """Each Racah system at each degree n = 1..N, which the shifts lower."""
    return (p for p in _racah_degrees(config) if p["n"] != "0")


def _alpha_lm(config: SuiteConfig):
    """alpha x (l, m), 0 <= m <= l <= l_max."""
    for alpha in config.alphas:
        a = format_rational(alpha)
        for lm in _lm(config.l_max):
            yield dict(alpha=a, **lm)


def _alpha_lmj(config: SuiteConfig):
    """alpha x (l, m, j), 0 <= j <= m."""
    for base in _alpha_lm(config):
        for j in range(int(base["m"]) + 1):
            yield dict(base, j=str(j))


def _alpha_m(config: SuiteConfig):
    """alpha x m, 0 <= m <= l_max."""
    for alpha in config.alphas:
        for m in range(config.l_max + 1):
            yield {"alpha": format_rational(alpha), "m": str(m)}


def _alpha_n(first: int, stop: int) -> Grid:
    """alpha x n, first <= n < stop."""

    def grid(config: SuiteConfig):
        for alpha in config.alphas:
            for n in range(first, stop):
                yield {"alpha": format_rational(alpha), "n": str(n)}

    return grid


#: the four checks of the addition formula at one (n, alpha)
_ADDITION_DEGREES = _alpha_n(0, 9)
#: the two constructions of R_n compared at one (n, alpha)
_CONSTRUCTION_DEGREES = _alpha_n(0, 13)
#: the Hermite addition and product checks at n = 0..12
_HERMITE_DEGREES = _fixed("n", [(str(n),) for n in range(13)])


def _lm(bound: int):
    """(l, m), 0 <= m <= l <= bound."""
    for l in range(bound + 1):
        for m in range(l + 1):
            yield {"l": str(l), "m": str(m)}


def _hermite_lm(config: SuiteConfig):
    """(l, m), 0 <= m <= l <= hermite_lm_max."""
    return _lm(config.hermite_lm_max)


def _limit_indices(target: str | None, *names: str) -> Grid:
    """The limit (l, m) pairs, 0 <= m <= l <= limit_lm_max, then ``target``
    when given, then each of ``names`` over 0..m, the last varying fastest."""

    def grid(config: SuiteConfig):
        for base in _lm(config.limit_lm_max):
            head = dict(base, target=target) if target else base
            for values in itertools.product(range(int(base["m"]) + 1), repeat=len(names)):
                yield dict(head, **dict(zip(names, map(str, values))))

    return grid


def _gegenbauer_limit(target: str) -> Grid:
    """``target`` at n = 0..4 and two points x."""
    return _fixed("target n x", [(target, str(n), x) for n in range(5) for x in ("1/2", "3/5")])


# ---------------------------------------------------------------------------
# task execution


@dataclass
class TaskResult:
    residual: str
    passed: bool
    extra: dict[str, str] = field(default_factory=dict)


def _exact_result(*values) -> TaskResult:
    """Result for an exact check: the residual is the largest magnitude."""
    residual = max(map(magnitude, values), default=Fraction(0))
    return TaskResult(residual=format_rational(residual), passed=residual == 0)


def _numeric_result(value, tolerance, extra: dict[str, str] | None = None) -> TaskResult:
    value = mp.mpf(value)
    return TaskResult(
        residual=mp.nstr(value, 8),
        passed=value <= mp.mpf(tolerance),
        extra=dict(extra or {}, tolerance=mp.nstr(mp.mpf(tolerance), 3)),
    )


#: task parameters that are names; every other parameter is a rational
_TEXT_PARAMETERS = frozenset({"system", "case", "target"})


@functools.lru_cache(maxsize=None)
def _number(text: str) -> Fraction | int:
    """A rational parameter: an int when its denominator is 1, so that the
    indices arrive as ints.  Cached: a grid's tasks repeat a few dozen
    spellings, and parsing one costs microseconds."""
    value = parse_rational(text)
    return value.numerator if value.denominator == 1 else value


def run_task(identity_id: str, params: dict[str, str], config: SuiteConfig) -> TaskResult:
    """Execute one identity check; exceptions propagate to the runner.

    The handler receives the parameters parsed: names as given, numbers as
    ints or Fractions.  Every wire value is canonical, so ``str`` of a
    parsed value is its text.  A numeric handler runs at the working
    precision set here once for all it calls: the digits that resolve the
    finer of its threshold and its kind's tolerance (eq8-printed and
    eq13-printed integrate at the latter) plus the REFINEMENT_DIGITS its
    integrals and series refine by, capped at ``config.precision_digits``.
    The quadrature's error is set by its step and strip, not by these
    digits, so they only need to resolve what the check compares.
    """
    declared = REGISTRY.get(identity_id)
    if declared is None:
        raise ConfigError(f"no handler for identity {identity_id!r}")
    p = {key: text if key in _TEXT_PARAMETERS else _number(text)
         for key, text in params.items()}
    if declared.tolerance is None:
        return declared.handler(p, config)
    threshold = declared.threshold(config)
    finest = min(threshold, config.tolerance(declared.tolerance[0]))
    needed = int(mp.ceil(-mp.log10(finest))) + continuous.REFINEMENT_DIGITS
    with continuous.working_precision(min(config.precision_digits, needed)):
        return declared.handler(p, config, threshold)


# -- racah suite handlers


@identity("eq29", "racah", "total weight mass: closed form vs direct sum", racah_systems)
def _task_eq29(p, config):
    sys = racah.RacahSystem.parse(p["system"], p["N"])
    direct = sum(racah.racah_weight(x, sys) for x in range(sys.N + 1))
    return _exact_result(racah.racah_h0(sys) - direct)


@identity("eq30", "racah", "full Gram matrix diagonal with closed-form norms", racah_systems)
def _task_eq30(p, config):
    sys = racah.RacahSystem.parse(p["system"], p["N"])
    gram = racah.gram_matrix(sys)
    h0 = racah.racah_h0(sys)
    return _exact_result(*(
        gram[a][b] - (h0 * racah.racah_norm_ratio(a, sys) if a == b else 0)
        for a in range(sys.N + 1)
        for b in range(sys.N + 1)
    ))


@identity("eq25", "racah", "endpoint evaluation closed form", _racah_degrees)
def _task_eq25(p, config):
    sys = racah.RacahSystem.parse(p["system"], p["N"])
    return _exact_result(racah.endpoint_value_residual(p["n"], sys))


@identity("eq20", "racah", "backward shift identity (boundary conventions included)",
          _racah_shift_degrees)
def _task_eq20(p, config):
    sys = racah.RacahSystem.parse(p["system"], p["N"])
    return _exact_result(
        *(racah.backward_shift_residual(p["n"], x, sys) for x in range(sys.N + 1))
    )


@identity("eq21", "racah", "summation by parts against arbitrary lattice functions",
          _racah_shift_degrees)
def _task_eq21(p, config):
    sys = racah.RacahSystem.parse(p["system"], p["N"])
    n = p["n"]
    rng = random.Random(f"eq21:{p['system']}:{sys.N}:{n}")
    trials = [[Fraction(rng.randint(-9, 9)) for _ in range(sys.N + 1)] for _ in range(5)]
    return _exact_result(*(racah.sum_by_parts_residual(n, f, sys) for f in trials))


# -- dual-addition suite handlers


@identity("eq45", "dual-addition", "weighted Racah sum equals its closed product form",
          _alpha_lm)
def _task_eq45(p, config):
    setting = p["alpha"], p["l"], p["m"]
    return _exact_result(*(
        dual_addition.s_direct(n, *setting) - dual_addition.s_closed(n, *setting)
        for n in range(p["m"] + 1)
    ))


@identity("eq40", "dual-addition", "dual addition formula (Racah expansion of R_{l+m-2j})",
          _alpha_lmj)
def _task_eq40(p, config):
    return _exact_result(dual_addition.dual_addition_residual(p["j"], p["alpha"], p["l"], p["m"]))


@identity("eq17", "dual-addition", "linearization coefficients are normalized Racah weights",
          _alpha_lm)
def _task_eq17(p, config):
    setting = p["alpha"], p["l"], p["m"]
    return _exact_result(*(dual_addition.coeff_as_racah_weight_residual(j, *setting)
                           for j in range(p["m"] + 1)))


@identity("eq18", "dual-addition", "linearization coefficients: positivity and unit sum",
          _alpha_lm)
def _task_eq18(p, config):
    setting = p["alpha"], p["l"], p["m"]
    coeffs = [dual_addition.linearization_coeff(j, *setting) for j in range(p["m"] + 1)]
    positivity = 0 if all(c > 0 for c in coeffs) else 1  # strict positivity required
    return _exact_result(Fraction(positivity), sum(coeffs) - 1)


@identity("eq43", "dual-addition", "constant-function expansion (j = m specialization)",
          _alpha_m)
def _task_eq43(p, config):
    # the constant-function expansion is the dual addition formula at l = m
    # and j = m, where the left side R_{l+m-2j} is R_0 = 1
    m = p["m"]
    return _exact_result(dual_addition.dual_addition_residual(m, p["alpha"], m, m))


@identity(
    "eq43-eq49", "dual-addition",
    "term-by-term match of the two partition-of-unity expansions", _alpha_m,
)
def _task_eq43_eq49(p, config):
    alpha, m = p["alpha"], p["m"]
    terms = [dual_addition.dual_addition_term(n, m, alpha, m, m) for n in range(m + 1)]
    square_terms = addition.sum_of_squares_terms(m, alpha)
    return _exact_result(*(term - square for term, square in zip(terms, square_terms)))


@identity("eq58", "dual-addition", "Fourier coefficient integral of the weighted sum", _alpha_lm)
def _task_eq58(p, config):
    setting = p["alpha"], p["l"], p["m"]
    return _exact_result(*(
        residual
        for n in range(p["m"] + 1)
        for residual in dual_addition.integral_identity_residuals(n, *setting)
    ))


@identity("whipple", "dual-addition", "triple-product integral proportional to both 4F3 forms",
          _alpha_lm)
def _task_whipple(p, config):
    dual_addition.whipple_proportionality(p["alpha"], p["l"], p["m"])  # raises on violation
    return _exact_result(Fraction(0))


# -- classical-addition suite handlers


@identity("eq42", "classical-addition", "addition formula in the surd ring", _ADDITION_DEGREES)
def _task_eq42(p, config):
    return _exact_result(addition.addition_residual(p["n"], p["alpha"]))


@identity("eq41", "classical-addition", "product formula via exact moment integration",
          _ADDITION_DEGREES)
def _task_eq41(p, config):
    return _exact_result(addition.product_formula_residual(p["n"], p["alpha"]))


@identity("eq44", "classical-addition", "addition formula at t = 1", _ADDITION_DEGREES)
def _task_eq44(p, config):
    return _exact_result(addition.t_one_residual(p["n"], p["alpha"]))


@identity("eq49", "classical-addition", "partition of unity (t = 1, x = y)", _ADDITION_DEGREES)
def _task_eq49(p, config):
    return _exact_result(addition.sum_of_squares_residual(p["n"], p["alpha"]))


@identity("eq23", "classical-addition", "two-step difference formula for Gegenbauer polynomials",
          _alpha_n(2, 9))
def _task_eq23(p, config):
    return _exact_result(classical.difference_residual(p["n"], p["alpha"]))


@identity("eq50", "classical-addition", "power-series vs hypergeometric construction",
          _CONSTRUCTION_DEGREES)
def _task_eq50(p, config):
    alpha, n = p["alpha"], p["n"]
    diff = classical.gegenbauer_r(n, alpha) - classical.jacobi_r(n, alpha, alpha)
    return _exact_result(diff)


@identity("eq28", "classical-addition", "leading coefficient closed form", _CONSTRUCTION_DEGREES)
def _task_eq28(p, config):
    alpha, n = p["alpha"], p["n"]
    poly = classical.jacobi_r(n, alpha, alpha)
    lead = pochhammer(n + 2 * alpha + 1, n) / (
        Fraction(2**n) * pochhammer(alpha + 1, n)
    )
    return _exact_result(poly.coeff(n) - lead)


@identity("eq57", "classical-addition", "orthogonality and norms in the Gegenbauer weight",
          lambda config: ({"alpha": format_rational(a)} for a in config.alphas))
def _task_eq57(p, config):
    alpha = p["alpha"]
    polys = [classical.gegenbauer_r(n, alpha) for n in range(11)]
    return _exact_result(*(
        classical.inner_product(polys[m], polys[n], alpha)
        - (classical.norm_ratio(n, alpha) if m == n else 0)
        for m in range(11)
        for n in range(m, 11)
    ))


def _circle_point(s: Fraction) -> tuple[int, int, int]:
    """(c, d, e) with (c/e, d/e) the rational point ((1-s^2)/(1+s^2),
    2s/(1+s^2)) on the unit circle: for s = p/q, c = q^2 - p^2, d = 2pq and
    e = q^2 + p^2 > 0."""
    p, q = s.numerator, s.denominator
    return q * q - p * p, 2 * p * q, q * q + p * p


def _excess_over_one(poly: UniPoly, s: Fraction) -> Fraction | int:
    """max(|poly(x)| - 1, 0) at the circle point x = c/e of s: |poly's
    numerator at c/e| against den e^d, in integers; a ``Fraction`` is
    formed only where it exceeds."""
    c, _, e = _circle_point(s)
    value, bound = abs(poly.numerator_at(c, e)), poly.den * e ** max(poly.degree, 0)
    return Fraction(value, bound) - 1 if value > bound else 0


def _cosine_residual(poly: UniPoly, k: int, s: Fraction) -> Fraction | int:
    """poly(cos phi) - cos(k phi) at the circle point (cos phi, sin phi) =
    (c/e, d/e) of s, where cos(k phi) is Re (c + i d)^k / e^k; compared in
    integers, and a ``Fraction`` only where they differ."""
    c, d, e = _circle_point(s)
    re, im = 1, 0
    for _ in range(k):
        re, im = re * c - im * d, re * d + im * c
    value, den = poly.numerator_at(c, e), poly.den * e ** max(poly.degree, 0)
    if value * e**k == re * den:
        return 0
    return Fraction(value, den) - Fraction(re, e**k)


@identity("r-bound", "classical-addition", "|R_n| <= 1 on rational circle points",
          _fixed("alpha n", [(a, str(n)) for a in ("0", "1/2", "1") for n in range(11)]))
def _task_r_bound(p, config):
    alpha, n = p["alpha"], p["n"]
    poly = classical.gegenbauer_r(n, alpha)
    rng = random.Random(f"r-bound:{alpha}:{n}")
    return _exact_result(*(_excess_over_one(poly, Fraction(rng.randint(-999, 999), 1000))
                           for _ in range(50)))


@identity("chebyshev-t", "classical-addition", "parameter -1/2 polynomials hit cos(k phi)",
          _fixed("k", [(str(k),) for k in range(7)]))
def _task_chebyshev(p, config):
    k = p["k"]
    poly = classical.jacobi_r(k, -_HALF, -_HALF)
    rng = random.Random(f"chebyshev:{k}")
    return _exact_result(*(_cosine_residual(poly, k, Fraction(rng.randint(-99, 99), 100))
                           for _ in range(20)))


# -- hermite suite handlers


@identity("hermite-addition", "hermite", "Hermite argument-mixing expansion", _HERMITE_DEGREES)
def _task_hermite_addition(p, config):
    return _exact_result(hermite_limit.hermite_addition_residual(p["n"]))


@identity("hermite-product", "hermite", "Hermite product via Gaussian moments", _HERMITE_DEGREES)
def _task_hermite_product(p, config):
    return _exact_result(hermite_limit.hermite_product_residual(p["n"]))


@identity("eq46", "hermite", "dual addition formula for Hermite polynomials", _hermite_lm)
def _task_eq46(p, config):
    l, m = p["l"], p["m"]
    return _exact_result(
        *(hermite_limit.hermite_dual_addition_residual(j, l, m) for j in range(m + 1))
    )


@identity("eq47", "hermite", "inverse (Fourier-type) Hermite expansion", _hermite_lm)
def _task_eq47(p, config):
    l, m = p["l"], p["m"]
    return _exact_result(
        *(hermite_limit.hermite_dual_inverse_residual(n, l, m) for n in range(m + 1))
    )


@identity("eq48-corrected", "hermite", "corrected biorthogonality kernel gives delta",
          _fixed("n", [(str(n),) for n in range(BIORTHOGONALITY_MAX + 1)]))
def _task_eq48_corrected(p, config):
    n = p["n"]
    return _exact_result(*(
        hermite_limit.biorthogonality_value(n, k, "corrected") - (1 if n == k else 0)
        for k in range(BIORTHOGONALITY_MAX + 1)
    ))


@identity("eq48-printed", "hermite", "printed biorthogonality kernel fails at (2,1): pinned",
          _fixed("n k expected", [("2", "1", "-1")]))
def _task_eq48_printed(p, config):
    n, k = p["n"], p["k"]
    value = hermite_limit.biorthogonality_value(n, k, "as-printed")
    if value == hermite_limit.biorthogonality_value(n, k, "corrected"):
        raise DomainError(
            f"pinned check cannot tell printed from corrected: both kernels "
            f"give {format_rational(value)} at (n, k) = ({n}, {k})"
        )
    expected = p["expected"]
    return TaskResult(
        residual=format_rational(value),
        passed=value == expected,
        extra={"expected": format_rational(expected)},
    )


def _task_limit(target, p, config):
    indices = {key: p[key] for key in ("n", "j", "k", "l", "m") if key in p}
    residual, points, description = hermite_limit.limit_rate_check(target, indices, x=p.get("x"))
    return TaskResult(
        residual=format_rational(residual),
        passed=residual == 0,
        extra={"points": str(points), "limit": description},
    )


# Each limit handler gets its target from its declaration; the eq52-eq56
# tasks also carry it as the parameter "target", which their records print.
for _target, _description, _grid in (
    ("eq52", "Hermite limit of scaled Gegenbauer polynomials", _gegenbauer_limit("eq52")),
    ("eq53", "monomial limit of Gegenbauer polynomials", _gegenbauer_limit("eq53")),
    ("eq54j", "Racah value limit, j-scaling", _limit_indices("eq54j", "n", "j")),
    ("eq54n", "Racah value limit, n-scaling", _limit_indices("eq54n", "n", "j")),
    ("eq55", "Racah weight limit", _limit_indices("eq55", "j")),
    ("eq56", "Racah norm limit", _limit_indices("eq56", "n")),
    ("eq30-limit", "Racah orthogonality degenerates to biorthogonality",
     _limit_indices(None, "n", "k")),
    ("eq40-to-eq46", "dual addition formula degenerates to its Hermite form",
     _limit_indices(None, "j")),
):
    identity(_target, "hermite", _description, _grid)(functools.partial(_task_limit, _target))


# -- continuous suite handlers

#: ten dual-product evaluation points; the first is the t = 0 coincidence
#: with the degree-zero Wilson norm, and two are the alpha = 0 and 1/2 cases.
EQ7_POINTS = (
    ("0", "3/10", "2/5", "1"),
    ("3/10", "2/5", "7/10", "1"),
    ("1/5", "3/10", "1/2", "0"),
    ("1/4", "1/2", "1/2", "0"),
    ("3/20", "1/4", "9/20", "1/2"),
    ("1/10", "3/5", "1/5", "2"),
    ("2/5", "1/10", "3/10", "3/2"),
    ("3/10", "1/5", "1/5", "7/3"),
    ("1/5", "7/10", "3/5", "1/2"),
    ("1/8", "2/5", "1/4", "3"),
)


def _eq16_grid(config: SuiteConfig):
    """Twenty seeded (alpha, lambda, t)."""
    rng = random.Random("eq16-grid")
    for _ in range(20):
        yield {
            "alpha": format_rational(Fraction(rng.randint(0, 300), 100)),
            "lambda": format_rational(Fraction(rng.randint(-250, 250), 100)),
            "t": format_rational(Fraction(rng.randint(-150, 150), 100)),
        }


def _wilson_context(p) -> continuous.WilsonContext:
    """The context of the task's parameter set at the working precision in
    force: its node caches serve every task on that set at those digits."""
    return _cached_wilson_context(p["lambda"], p["mu"], p["alpha"], mp.mp.dps)


@functools.lru_cache(maxsize=None)
def _cached_wilson_context(lam, mu, alpha, dps: int) -> continuous.WilsonContext:
    """One context per parameter set and working precision; ``dps`` keys the
    cache, since a context holds node values computed at its digits."""
    return continuous.WilsonContext(lam, mu, alpha)


def _pinned_ratio(p, tolerance) -> mp.mpf:
    """((alpha+1/2)_n)^2, the factor a printed Gamma(alpha+1/2)^2 is off by.

    The two variants differ by |ratio - 1|; raises DomainError unless the
    check's threshold, tolerance times the ratio, is at least 1e3 below
    that, so that a pass tells them apart (at n = 0 they coincide).
    """
    ratio = pochhammer(p["alpha"] + _HALF, p["n"]) ** 2
    expected = continuous.to_mpf(ratio)
    if tolerance * expected * 1000 > abs(expected - 1):
        raise DomainError(
            f"pinned check cannot tell printed from corrected: its tolerance "
            f"{mp.nstr(tolerance * expected, 3)} is not 1e3 below "
            f"|((alpha+1/2)_n)^2 - 1| = {format_rational(abs(ratio - 1))}"
        )
    return expected


@identity("eq8", "continuous", "Wilson orthogonality (corrected norm) by quadrature",
          _fixed("m n lambda mu alpha",
                 [(str(m), str(n), "1/5", "2/5", "1") for m in range(4) for n in range(m, 4)]),
          tolerance=("integral", 0))
def _task_eq8(p, config, tolerance):
    ctx = _wilson_context(p)
    value = continuous.wilson_orthogonality_residual(p["m"], p["n"], ctx, tolerance)
    return _numeric_result(value, tolerance)


@identity(
    "eq8-printed", "continuous", "printed Wilson norm off by ((alpha+1/2)_n)^2: pinned",
    _fixed("n lambda mu alpha", [("2", "1/5", "2/5", "1")]),
    tolerance=("integral", 0),
)
def _task_eq8_printed(p, config, tolerance):
    n = p["n"]
    expected_ratio = _pinned_ratio(p, tolerance)
    ctx = _wilson_context(p)
    integral = ctx.integrate(
        lambda nu: ctx.poly(n, nu) ** 2 * ctx.weight(nu),
        config.tolerance("integral") * mp.mpf(10) ** -continuous.REFINEMENT_DIGITS,
    )
    printed = continuous.wilson_norm(n, ctx.lam, ctx.mu, ctx.alpha, variant="printed")
    discrepancy = abs(integral / printed - expected_ratio)
    return _numeric_result(
        discrepancy,
        tolerance * expected_ratio,
        extra={"measured_over_printed": mp.nstr(integral / printed, 8),
               "expected_ratio": mp.nstr(expected_ratio, 8)},
    )


@identity("eq7", "continuous", "dual product formula for Gegenbauer functions",
          _fixed("t lambda mu alpha", EQ7_POINTS), tolerance=("integral", 0))
def _task_eq7(p, config, tolerance):
    ctx = _wilson_context(p)
    # the dual product formula is eq13 at n = 0
    value = continuous.dual_integral_closed_form_residual(0, p["t"], ctx, tolerance)
    return _numeric_result(value, tolerance)


@identity("eq6", "continuous", "dual product formula in conical-function form",
          _fixed("t lambda mu alpha",
                 [("1/4", "2/5", "3/5", "1"), ("3/10", "1/5", "1/2", "3/2")]),
          tolerance=("integral", 0))
def _task_eq6(p, config, tolerance):
    value = continuous.conical_product_residual(
        p["t"], p["lambda"], p["mu"], p["alpha"], tolerance
    )
    return _numeric_result(value, tolerance)


@identity(
    "eq13", "continuous", "closed form of the phi-weighted Wilson integral (corrected)",
    _fixed("n t lambda mu alpha", [(str(n), "1/5", "3/10", "1/2", "1") for n in range(4)]),
    tolerance=("integral", 5),
)
def _task_eq13(p, config, tolerance):
    ctx = _wilson_context(p)
    value = continuous.dual_integral_closed_form_residual(p["n"], p["t"], ctx, tolerance)
    return _numeric_result(value, tolerance)


@identity(
    "eq13-printed", "continuous", "printed closed form off by ((alpha+1/2)_n)^2: pinned",
    _fixed("n t lambda mu alpha", [("1", "1/5", "3/10", "1/2", "1")]),
    tolerance=("integral", 5),
)
def _task_eq13_printed(p, config, tolerance):
    n, t = p["n"], p["t"]
    expected_ratio = _pinned_ratio(p, tolerance)
    ctx = _wilson_context(p)
    # both variants integrate 1e5 tighter than the check they feed
    base = config.tolerance("integral")
    corrected = continuous.dual_integral_closed_form_residual(n, t, ctx, base)
    printed = continuous.dual_integral_closed_form_residual(
        n, t, ctx, base, variant="printed"
    )
    # printed residual = |I - closed/ratio| / (closed/ratio) = ratio - 1 when corrected holds
    discrepancy = abs(printed - (expected_ratio - 1))
    return _numeric_result(
        discrepancy, tolerance * expected_ratio,
        extra={"corrected_residual": mp.nstr(corrected, 8),
               "expected_ratio": mp.nstr(expected_ratio, 8)},
    )


@identity("eq33", "continuous", "Wilson backward shift identity, pointwise",
          _fixed("n x lambda mu alpha",
                 [("2", x, "3/10", "1/2", "1") for x in ("1/10", "3/10", "7/10", "6/5", "2")]),
          tolerance=("pointwise", 20))
def _task_eq33(p, config, tolerance):
    value = continuous.wilson_backward_shift_residual(
        p["n"], p["x"], p["lambda"], p["mu"], p["alpha"]
    )
    return _numeric_result(value, tolerance)


@identity("eq15", "continuous", "dual addition expansion for Gegenbauer functions",
          _fixed("t nu lambda mu alpha", [("1/10", "3/10", "1/5", "2/5", "1"),
                                          ("1/5", "3/10", "1/5", "2/5", "1/2"),
                                          ("1/8", "1/2", "1/4", "1/5", "0")]),
          tolerance=("integral", 5))
def _task_eq15(p, config, tolerance):
    result = continuous.dual_addition_function_residual(
        p["t"], p["nu"], p["lambda"], p["mu"], p["alpha"], tolerance
    )
    out = _numeric_result(
        result.residual, tolerance,
        extra={"terms": str(result.terms_used),
               "tail_decreasing": str(result.tail_decreasing).lower()},
    )
    if not result.tail_decreasing:
        # formal-divergence diagnostic: reported as a failure, never a crash
        out.passed = False
        out.extra["diagnostic"] = "expansion tail not decreasing"
    return out


@identity("eq16", "continuous", "quadratic argument transform of Gegenbauer functions",
          _eq16_grid, tolerance=("pointwise", 0))
def _task_eq16(p, config, tolerance):
    alpha, lam, t = (continuous.to_mpf(p[key]) for key in ("alpha", "lambda", "t"))
    value = abs(
        continuous.phi(2 * lam, alpha, alpha, t)
        - continuous.phi(lam, alpha, -mp.mpf(1) / 2, 2 * t)
    )
    return _numeric_result(value, tolerance)


@identity("eq34", "continuous", "spectral-shift contiguous relation",
          _fixed("alpha beta lambda t", [("1", "-1/2", "1/2", "2/5"), ("2", "1", "13/10", "4/5"),
                                         ("1/2", "0", "0", "3/10"), ("3/2", "1/4", "2", "1/2")]),
          tolerance=("pointwise", 0))
def _task_eq34(p, config, tolerance):
    value = abs(continuous.contiguous_residual(
        continuous.to_mpf(p["lambda"]), p["alpha"], p["beta"], p["t"]
    ))
    return _numeric_result(value, tolerance)


@identity("eq32", "continuous", "|phi| <= 1 bound on sampled spectral points",
          _fixed("alpha beta", [("1", "1/2"), ("1/2", "-1/2"), ("2", "2")]),
          tolerance=("pointwise", 0))
def _task_eq32(p, config, tolerance):
    alpha, beta = p["alpha"], p["beta"]
    rng = random.Random(f"eq32:{alpha}:{beta}")
    worst = mp.mpf(0)
    for _ in range(50):
        lam = Fraction(rng.randint(-400, 400), 100)
        t = Fraction(rng.randint(-300, 300), 100)
        worst = max(
            worst, continuous.phi_bound_violation(continuous.to_mpf(lam), alpha, beta, t)
        )
    return _numeric_result(worst, tolerance)


@identity("eq4", "continuous", "conical function: two evaluation routes agree",
          _fixed("g r k", [("1", "1/2", "4/5"), ("3/2", "1/5", "0"), ("1/2", "1", "-3/5")]),
          tolerance=("pointwise", 0))
def _task_eq4(p, config, tolerance):
    route_phi, route_gauss = continuous.conical_routes(p["g"], p["r"], p["k"])
    return _numeric_result(abs(route_phi - route_gauss), tolerance)


@identity(
    "exact-float-oracle", "continuous", "terminating series: exact rationals vs big floats",
    _fixed("case", [("gauss-terminating",), ("wilson-terminating",)]),
    tolerance=("pointwise", -5),
)
def _task_exact_float_oracle(p, config, tolerance):
    case = p["case"]
    if case == "gauss-terminating":
        exact = terminating_hyp(
            [Fraction(-3), Fraction(5, 2)], [Fraction(7, 3)], 3, z=Fraction(-4, 7)
        )
        numeric = continuous.gauss_2f1(-3, mp.mpf(5) / 2, mp.mpf(7) / 3, -mp.mpf(4) / 7)
        value = abs(continuous.to_mpf(exact) - numeric)
    elif case == "wilson-terminating":
        n = 2
        a, b, c, d = Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(5, 4)
        xsq = Fraction(9, 16)
        # real parameter variant: x^2 -> a+ix, a-ix replaced by a pm sqrt(-xsq)
        exact = pochhammer(a + b, n) * pochhammer(a + c, n) * pochhammer(a + d, n)
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
        exact *= series
        params_num = continuous.WilsonParams(
            mp.mpf(0.25), mp.mpf(0.5), mp.mpf(0.75), mp.mpf(1.25)
        )
        numeric = continuous.wilson_poly(n, continuous.to_mpf(xsq), params_num)
        value = abs(continuous.to_mpf(exact) - numeric)
    else:
        raise ConfigError(f"unknown oracle case {case!r}")
    return _numeric_result(value, tolerance)


def suite_tasks(name: str, config: SuiteConfig):
    """The tasks of suite ``name``, or of every suite for "all".

    Within a suite, the ids declared on one grid function run together:
    the grids come in the order of their first declaration, and at each
    point of a grid one task follows for every id on it, in declaration
    order.  So each contiguous slice that :func:`run_suite` hands a pool
    worker covers every check at the points it spans, and the values those
    checks share are formed in one worker.  No result depends on the order.
    """
    if name != "all" and name not in SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    tasks = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        ids_by_grid: dict[Grid, list[str]] = {}
        for identity_id, declared in REGISTRY.items():
            if declared.suite == suite:
                ids_by_grid.setdefault(declared.grid, []).append(identity_id)
        for grid, ids in ids_by_grid.items():
            for params in grid(config):
                tasks.extend((identity_id, dict(params)) for identity_id in ids)
    return tasks


def _execute(task, config: SuiteConfig) -> VerificationReport:
    identity_id, params = task
    start = time.monotonic()
    try:
        result = run_task(identity_id, params, config)
        status = "pass" if result.passed else "fail"
        residual, extra = result.residual, result.extra
    except Exception as exc:  # a PolyidentError or an unexpected fault alike
        status, residual = "error", "n/a"
        extra = {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = int((time.monotonic() - start) * 1000) if config.timings else 0
    declared = REGISTRY.get(identity_id)
    return VerificationReport(
        identity_id=identity_id,
        parameters={**params, **extra},
        mode=declared.mode if declared else "exact",
        residual=residual,
        status=status,
        elapsed=elapsed,
    )


def _execute_batch(packed):
    tasks, config = packed
    return [_execute(task, config) for task in tasks]


def run_suite(name: str, config: SuiteConfig) -> list[VerificationReport]:
    """Run a suite's tasks, possibly on a process pool; reports are unsorted.

    The pool starts every worker at once, so it gets no more than cores or
    tasks, whatever ``jobs`` asks for; with one, the tasks run in-process.
    It runs batches that share cached state: numeric tasks with one
    ``lambda``, ``mu`` and ``alpha`` (a ``_wilson_context``), any other
    numeric task alone, largest batch first, since a numeric task can take
    seconds; then contiguous slices of the exact tasks, about four per worker.
    """
    tasks = suite_tasks(name, config)
    cores = os.cpu_count() or 1
    workers = min(config.jobs if config.jobs > 0 else cores, cores, len(tasks))
    if workers < 2:
        return [_execute(task, config) for task in tasks]
    numeric, exact = {}, []
    for index, task in enumerate(tasks):
        declared, params = REGISTRY.get(task[0]), task[1]
        if declared is None or declared.mode != "numeric":
            exact.append(task)
        elif "lambda" in params and "mu" in params:
            key = (params["lambda"], params["mu"], params.get("alpha"))
            numeric.setdefault(key, []).append(task)
        else:
            numeric[index] = [task]
    batches = sorted(numeric.values(), key=len, reverse=True)
    size = max(1, -(-len(exact) // (4 * workers)))
    batches += [exact[i:i + size] for i in range(0, len(exact), size)]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        done = pool.map(_execute_batch, [(batch, config) for batch in batches])
        return [report for reports in done for report in reports]
