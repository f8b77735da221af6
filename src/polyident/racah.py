"""Racah polynomials on the finite quadratic lattice x(x+gamma+delta+1).

A :class:`RacahSystem` fixes parameters (alpha, beta, gamma, delta) with
gamma = -N-1 and validates, at construction, every denominator the closed
forms below can touch over the full index range 0..N.  Parameter
specializations of interest sit near many poles, so failing early with a
list of offending factors beats a ZeroDivisionError deep inside a sweep.

Running products are the one evaluator of the closed forms: validation
evaluates the weights, the mass, the norm ratios and the endpoint values
as running products, one factor per index step, with the zero factors
counted apart from the rest.  A zero on both sides of a quotient cancels,
as :func:`polyident.exact.poch_quotient` cancels it, so the closed forms
stay finite at parameter ties where individual shifted factorials vanish
(the tests pin every value against ``poch_quotient`` and against
direct-sum oracles).  The system keeps these values, and
:func:`racah_weight`, :func:`racah_h0`, :func:`racah_norm_ratio` and
:func:`endpoint_value_residual` read them.  It also keeps two grids, each
formed on first use by :func:`polyident.exact.terminating_hyp_grid`: the
values R_n(x) (:func:`racah_values`), which every check that reads many of
them reads, and the shifted-system terms that the backward shift and
summation by parts share.  Nothing is memoised by function;
:func:`racah_eval` sums the one series it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateParameterError, DomainError, check_index
from .exact import Rational, format_rational, parse_rational, terminating_hyp_grid

#: a value of the grid R_n(x), indexed [n][x]
Values = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class RacahSystem:
    """Validated Racah parameter tuple with gamma = -N-1.

    N = 0 (a single lattice point, where everything trivializes) is allowed
    so that degenerate corners of parameter sweeps stay in-domain.

    The system keeps the closed forms that validation evaluates and, once
    formed, its two grids; they are functions of the values alone, so they
    stay valid in a process that unpickles the system.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    N: int
    _closed: ClosedForms = field(init=False, repr=False, compare=False)
    _values: Values | None = field(init=False, repr=False, compare=False, default=None)
    _shifted: Values | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.N < 0:
            raise DomainError(f"N must be >= 0, got {self.N}")
        if self.gamma != -self.N - 1:
            raise DomainError(
                f"gamma must equal -N-1 = {-self.N - 1}, got {self.gamma}"
            )
        problems, closed = _validate(self)
        if problems:
            raise DegenerateParameterError(
                "degenerate Racah parameters "
                f"{','.join(map(format_rational, self.as_tuple()))}: "
                + "; ".join(problems),
                factors=problems,
            )
        object.__setattr__(self, "_closed", closed)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @staticmethod
    def parse(params: str, N: int) -> "RacahSystem":
        """Build from "alpha,beta,gamma,delta" rational strings plus N."""
        parts = [parse_rational(p) for p in params.split(",")]
        if len(parts) != 4:
            raise DomainError(f"expected 4 comma-separated rationals, got {params!r}")
        return RacahSystem(*parts, N=N)


class ClosedForms(NamedTuple):
    """The closed forms validation evaluates, indexed 0..N."""

    weights: tuple[Fraction, ...]
    h0: Fraction
    norm_ratios: tuple[Fraction, ...]
    endpoints: tuple[Fraction, ...]


def _validate(sys: RacahSystem) -> tuple[list[str], ClosedForms]:
    """Diagnostics for every denominator zero over the index range, and the
    closed forms evaluated on the way (None where one has a zero; the
    weights are normalized only when there is no problem)."""
    al, be, ga, de = sys.as_tuple()
    N = sys.N
    problems: list[str] = []

    def closed(what: str, state: _State):
        try:
            return _quotient(state)
        except DegenerateParameterError as exc:
            count = len(exc.factors)
            problems.append(f"{what}: {count} zero factor{'s' if count > 1 else ''}")
            return None

    if ga + de + 1 == 0:
        problems.append("gamma+delta+1 = 0 (weight normalization divisor)")

    # hypergeometric-sum denominators, k = 1..N
    for name, base in (("alpha+1", al + 1), ("beta+delta+1", be + de + 1),
                       ("gamma+1", ga + 1)):
        for k in range(N):
            if base + k == 0:
                problems.append(f"({name})_{{{k + 1}}} = 0 in the series denominator")
                break

    # weights, mass, norms and endpoint closed forms must evaluate everywhere
    weights = [
        closed(f"weight at x={x}", state)
        for x, state in enumerate(_running_quotients(*_weight_bases(al, be, ga, de), N))
    ]
    h0 = closed("total mass closed form", _running_quotients(
        [al + be + 2, -de], [al - de + 1, be + 1], N
    )[N])
    # the (alpha+beta+1)/(alpha+beta+1)_n block cancels its possible zero
    norm_states = _running_quotients(
        [be + 1, al + be - ga + 1, al - de + 1, Fraction(1)],
        [al + 1, al + be + 1, be + de + 1, ga + 1],
        N,
    )
    endpoint_states = _running_quotients([be + 1, al - de + 1], [al + 1, be + de + 1], N)
    norm_ratios = []
    endpoints = []
    for n in range(N + 1):
        norm_ratios.append(Fraction(1) if n == 0 else closed(
            f"norm ratio at n={n}",
            _times(norm_states[n], al + be + 1, al + be + 2 * n + 1),
        ))
        if n >= 1 and al + be + 2 * n + 1 == 0:
            problems.append(f"alpha+beta+2n+1 = 0 at n={n} (norm divisor)")
        # the Saalschuetz closed form of R_n(N)
        endpoints.append(closed(f"endpoint value at n={n}", endpoint_states[n]))
    if not problems:
        weights = [w * (ga + de + 1 + 2 * x) / (ga + de + 1) for x, w in enumerate(weights)]
    return problems, ClosedForms(tuple(weights), h0, tuple(norm_ratios), tuple(endpoints))


#: a running quotient: (product of the nonzero factors as numerator and
#: denominator, zero factors above, zero factors below)
_State = tuple[int, int, int, int]


def _running_quotients(
    numerators: Sequence[Fraction], denominators: Sequence[Fraction], last: int
) -> list[_State]:
    """prod_a (a)_i / prod_b (b)_i for i = 0..last, by one factor per step."""
    above = [(a.numerator, a.denominator) for a in numerators]
    below = [(b.numerator, b.denominator) for b in denominators]
    num = den = 1
    zeros_above = zeros_below = 0
    states = [(num, den, zeros_above, zeros_below)]
    for i in range(last):
        for p, q in above:
            if p + i * q:
                num *= p + i * q
                den *= q
            else:
                zeros_above += 1
        for p, q in below:
            if p + i * q:
                num *= q
                den *= p + i * q
            else:
                zeros_below += 1
        states.append((num, den, zeros_above, zeros_below))
    return states


def _times(state: _State, above: Fraction, below: Fraction) -> _State:
    """A running quotient times the factor ``above`` over ``below``."""
    num, den, zeros_above, zeros_below = state
    if above:
        num, den = num * above.numerator, den * above.denominator
    else:
        zeros_above += 1
    if below:
        num, den = num * below.denominator, den * below.numerator
    else:
        zeros_below += 1
    return num, den, zeros_above, zeros_below


def _quotient(state: _State) -> Fraction:
    """The value of a running quotient, as ``poch_quotient`` gives it: zero
    factors cancel in pairs, a zero left above makes it 0, and one left
    below raises DegenerateParameterError listing every zero below."""
    num, den, zeros_above, zeros_below = state
    if zeros_below > zeros_above:
        raise DegenerateParameterError(
            "zero denominator factor survives cancellation", factors=["0"] * zeros_below
        )
    return Fraction(0) if zeros_above > zeros_below else Fraction(num, den)


def _weight_bases(al, be, ga, de) -> tuple[list[Fraction], list[Fraction]]:
    """The shifted-factorial bases of the orthogonality weight at x, each
    of length x, without the (gamma+delta+1+2x)/(gamma+delta+1)
    normalization factor."""
    return (
        [al + 1, be + de + 1, ga + 1, ga + de + 1],
        [-al + ga + de + 1, -be + ga + 1, de + 1, Fraction(1)],
    )


def _values_grid(degrees: Sequence[int], xs: Iterable[int], al, be, ga, de) -> Values:
    """The terminating 4F3 sums defining the polynomials: R_n(x) for the
    degrees n (rows) at the lattice indices x (columns), as one grid."""
    return terminating_hyp_grid(
        [(Fraction(-n), n + al + be + 1) for n in degrees],
        [(Fraction(-x), x + ga + de + 1) for x in xs],
        [al + 1, be + de + 1, ga + 1],
        max(degrees),
    )


def racah_values(sys: RacahSystem) -> Values:
    """Every value R_n(x), n, x = 0..N, indexed [n][x]: formed as one grid
    on first use and kept by the system."""
    if sys._values is None:
        object.__setattr__(
            sys, "_values", _values_grid(range(sys.N + 1), range(sys.N + 1), *sys.as_tuple())
        )
    return sys._values


def racah_eval(n: int, x: int, sys: RacahSystem) -> Fraction:
    """Exact value of the degree-n Racah polynomial at lattice index x: the
    one series, in O(n) terms; it forms no grid (:func:`racah_values`)."""
    check_index(n, sys.N, "degree n")
    check_index(x, sys.N, "lattice index x")
    return _values_grid([n], [x], *sys.as_tuple())[0][0]


def racah_weight(x: int, sys: RacahSystem) -> Fraction:
    """Orthogonality weight w(x) on the lattice 0..N."""
    check_index(x, sys.N, "lattice index x")
    return sys._closed.weights[x]


def racah_h0(sys: RacahSystem) -> Fraction:
    """Total weight mass, via its closed form (equal to the direct sum)."""
    return sys._closed.h0


def racah_norm_ratio(n: int, sys: RacahSystem) -> Fraction:
    """Squared-norm ratio h_n / h_0, via its closed form."""
    check_index(n, sys.N, "degree n")
    return sys._closed.norm_ratios[n]


def endpoint_value_residual(n: int, sys: RacahSystem) -> Fraction:
    """racah_eval at x = N minus its Saalschuetz closed form; must be 0."""
    check_index(n, sys.N, "degree n")
    return racah_eval(n, sys.N, sys) - sys._closed.endpoints[n]


def _shifted_terms(sys: RacahSystem) -> Values:
    """Weight (without normalization) times degree n-1 value at x = 0..N-1,
    both of the shifted system (alpha+1, beta+1, gamma+1, delta), indexed
    [n-1][x]: formed as one grid on first use and kept by the system.

    The backward shift at every x and summation by parts against every
    trial function read the same terms.  The grid meets no lower-parameter
    pole that a single row would not: validation excludes the zeros of
    (alpha+1)_k and (beta+delta+1)_k for k <= N, and (gamma+2)_k first
    vanishes past every row.  A degenerate shifted weight raises on every
    use, since nothing is kept then.
    """
    if sys._shifted is None:
        al, be, ga, de = sys.as_tuple()
        shifted = (al + 1, be + 1, ga + 1, de)
        states = _running_quotients(*_weight_bases(*shifted), sys.N - 1)
        values = _values_grid(range(sys.N), range(sys.N), *shifted)
        weights = [_quotient(state) for state in states]
        object.__setattr__(sys, "_shifted", tuple(
            tuple(w * v for w, v in zip(weights, row)) for row in values
        ))
    return sys._shifted


def backward_shift_residual(n: int, x: int, sys: RacahSystem) -> Fraction:
    """Residual of the degree-lowering, parameter-raising shift identity.

    The identity equates w(x) R_n(x) with a two-point difference of
    (alpha+1, beta+1, gamma+1, delta) quantities.  The displayed prefactors
    (gamma+delta+2)/(gamma+delta+2+2x) cancel the shifted weight's
    normalization exactly, so the residual is computed in that cancelled
    form; the boundary conventions (no second term at x = 0, no first term
    at x = N) are index guards, not limits.
    """
    if n < 1:
        raise DomainError(f"backward shift needs n >= 1, got {n}")
    check_index(n, sys.N, "degree n")
    check_index(x, sys.N, "lattice index x")

    lhs = racah_weight(x, sys) * racah_values(sys)[n][x]
    terms = _shifted_terms(sys)[n - 1]
    rhs = Fraction(0)
    if x < sys.N:
        rhs += terms[x]
    if x > 0:
        rhs -= terms[x - 1]
    return lhs - rhs


def sum_by_parts_residual(n: int, f: Sequence[Rational], sys: RacahSystem) -> Fraction:
    """Residual of summation by parts against an arbitrary lattice function.

    f must supply N+1 values; the right-hand side pairs the shifted-system
    quantities with first differences f(x) - f(x+1).
    """
    if n < 1:
        raise DomainError(f"summation by parts needs n >= 1, got {n}")
    check_index(n, sys.N, "degree n")
    if len(f) != sys.N + 1:
        raise DomainError(f"f must have {sys.N + 1} values, got {len(f)}")
    fv = [Fraction(v) for v in f]
    lhs = sum(
        racah_weight(x, sys) * value * fv[x]
        for x, value in enumerate(racah_values(sys)[n])
    )
    rhs = Fraction(0)
    for x, term in enumerate(_shifted_terms(sys)[n - 1]):
        rhs += term * (fv[x] - fv[x + 1])
    return lhs - rhs


def gram_matrix(sys: RacahSystem) -> list[list[Fraction]]:
    """Full exact Gram matrix of the system (weighted sums over the lattice)."""
    vals = racah_values(sys)
    w = [racah_weight(x, sys) for x in range(sys.N + 1)]
    return [
        [
            sum(vals[m][x] * vals[n][x] * w[x] for x in range(sys.N + 1))
            for n in range(sys.N + 1)
        ]
        for m in range(sys.N + 1)
    ]
