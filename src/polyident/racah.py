"""Racah polynomials on the finite quadratic lattice x(x+gamma+delta+1).

A :class:`RacahSystem` fixes parameters (alpha, beta, gamma, delta) with
gamma = -N-1 and validates, at construction, every denominator the closed
forms below can touch over the full index range 0..N.  Parameter
specializations of interest sit near many poles, so failing early with a
list of offending factors beats a ZeroDivisionError deep inside a sweep.

Running products are the one evaluator of the closed forms: validation
evaluates the weights, the mass, the norm ratios and the endpoint values
as running products, one factor per index step, with the zero factors
counted apart from the rest.  Validation is fraction-free: the four
parameters are brought over one common denominator D, every base of every
shifted factorial is then an integer over D, and since each closed form
has as many shifted factorials above as below, the powers of D cancel and
each value is one integer quotient, reduced once (the weight
normalization (gamma+delta+1+2x)/(gamma+delta+1) included).  Each
series-denominator base is tested once, as an integer in (-N, 0], and the
norm divisor alpha+beta+2n+1 by solving for its one zero.  A zero on
both sides of a quotient cancels, as :func:`polyident.exact.poch_quotient`
cancels it, so the closed forms stay finite at parameter ties where
individual shifted factorials vanish (the tests pin every value against
``poch_quotient`` and against direct-sum oracles, and the problems and
values against a loop over the indices on ``Fraction`` bases).

The system keeps these values, and :func:`racah_weight`,
:func:`racah_h0`, :func:`racah_norm_ratio` and
:func:`endpoint_value_residual` read them.  It also keeps two grids as
cached properties, each formed on first use by
:func:`polyident.exact.terminating_hyp_grid`: the values R_n(x)
(:attr:`RacahSystem.values`), which every check that reads many of them
reads, and the shifted-system terms (:attr:`RacahSystem.shifted_terms`)
that the backward shift and summation by parts share.
:func:`system_over` keeps one validated system per parameter tuple, by
the integers (D, A, B, G, E, N) of the parameters over their least common
denominator D, the numerators validation computes; an int tuple hashes and
compares at a fraction of a ``Fraction``'s cost.  :func:`racah_system`
brings rationals to that form, and the dual-addition specializations and
the Hermite limits form it straight from alpha, so every suite shares one
system; otherwise nothing is memoised by function, and :func:`racah_eval`
sums the one series it is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    formed, its two grids (cached properties); they are functions of the
    parameters alone, so they stay valid in a process that unpickles the
    system.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    N: int
    _closed: ClosedForms = field(init=False, repr=False, compare=False)

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

    @cached_property
    def values(self) -> Values:
        """Every value R_n(x), n, x = 0..N, indexed [n][x]: formed as one grid
        on first use and kept by the system."""
        return _values_grid(range(self.N + 1), range(self.N + 1), *self.as_tuple())

    @cached_property
    def shifted_terms(self) -> Values:
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
        al, be, ga, de = self.as_tuple()
        shifted = (al + 1, be + 1, ga + 1, de)
        D, (A, B, G, E) = _over_common_denominator(shifted)
        states = _running_quotients(*_weight_bases(A, B, G, E, D), D, self.N - 1)
        weights = [_quotient(state) for state in states]
        return tuple(
            tuple(w * v for w, v in zip(weights, row))
            for row in _values_grid(range(self.N), range(self.N), *shifted)
        )

    @staticmethod
    def parse(params: str, N: int) -> "RacahSystem":
        """The system of "alpha,beta,gamma,delta" rational strings plus N,
        the one :func:`system_over` keeps for them."""
        parts = [parse_rational(p) for p in params.split(",")]
        if len(parts) != 4:
            raise DomainError(f"expected 4 comma-separated rationals, got {params!r}")
        return racah_system(*parts, N)


def racah_system(alpha: Rational, beta: Rational, gamma: Rational, delta: Rational,
                 N: int) -> RacahSystem:
    """The one validated system of these parameters in this process, so
    that every check on it, whichever suite asks, shares its closed forms
    and its grids: :func:`system_over` of the parameters over their least
    common denominator."""
    D, numerators = _over_common_denominator((alpha, beta, gamma, delta))
    return system_over(D, *numerators, N)


@lru_cache(maxsize=None)
def system_over(D: int, A: int, B: int, G: int, E: int, N: int) -> RacahSystem:
    """The one validated system of (alpha, beta, gamma, delta) = (A, B, G,
    E)/D in this process, kept by its integers: D must be the parameters'
    least common denominator, as :func:`_over_common_denominator` forms
    it (D > 0, no factor common to D, A, B, G and E), so that each system
    has one key."""
    return RacahSystem(Fraction(A, D), Fraction(B, D), Fraction(G, D), Fraction(E, D), N=N)


class ClosedForms(NamedTuple):
    """The closed forms validation evaluates, indexed 0..N."""

    weights: tuple[Fraction, ...]
    h0: Fraction
    norm_ratios: tuple[Fraction, ...]
    endpoints: tuple[Fraction, ...]


def _validate(sys: RacahSystem) -> tuple[list[str], ClosedForms]:
    """Diagnostics for every denominator zero over the index range, and the
    closed forms evaluated on the way (None where one has a zero; the
    weights are normalized only when there is no problem).

    The parameters are brought over one common denominator D, so every
    base and every factor is an integer over D; each closed form has as
    many shifted factorials above as below, so the powers of D cancel and
    each value is one integer quotient, reduced once.
    """
    D, (A, B, G, E) = _over_common_denominator(sys.as_tuple())
    N = sys.N
    problems: list[str] = []

    def has_value(what: str, state: _State) -> bool:
        """Record the problem of a zero factor left below; True if none."""
        zeros_above, zeros_below = state[2:]
        if zeros_below > zeros_above:
            problems.append(f"{what}: {zeros_below} zero factor{'s' if zeros_below > 1 else ''}")
            return False
        return True

    norm_divisor = G + E + D  # gamma+delta+1, over D
    if norm_divisor == 0:
        problems.append("gamma+delta+1 = 0 (weight normalization divisor)")

    # hypergeometric-sum denominators, k = 1..N: (base)_k vanishes for some
    # k <= N exactly when base is an integer in (-N, 0]
    for name, base in (("alpha+1", A + D), ("beta+delta+1", B + E + D), ("gamma+1", G + D)):
        if base % D == 0 and -N < base // D <= 0:
            problems.append(f"({name})_{{{1 - base // D}}} = 0 in the series denominator")

    # weights, mass, norms and endpoint closed forms must evaluate everywhere
    weight_states = _running_quotients(*_weight_bases(A, B, G, E, D), D, N)
    weights_valid = [has_value(f"weight at x={x}", state) for x, state in enumerate(weight_states)]
    h0_state = _running_quotients([A + B + 2 * D, -E], [A - E + D, B + D], D, N)[N]
    h0 = _value(h0_state) if has_value("total mass closed form", h0_state) else None
    # the (alpha+beta+1)/(alpha+beta+1)_n block cancels its possible zero;
    # alpha+beta+2n+1 vanishes at n = -(alpha+beta+1)/2 when that is in 1..N
    norm_states = _running_quotients(
        [B + D, A + B - G + D, A - E + D, D], [A + D, A + B + D, B + E + D, G + D], D, N
    )
    endpoint_states = _running_quotients([B + D, A - E + D], [A + D, B + E + D], D, N)
    first = A + B + D  # alpha+beta+1, over D
    zero_n = -first // (2 * D) if first % (2 * D) == 0 else None
    norm_ratios: list[Fraction | None] = []
    endpoints: list[Fraction | None] = []
    for n in range(N + 1):
        if n == 0:
            norm_ratios.append(Fraction(1))
        else:
            state = _times(norm_states[n], first, first + 2 * n * D)
            norm_ratios.append(_value(state) if has_value(f"norm ratio at n={n}", state) else None)
            if n == zero_n:
                problems.append(f"alpha+beta+2n+1 = 0 at n={n} (norm divisor)")
        # the Saalschuetz closed form of R_n(N)
        state = endpoint_states[n]
        endpoints.append(_value(state) if has_value(f"endpoint value at n={n}", state) else None)
    if problems:
        weights = [_value(state) if valid else None
                   for state, valid in zip(weight_states, weights_valid)]
    else:
        # normalized by (gamma+delta+1+2x)/(gamma+delta+1) in the same quotient
        weights = [_value(_times(state, norm_divisor + 2 * x * D, norm_divisor))
                   for x, state in enumerate(weight_states)]
    return problems, ClosedForms(tuple(weights), h0, tuple(norm_ratios), tuple(endpoints))


def _over_common_denominator(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """(D, numerators): the values as integers over their least common
    denominator D; no factor divides D and every numerator."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


#: a running quotient: (product of the nonzero factors as numerator and
#: denominator, zero factors above, zero factors below)
_State = tuple[int, int, int, int]


def _running_quotients(
    numerators: Sequence[int], denominators: Sequence[int], step: int, last: int
) -> list[_State]:
    """prod_a (a/step)_i / prod_b (b/step)_i for i = 0..last, by one factor
    per step, for as many bases a above as b below: the bases are integers
    over the common denominator ``step``, whose powers cancel wherever the
    quotient has a value (as many zero factors above as below)."""
    num = den = 1
    zeros_above = zeros_below = 0
    states = [(num, den, zeros_above, zeros_below)]
    for i in range(last):
        shift = i * step
        for a in numerators:
            if a + shift:
                num *= a + shift
            else:
                zeros_above += 1
        for b in denominators:
            if b + shift:
                den *= b + shift
            else:
                zeros_below += 1
        states.append((num, den, zeros_above, zeros_below))
    return states


def _times(state: _State, above: int, below: int) -> _State:
    """A running quotient times the factor ``above`` over ``below``, two
    integers over one denominator."""
    num, den, zeros_above, zeros_below = state
    if above:
        num *= above
    else:
        zeros_above += 1
    if below:
        den *= below
    else:
        zeros_below += 1
    return num, den, zeros_above, zeros_below


def _value(state: _State) -> Fraction:
    """The value of a running quotient with no zero left below: zero
    factors cancel in pairs, and a zero left above makes it 0."""
    num, den, zeros_above, zeros_below = state
    return Fraction(0) if zeros_above > zeros_below else Fraction(num, den)


def _quotient(state: _State) -> Fraction:
    """The value of a running quotient, as ``poch_quotient`` gives it: zero
    factors cancel in pairs, a zero left above makes it 0, and one left
    below raises DegenerateParameterError listing every zero below."""
    zeros_above, zeros_below = state[2:]
    if zeros_below > zeros_above:
        raise DegenerateParameterError(
            "zero denominator factor survives cancellation", factors=["0"] * zeros_below
        )
    return _value(state)


def _weight_bases(A: int, B: int, G: int, E: int, D: int) -> tuple[list[int], list[int]]:
    """The shifted-factorial bases of the orthogonality weight at x, each
    of length x, without the (gamma+delta+1+2x)/(gamma+delta+1)
    normalization factor: integers over the parameters' common denominator
    D, for the numerators A, B, G, E of alpha, beta, gamma, delta."""
    return (
        [A + D, B + E + D, G + D, G + E + D],
        [-A + G + E + D, -B + G + D, E + D, D],
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


def racah_eval(n: int, x: int, sys: RacahSystem) -> Fraction:
    """Exact value of the degree-n Racah polynomial at lattice index x: the
    one series, in O(n) terms; it forms no grid (:attr:`RacahSystem.values`)."""
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

    lhs = racah_weight(x, sys) * sys.values[n][x]
    terms = sys.shifted_terms[n - 1]
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
        for x, value in enumerate(sys.values[n])
    )
    rhs = Fraction(0)
    for x, term in enumerate(sys.shifted_terms[n - 1]):
        rhs += term * (fv[x] - fv[x + 1])
    return lhs - rhs


def gram_matrix(sys: RacahSystem) -> list[list[Fraction]]:
    """Full exact Gram matrix of the system (weighted sums over the lattice)."""
    vals = sys.values
    w = [racah_weight(x, sys) for x in range(sys.N + 1)]
    return [
        [
            sum(vals[m][x] * vals[n][x] * w[x] for x in range(sys.N + 1))
            for n in range(sys.N + 1)
        ]
        for m in range(sys.N + 1)
    ]
