"""Exact rational arithmetic, shifted factorials and the surd quotient ring.

Everything here is pure and immutable: ``Fraction`` carries all rational
values, ``UniPoly`` is a dense univariate polynomial over the rationals,
and ``SurdPoly`` is an element of the quotient ring

    Q[x, y, t, u, v] / (u^2 - (1 - x^2), v^2 - (1 - y^2)),

whose canonical form keeps u- and v-exponents in {0, 1}.  Identities with
half-integer powers of 1 - x^2 live in this ring as honest polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DegenerateParameterError, DomainError, RelationViolationError

Rational = Fraction

_ZERO = Fraction(0)

#: Variable order of the surd ring; monomial keys are exponent tuples
#: (a, b, c, e, f) for x^a y^b t^c u^e v^f with e, f in {0, 1}.
SURD_VARS = ("x", "y", "t", "u", "v")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (decimal integers, optional leading minus)."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational literal: {text!r}") from exc
    return value


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without "/1"."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Shifted factorial a (a+1) ... (a+n-1); empty product for n = 0."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    # with a = p/q the product is prod (p + i q) / q^n: one reduction, not n
    p, q = a.numerator, a.denominator
    num = 1
    for i in range(n):
        num *= p + i * q
    return Fraction(num, q**n)


def poch_quotient(
    numerators: Iterable[tuple[Fraction, int]],
    denominators: Iterable[tuple[Fraction, int]],
) -> Fraction:
    """Evaluate a quotient of shifted-factorial products with cancellation.

    Both arguments are sequences of ``(base, length)`` pairs, each standing
    for the product base (base+1) ... (base+length-1).  Every linear factor
    is expanded to its value and factors equal in value are cancelled
    between numerator and denominator before multiplying out.  This makes
    quotients well defined at parameter ties where individual factors
    vanish on both sides (the closed forms below are continuous there,
    and the direct-sum oracles in the tests confirm each such value).

    Raises :class:`DegenerateParameterError` if a zero denominator factor
    survives cancellation.
    """
    num_vals: list[Fraction] = []
    for base, length in numerators:
        num_vals.extend(base + i for i in range(length))
    den_vals: list[Fraction] = []
    for base, length in denominators:
        den_vals.extend(base + i for i in range(length))

    remaining_den = list(den_vals)
    remaining_num: list[Fraction] = []
    for v in num_vals:
        try:
            remaining_den.remove(v)
        except ValueError:
            remaining_num.append(v)

    dead = [v for v in remaining_den if v == 0]
    if dead:
        raise DegenerateParameterError(
            "zero denominator factor survives cancellation",
            factors=[format_rational(v) for v in den_vals if v == 0],
        )
    out = Fraction(1)
    for v in remaining_num:
        out *= v
    for v in remaining_den:
        out /= v
    return out


def terminating_hyp(
    uppers: Sequence[Fraction],
    lowers: Sequence[Fraction],
    max_terms: int,
    z: Fraction = Fraction(1),
) -> Fraction:
    """Exact sum of a terminating hypergeometric series.

    Sums ``sum_k prod (a_i)_k / (prod (b_j)_k k!) z^k`` for k = 0..max_terms.
    The caller guarantees termination (some upper parameter a negative
    integer >= -max_terms) and pole-free lower parameters on that range;
    a zero running numerator stops the loop early.
    """
    total = Fraction(0)
    term = Fraction(1)
    for k in range(max_terms + 1):
        total += term
        top = Fraction(1)
        for a in uppers:
            top *= a + k
        if top == 0:
            break
        bot = Fraction(k + 1)
        for b in lowers:
            bot *= b + k
        if bot == 0:
            raise DomainError(f"lower parameter pole at term {k + 1}")
        term *= top * z / bot
    return total


class UniPoly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored degree-ascending with no trailing zeros;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((Fraction(1),))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=_ZERO))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=_ZERO))

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c: Fraction | int) -> "UniPoly":
        c = Fraction(c)
        return UniPoly(a * c for a in self.coeffs)

    def pow(self, k: int) -> "UniPoly":
        out = UniPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    def serialize(self) -> list[str]:
        """Dense degree-ascending list of "p/q" strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"UniPoly([{', '.join(self.serialize())}])"


Monomial = tuple[int, int, int, int, int]


def _grade_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


class SurdPoly:
    """Element of Q[x,y,t,u,v] modulo u^2 = 1-x^2, v^2 = 1-y^2.

    The canonical expansion maps monomials (a, b, c, e, f) with
    e, f in {0, 1} to nonzero rational coefficients; equality of canonical
    forms is equality in the ring, so identity checks here are proofs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        reduced: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff == 0:
                    continue
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                _accumulate_reduced(reduced, mono, c)
            for mono in [m for m, c in reduced.items() if c == 0]:
                del reduced[mono]
        object.__setattr__(self, "terms", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("SurdPoly is immutable")

    @staticmethod
    def zero() -> "SurdPoly":
        return SurdPoly()

    @staticmethod
    def constant(c: Fraction | int) -> "SurdPoly":
        return SurdPoly({(0, 0, 0, 0, 0): Fraction(c)})

    @staticmethod
    def one() -> "SurdPoly":
        return SurdPoly.constant(1)

    @staticmethod
    def variable(name: str) -> "SurdPoly":
        if name not in SURD_VARS:
            raise DomainError(f"unknown ring variable {name!r}")
        mono = [0, 0, 0, 0, 0]
        mono[SURD_VARS.index(name)] = 1
        return SurdPoly({tuple(mono): Fraction(1)})

    @staticmethod
    def from_unipoly(p: UniPoly, var: str = "x") -> "SurdPoly":
        """Inject a univariate polynomial, reading its variable as ``var``."""
        x = SurdPoly.variable(var)
        return x.substitute_into(p)

    def substitute_into(self, p: UniPoly) -> "SurdPoly":
        """Evaluate the univariate polynomial ``p`` at this ring element."""
        acc = SurdPoly.zero()
        for c in reversed(p.coeffs):
            acc = acc * self + SurdPoly.constant(c)
        return acc

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, SurdPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SurdPoly") -> "SurdPoly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, Fraction(0)) + coeff
            if new == 0:
                out.pop(mono, None)
            else:
                out[mono] = new
        return _raw(out)

    def __sub__(self, other: "SurdPoly") -> "SurdPoly":
        return self + (-other)

    def __neg__(self) -> "SurdPoly":
        return _raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "SurdPoly") -> "SurdPoly":
        out: dict[Monomial, Fraction] = {}
        for (a1, b1, c1, e1, f1), q1 in self.terms.items():
            for (a2, b2, c2, e2, f2), q2 in other.terms.items():
                mono = (a1 + a2, b1 + b2, c1 + c2, e1 + e2, f1 + f2)
                _accumulate_reduced(out, mono, q1 * q2)
        return _raw({m: c for m, c in out.items() if c != 0})

    def scale(self, c: Fraction | int) -> "SurdPoly":
        c = Fraction(c)
        if c == 0:
            return SurdPoly.zero()
        return _raw({m: q * c for m, q in self.terms.items()})

    def pow(self, k: int) -> "SurdPoly":
        out = SurdPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, bindings: Mapping[str, Fraction | int]) -> Fraction:
        """Exact evaluation at a point satisfying the quotient relations.

        ``bindings`` must assign every variable appearing in the element;
        whenever (x, u) or (y, v) are both bound, u^2 = 1 - x^2 and
        v^2 = 1 - y^2 are required exactly.
        """
        vals = {k: Fraction(v) for k, v in bindings.items()}
        for sq, base in (("u", "x"), ("v", "y")):
            if sq in vals and base in vals:
                if vals[sq] ** 2 != 1 - vals[base] ** 2:
                    raise RelationViolationError(
                        f"{sq}^2 != 1 - {base}^2 for {sq}={vals[sq]}, {base}={vals[base]}"
                    )
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for exp, name in zip(mono, SURD_VARS):
                if exp == 0:
                    continue
                if name not in vals:
                    raise RelationViolationError(f"no binding for variable {name!r}")
                term *= vals[name] ** exp
            total += term
        return total

    def set_t(self, value: Fraction | int) -> "SurdPoly":
        """Substitute a rational value for t, staying in the ring."""
        value = Fraction(value)
        return self.map_t_powers(lambda c: value**c)

    def map_t_powers(self, weight: Callable[[int], Fraction]) -> "SurdPoly":
        """Replace each power t^c by the rational weight(c), staying in the ring.

        With the moments of a measure in t as weights, this integrates t out.
        """
        out: dict[Monomial, Fraction] = {}
        for (a, b, c, e, f), q in self.terms.items():
            _accumulate_reduced(out, (a, b, 0, e, f), q * weight(c))
        return _raw({m: c for m, c in out.items() if c != 0})

    def identify_y_with_x(self) -> "SurdPoly":
        """Map y -> x and v -> u, reducing the new u powers."""
        out: dict[Monomial, Fraction] = {}
        for (a, b, c, e, f), q in self.terms.items():
            _accumulate_reduced(out, (a + b, 0, c, e + f, 0), q)
        return _raw({m: c for m, c in out.items() if c != 0})

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Graded-lexicographic term order; the serialization order."""
        return sorted(self.terms.items(), key=lambda kv: _grade_key(kv[0]))

    def serialize(self) -> list[tuple[str, str]]:
        """Sorted list of (monomial, rational) string pairs."""
        out = []
        for mono, coeff in self.sorted_terms():
            name = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(SURD_VARS, mono)
                if e > 0
            )
            out.append((name or "1", format_rational(coeff)))
        return out

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{m}" for m, c in self.serialize())
        return f"SurdPoly({body or '0'})"


def _raw(terms: dict[Monomial, Fraction]) -> SurdPoly:
    """Wrap an already-reduced term dict without re-reducing."""
    obj = SurdPoly.__new__(SurdPoly)
    object.__setattr__(obj, "terms", terms)
    return obj


def _accumulate_reduced(out: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    """Add coeff * mono to ``out``, rewriting u^2 -> 1-x^2 and v^2 -> 1-y^2."""
    a, b, c, e, f = mono
    if e < 2 and f < 2:  # nothing to rewrite
        prev = out.get(mono)
        out[mono] = coeff if prev is None else prev + coeff
        return
    ku, kv = e // 2, f // 2
    e %= 2
    f %= 2
    # (1-x^2)^ku (1-y^2)^kv expand binomially; exponents stay nonnegative.
    for i in range(ku + 1):
        ci = coeff * math.comb(ku, i) * (-1) ** i
        for j in range(kv + 1):
            cij = ci * math.comb(kv, j) * (-1) ** j
            key = (a + 2 * i, b + 2 * j, c, e, f)
            out[key] = out.get(key, _ZERO) + cij


def pythagorean_point(s: Fraction | int) -> tuple[Fraction, Fraction]:
    """Rational point (x, u) on u^2 = 1 - x^2 with x in [-1, 1].

    x = (1-s^2)/(1+s^2), u = 2s/(1+s^2); every rational s works and s = 0, 1
    give the endpoints (1, 0) and (0, 1).
    """
    s = Fraction(s)
    d = 1 + s * s
    return (1 - s * s) / d, 2 * s / d
