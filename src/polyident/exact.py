"""Exact rational arithmetic, shifted factorials and the surd quotient ring.

Everything here is pure and immutable: ``Fraction`` carries the rational
values that cross the API, ``UniPoly`` is a dense univariate polynomial
over the rationals, and ``SurdPoly`` is an element of the quotient ring

    Q[x, y, t, u, v] / (u^2 - (1 - x^2), v^2 - (1 - y^2)),

whose canonical form keeps u- and v-exponents in {0, 1}.  Identities with
half-integer powers of 1 - x^2 live in this ring as honest polynomials.

The hot kernels are fraction-free.  A ``UniPoly`` is an integer vector over
one positive common denominator, reduced by its content (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 6), so its arithmetic runs on ints
with one gcd per result instead of one per coefficient operation.
The integer kernels that build one ``Fraction`` per value, from integer
numerators and denominators:

- ``pochhammer`` (over ``rising_product``, the integer numerator of a
  shifted factorial) and ``poch_quotient`` here;
- ``terminating_hyp_grid`` here, which sums a whole grid of terminating
  series whose upper parameters split into a row part and a column part:
  each row's and each column's shifted-factorial products are formed once,
  and each entry is one integer dot product.  ``terminating_hyp`` is its
  one-entry case;
- ``classical.gegenbauer_pairing``, which forms the pairings of one
  polynomial with every power of x against the Gegenbauer weight once, so
  that each inner product with it is one integer dot product;
  ``classical.inner_product`` is a one-off pairing;
- the running products by which ``racah`` validation evaluates a system's
  weights, mass, norm ratios and endpoint values, one factor per index
  step; ``poch_quotient`` is their reference, which the tests pin them to;
- ``classical.jacobi_r``, whose terminating 2F1 terms are integers over
  one denominator, summed by Horner's rule in 1 - x;
- the expansion side of ``addition``, which puts each term's integer
  numerators straight on their canonical surd monomials and reduces the
  sum once;
- ``UniPoly.numerator_at``, the Horner numerator at x = p/q, on which the
  circle-point checks in ``suites`` compare bounds and values as integers.

``UniPoly.combination`` sums scaled polynomials in one integer pass over
one common denominator, with one reduction for the sum.  The Thiele
fraction behind ``limit_at_infinity`` runs on integers from end to end:
each sample hands it an ``int`` alpha and takes back its components as
unreduced integer pairs, the fraction keeps its nodes as (1, alpha) and
its coefficients as reduced pairs, takes each sample down its
inverse-difference chain once and is read off at 1/alpha = 0 in integers;
only the limits it returns are ``Fraction``s.

The memos of the exact layers are keyed by integers: ``integer_keyed``
memoises a function of (n, alpha, ...) by n and each rational's numerator
and denominator, so that a lookup hashes no ``Fraction``.

``SurdPoly`` is fraction-free by the same rule as ``UniPoly``: integer
numerators on its monomials over one positive common denominator, reduced
by their content, so equal ring elements have equal stored forms.  Its
products, sums, the u^2/v^2 rewrite and the t-substitutions run on ints
with one gcd per result; ``from_unipoly`` places a ``UniPoly``'s numerators
on their monomials over its denominator directly.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain, zip_longest
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DegenerateParameterError, DomainError

Rational = Fraction

_ZERO = Fraction(0)

#: the factor 0 as a reduced (numerator, denominator) pair
_ZERO_FACTOR = (0, 1)

#: Variable order of the surd ring; monomial keys are exponent tuples
#: (a, b, c, e, f) for x^a y^b t^c u^e v^f with e, f in {0, 1}.
SURD_VARS = ("x", "y", "t", "u", "v")


#: the largest decimal exponent :func:`parse_rational` takes: ``Fraction``
#: builds 10^e for "1e<e>", which for "1e999999999" runs for minutes
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal exactly, never through a float.

    The grammar is ``Fraction``'s, with surrounding whitespace allowed: an
    integer ("5", "-3", "+2", "1_000"), a quotient "p/q" of integers (sign
    before p only, q nonzero), or a finite decimal with an optional
    exponent of magnitude at most 4300 ("0.5", "1.5e-3", "1e6"; "0.1" is
    1/10).  Anything else, "1e4301", "0x10" and "1/-2" among them, is a
    DomainError.
    """
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational literal: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without "/1"."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def integer_keyed(fn: Callable) -> Callable:
    """Memoise ``fn(n, alpha, *more)``, for an int n and rationals alpha
    and ``more``, by n and each rational's numerator and denominator.

    An int tuple hashes in a fraction of the time a ``Fraction`` key takes
    (each ``Fraction`` hash is a modular inverse) and compares without the
    ``numbers.Rational`` checks; int hashes are the same in every process.
    Equal rationals have equal reduced pairs, so the memo keeps one entry
    per value, as one keyed by the values would.  ``fn`` receives each
    rational as a ``Fraction``.  The memo shows its ``lru_cache``'s
    ``cache_info`` and ``cache_clear``, and ``__wrapped__`` is ``fn``.
    """

    @lru_cache(maxsize=None)
    def by_integers(n, *pairs):
        return fn(n, *map(Fraction, pairs[::2], pairs[1::2]))

    @wraps(fn)
    def memo(n, alpha, *more):
        if more:
            return by_integers(n, alpha.numerator, alpha.denominator,
                               *chain.from_iterable((q.numerator, q.denominator) for q in more))
        return by_integers(n, alpha.numerator, alpha.denominator)

    memo.cache_info, memo.cache_clear = by_integers.cache_info, by_integers.cache_clear
    return memo


def rising_product(p: int, q: int, n: int) -> int:
    """p (p+q) (p+2q) ... (p+(n-1)q), which is q^n (p/q)_n: the integer
    numerator of a shifted factorial; 1 for n = 0."""
    num = 1
    for i in range(n):
        num *= p + i * q
    return num


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Shifted factorial a (a+1) ... (a+n-1); empty product for n = 0."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    # with a = p/q the product is prod (p + i q) / q^n: one reduction, not n
    q = a.denominator
    return Fraction(rising_product(a.numerator, q, n), q**n)


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
    num_vals = _linear_factors(numerators)
    den_vals = _linear_factors(denominators)
    remaining_num = num_vals - den_vals
    remaining_den = den_vals - num_vals
    if remaining_den[_ZERO_FACTOR]:
        raise DegenerateParameterError(
            "zero denominator factor survives cancellation",
            factors=[format_rational(_ZERO)] * den_vals[_ZERO_FACTOR],
        )
    num = den = 1
    for (p, q), k in remaining_num.items():
        num *= p**k
        den *= q**k
    for (p, q), k in remaining_den.items():
        num *= q**k
        den *= p**k
    return Fraction(num, den)


def _linear_factors(pairs: Iterable[tuple[Fraction, int]]) -> Counter:
    """Multiset of the factors base + i, i < length, as reduced (p, q) pairs.

    With base = p/q in lowest terms, (p + i q)/q is in lowest terms too, so
    equal values give equal pairs.
    """
    return Counter(
        (base.numerator + i * base.denominator, base.denominator)
        for base, length in pairs
        for i in range(length)
    )


def terminating_hyp(
    uppers: Sequence[Fraction],
    lowers: Sequence[Fraction],
    max_terms: int,
    z: Fraction = Fraction(1),
) -> Fraction:
    """Exact sum of a terminating hypergeometric series.

    Sums ``sum_k prod (a_i)_k / (prod (b_j)_k k!) z^k`` for k = 0..max_terms:
    the one-entry case of :func:`terminating_hyp_grid`.
    """
    return terminating_hyp_grid([uppers], [()], lowers, max_terms, z)[0][0]


def terminating_hyp_grid(
    rows: Sequence[Sequence[Fraction]],
    cols: Sequence[Sequence[Fraction]],
    lowers: Sequence[Fraction],
    max_terms: int,
    z: Fraction = Fraction(1),
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact sums of terminating hypergeometric series over a grid.

    Entry (r, c) sums ``sum_k prod (a_i)_k / (prod (b_j)_k k!) z^k`` for
    k = 0..max_terms, the upper parameters a_i being ``rows[r]`` followed by
    ``cols[c]``.  The caller guarantees termination (some upper parameter a
    negative integer >= -max_terms) and pole-free lower parameters on that
    range: an entry's series stops where its upper product vanishes, and a
    lower factor that vanishes before that raises DomainError, naming the
    term it would divide.

    Term k of entry (r, c) is A_r(k) B_c(k) w_k / W in integers: A_r(k) and
    B_c(k) are the row's and the column's upper products over the common
    denominators D_row^k and D_col^k, and the weights w_k carry those
    denominators, z^k and the lower products over one W.  Each product is
    formed once, and each entry is one integer dot product and one
    ``Fraction`` (:func:`terminating_hyp_numerators` gives the dot products
    and W without them).
    """
    nums, den = terminating_hyp_numerators(rows, cols, lowers, max_terms, z)
    return tuple(tuple(Fraction(num, den) for num in row) for row in nums)


def terminating_hyp_numerators(
    rows: Sequence[Sequence[Fraction]],
    cols: Sequence[Sequence[Fraction]],
    lowers: Sequence[Fraction],
    max_terms: int,
    z: Fraction = Fraction(1),
) -> tuple[list[list[int]], int]:
    """The grid of :func:`terminating_hyp_grid` as integer numerators over
    its one common denominator W (nonzero, of either sign): entry (r, c)
    is ``nums[r][c] / W``, unreduced."""
    row_ends = [_first_zero(params) for params in rows]
    col_ends = [_first_zero(params) for params in cols]
    pole = _first_zero(lowers)
    if (rows and cols and pole <= max_terms
            and pole < max(row_ends) and pole < max(col_ends)):
        raise DomainError(f"lower parameter pole at term {pole + 1}")
    # the last term any entry reaches; every lower factor before it is nonzero
    last = min(max_terms, max(row_ends, default=-1), max(col_ends, default=-1))
    row_products, row_den = _upper_products(rows, row_ends, last)
    col_products, col_den = _upper_products(cols, col_ends, last)
    # term k+1 over term k, beyond the upper factors: ratio_num / ratio_den(k)
    lows = [(b.numerator, b.denominator) for b in lowers]
    ratio_num = math.prod(q for _, q in lows) * z.numerator
    fixed = row_den * col_den * z.denominator
    ratio_dens = [fixed * (k + 1) * math.prod(p + k * q for p, q in lows)
                  for k in range(last)]
    # w_k = ratio_num^k prod_{i=k}^{last-1} ratio_den(i), so that W = w_0
    weights = [ratio_num**k for k in range(last + 1)]
    tail = 1
    for k in range(last, 0, -1):
        weights[k] *= tail
        tail *= ratio_dens[k - 1]
    if weights:
        weights[0] = tail
    rows_weighted = [list(map(mul, products, weights)) for products in row_products]
    return [[sum(map(mul, a, b)) for b in col_products] for a in rows_weighted], tail


def _first_zero(params: Iterable[Fraction]) -> int | float:
    """The least k >= 0 with a + k = 0 for some parameter a; inf if none."""
    return min((-a.numerator for a in params if a.denominator == 1 and a <= 0),
               default=math.inf)


def _upper_products(
    param_lists: Sequence[Sequence[Fraction]], ends: Sequence[int | float], last: int
) -> tuple[list[list[int]], int]:
    """For each parameter list, prod (a)_k over its parameters for k from 0
    to the list's own end (it vanishes beyond), as integers over D^k, and
    D: the least common multiple of the lists' denominator products."""
    pairs = [[(a.numerator, a.denominator) for a in params] for params in param_lists]
    dens = [math.prod(q for _, q in ps) for ps in pairs]
    common = math.lcm(*dens)
    out = []
    for ps, den, end in zip(pairs, dens, ends):
        scale, value, products = common // den, 1, [1]
        for k in range(min(end, last)):
            value *= scale * math.prod(p + k * q for p, q in ps)
            products.append(value)
        out.append(products)
    return out, common


class UniPoly:
    """Dense univariate polynomial over the rationals.

    Stored as integer numerators ``nums`` (degree-ascending, no trailing
    zeros) over one positive common denominator ``den``, reduced so that
    gcd(content(nums), den) = 1; the zero polynomial is ``nums == ()`` over
    1.  Each rational polynomial has exactly one such form (``den`` is the
    least common denominator of its coefficients), so equal polynomials
    have equal ``(nums, den)`` and ``==`` is a proof of equality.
    ``coeffs`` gives the coefficients as ``Fraction``s.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction or type(c) is int else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        # over the least common denominator the content is already coprime to it
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and nums[-1] == 0:
            nums.pop()
        _set(self, nums, den if nums else 1)

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """Degree-ascending ``Fraction`` coefficients, no trailing zeros."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else _ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _combine(self, other: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * other over the least common denominator."""
        da, db = self.den, other.den
        g = math.gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        nums = [a * ma + b * mb for a, b in zip_longest(self.nums, other.nums, fillvalue=0)]
        return _reduced(nums, da * ma)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "UniPoly":
        return _set(UniPoly.__new__(UniPoly), [-n for n in self.nums], self.den)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a_nums, b_nums = self.nums, other.nums
        if not a_nums or not b_nums:
            return UniPoly()
        out = [0] * (len(a_nums) + len(b_nums) - 1)
        for i, a in enumerate(a_nums):
            if a:
                for j, b in enumerate(b_nums, i):
                    out[j] += a * b
        return _reduced(out, self.den * other.den)

    def scale(self, c: Fraction | int) -> "UniPoly":
        if type(c) is not Fraction and type(c) is not int:
            c = Fraction(c)
        p, q = c.numerator, c.denominator
        return _reduced([n * p for n in self.nums], self.den * q)

    @staticmethod
    def combination(pairs: Iterable[tuple[Fraction | int, "UniPoly"]]) -> "UniPoly":
        """sum c p over the (c, p) pairs, in one integer pass.

        Each c p is p.nums c.numerator / g over p.den c.denominator / g,
        with g = gcd(c.numerator, p.den); the numerators are summed over
        the lcm of those denominators and reduced once, so a sum of k terms
        costs one content gcd instead of k.
        """
        terms, den = [], 1
        for c, p in pairs:
            if type(c) is not Fraction and type(c) is not int:
                c = Fraction(c)
            num = c.numerator
            if num and p.nums:
                g = math.gcd(num, p.den)
                q = p.den // g * c.denominator
                terms.append((num // g, q, p.nums))
                den = den * q // math.gcd(den, q)
        if not terms:
            return UniPoly()
        out = [0] * max(len(nums) for _, _, nums in terms)
        for num, q, nums in terms:
            f = num * (den // q)
            for i, n in enumerate(nums):
                if n:  # a polynomial of one parity has every other coefficient 0
                    out[i] += f * n
        return _reduced(out, den)

    def pow(self, k: int) -> "UniPoly":
        out = UniPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation."""
        q = x.denominator
        return Fraction(self.numerator_at(x.numerator, q), self.den * q ** max(self.degree, 0))

    def numerator_at(self, p: int, q: int) -> int:
        """The value at x = p/q, for q > 0, times den q^d (d the degree, 0
        for a constant or zero): sum n_i p^i q^(d-i), by Horner's rule in
        integers.  p/q need not be in lowest terms."""
        acc, power = 0, 1
        for n in reversed(self.nums):
            acc = acc * p + n * power
            power *= q
        return acc

    def max_abs_coeff(self) -> Fraction:
        return Fraction(max(map(abs, self.nums)), self.den) if self.nums else Fraction(0)

    def serialize(self) -> list[str]:
        """Dense degree-ascending list of "p/q" strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"UniPoly([{', '.join(self.serialize())}])"


def _set(poly: UniPoly, nums: list[int], den: int) -> UniPoly:
    """Store an already-reduced (nums, den) pair on ``poly``."""
    object.__setattr__(poly, "nums", tuple(nums))
    object.__setattr__(poly, "den", den)
    return poly


def _reduced(nums: list[int], den: int) -> UniPoly:
    """The UniPoly nums/den, for den > 0: trailing zeros stripped and
    nums and den divided by their one common gcd."""
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return _set(UniPoly.__new__(UniPoly), nums, 1)
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return _set(UniPoly.__new__(UniPoly), nums, den)


Monomial = tuple[int, int, int, int, int]


def _grade_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


class SurdPoly:
    """Element of Q[x,y,t,u,v] modulo u^2 = 1-x^2, v^2 = 1-y^2.

    Stored like ``UniPoly``: integer numerators ``nums`` on monomials
    (a, b, c, e, f) with e, f in {0, 1} and no zero entries, over one
    positive common denominator ``den``, reduced so that gcd(den, every
    numerator) = 1; zero is ``{}`` over 1.  Each ring element has exactly
    one such form, so equal elements have equal ``(nums, den)`` and
    identity checks here are proofs.  ``terms`` gives the coefficients as
    ``Fraction``s.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        cs = {m: c if type(c) is Fraction or type(c) is int else Fraction(c)
              for m, c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in cs.values()))
        nums: dict[Monomial, int] = {}
        for mono, c in cs.items():
            if c:
                _accumulate_reduced(nums, mono, c.numerator * (den // c.denominator))
        canonical = _surd(nums, den)
        _store(self, canonical.nums, canonical.den)

    def __setattr__(self, name, value):
        raise AttributeError("SurdPoly is immutable")

    @staticmethod
    def zero() -> "SurdPoly":
        return SurdPoly()

    @staticmethod
    def constant(c: Fraction | int) -> "SurdPoly":
        if type(c) is not Fraction and type(c) is not int:
            c = Fraction(c)
        return _surd({(0, 0, 0, 0, 0): c.numerator}, c.denominator)

    @staticmethod
    def one() -> "SurdPoly":
        return SurdPoly.constant(1)

    @staticmethod
    def variable(name: str) -> "SurdPoly":
        if name not in SURD_VARS:
            raise DomainError(f"unknown ring variable {name!r}")
        mono = [0, 0, 0, 0, 0]
        mono[SURD_VARS.index(name)] = 1
        return _store(SurdPoly.__new__(SurdPoly), {tuple(mono): 1}, 1)

    @staticmethod
    def from_unipoly(p: UniPoly, var: str = "x") -> "SurdPoly":
        """Inject a univariate polynomial, reading its variable as ``var``.

        Numerator i goes straight onto the monomial var^i over the
        polynomial's denominator; for u and v the power is reduced by the
        ring relation.
        """
        (unit,) = SurdPoly.variable(var).nums
        out: dict[Monomial, int] = {}
        for i, n in enumerate(p.nums):
            if n:
                _accumulate_reduced(out, tuple(e * i for e in unit), n)
        return _surd(out, p.den)

    def substitute_into(self, p: UniPoly) -> "SurdPoly":
        """Evaluate the univariate polynomial ``p`` at this ring element."""
        acc = SurdPoly.zero()
        for n in reversed(p.nums):
            acc = acc * self + SurdPoly.constant(n)
        return acc.scale(Fraction(1, p.den))

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The canonical coefficients as ``Fraction``s, by monomial."""
        den = self.den
        return {mono: Fraction(n, den) for mono, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return isinstance(other, SurdPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((frozenset(self.nums.items()), self.den))

    def _combine(self, other: "SurdPoly", sign: int) -> "SurdPoly":
        """self + sign * other over the least common denominator."""
        da, db = self.den, other.den
        g = math.gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        out = {mono: n * ma for mono, n in self.nums.items()}
        for mono, n in other.nums.items():
            out[mono] = out.get(mono, 0) + n * mb
        return _surd(out, da * ma)

    def __add__(self, other: "SurdPoly") -> "SurdPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "SurdPoly") -> "SurdPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "SurdPoly":
        return _store(SurdPoly.__new__(SurdPoly),
                      {mono: -n for mono, n in self.nums.items()}, self.den)

    def __mul__(self, other: "SurdPoly") -> "SurdPoly":
        out: dict[Monomial, int] = {}
        for (a1, b1, c1, e1, f1), n1 in self.nums.items():
            for (a2, b2, c2, e2, f2), n2 in other.nums.items():
                mono = (a1 + a2, b1 + b2, c1 + c2, e1 + e2, f1 + f2)
                _accumulate_reduced(out, mono, n1 * n2)
        return _surd(out, self.den * other.den)

    def scale(self, c: Fraction | int) -> "SurdPoly":
        if type(c) is not Fraction and type(c) is not int:
            c = Fraction(c)
        p = c.numerator
        return _surd({mono: n * p for mono, n in self.nums.items()}, self.den * c.denominator)

    def pow(self, k: int) -> "SurdPoly":
        out = SurdPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def max_abs_coeff(self) -> Fraction:
        return Fraction(max(map(abs, self.nums.values())), self.den) if self.nums else Fraction(0)

    def set_t(self, value: Fraction | int) -> "SurdPoly":
        """Substitute a rational value for t, staying in the ring."""
        value = Fraction(value)
        return self.map_t_powers(lambda c: value**c)

    def map_t_powers(self, weight: Callable[[int], Fraction]) -> "SurdPoly":
        """Replace each power t^c by the rational weight(c), staying in the ring.

        With the moments of a measure in t as weights, this integrates t out.
        The weights are put over one common denominator first, so each term
        is one integer product.
        """
        weights = {c: Fraction(weight(c)) for c in {mono[2] for mono in self.nums}}
        common = math.lcm(*(w.denominator for w in weights.values()))
        scaled = {c: w.numerator * (common // w.denominator) for c, w in weights.items()}
        out: dict[Monomial, int] = {}
        for (a, b, c, e, f), n in self.nums.items():
            mono = (a, b, 0, e, f)
            out[mono] = out.get(mono, 0) + n * scaled[c]
        return _surd(out, self.den * common)

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


def _store(poly: SurdPoly, nums: dict[Monomial, int], den: int) -> SurdPoly:
    """Store an already-canonical (nums, den) pair on ``poly``."""
    object.__setattr__(poly, "nums", nums)
    object.__setattr__(poly, "den", den)
    return poly


def _surd(nums: dict[Monomial, int], den: int) -> SurdPoly:
    """The SurdPoly nums/den, for den > 0 and e, f < 2 throughout: zero
    entries dropped and nums and den divided by their one common gcd."""
    nums = {mono: n for mono, n in nums.items() if n}
    if not nums:
        den = 1
    else:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {mono: n // g for mono, n in nums.items()}
            den //= g
    return _store(SurdPoly.__new__(SurdPoly), nums, den)


def _accumulate_reduced(out: dict[Monomial, int], mono: Monomial, n: int) -> None:
    """Add n * mono to ``out``, rewriting u^2 -> 1-x^2 and v^2 -> 1-y^2."""
    a, b, c, e, f = mono
    if e < 2 and f < 2:  # nothing to rewrite
        out[mono] = out.get(mono, 0) + n
        return
    ku, e = divmod(e, 2)
    kv, f = divmod(f, 2)
    # (1-x^2)^ku (1-y^2)^kv expand binomially; exponents stay nonnegative.
    for i in range(ku + 1):
        ni = n * math.comb(ku, i) * (-1) ** i
        for j in range(kv + 1):
            key = (a + 2 * i, b + 2 * j, c, e, f)
            out[key] = out.get(key, 0) + ni * math.comb(kv, j) * (-1) ** j


def pythagorean_point(s: Fraction | int) -> tuple[Fraction, Fraction]:
    """Rational point (x, u) on u^2 = 1 - x^2 with x in [-1, 1].

    x = (1-s^2)/(1+s^2), u = 2s/(1+s^2); every rational s works and s = 0, 1
    give the endpoints (1, 0) and (0, 1).
    """
    s = Fraction(s)
    d = 1 + s * s
    return (1 - s * s) / d, 2 * s / d


class _Thiele:
    """Thiele continued fraction a_0 + (e - e_0)/(a_1 + (e - e_1)/(a_2 + ...))
    by inverse differences (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, ch. 5), on integers; ``confirmed`` counts the samples it has
    predicted since it last changed.

    The sample convention: a node e and a value are integer pairs
    (numerator, denominator), the denominator nonzero and the pair not
    necessarily reduced; :func:`limit_at_infinity` feeds e = (1, alpha).
    The fraction keeps its nodes as fed and its coefficients as reduced
    pairs with a positive denominator.  A value that is not a pair of ints
    (a ``Fraction``, a float) raises TypeError.

    A sample runs down the inverse-difference chain once: phi_0 = value,
    phi_{i+1} = (e - e_i)/(phi_i - a_i), carried as an unreduced integer
    pair and reduced only when it becomes a new coefficient.  If no phi_i
    equals a_i, phi_K is that coefficient.  phi_{K-1} = a_{K-1} at the last
    level K-1 means the fraction predicted the sample.  phi_i = a_i at an
    earlier level i makes an inverse difference infinite: the sample is
    then predicted only if a zero tail makes level i+1 infinite, which
    evaluating the fraction at e tells, so this case alone evaluates it.
    Each sample leaves ``nodes``, ``coeffs`` and ``confirmed`` as
    evaluating first and then extending would.
    """

    def __init__(self):
        self.nodes, self.coeffs, self.confirmed = [], [], 0

    def __call__(self, e: tuple[int, int]) -> tuple[int, int] | None:
        """The value at the node pair ``e`` as an unreduced integer pair, or
        None for infinity: a zero tail makes its level infinite, and
        a_k + (e - e_k)/infinity = a_k."""
        en, ed = e
        tail = None
        for (nn, nd), (an, ad) in zip(reversed(self.nodes), reversed(self.coeffs)):
            if tail is None:
                tail = an, ad
            elif not tail[0]:
                tail = None
            else:
                # a + (e - node)/tail, with e - node = (en nd - nn ed)/(ed nd)
                tn, td = tail
                dd = ed * nd
                tail = an * dd * tn + ad * (en * nd - nn * ed) * td, ad * dd * tn
        return tail

    def feed(self, e: tuple[int, int], value: tuple[int, int]) -> None:
        """Confirm a predicted sample; extend through any other, unless an
        inverse difference is infinite: such a point is left out."""
        en, ed = e
        p, q = value  # phi_i = p/q, q != 0
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"a Thiele sample is an integer pair, got {value!r}")
        if not q:
            raise ZeroDivisionError(f"a Thiele sample has denominator 0: {value!r}")
        last = len(self.coeffs) - 1
        for i, ((nn, nd), (an, ad)) in enumerate(zip(self.nodes, self.coeffs)):
            d = p * ad - an * q  # (phi_i - a_i) q ad
            if not d:
                if i == last:
                    predicted = True
                else:
                    at = self(e)
                    predicted = at is not None and at[0] * value[1] == value[0] * at[1]
                self.confirmed = self.confirmed + 1 if predicted else 0
                return
            p, q = (en * nd - nn * ed) * q * ad, ed * nd * d
        self.confirmed = 0
        self.nodes.append(e)
        g = math.gcd(p, q)
        self.coeffs.append((p // g, q // g) if q > 0 else (-p // g, -q // g))


def limit_at_infinity(sample: Callable[[int], Sequence[tuple[int, int]]],
                      budget: int) -> tuple[tuple[Fraction, ...], int]:
    """Exact limits as alpha -> oo of components rational in alpha, and the
    samples used.

    The sample convention: ``sample`` takes an ``int`` alpha and returns
    each component's value as an integer pair (numerator, denominator),
    which need not be reduced; a ``Fraction`` or float component raises
    TypeError.  Each component, sampled at alpha = 3, 4, 5, ... (skipping
    an alpha that raises DomainError), is fed to a Thiele fraction in
    e = 1/alpha, whose nodes are the pairs (1, alpha), and read off at
    e = 0 once every fraction has predicted two samples in a row; only the
    limits returned are ``Fraction``s.  DomainError when ``budget`` values
    of alpha leave a fraction unconfirmed, or a limit is infinite.
    """
    fractions, points = [], 0
    for alpha in range(3, 3 + budget):
        try:
            values = sample(alpha)
        except DomainError:
            continue
        points += 1
        fractions = fractions or [_Thiele() for _ in values]
        e = (1, alpha)
        for fraction, value in zip(fractions, values, strict=True):
            fraction.feed(e, value)
        if min(fraction.confirmed for fraction in fractions) >= 2:
            limits = [fraction((0, 1)) for fraction in fractions]
            if None in limits:
                raise DomainError("the quantity has a pole at alpha = oo")
            return tuple(Fraction(*limit) for limit in limits), points
    raise DomainError(f"no interpolant confirmed within {budget} values of alpha")
