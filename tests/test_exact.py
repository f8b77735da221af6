"""Exact-core tests: rationals, shifted factorials, the surd ring."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyident import addition, exact, hermite_limit, suites
from polyident.classical import gegenbauer_r, hermite, jacobi_r
from polyident.errors import DegenerateParameterError, DomainError, RelationViolationError
from polyident.exact import (
    SURD_VARS,
    SurdPoly,
    UniPoly,
    format_rational,
    limit_at_infinity,
    parse_rational,
    poch_quotient,
    pochhammer,
    pythagorean_point,
    rising_product,
    terminating_hyp,
    terminating_hyp_grid,
)

from surd_values import substitute

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


class TestRationalParsing:
    @pytest.mark.parametrize(
        "text,value",
        [("3/4", Fraction(3, 4)), ("-7/2", Fraction(-7, 2)), ("5", Fraction(5)),
         ("-12", Fraction(-12)), ("0", Fraction(0))],
    )
    def test_round_trip(self, text, value):
        assert parse_rational(text) == value
        assert parse_rational(format_rational(value)) == value

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_rational("1/0")
        with pytest.raises(DomainError):
            parse_rational("pi")

    def test_grammar_is_integers_quotients_and_finite_decimals(self):
        # read exactly through Fraction, never through a float: 0.1 is 1/10
        for text, value in (("1.5e-3", Fraction(3, 2000)), ("0.1", Fraction(1, 10)),
                            ("+2", Fraction(2)), ("1_000", Fraction(1000)),
                            (" -7/3 ", Fraction(-7, 3))):
            assert parse_rational(text) == value
        for text in ("1e4301", "0x10", "1/-2", "1.5/2", "inf", "nan"):
            with pytest.raises(DomainError, match="not a rational literal"):
                parse_rational(text)

    def test_exponents_are_bounded(self):
        # Fraction would build 10^999999999 before anything could refuse it
        assert parse_rational("1e6") == 10**6
        assert parse_rational("-25e-4300") == Fraction(-25, 10**4300)
        for text in ("1e999999999", "1E-4301", " 2e1_000_000_000 ", "1e" + "9" * 5000):
            with pytest.raises(DomainError, match="not a rational literal"):
                parse_rational(text)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(1, 2), 0) == 1

    def test_direct_product(self):
        # 1/2 * 3/2 * 5/2
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_hits_zero(self):
        assert pochhammer(Fraction(-3), 5) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(Fraction(1), -1)

    @given(a=rationals, m=st.integers(0, 50), n=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_addition_law(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    @given(a=rationals | st.integers(-20, 20), n=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_termwise_product(self, a, n):
        expected = Fraction(1)
        for i in range(n):
            expected *= a + i
        value = pochhammer(a, n)
        assert value == expected
        assert type(value) is Fraction

    @given(p=st.integers(-30, 30), q=st.integers(1, 12), n=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_rising_product_is_the_scaled_shifted_factorial(self, p, q, n):
        # q^n (p/q)_n, an integer even where p/q is not in lowest terms
        value = rising_product(p, q, n)
        assert type(value) is int
        assert value == q**n * pochhammer(Fraction(p, q), n)


class TestPochQuotient:
    def test_plain_ratio(self):
        value = poch_quotient([(Fraction(3), 2)], [(Fraction(1, 2), 2)])
        assert value == Fraction(3 * 4) / (Fraction(1, 2) * Fraction(3, 2))

    def test_cancels_matching_zeros(self):
        # (-1)_2 / (0)_2 telescopes to (-1)/(1)
        assert poch_quotient([(Fraction(-1), 2)], [(Fraction(0), 2)]) == -1

    def test_uncancelled_zero_denominator_raises(self):
        with pytest.raises(DegenerateParameterError):
            poch_quotient([(Fraction(2), 1)], [(Fraction(0), 1)])

    def test_zero_numerator_gives_zero(self):
        assert poch_quotient([(Fraction(-2), 5)], [(Fraction(1, 3), 2)]) == 0


class TestTerminatingHyp:
    def test_empty_series(self):
        assert terminating_hyp([Fraction(0)], [Fraction(2)], 5) == 1

    def test_binomial_sum(self):
        # 1F0(-n;;z) = (1-z)^n
        z = Fraction(2, 7)
        value = terminating_hyp([Fraction(-4)], [], 4, z=z)
        assert value == (1 - z) ** 4

    def test_lower_pole_raises(self):
        with pytest.raises(DomainError):
            terminating_hyp([Fraction(-5)], [Fraction(-2)], 5)


class TestUniPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert UniPoly([1, 0, 0]).degree == 0
        assert UniPoly([0, 0]).is_zero

    def test_arithmetic(self):
        p = UniPoly([1, 2])       # 1 + 2x
        q = UniPoly([0, 0, 3])    # 3x^2
        assert (p * q).coeffs == (0, 0, 3, 6)
        assert (p + q - q) == p
        assert p(Fraction(1, 2)) == 2

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([1, 2, 3], (1, 2, 3)),
            ([Fraction(1, 2), 2, Fraction(-3)], (Fraction(1, 2), 2, -3)),
            ([1, Fraction(0), 0, Fraction(0)], (1,)),
            ([0, Fraction(0)], ()),
        ],
        ids=["ints", "mixed", "trailing-zeros", "all-zero"],
    )
    def test_constructor_stores_fractions_without_trailing_zeros(self, coeffs, expected):
        p = UniPoly(coeffs)
        assert p.coeffs == expected
        assert all(type(c) is Fraction for c in p.coeffs)

    def test_add_sub_unequal_lengths(self):
        long, short = UniPoly([1, 2, 3]), UniPoly([Fraction(1, 2)])
        assert (long + short).coeffs == (Fraction(3, 2), 2, 3)
        assert (short + long).coeffs == (Fraction(3, 2), 2, 3)
        assert (long - short).coeffs == (Fraction(1, 2), 2, 3)
        assert (short - long).coeffs == (Fraction(-1, 2), -2, -3)
        for p in (long + short, short - long):
            assert all(type(c) is Fraction for c in p.coeffs)

    def test_full_cancellation_is_zero(self):
        p = UniPoly([1, Fraction(2, 3), 3])
        assert (p - p).coeffs == ()
        assert (p + (-p)).is_zero
        assert (p - p) == UniPoly.zero()
        # the leading terms cancel and the degree drops
        assert (p - UniPoly([0, 0, 3])).coeffs == (1, Fraction(2, 3))

    def test_immutability(self):
        p = UniPoly([1])
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(2),)

    def test_serialize(self):
        assert UniPoly([Fraction(-1, 2), 0, Fraction(3, 2)]).serialize() == [
            "-1/2", "0", "3/2"
        ]


class TestSurdPoly:
    def test_defining_relations(self):
        u = SurdPoly.variable("u")
        v = SurdPoly.variable("v")
        x = SurdPoly.variable("x")
        y = SurdPoly.variable("y")
        one = SurdPoly.one()
        assert u * u == one - x * x
        assert v * v == one - y * y
        assert v * one == v

    def test_difference_of_squares(self):
        u = SurdPoly.variable("u")
        x = SurdPoly.variable("x")
        # (u+x)(u-x) = u^2 - x^2 = 1 - 2x^2
        expected = SurdPoly.one() - (x * x).scale(2)
        assert (u + x) * (u - x) == expected

    def test_canonical_uniqueness(self):
        t = SurdPoly.variable("t")
        u = SurdPoly.variable("u")
        p = (u + t).pow(3)
        assert (p - p).is_zero

    def test_no_reducible_exponents_survive(self):
        u = SurdPoly.variable("u")
        v = SurdPoly.variable("v")
        p = u.pow(5) * v.pow(4)
        assert all(e <= 1 and f <= 1 for (_, _, _, e, f) in p.terms)

    def test_substitute_pythagorean(self):
        x, u = pythagorean_point(Fraction(1, 2))
        assert (x, u) == (Fraction(3, 5), Fraction(4, 5))
        p = SurdPoly.variable("u")
        assert substitute(p, {"x": x, "u": u}) == Fraction(4, 5)
        relation = SurdPoly.variable("u").pow(2) + SurdPoly.variable("x").pow(2)
        assert substitute(relation, {"x": x, "u": u}) == 1

    def test_substitute_t_only(self):
        assert substitute(SurdPoly.variable("t"), {"t": 7}) == 7

    def test_substitute_rejects_bad_relation(self):
        with pytest.raises(RelationViolationError):
            substitute(SurdPoly.variable("u"), {"x": Fraction(1, 2), "u": Fraction(1, 2)})

    def test_substitute_requires_bindings(self):
        with pytest.raises(RelationViolationError):
            substitute(SurdPoly.variable("y"), {"x": 0})

    def test_serialization_sorted_graded_lex(self):
        x = SurdPoly.variable("x")
        t = SurdPoly.variable("t")
        p = x * x * t + x + SurdPoly.one()
        assert [m for m, _ in p.serialize()] == ["1", "x", "x^2t"]

    @given(
        ct=st.integers(-5, 5), cu=st.integers(-3, 3), cx=st.integers(-3, 3),
        dv=st.integers(-4, 4), dy=st.integers(-4, 4), du=st.integers(-2, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplication_homomorphism(self, ct, cu, cx, dv, dy, du):
        p = (
            SurdPoly.variable("t").scale(ct)
            + SurdPoly.variable("u").scale(cu)
            + SurdPoly.variable("x").scale(cx)
        )
        q = (
            SurdPoly.variable("v").scale(dv)
            + SurdPoly.variable("y").scale(dy)
            + SurdPoly.variable("u").scale(du)
        )
        product = p * q
        # ten rational circle points per drawn pair
        for k in range(1, 11):
            x, u = pythagorean_point(Fraction(k, 11))
            y, v = pythagorean_point(Fraction(k - 5, 9))
            bindings = {"x": x, "u": u, "y": y, "v": v, "t": Fraction(3, 7)}
            assert substitute(product, bindings) == (
                substitute(p, bindings) * substitute(q, bindings)
            )


def _pair(value) -> tuple[int, int]:
    """A rational in the samples' integer-pair convention."""
    value = Fraction(value)
    return value.numerator, value.denominator


def _of_epsilon(g):
    """The quantity alpha -> (g(1/alpha),) of a rational function g, as an
    integer pair."""
    return lambda alpha: (_pair(g(Fraction(1, alpha))),)


class _FractionThiele:
    """The oracle: the Thiele fraction on ``Fraction`` nodes, values and
    coefficients, one inverse-difference pass per sample, evaluating the
    fraction only where an earlier level meets an infinite inverse
    difference."""

    def __init__(self):
        self.nodes, self.coeffs, self.confirmed = [], [], 0

    def __call__(self, e):
        tail = None
        for node, a in zip(reversed(self.nodes), reversed(self.coeffs)):
            if tail == 0:
                tail = None
            else:
                tail = a if tail is None else a + (e - node) / tail
        return tail

    def feed(self, e, value):
        phi, last = value, len(self.coeffs) - 1
        for i, (node, a) in enumerate(zip(self.nodes, self.coeffs)):
            if phi == a:
                predicted = i == last or self(e) == value
                self.confirmed = self.confirmed + 1 if predicted else 0
                return
            phi = (e - node) / (phi - a)
        self.confirmed = 0
        self.nodes.append(e)
        self.coeffs.append(phi)


class _TwoPassThiele(_FractionThiele):
    """The reference feed: evaluate the whole fraction at e to test the
    prediction, then run the inverse-difference chain as a second pass."""

    def feed(self, e, value):
        if self(e) == value:
            self.confirmed += 1
            return
        self.confirmed, phi = 0, value
        for node, a in zip(self.nodes, self.coeffs):
            if phi == a:
                return
            phi = (e - node) / (phi - a)
        self.nodes.append(e)
        self.coeffs.append(phi)


def _fed_alike(samples, scales=None):
    """Feed (e, value) samples to the integer fraction, as pairs, and to the
    one-pass and two-pass ``Fraction`` oracles, and check after each that
    all three hold the same state.  ``scales``, if given, multiplies the
    numerator and the denominator of each integer sample by a nonzero
    factor, so that the integer fraction sees unreduced pairs."""
    one, oracle, two = exact._Thiele(), _FractionThiele(), _TwoPassThiele()
    for i, (e, value) in enumerate(samples):
        scale = scales[i % len(scales)] if scales else 1
        one.feed(_pair(e), (value.numerator * scale, value.denominator * scale))
        oracle.feed(e, value)
        two.feed(e, value)
        assert (oracle.nodes, oracle.coeffs, oracle.confirmed) == (
            two.nodes, two.coeffs, two.confirmed)
        assert one.nodes == list(map(_pair, oracle.nodes))
        assert one.coeffs == list(map(_pair, oracle.coeffs))
        assert one.confirmed == oracle.confirmed
        at = one(_pair(e))
        assert (None if at is None else Fraction(*at)) == oracle(e)
    return one, oracle


class TestLimitAtInfinity:
    def test_known_rational(self):
        # type (2, 1) in e = 1/alpha: four points fix it, two more confirm it
        limits, points = limit_at_infinity(
            _of_epsilon(lambda e: (3 * e * e - e + 2) / (5 * e + 1)), 20
        )
        assert (limits, points) == ((2,), 6)
        assert type(limits[0]) is Fraction

    def test_components_are_reconstructed_apart(self):
        limits, points = limit_at_infinity(
            lambda alpha: ((7, 1), (alpha + 1, 2 * alpha - 1), (1, alpha**3)), 20
        )
        assert limits == (7, Fraction(1, 2), 0)
        # with k + 1 points a Thiele fraction has type (ceil(k/2), floor(k/2)):
        # e^3 needs six points, then two confirmations; the others stop sooner
        assert points == 8

    def test_infinite_inverse_difference_leaves_the_point_out(self):
        # g(1/6) = g(1/3) = 0, so the sample at alpha = 6 meets an infinite
        # inverse difference at the first level
        def g(e):
            return (e - Fraction(1, 3)) * (e - Fraction(1, 6))

        fraction, _ = _fed_alike((Fraction(1, alpha), g(Fraction(1, alpha)))
                                 for alpha in (3, 4, 5, 6))
        assert len(fraction.nodes) == 3
        assert fraction.nodes == [(1, 3), (1, 4), (1, 5)]
        assert limit_at_infinity(_of_epsilon(g), 20)[0] == (Fraction(1, 18),)

    def test_zero_tail_carries_infinity(self):
        # g(0) = g(1/3): at e = 0 the tail below the first level is 0, so that
        # level is infinite and the value is a_0 + (0 - 1/3)/infinity = a_0
        def g(e):
            return e * (e - Fraction(1, 3)) + 1

        fraction, _ = _fed_alike((Fraction(1, alpha), g(Fraction(1, alpha)))
                                 for alpha in range(3, 8))
        assert Fraction(*fraction((0, 1))) == 1
        assert limit_at_infinity(_of_epsilon(g), 20) == ((1,), 6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2), 2]) | rationals,
                    min_size=1, max_size=12),
           st.lists(st.integers(-7, 7).filter(bool), min_size=1, max_size=3))
    def test_one_pass_feed_matches_two_pass_on_random_samples(self, values, scales):
        # a small pool of values makes equal inverse differences, and so
        # left-out points, zero tails and confirmations at every level,
        # common; the integer fraction takes the samples unreduced
        _fed_alike([(Fraction(1, alpha), Fraction(v)) for alpha, v in enumerate(values, 3)],
                   scales)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=3).filter(lambda d: d[0] != 0),
    )
    def test_one_pass_feed_matches_two_pass_on_rational_functions(self, numerator, denominator):
        n, d = UniPoly(numerator), UniPoly(denominator)
        es = [Fraction(1, alpha) for alpha in range(3, 15)]
        _fed_alike([(e, n(e) / d(e)) for e in es if d(e) != 0])

    def test_sample_on_a_zero_tail_takes_the_fallback(self):
        # four levels from four samples; at e* = e_2 - a_2 a_3 the tail below
        # level 2 is zero, so level 1 is infinite and the fraction's value is
        # a_0.  The sample (e*, a_0) meets phi_0 = a_0 at the first of four
        # levels: only evaluating the fraction shows it is predicted.
        samples = [(Fraction(1, alpha), Fraction(v))
                   for alpha, v in ((3, 1), (4, 2), (5, -1), (6, 5))]
        fraction, oracle = _fed_alike(samples)
        assert len(fraction.nodes) == 4 and fraction.confirmed == 0
        a = oracle.coeffs
        e_star = oracle.nodes[2] - a[2] * a[3]
        assert e_star not in oracle.nodes
        assert Fraction(*fraction(_pair(e_star))) == a[0]
        fraction, _ = _fed_alike([*samples, (e_star, a[0])])
        assert (len(fraction.nodes), fraction.confirmed) == (4, 1)
        # the same point with any other value is not predicted: it extends the fraction
        fraction, _ = _fed_alike([*samples, (e_star, a[0] + 1)])
        assert (len(fraction.nodes), fraction.confirmed) == (5, 0)

    def test_degenerate_samples_are_skipped(self):
        def sample(alpha):
            if alpha in (4, 6):
                raise DomainError("degenerate")
            return ((alpha, alpha + 1),)

        # 1/(1 + e) needs three points and two confirmations: alpha = 3, 5, 7,
        # 8 and 9
        assert limit_at_infinity(sample, 20) == ((1,), 5)

    def test_pole_at_infinity_is_an_error(self):
        with pytest.raises(DomainError, match="pole"):
            limit_at_infinity(lambda alpha: ((alpha * alpha, alpha + 1),), 20)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=3).filter(lambda d: d[0] != 0),
    )
    def test_random_rational_functions(self, numerator, denominator):
        n, d = UniPoly(numerator), UniPoly(denominator)

        def sample(alpha):
            e = Fraction(1, alpha)
            if d(e) == 0:
                raise DomainError("pole")
            return (_pair(n(e) / d(e)),)

        assert limit_at_infinity(sample, 40)[0] == (n(0) / d(0),)

    @pytest.mark.parametrize("component", [
        lambda alpha: 1 / alpha,
        lambda alpha: Fraction(1, alpha),
        lambda alpha: (1.0, alpha),
        lambda alpha: (Fraction(1), alpha),
    ], ids=["float", "Fraction", "float-pair", "Fraction-pair"])
    def test_a_sample_that_is_not_an_integer_pair_is_a_type_error(self, component):
        # alpha is an int, and / on ints gives a float
        with pytest.raises(TypeError):
            limit_at_infinity(lambda alpha: ((1, 1), component(alpha)), 20)

    def test_a_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            limit_at_infinity(lambda alpha: ((1, 0),), 20)


class TestPythagoreanPoint:
    @pytest.mark.parametrize(
        "s,expected",
        [(Fraction(0), (Fraction(1), Fraction(0))),
         (Fraction(1, 2), (Fraction(3, 5), Fraction(4, 5))),
         (Fraction(1), (Fraction(0), Fraction(1)))],
    )
    def test_examples(self, s, expected):
        assert pythagorean_point(s) == expected

    @given(s=rationals)
    @settings(max_examples=100, deadline=None)
    def test_on_circle_and_in_range(self, s):
        x, u = pythagorean_point(s)
        assert u * u == 1 - x * x
        assert -1 <= x <= 1


# ---------------------------------------------------------------------------
# Oracles for the fraction-free kernels: plain Fraction-list references
# written here, sharing no code with polyident.exact.

wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
coeff_lists = st.lists(rationals | wide_rationals, max_size=7)


def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b, sign=1):
    size = max(len(a), len(b))
    padded_a = list(a) + [Fraction(0)] * (size - len(a))
    padded_b = list(b) + [Fraction(0)] * (size - len(b))
    return _ref_trim(x + sign * y for x, y in zip(padded_a, padded_b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_value(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def _ref_poch(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _ref_hyp(uppers, lowers, n, z):
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(z) ** k
        for a in uppers:
            term *= _ref_poch(Fraction(a), k)
        for b in lowers:
            term /= _ref_poch(Fraction(b), k)
        for i in range(1, k + 1):
            term /= i
        total += term
    return total


def _factors(pairs):
    return [Fraction(base) + i for base, length in pairs for i in range(length)]


def _product(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


class TestUniPolyOracle:
    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations_match_reference(self, a, b):
        ra, rb = _ref_trim(a), _ref_trim(b)
        p, q = UniPoly(a), UniPoly(b)
        cases = [
            (p + q, _ref_add(ra, rb)),
            (p - q, _ref_add(ra, rb, -1)),
            (-p, _ref_trim(-c for c in ra)),
            (p * q, _ref_mul(ra, rb)),
        ]
        for got, expected in cases:
            assert got.coeffs == expected
            assert all(type(c) is Fraction for c in got.coeffs)
            assert got == UniPoly(expected)
            assert hash(got) == hash(UniPoly(expected))

    @given(a=coeff_lists, c=rationals | wide_rationals, k=st.integers(0, 4),
           x=rationals | wide_rationals | st.integers(-9, 9))
    @settings(max_examples=150, deadline=None)
    def test_scale_pow_call_and_accessors_match_reference(self, a, c, k, x):
        ra = _ref_trim(a)
        p = UniPoly(a)
        assert p.scale(c).coeffs == _ref_trim(v * c for v in ra)
        power = (Fraction(1),)
        for _ in range(k):
            power = _ref_mul(power, ra)
        assert p.pow(k).coeffs == power
        value = p(x)
        assert value == _ref_value(ra, x)
        assert type(value) is Fraction
        # the Horner numerator at an unreduced spelling 3p/3q of x
        num, den = 3 * Fraction(x).numerator, 3 * Fraction(x).denominator
        assert Fraction(p.numerator_at(num, den), p.den * den ** max(p.degree, 0)) == value
        assert p.degree == len(ra) - 1
        assert p.is_zero == (not ra)
        for i in range(-1, len(ra) + 2):
            got = p.coeff(i)
            assert got == (ra[i] if 0 <= i < len(ra) else 0)
            assert type(got) is Fraction
        biggest = p.max_abs_coeff()
        assert biggest == max((abs(v) for v in ra), default=Fraction(0))
        assert type(biggest) is Fraction
        assert p.serialize() == [format_rational(v) for v in ra]

    @given(a=coeff_lists, b=coeff_lists, c=rationals | wide_rationals)
    @settings(max_examples=150, deadline=None)
    def test_construction_routes_compare_and_hash_equal(self, a, b, c):
        p, q = UniPoly(a), UniPoly(b)
        routes = [
            ((p * q).scale(c), p.scale(c) * q),
            ((p + q).scale(c), p.scale(c) + q.scale(c)),
            ((p + q) - q, p),
            (p * q, q * p),
            (-(p - q), q - p),
        ]
        for left, right in routes:
            assert left == right
            assert hash(left) == hash(right)
        # the stored form is the canonical one: positive den, content coprime to it
        for poly in (p, q, p * q, (p * q).scale(c), p - q):
            assert poly.den > 0
            assert not poly.nums or poly.nums[-1] != 0
            assert math.gcd(poly.den, *poly.nums) == 1

    @given(st.lists(st.tuples(st.integers(-30, 30) | rationals | wide_rationals, coeff_lists),
                    max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_combination_matches_a_fraction_sum(self, pairs):
        # int and Fraction coefficients, zero ones and zero polynomials among them
        expected = ()
        for c, a in pairs:
            expected = _ref_add(expected, _ref_trim(v * c for v in _ref_trim(a)))
        got = UniPoly.combination((c, UniPoly(a)) for c, a in pairs)
        assert got.coeffs == expected
        assert got == UniPoly(expected)
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1

    @given(coeff_lists, rationals | wide_rationals, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_combination_that_cancels_is_zero_over_one(self, a, c, b):
        p, q = UniPoly(a), UniPoly(b)
        total = UniPoly.combination([(c, p), (1, q), (-c, p), (-1, q)])
        assert (total.nums, total.den) == ((), 1)
        assert total == UniPoly.zero()

    def test_combination_of_nothing_is_zero(self):
        for pairs in ([], [(0, UniPoly([1, 2]))], [(Fraction(3, 4), UniPoly.zero())]):
            total = UniPoly.combination(pairs)
            assert (total.nums, total.den) == ((), 1)

    def test_constructor_accepts_strings_like_fraction(self):
        assert UniPoly(["1/2", "0", "-3/4"]).coeffs == (Fraction(1, 2), 0, Fraction(-3, 4))


class TestFromUniPolyOracle:
    @given(a=st.lists(rationals | wide_rationals, max_size=12),
           var=st.sampled_from(SURD_VARS))
    @settings(max_examples=150, deadline=None)
    def test_equals_horner_in_the_ring(self, a, var):
        # the direct injection against Horner through ring products, which
        # reduces u^2 and v^2 at every step
        p = UniPoly(a)
        got = SurdPoly.from_unipoly(p, var)
        expected = SurdPoly.variable(var).substitute_into(p)
        assert got == expected
        assert hash(got) == hash(expected)
        assert all(mono[3] < 2 and mono[4] < 2 for mono in got.terms)
        assert all(c != 0 and type(c) is Fraction for c in got.terms.values())

    def test_unknown_variable(self):
        with pytest.raises(DomainError):
            SurdPoly.from_unipoly(UniPoly.one(), "w")


# ---------------------------------------------------------------------------
# Oracle for the fraction-free surd ring: the Fraction-dict ring it replaced,
# written here and sharing no code with polyident.exact.  An element is a
# dict from monomials (a, b, c, e, f), for x^a y^b t^c u^e v^f, to nonzero
# Fractions.

_REF_ONE = (0, 0, 0, 0, 0)


def _ref_surd(pairs):
    """The canonical sum of (monomial, coefficient) pairs: u^2 -> 1 - x^2
    and v^2 -> 1 - y^2 are applied one square at a time."""
    out = {}
    work = [(tuple(mono), Fraction(coeff)) for mono, coeff in pairs]
    while work:
        (a, b, c, e, f), q = work.pop()
        if e >= 2:
            work += [((a, b, c, e - 2, f), q), ((a + 2, b, c, e - 2, f), -q)]
        elif f >= 2:
            work += [((a, b, c, e, f - 2), q), ((a, b + 2, c, e, f - 2), -q)]
        else:
            out[(a, b, c, e, f)] = out.get((a, b, c, e, f), Fraction(0)) + q
    return {mono: q for mono, q in out.items() if q != 0}


def _ref_surd_add(p, q, sign=1):
    return _ref_surd([*p.items(), *((mono, sign * c) for mono, c in q.items())])


def _ref_surd_mul(p, q):
    return _ref_surd(
        (tuple(i + j for i, j in zip(m1, m2)), c1 * c2)
        for m1, c1 in p.items()
        for m2, c2 in q.items()
    )


def _ref_surd_pow(p, k):
    out = {_REF_ONE: Fraction(1)}
    for _ in range(k):
        out = _ref_surd_mul(out, p)
    return out


def _ref_surd_map_t(p, weight):
    return _ref_surd(((a, b, 0, e, f), q * weight(c)) for (a, b, c, e, f), q in p.items())


def _ref_surd_from_coeffs(coeffs, var):
    """sum_i coeffs[i] var^i."""
    slot = SURD_VARS.index(var)
    return _ref_surd(
        (tuple(i if j == slot else 0 for j in range(5)), c) for i, c in enumerate(coeffs)
    )


def _ref_surd_horner(coeffs, arg):
    """sum_i coeffs[i] arg^i."""
    acc = {}
    for c in reversed(coeffs):
        acc = _ref_surd_add(_ref_surd_mul(acc, arg), {_REF_ONE: c})
    return acc


def _ref_max_abs(p):
    return max((abs(c) for c in p.values()), default=Fraction(0))


def _assert_canonical(p):
    assert p.den > 0
    assert all(type(n) is int and n != 0 for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert all(mono[3] < 2 and mono[4] < 2 for mono in p.nums)


def _assert_matches(got, expected):
    """``got`` holds the reference element ``expected``, canonically."""
    assert got.terms == expected
    assert all(type(c) is Fraction for c in got.terms.values())
    same = SurdPoly(expected)
    assert got == same
    assert hash(got) == hash(same)
    assert got.max_abs_coeff() == _ref_max_abs(expected)
    _assert_canonical(got)


# exponents up to 3 in u and v, so the constructor rewrites squares too
surd_monomials = st.tuples(*[st.integers(0, 3)] * 5)
surd_coeffs = rationals | wide_rationals | st.integers(-9, 9)
surd_terms = st.dictionaries(surd_monomials, surd_coeffs, max_size=5)


class TestSurdPolyOracle:
    @given(a=surd_terms, b=surd_terms, c=surd_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations_match_reference(self, a, b, c):
        ra, rb = _ref_surd(a.items()), _ref_surd(b.items())
        p, q = SurdPoly(a), SurdPoly(b)
        cases = [
            (p, ra),
            (q, rb),
            (p + q, _ref_surd_add(ra, rb)),
            (p - q, _ref_surd_add(ra, rb, -1)),
            (-p, _ref_surd((mono, -v) for mono, v in ra.items())),
            (p * q, _ref_surd_mul(ra, rb)),
            (p.scale(c), _ref_surd((mono, v * c) for mono, v in ra.items())),
        ]
        for got, expected in cases:
            _assert_matches(got, expected)

    @given(a=st.dictionaries(surd_monomials, surd_coeffs, max_size=3),
           k=st.integers(0, 5), i=st.integers(0, 5), j=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_pow_matches_reference(self, a, k, i, j):
        _assert_matches(SurdPoly(a).pow(k), _ref_surd_pow(_ref_surd(a.items()), k))
        u, v = SurdPoly.variable("u"), SurdPoly.variable("v")
        _assert_matches(u.pow(i) * v.pow(j), _ref_surd([((0, 0, 0, i, j), 1)]))

    @given(a=st.lists(surd_coeffs, max_size=8), var=st.sampled_from(SURD_VARS),
           b=st.dictionaries(surd_monomials, surd_coeffs, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_injection_and_composition_match_reference(self, a, var, b):
        p = UniPoly(a)
        _assert_matches(SurdPoly.from_unipoly(p, var), _ref_surd_from_coeffs(p.coeffs, var))
        arg = SurdPoly(b)
        _assert_matches(arg.substitute_into(UniPoly(a[:4])),
                        _ref_surd_horner(UniPoly(a[:4]).coeffs, _ref_surd(b.items())))

    @given(a=surd_terms, weights=st.lists(surd_coeffs, min_size=4, max_size=4),
           value=surd_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_t_substitutions_match_reference(self, a, weights, value):
        ra = _ref_surd(a.items())
        p = SurdPoly(a)
        _assert_matches(p.map_t_powers(weights.__getitem__),
                        _ref_surd_map_t(ra, weights.__getitem__))
        _assert_matches(p.set_t(value), _ref_surd_map_t(ra, lambda c: Fraction(value) ** c))

    def test_zero_is_empty_over_one(self):
        x = SurdPoly.variable("x")
        for zero in (SurdPoly.zero(), x - x, x.scale(0), SurdPoly({(0, 0, 0, 2, 0): 1,
                                                                    (0, 0, 0, 0, 0): -1,
                                                                    (2, 0, 0, 0, 0): 1})):
            assert (zero.nums, zero.den) == ({}, 1)
            assert zero == SurdPoly.zero() and zero.is_zero


class TestBrokenExpansionResidual:
    """A perturbed expansion fails, and its record carries the largest
    |coefficient| of the residual as the reference ring computes it.  The
    default run never takes this path, so these pin its output bytes."""

    BUMP = Fraction(1001, 1000)

    @staticmethod
    def _record(identity_id, params):
        report = suites._execute((identity_id, params), suites.SuiteConfig())
        return report.status, report.residual

    def test_addition_coefficient(self, monkeypatch):
        n, alpha, bad = 4, Fraction(1, 3), 2
        exact_coefficient = addition.addition_coefficient

        def broken(n_, k, a):
            value = exact_coefficient(n_, k, a)
            return value * self.BUMP if k == bad else value

        monkeypatch.setattr(addition, "addition_coefficient", broken)
        argument = _ref_surd([((1, 1, 0, 0, 0), 1), ((0, 0, 1, 1, 1), 1)])  # xy + uvt
        lhs = _ref_surd_horner(gegenbauer_r(n, alpha).coeffs, argument)

        def rhs(with_t):
            total = {}
            for k in range(n + 1):
                r = gegenbauer_r(n - k, alpha + k).coeffs
                term = _ref_surd_mul(_ref_surd_from_coeffs(r, "x"), _ref_surd_from_coeffs(r, "y"))
                term = _ref_surd_mul(term, _ref_surd([((0, 0, 0, k, k), broken(n, k, alpha))]))
                if with_t:
                    half = Fraction(1, 2)
                    t_factor = jacobi_r(k, alpha - half, alpha - half).coeffs
                    term = _ref_surd_mul(term, _ref_surd_from_coeffs(t_factor, "t"))
                total = _ref_surd_add(total, term)
            return total

        expected = {
            "eq42": _ref_surd_add(lhs, rhs(True), -1),
            "eq44": _ref_surd_add(_ref_surd_map_t(lhs, lambda c: 1), rhs(False), -1),
        }
        for identity_id, residual in expected.items():
            assert _ref_max_abs(residual) != 0
            assert self._record(identity_id, {"n": str(n), "alpha": "1/3"}) == (
                "fail", format_rational(_ref_max_abs(residual)))

    def test_hermite_binomial_term(self, monkeypatch):
        n, bad = 5, 2

        def comb(n_, k):
            return math.comb(n_, k) * (self.BUMP if k == bad else 1)

        # hermite_limit's own view of math; the ring's binomials stay exact
        monkeypatch.setattr(hermite_limit, "math", SimpleNamespace(**{**vars(math), "comb": comb}))
        argument = _ref_surd([((1, 1, 0, 0, 0), 1), ((0, 0, 1, 0, 1), 1)])  # xy + vt
        lhs = _ref_surd_horner(hermite(n).coeffs, argument)
        rhs = {}
        for k in range(n + 1):
            term = _ref_surd_mul(_ref_surd_from_coeffs(hermite(n - k).coeffs, "x"),
                                 _ref_surd_from_coeffs(hermite(k).coeffs, "t"))
            term = _ref_surd_mul(term, _ref_surd([((0, n - k, 0, 0, k), comb(n, k))]))
            rhs = _ref_surd_add(rhs, term)
        residual = _ref_surd_add(lhs, rhs, -1)
        assert _ref_max_abs(residual) != 0
        assert self._record("hermite-addition", {"n": str(n)}) == (
            "fail", format_rational(_ref_max_abs(residual)))


# bases whose factors may vanish: negative integers make parameter ties
tie_bases = st.integers(-6, 3).map(Fraction) | rationals
pair_lists = st.lists(st.tuples(tie_bases, st.integers(0, 5)), max_size=4)
nonvanishing_pairs = st.lists(
    st.tuples(rationals, st.integers(0, 5)), max_size=3
).filter(lambda pairs: 0 not in _factors(pairs))


class TestPochQuotientOracle:
    @given(shared=pair_lists, extra_num=pair_lists, extra_den=nonvanishing_pairs)
    @settings(max_examples=150, deadline=None)
    def test_equals_direct_product_at_parameter_ties(self, shared, extra_num, extra_den):
        # the shared block cancels whatever zeros it holds; what is left is
        # a direct product with a denominator that cannot vanish
        value = poch_quotient(shared + extra_num, extra_den + shared)
        assert value == _product(_factors(extra_num)) / _product(_factors(extra_den))
        assert type(value) is Fraction

    @given(num=nonvanishing_pairs, shared=pair_lists)
    @settings(max_examples=80, deadline=None)
    def test_surviving_zero_raises_with_every_zero_factor(self, num, shared):
        # (-2)_4 and (-1)_2 each hold a zero; (-3)_4 in the numerator cancels one
        numerators = num + shared + [(Fraction(-3), 4)]
        denominators = shared + [(Fraction(-2), 4), (Fraction(-1), 2)]
        zeros = _factors(denominators).count(0)
        with pytest.raises(DegenerateParameterError) as info:
            poch_quotient(numerators, denominators)
        assert info.value.factors == ["0"] * zeros


lower_params = rationals.filter(lambda b: b.denominator > 1 or b > 0)


class TestTerminatingHypOracle:
    @pytest.mark.parametrize("z", [Fraction(1), Fraction(-4, 7), Fraction(3)])
    @given(n=st.integers(0, 8), uppers=st.lists(rationals | st.integers(-9, 9), max_size=3),
           lowers=st.lists(lower_params, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_equals_plain_loop(self, z, n, uppers, lowers):
        value = terminating_hyp([Fraction(-n), *uppers], lowers, n, z=z)
        assert value == _ref_hyp([-n, *uppers], lowers, n, z)
        assert type(value) is Fraction

    @pytest.mark.parametrize("z", [Fraction(1), Fraction(-4, 7), Fraction(3)])
    def test_lower_pole_raises_domain_error(self, z):
        # -2 + k vanishes at k = 2, so term 3 would divide by zero
        with pytest.raises(DomainError, match="lower parameter pole at term 3"):
            terminating_hyp([Fraction(-5), Fraction(1, 3)], [Fraction(-2)], 5, z=z)

    def test_zero_upper_stops_before_a_later_pole(self):
        # the upper -1 ends the series after term 1, before the lower -3 reaches 0
        z = Fraction(-4, 7)
        assert terminating_hyp([-1], [Fraction(-3)], 5, z=z) == 1 + z / 3


def _naive_series(uppers, lowers, max_terms, z):
    """sum_k prod (a)_k / (prod (b)_k k!) z^k from pochhammer products, up to
    the first vanishing upper product; DomainError where a lower product
    vanishes first."""
    total = Fraction(0)
    for k in range(max_terms + 1):
        top = _product(pochhammer(Fraction(a), k) for a in uppers)
        if top == 0:
            break
        bottom = _product(pochhammer(Fraction(b), k) for b in lowers) * math.factorial(k)
        if bottom == 0:
            raise DomainError(f"lower parameter pole at term {k}")
        total += top / bottom * Fraction(z) ** k
    return total


def _naive_or_error(uppers, lowers, max_terms, z):
    try:
        return _naive_series(uppers, lowers, max_terms, z)
    except DomainError as exc:
        return str(exc)


class TestTerminatingHypGridOracle:
    @pytest.mark.parametrize("z", [Fraction(1), Fraction(-4, 7), Fraction(3)])
    @given(data=st.data(), max_terms=st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_every_entry_equals_the_naive_sum(self, z, data, max_terms):
        # each row terminates by max_terms, some earlier; columns and lowers
        # may hold nonpositive integers, which end a column early or put a
        # pole in the way
        ends = data.draw(st.lists(st.integers(0, max_terms), min_size=1, max_size=3))
        rows = [[Fraction(-n), *data.draw(st.lists(tie_bases, max_size=1))] for n in ends]
        cols = data.draw(st.lists(st.lists(tie_bases, max_size=2), min_size=1, max_size=3))
        lowers = data.draw(st.lists(st.integers(-4, -1).map(Fraction) | lower_params,
                                    max_size=2))
        expected = [[_naive_or_error([*r, *c], lowers, max_terms, z) for c in cols]
                    for r in rows]
        errors = {e for row in expected for e in row if isinstance(e, str)}
        if errors:
            (message,) = errors  # the lowers, and so the pole, are shared
            with pytest.raises(DomainError, match=message):
                terminating_hyp_grid(rows, cols, lowers, max_terms, z)
            return
        grid = terminating_hyp_grid(rows, cols, lowers, max_terms, z)
        assert [list(row) for row in grid] == expected
        assert all(type(v) is Fraction for row in grid for v in row)

    def test_empty_grid_and_no_terms(self):
        assert terminating_hyp_grid([], [[Fraction(-1)]], [], 3) == ()
        assert terminating_hyp_grid([[Fraction(-1)]], [], [], 3) == ((),)
        assert terminating_hyp_grid([[Fraction(-1)]], [[Fraction(2)]], [], -1) == ((0,),)
