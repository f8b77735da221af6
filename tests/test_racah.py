"""Racah machinery: evaluation, weights, norms, shifts, summation by parts."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyident import exact, racah
from polyident.errors import DegenerateParameterError, DomainError
from polyident.exact import poch_quotient, terminating_hyp
from polyident.racah import (
    RacahSystem,
    backward_shift_residual,
    endpoint_value_residual,
    gram_matrix,
    racah_eval,
    racah_h0,
    racah_norm_ratio,
    racah_weight,
    sum_by_parts_residual,
)

HALF = Fraction(1, 2)


# The closed forms as shifted-factorial quotients through poch_quotient: the
# oracle for the running products validation evaluates them by.


def _weight_quotient(x, al, be, ga, de):
    """Weight at x without the (gamma+delta+1+2x)/(gamma+delta+1) factor."""
    return poch_quotient(
        [(al + 1, x), (be + de + 1, x), (ga + 1, x), (ga + de + 1, x)],
        [(-al + ga + de + 1, x), (-be + ga + 1, x), (de + 1, x), (Fraction(1), x)],
    )


def _h0_closed(N, al, be, ga, de):
    return poch_quotient(
        [(al + be + 2, N), (-de, N)],
        [(al - de + 1, N), (be + 1, N)],
    )


def _endpoint_closed(n, al, be, de):
    """The Saalschuetz closed form of R_n(N)."""
    return poch_quotient([(be + 1, n), (al - de + 1, n)], [(al + 1, n), (be + de + 1, n)])


def _norm_ratio_closed(n, al, be, ga, de):
    if n == 0:
        return Fraction(1)
    return poch_quotient(
        [(al + be + 1, 1), (be + 1, n), (al + be - ga + 1, n),
         (al - de + 1, n), (Fraction(1), n)],
        [(al + be + 2 * n + 1, 1), (al + 1, n), (al + be + 1, n),
         (be + de + 1, n), (ga + 1, n)],
    )


def _series(n, x, al, be, ga, de):
    """The terminating 4F3 that defines R_n(x), summed on its own."""
    return terminating_hyp(
        [-n, n + al + be + 1, -x, x + ga + de + 1], [al + 1, be + de + 1, ga + 1], n
    )


def _reference_validation(al, be, ga, de, N):
    """The problems validation must report, in its order, and the
    normalized weights, norm ratios and endpoint values (None where
    degenerate), each closed form evaluated on its own by poch_quotient."""
    problems = []

    def closed(what, form, *args):
        try:
            return form(*args)
        except DegenerateParameterError as exc:
            count = len(exc.factors)
            problems.append(f"{what}: {count} zero factor" + ("s" if count != 1 else ""))
            return None

    if ga + de + 1 == 0:
        problems.append("gamma+delta+1 = 0 (weight normalization divisor)")
    for name, base in (("alpha+1", al + 1), ("beta+delta+1", be + de + 1),
                       ("gamma+1", ga + 1)):
        zeros = [k for k in range(N) if base + k == 0]
        if zeros:
            problems.append(f"({name})_{{{zeros[0] + 1}}} = 0 in the series denominator")
    weights = [closed(f"weight at x={x}", _weight_quotient, x, al, be, ga, de)
               for x in range(N + 1)]
    closed("total mass closed form", _h0_closed, N, al, be, ga, de)
    ratios = []
    endpoints = []
    for n in range(N + 1):
        ratios.append(closed(f"norm ratio at n={n}", _norm_ratio_closed, n, al, be, ga, de))
        if n >= 1 and al + be + 2 * n + 1 == 0:
            problems.append(f"alpha+beta+2n+1 = 0 at n={n} (norm divisor)")
        endpoints.append(closed(f"endpoint value at n={n}", _endpoint_closed, n, al, be, de))
    if not problems:
        weights = [w * (ga + de + 1 + 2 * x) / (ga + de + 1) for x, w in enumerate(weights)]
    return problems, weights, ratios, endpoints


def _loop_validation(al, be, ga, de, N):
    """Validation as a loop over the indices on ``Fraction`` bases: each
    series-denominator base is tested at every k < N, the norm divisor is
    formed at every n and the weights are normalized by ``Fraction``
    arithmetic.  Returns the problems and the ``ClosedForms`` that
    ``racah._validate`` must return."""
    problems = []

    def running(numerators, denominators, last):
        num = den = 1
        zeros_above = zeros_below = 0
        states = [(num, den, zeros_above, zeros_below)]
        for i in range(last):
            for a in numerators:
                if a + i:
                    num, den = num * (a + i).numerator, den * (a + i).denominator
                else:
                    zeros_above += 1
            for b in denominators:
                if b + i:
                    num, den = num * (b + i).denominator, den * (b + i).numerator
                else:
                    zeros_below += 1
            states.append((num, den, zeros_above, zeros_below))
        return states

    def times(state, above, below):
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

    def closed(what, state):
        num, den, zeros_above, zeros_below = state
        if zeros_below > zeros_above:
            count = zeros_below
            problems.append(f"{what}: {count} zero factor{'s' if count > 1 else ''}")
            return None
        return Fraction(0) if zeros_above > zeros_below else Fraction(num, den)

    if ga + de + 1 == 0:
        problems.append("gamma+delta+1 = 0 (weight normalization divisor)")
    for name, base in (("alpha+1", al + 1), ("beta+delta+1", be + de + 1),
                       ("gamma+1", ga + 1)):
        for k in range(N):
            if base + k == 0:
                problems.append(f"({name})_{{{k + 1}}} = 0 in the series denominator")
                break
    weights = [
        closed(f"weight at x={x}", state)
        for x, state in enumerate(running(
            [al + 1, be + de + 1, ga + 1, ga + de + 1],
            [-al + ga + de + 1, -be + ga + 1, de + 1, Fraction(1)],
            N,
        ))
    ]
    h0 = closed("total mass closed form",
                running([al + be + 2, -de], [al - de + 1, be + 1], N)[N])
    norm_states = running(
        [be + 1, al + be - ga + 1, al - de + 1, Fraction(1)],
        [al + 1, al + be + 1, be + de + 1, ga + 1],
        N,
    )
    endpoint_states = running([be + 1, al - de + 1], [al + 1, be + de + 1], N)
    ratios = []
    endpoints = []
    for n in range(N + 1):
        ratios.append(Fraction(1) if n == 0 else closed(
            f"norm ratio at n={n}", times(norm_states[n], al + be + 1, al + be + 2 * n + 1)
        ))
        if n >= 1 and al + be + 2 * n + 1 == 0:
            problems.append(f"alpha+beta+2n+1 = 0 at n={n} (norm divisor)")
        endpoints.append(closed(f"endpoint value at n={n}", endpoint_states[n]))
    if not problems:
        weights = [w * (ga + de + 1 + 2 * x) / (ga + de + 1) for x, w in enumerate(weights)]
    return problems, racah.ClosedForms(tuple(weights), h0, tuple(ratios), tuple(endpoints))


def spec_system(alpha, l, m) -> RacahSystem:
    return RacahSystem(alpha - HALF, alpha - HALF, Fraction(-m - 1), -l - alpha - HALF, N=m)


SAMPLE_SYSTEMS = [
    RacahSystem(Fraction(0), Fraction(0), Fraction(-3), Fraction(1), N=2),
    RacahSystem(Fraction(0), Fraction(0), Fraction(-2), Fraction(-2), N=1),
    RacahSystem(HALF, HALF, Fraction(-4), Fraction(2), N=3),
    RacahSystem(Fraction(1), Fraction(2), Fraction(-5), Fraction(-7, 2), N=4),
] + [
    spec_system(alpha, l, m)
    for alpha in (Fraction(0), HALF, Fraction(1), Fraction(7, 3))
    for l, m in ((1, 1), (3, 2), (5, 5), (8, 4))
]


class TestConstruction:
    def test_twenty_validated_systems(self):
        assert len(SAMPLE_SYSTEMS) == 20

    def test_gamma_must_match_n(self):
        with pytest.raises(DomainError):
            RacahSystem(Fraction(0), Fraction(0), Fraction(-3), Fraction(1), N=3)

    def test_degenerate_h0_denominator(self):
        # (alpha - delta + 1)_N hits zero: construction must fail loudly
        with pytest.raises(DegenerateParameterError) as err:
            RacahSystem(Fraction(0), Fraction(0), Fraction(-2), Fraction(1), N=1)
        assert err.value.factors

    def test_parse(self):
        sys = RacahSystem.parse("0,0,-3,1", 2)
        assert sys == SAMPLE_SYSTEMS[0]
        with pytest.raises(DomainError):
            RacahSystem.parse("0,0,-3", 2)

    def test_validation_diagnostics_empty_for_valid(self):
        assert racah._validate(SAMPLE_SYSTEMS[2])[0] == []


class TestClosedFormsOnce:
    # SAMPLE_SYSTEMS[3] is generic; SAMPLE_SYSTEMS[7], the alpha = 0
    # specialization at (l, m) = (8, 4), is a tie: alpha + beta + 1 = 0
    # vanishes on both sides of every norm ratio's quotient
    @pytest.mark.parametrize("index", [3, 7], ids=["generic", "tie"])
    def test_validation_evaluates_each_closed_form_once(self, index, monkeypatch):
        sample = SAMPLE_SYSTEMS[index]
        calls = {"running": 0, "poch_quotient": 0, "grid": 0}

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(racah, "_running_quotients",
                            counting("running", racah._running_quotients))
        for module in (exact, racah):
            monkeypatch.setattr(module, "poch_quotient", counting("poch_quotient", poch_quotient),
                                raising=False)
        monkeypatch.setattr(racah, "terminating_hyp_grid",
                            counting("grid", racah.terminating_hyp_grid))
        sys = RacahSystem(*sample.as_tuple(), N=sample.N)
        # one running pass each for the weights, the mass, the norm ratios
        # and the endpoint values; no values yet
        assert calls == {"running": 4, "poch_quotient": 0, "grid": 0}
        assert "values" not in vars(sys)
        for x in range(sys.N + 1):
            racah_weight(x, sys)
        for n in range(sys.N + 1):
            racah_norm_ratio(n, sys)
            sys._closed.endpoints[n]
        racah_h0(sys)
        assert calls == {"running": 4, "poch_quotient": 0, "grid": 0}

    @pytest.mark.parametrize("index", [3, 7], ids=["generic", "tie"])
    def test_stored_values_equal_fresh_closed_forms(self, index):
        sys = SAMPLE_SYSTEMS[index]
        al, be, ga, de = sys.as_tuple()
        for x in range(sys.N + 1):
            normalization = (ga + de + 1 + 2 * x) / (ga + de + 1)
            fresh = _weight_quotient(x, al, be, ga, de) * normalization
            assert racah_weight(x, sys) == fresh
        assert racah_h0(sys) == _h0_closed(sys.N, al, be, ga, de)
        for n in range(sys.N + 1):
            assert racah_norm_ratio(n, sys) == _norm_ratio_closed(n, al, be, ga, de)
            assert sys._closed.endpoints[n] == _endpoint_closed(n, al, be, de)

    @given(al=st.integers(-4, 3).map(Fraction) | st.sampled_from([HALF, -HALF, Fraction(1, 3)]),
           be=st.integers(-4, 3).map(Fraction) | st.sampled_from([HALF, -HALF]),
           de=st.integers(-7, 4).map(Fraction) | st.sampled_from([-HALF, Fraction(-7, 2)]),
           N=st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_running_products_match_quotients_on_random_systems(self, al, be, de, N):
        # small integers make ties (alpha = 0 specializations among them)
        # and degenerate tuples; the diagnostics must be the same list
        ga = Fraction(-N - 1)
        problems, weights, ratios, endpoints = _reference_validation(al, be, ga, de, N)
        if problems:
            with pytest.raises(DegenerateParameterError) as info:
                RacahSystem(al, be, ga, de, N=N)
            assert info.value.factors == problems
            return
        sys = RacahSystem(al, be, ga, de, N=N)
        assert racah._validate(sys)[0] == []
        assert list(sys._closed.weights) == weights
        assert list(sys._closed.norm_ratios) == ratios
        assert list(sys._closed.endpoints) == endpoints
        assert racah_h0(sys) == _h0_closed(N, al, be, ga, de)

    def test_integer_validation_matches_the_loop_version(self):
        # a seeded sweep that lands on many degenerate tuples: parameters
        # with small denominators near the poles of every base, and the
        # dual-addition specializations among them
        rng = random.Random(20261020)
        values = [Fraction(p, q) for q in (1, 2, 3) for p in range(-8 * q, 4 * q + 1)]
        degenerate = 0
        for trial in range(4000):
            N = rng.randint(0, 7)
            if trial % 4 == 0:
                alpha = rng.choice(values)
                al, be, de = alpha - HALF, alpha - HALF, -rng.randint(N, N + 6) - alpha - HALF
            else:
                al, be, de = (rng.choice(values) for _ in range(3))
            ga = Fraction(-N - 1)
            system = SimpleNamespace(as_tuple=lambda: (al, be, ga, de), N=N)
            expected = _loop_validation(al, be, ga, de, N)
            assert racah._validate(system) == expected, (al, be, ga, de, N)
            degenerate += bool(expected[0])
        # both kinds are well represented
        assert 1000 < degenerate < 3000

    def test_kept_shifted_terms_match_fresh_computation(self, monkeypatch):
        # the shifted-system terms the backward shift and summation by parts
        # share: one grid per fresh system, kept and returned as one object
        grids = []
        real = racah.terminating_hyp_grid
        monkeypatch.setattr(racah, "terminating_hyp_grid",
                            lambda *args: grids.append(args) or real(*args))
        for sample in SAMPLE_SYSTEMS:
            sys = RacahSystem(*sample.as_tuple(), N=sample.N)
            al, be, ga, de = sys.as_tuple()
            shifted = (al + 1, be + 1, ga + 1, de)
            grids.clear()
            terms = sys.shifted_terms
            assert len(grids) == 1
            assert terms == tuple(
                tuple(_weight_quotient(x, *shifted) * _series(n - 1, x, *shifted)
                      for x in range(sys.N))
                for n in range(1, sys.N + 1)
            )
            assert sys.shifted_terms is terms
            assert len(grids) == 1


class TestValuesGrid:
    def test_grid_equals_single_values(self):
        for sample in SAMPLE_SYSTEMS:
            # a fresh system: racah_eval sums each series on its own
            sys = RacahSystem(*sample.as_tuple(), N=sample.N)
            single = [[racah_eval(n, x, sys) for x in range(sys.N + 1)]
                      for n in range(sys.N + 1)]
            assert "values" not in vars(sys)
            assert [list(row) for row in sys.values] == single

    @given(al=st.integers(0, 3).map(Fraction) | st.sampled_from([HALF, Fraction(1, 3)]),
           de=st.integers(-6, 3).map(Fraction) | st.sampled_from([-HALF, Fraction(5, 3)]),
           N=st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_grid_equals_single_values_on_random_systems(self, al, de, N):
        try:
            sys = RacahSystem(al, al, Fraction(-N - 1), de, N=N)
        except DegenerateParameterError:
            return
        values = sys.values
        assert all(
            values[n][x] == _series(n, x, *sys.as_tuple())
            for n in range(N + 1) for x in range(N + 1)
        )

    def test_grid_is_formed_once(self, monkeypatch):
        sample = SAMPLE_SYSTEMS[3]
        sys = RacahSystem(*sample.as_tuple(), N=sample.N)
        grids = []
        real = racah.terminating_hyp_grid
        monkeypatch.setattr(racah, "terminating_hyp_grid",
                            lambda *args: grids.append(args) or real(*args))
        values = sys.values
        assert sys.values is values
        assert len(grids) == 1

    def test_single_value_forms_no_grid(self):
        # N = 400: the grid would cost O(N^3); one value costs O(n)
        sys = RacahSystem(Fraction(0), HALF, Fraction(-401), Fraction(1, 3), N=400)
        assert racah_eval(3, 5, sys) == Fraction(144611739193, 569172835)
        assert "values" not in vars(sys)


class TestEvaluation:
    def test_degree_zero_is_one(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            for x in range(sys.N + 1):
                assert racah_eval(0, x, sys) == 1

    def test_value_one_at_origin(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            for n in range(sys.N + 1):
                assert racah_eval(n, 0, sys) == 1

    def test_two_term_example(self):
        sys = SAMPLE_SYSTEMS[0]  # (0, 0, -3, 1)
        assert racah_eval(1, 2, sys) == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            racah_eval(3, 0, SAMPLE_SYSTEMS[0])
        with pytest.raises(DomainError):
            racah_eval(0, -1, SAMPLE_SYSTEMS[0])


class TestWeights:
    def test_weight_at_origin_is_one(self):
        for sys in SAMPLE_SYSTEMS:
            assert racah_weight(0, sys) == 1

    def test_linearization_weights(self):
        # the alpha = 1/2, l = m = 1 specialization carries the Legendre
        # expansion of x^2: coefficients 2/3 and 1/3
        sys = spec_system(Fraction(0), 1, 1)
        h0 = racah_h0(sys)
        assert racah_weight(0, sys) / h0 == Fraction(2, 3)
        assert racah_weight(1, sys) / h0 == Fraction(1, 3)

    def test_mass_closed_form_equals_direct_sum(self):
        for sys in SAMPLE_SYSTEMS:
            direct = sum(racah_weight(x, sys) for x in range(sys.N + 1))
            assert racah_h0(sys) == direct


class TestNorms:
    def test_degree_zero_ratio(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            assert racah_norm_ratio(0, sys) == 1

    def test_norm_ratio_against_brute_force(self):
        for sys in SAMPLE_SYSTEMS:
            h0 = racah_h0(sys)
            for n in range(sys.N + 1):
                brute = sum(
                    racah_eval(n, x, sys) ** 2 * racah_weight(x, sys)
                    for x in range(sys.N + 1)
                )
                assert brute == h0 * racah_norm_ratio(n, sys)

    def test_gram_matrix_diagonal(self):
        for sys in SAMPLE_SYSTEMS:
            gram = gram_matrix(sys)
            h0 = racah_h0(sys)
            for a in range(sys.N + 1):
                for b in range(sys.N + 1):
                    expected = h0 * racah_norm_ratio(a, sys) if a == b else 0
                    assert gram[a][b] == expected


class TestEndpoint:
    def test_degree_zero(self):
        for sys in SAMPLE_SYSTEMS[:4]:
            assert endpoint_value_residual(0, sys) == 0

    def test_example_system(self):
        sys = SAMPLE_SYSTEMS[0]
        assert endpoint_value_residual(1, sys) == 0

    def test_saalschuetz_instance(self):
        sys = SAMPLE_SYSTEMS[2]  # (1/2, 1/2, -4, 2)
        assert endpoint_value_residual(2, sys) == 0

    def test_all_samples(self):
        for sys in SAMPLE_SYSTEMS:
            for n in range(sys.N + 1):
                assert endpoint_value_residual(n, sys) == 0


class TestBackwardShift:
    def test_interior_point(self):
        assert backward_shift_residual(1, 1, SAMPLE_SYSTEMS[0]) == 0

    def test_left_boundary_convention(self):
        assert backward_shift_residual(1, 0, SAMPLE_SYSTEMS[0]) == 0

    def test_right_boundary_convention(self):
        assert backward_shift_residual(1, 2, SAMPLE_SYSTEMS[0]) == 0

    def test_full_sample(self):
        for sys in SAMPLE_SYSTEMS:
            for n in range(1, sys.N + 1):
                for x in range(sys.N + 1):
                    assert backward_shift_residual(n, x, sys) == 0

    def test_requires_positive_degree(self):
        with pytest.raises(DomainError):
            backward_shift_residual(0, 0, SAMPLE_SYSTEMS[0])


class TestSummationByParts:
    def test_constant_function(self):
        # f constant kills the difference side; the weighted side is the
        # orthogonality of degree n against degree 0
        sys = SAMPLE_SYSTEMS[2]
        f = [Fraction(5)] * (sys.N + 1)
        for n in range(1, sys.N + 1):
            assert sum_by_parts_residual(n, f, sys) == 0

    def test_spec_examples(self):
        assert sum_by_parts_residual(1, [1, 0, 0], SAMPLE_SYSTEMS[0]) == 0
        assert sum_by_parts_residual(2, [0, 1, 4, 9], SAMPLE_SYSTEMS[2]) == 0

    def test_hundred_random_functions(self):
        rng = random.Random(20260810)
        for _ in range(100):
            sys = SAMPLE_SYSTEMS[rng.randrange(len(SAMPLE_SYSTEMS))]
            n = rng.randint(1, sys.N)
            f = [Fraction(rng.randint(-50, 50)) for _ in range(sys.N + 1)]
            assert sum_by_parts_residual(n, f, sys) == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            sum_by_parts_residual(1, [1, 2], SAMPLE_SYSTEMS[0])
