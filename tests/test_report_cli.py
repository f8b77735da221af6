"""Report emission, exit-status contract, and the command-line interface."""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyident
from polyident import addition, cli, continuous, dual_addition, hermite_limit, racah
from polyident.cli import load_config_file, main
from polyident.errors import ConfigError, DomainError, PolyidentError
from polyident.exact import format_rational, pochhammer
from polyident.report import (
    VerificationReport,
    emit,
    emit_json_lines,
    emit_text,
    exit_status,
    sort_reports,
)
from polyident import suites
from polyident.suites import REGISTRY, SUITE_NAMES, SuiteConfig, run_suite, suite_tasks


#: sha256 of the json-lines of the racah, classical-addition, hermite and
#: dual-addition suites at the default config (2,856 exact records, so no
#: mpmath version moves it); a change that means to alter this output
#: updates it and says why
EXACT_SUITES_SHA256 = "c3f2bd668afb71b28472c8d09bd86a1f17f3407cf4b8c1f7e18e05833808101c"


def _package_lru_caches() -> dict:
    """Every module-level lru_cache of the package, by qualified name."""
    modules = [importlib.import_module(f"polyident.{info.name}")
               for info in pkgutil.iter_modules(polyident.__path__)]
    return {f"{obj.__module__}.{obj.__qualname__}": obj
            for module in modules for obj in vars(module).values()
            if hasattr(obj, "cache_info")}


def record(identity="eq40", status="pass", residual="0", **params):
    return VerificationReport(
        identity_id=identity,
        parameters={k: str(v) for k, v in params.items()},
        mode="exact",
        residual=residual,
        status=status,
    )


report_lists = st.lists(
    st.builds(
        record,
        identity=st.sampled_from(["eq40", "eq42", "eq48-printed"]),
        status=st.sampled_from(["pass", "fail", "error"]),
        residual=st.sampled_from(["0", "-1", "1/3"]),
    ),
    max_size=12,
)


class TestEmission:
    def test_empty_list(self):
        assert emit_json_lines([]) == ""
        assert emit_text([]) == ""
        assert exit_status([]) == 0

    def test_single_pass_record(self):
        out = emit_json_lines([record()])
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert list(payload.keys()) == [
            "identity_id", "parameters", "mode", "residual", "status", "elapsed",
        ]

    def test_mixed_emits_all_lines(self):
        reports = [record(), record(status="fail", residual="1/3")]
        out = emit_json_lines(reports)
        assert len(out.splitlines()) == 2
        assert exit_status(reports) == 1

    def test_sorted_by_identity_and_parameters(self):
        reports = [
            record(identity="eq42", n=2),
            record(identity="eq40", j=1),
            record(identity="eq40", j=0),
        ]
        ordered = sort_reports(reports)
        keys = [(r.identity_id, r.parameters) for r in ordered]
        assert keys == [
            ("eq40", {"j": "0"}),
            ("eq40", {"j": "1"}),
            ("eq42", {"n": "2"}),
        ]

    def test_emission_independent_of_order(self):
        reports = [record(identity="eq42", n=i) for i in (3, 1, 2)]
        assert emit_json_lines(reports) == emit_json_lines(list(reversed(reports)))

    def test_text_has_header_and_rows(self):
        out = emit_text([record(identity="eq40", j=0)])
        lines = out.splitlines()
        assert lines[0].startswith("identity")
        assert lines[1].startswith("eq40")

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit([], "yaml")

    def test_invalid_status_rejected(self):
        with pytest.raises(ConfigError):
            record(status="maybe")

    @given(reports=report_lists)
    @settings(max_examples=80, deadline=None)
    def test_exit_status_contract(self, reports):
        code = exit_status(reports)
        statuses = {r.status for r in reports}
        if "error" in statuses:
            assert code == 2
        elif "fail" in statuses:
            assert code == 1
        else:
            assert code == 0


SMALL = dict(alphas=(Fraction(0), Fraction(1, 2)), l_max=3, jobs=1)

#: every grid at its floor: the (l, m) bounds at 0 and one alpha
FLOORS = dict(alphas=(Fraction(1),), l_max=0, hermite_lm_max=0, limit_lm_max=0, jobs=1)

#: the benchmark's record of the task lists
GOLDEN_TASKS = Path(__file__).resolve().parent.parent / "benchmarks" / "golden"

NUMERIC = {i: d for i, d in REGISTRY.items() if d.mode == "numeric"}

EQ16_PARAMS = {"alpha": "1", "lambda": "7/10", "t": "3/10"}
EQ8_PARAMS = {"m": "0", "n": "0", "lambda": "1/5", "mu": "2/5", "alpha": "1"}


class TestSuites:
    def test_registry_covers_all_task_ids(self):
        # every task names an id declared in its suite, and no declaration
        # is dead: each grid, at its floors too, gives its id a task
        for fields in (SMALL, {}, FLOORS):
            produced = {
                (identity, suite)
                for suite in SUITE_NAMES
                for identity, _params in suite_tasks(suite, SuiteConfig(**fields))
            }
            assert produced == {(i, d.suite) for i, d in REGISTRY.items()}, fields

    @pytest.mark.parametrize("name, suite, fields", [
        ("racah", "racah", {}),
        ("classical-addition", "classical-addition", {}),
        ("hermite", "hermite", {}),
        ("dual-addition", "dual-addition", {}),
        ("continuous", "continuous", {}),
        ("dual-addition-l10", "dual-addition", {"alphas": (Fraction(7, 3),), "l_max": 10}),
        ("hermite-lm14", "hermite", {"hermite_lm_max": 14}),
    ])
    def test_grids_reproduce_the_recorded_task_lists(self, name, suite, fields):
        # the same tasks, parameter order included, in any task order;
        # "$alpha" stands for the seeded alpha of the l10 list
        text = (GOLDEN_TASKS / f"{name}.json").read_text().replace('"$alpha"', '"7/3"')
        recorded = sorted(json.dumps(task) for task in json.loads(text))
        tasks = suite_tasks(suite, SuiteConfig(**fields))
        assert sorted(json.dumps([i, p]) for i, p in tasks) == recorded

    def test_shared_values_do_not_depend_on_task_order(self, monkeypatch):
        # the values several checks start from are memoised by their inputs,
        # so a shuffled task list gives the same bytes and forms each value
        # once per distinct key: (n, alpha), n and the Hermite (l, m)
        caches = {
            "addition_lhs": addition.addition_lhs,
            "_hermite_at_mixed_argument": hermite_limit._hermite_at_mixed_argument,
            "hermite_setting": hermite_limit.hermite_setting,
        }
        ordered = suites.suite_tasks

        def run(tasks_in, clear):
            monkeypatch.setattr(suites, "suite_tasks", lambda *a: tasks_in(ordered(*a)))
            for cache in clear:
                cache.cache_clear()
            reports = [report
                       for suite in ("racah", "classical-addition", "hermite", "dual-addition")
                       for report in run_suite(suite, SuiteConfig(jobs=1))]
            misses = {name: cache.cache_info().misses for name, cache in caches.items()}
            return emit_json_lines(reports), misses

        every_cache = _package_lru_caches()
        rng = random.Random(0)
        built, built_misses = run(lambda tasks: tasks, every_cache.values())
        traffic = {name: cache.cache_info() for name, cache in every_cache.items()}
        shuffled, shuffled_misses = run(lambda tasks: rng.sample(tasks, len(tasks)),
                                        caches.values())
        assert shuffled == built
        assert hashlib.sha256(built.encode()).hexdigest() == EXACT_SUITES_SHA256
        assert built_misses == shuffled_misses == {
            "addition_lhs": 36, "_hermite_at_mixed_argument": 13, "hermite_setting": 91}
        # a memo the exact suites fill but never read costs its keys and
        # buys nothing
        assert [name for name, info in traffic.items() if info.misses and not info.hits] == []

    def test_warm_memos_hash_no_fraction(self, monkeypatch):
        # every memo of the exact layers is keyed by integers: once a run of
        # the four discrete suites has filled them, a second run hashes no
        # Fraction (a modular inverse each)
        def run():
            for suite in ("racah", "classical-addition", "hermite", "dual-addition"):
                run_suite(suite, SuiteConfig(jobs=1))

        run()
        hashes = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__",
                            lambda q: hashes.append(q) or fraction_hash(q))
        run()
        monkeypatch.undo()
        assert len(hashes) == 0, sorted(set(hashes))[:10]

    def test_each_racah_system_is_validated_once(self, monkeypatch):
        # the racah suite's systems and the dual-addition and Hermite
        # specializations come from one constructor keyed by integers: a
        # tuple that two suites use is one system, validated once, whose
        # grids both read
        for cache in (racah.system_over, dual_addition.specialized_racah):
            cache.cache_clear()
        validated = []
        validate = racah._validate
        monkeypatch.setattr(racah, "_validate", lambda sys: (
            validated.append((*sys.as_tuple(), sys.N)) or validate(sys)))
        for suite in ("racah", "dual-addition", "hermite"):
            run_suite(suite, SuiteConfig(jobs=1))
        assert len(validated) == len(set(validated)) == 288
        # the racah suite's specializations at each default alpha are also
        # dual-addition settings
        config = SuiteConfig()
        for alpha in config.alphas:
            for l, m in ((1, 1), (3, 2), (5, 5), (8, 4)):
                parameters = dual_addition.racah_specialization(alpha, l, m)
                text = ",".join(map(format_rational, parameters))
                assert racah.RacahSystem.parse(text, m) is dual_addition.specialized_racah(
                    dual_addition.DualSetting(alpha, l, m))
        # and looking them up validates nothing more
        assert len(validated) == 288

    def test_numeric_checks_declare_a_tolerance(self):
        # a check is numeric exactly when it declares a tolerance, and every
        # continuous check does
        for identity, declared in REGISTRY.items():
            numeric = declared.suite == "continuous"
            assert (declared.tolerance is not None) == numeric, identity
            assert declared.mode == ("numeric" if numeric else "exact"), identity

    def test_thresholds_track_precision(self):
        at_60, at_80 = SuiteConfig(precision_digits=60), SuiteConfig(precision_digits=80)
        for identity, declared in NUMERIC.items():
            expected = declared.threshold(at_60) * mp.mpf(10) ** -20
            assert mp.almosteq(declared.threshold(at_80), expected, rel_eps=1e-14), identity

    @pytest.mark.parametrize(
        "flags",
        [{}, {"integral_tolerance": "1e-11", "pointwise_tolerance": "1e-36"}],
        ids=["defaults", "loosest-explicit"],
    )
    def test_thresholds_at_the_floor_stay_below_1e_5(self, flags):
        config = SuiteConfig(precision_digits=suites.PRECISION_FLOOR, **flags)
        # the pinned checks scale their threshold by their task's ((alpha+1/2)_n)^2
        ratios = {
            identity: pochhammer(Fraction(params["alpha"]) + Fraction(1, 2),
                                 int(params["n"])) ** 2
            for identity, params in suite_tasks("continuous", config)
            if identity.endswith("-printed")
        }
        assert ratios == {"eq8-printed": Fraction(225, 16), "eq13-printed": Fraction(9, 4)}
        for identity, declared in NUMERIC.items():
            ratio = ratios.get(identity, 1)
            assert declared.threshold(config) * ratio < mp.mpf("1e-5"), identity

    def test_explicit_pointwise_tolerance_reaches_every_pointwise_check(self):
        config = SuiteConfig(pointwise_tolerance="1e-55", jobs=1)
        expected = {"eq16": "1.0e-55", "eq34": "1.0e-55", "eq32": "1.0e-55",
                    "eq4": "1.0e-55", "eq33": "1.0e-35", "exact-float-oracle": "1.0e-60"}
        assert set(expected) == {
            i for i, d in NUMERIC.items() if d.tolerance[0] == "pointwise"
        }
        seen = set()
        for task in suite_tasks("continuous", config):
            if task[0] in expected:
                report = suites._execute(task, config)
                assert report.parameters["tolerance"] == expected[task[0]], task
                seen.add(task[0])
        assert seen == set(expected)

    def test_explicit_integral_tolerance_reaches_every_integral_check(self):
        config = SuiteConfig(integral_tolerance="1e-30")
        expected = {"eq8": "1.0e-30", "eq8-printed": "1.0e-30", "eq7": "1.0e-30",
                    "eq6": "1.0e-30", "eq13": "1.0e-25", "eq13-printed": "1.0e-25",
                    "eq15": "1.0e-25"}
        assert set(expected) == {
            i for i, d in NUMERIC.items() if d.tolerance[0] == "integral"
        }
        for identity, threshold in expected.items():
            assert mp.nstr(NUMERIC[identity].threshold(config), 3) == threshold, identity

    def test_eq15_passes_at_80_digits(self):
        # degree-28 Wilson terms cancel more digits than the guard digits cover
        task = ("eq15", {"t": "1/5", "nu": "3/10", "lambda": "1/5", "mu": "2/5",
                         "alpha": "1/2"})
        report = suites._execute(task, SuiteConfig(precision_digits=80))
        assert report.status == "pass", report.parameters
        assert int(report.parameters["terms"]) >= 28

    def test_eq15_passes_at_150_digits(self):
        # the terms the expansion needs grow with the digits: 80 here
        task = ("eq15", {"t": "1/5", "nu": "3/10", "lambda": "1/5", "mu": "2/5",
                         "alpha": "1/2"})
        report = suites._execute(task, SuiteConfig(precision_digits=150))
        assert report.status == "pass", report.parameters
        assert report.parameters["terms"] == "80"

    @pytest.mark.parametrize("prec", [46, 60])
    @pytest.mark.parametrize(
        "identity, degree",
        [("eq8", None), ("eq8-printed", None), ("eq7", None), ("eq6", None),
         ("eq13", None), ("eq13-printed", None), ("eq13", "3")],
    )
    def test_quadrature_margin(self, identity, degree, prec):
        # every quadrature check passes with at least four digits to spare, so
        # a stop rule that returns early cannot eat into its tolerance unseen;
        # degree None takes the identity's first task
        config = SuiteConfig(precision_digits=prec)
        task = next(
            (i, params) for i, params in suite_tasks("continuous", config)
            if i == identity and degree in (None, params.get("n"))
        )
        report = suites._execute(task, config)
        tolerance = mp.mpf(report.parameters["tolerance"])
        assert mp.mpf(report.residual) <= tolerance * mp.mpf("1e-4"), report

    def test_eq13_margin_at_80_digits(self):
        # the quadrature's tolerance is relative to |closed|, which is about
        # 1e-4 at n = 3, so its stop rules keep three digits below the
        # threshold there too
        config = SuiteConfig(precision_digits=80, jobs=1)
        reports = [suites._execute(task, config)
                   for task in suite_tasks("continuous", config) if task[0] == "eq13"]
        assert len(reports) == 4
        for r in reports:
            threshold = mp.mpf(r.parameters["tolerance"])
            assert mp.mpf(r.residual) <= threshold * mp.mpf("1e-3"), r

    def test_truncated_eq15_is_an_error_not_a_fail(self, monkeypatch):
        # a budget that runs out on a decreasing tail cuts the check short;
        # it does not show that the identity fails
        monkeypatch.setattr(continuous, "_truncation_budget", lambda: 2)
        config = SuiteConfig(jobs=1)
        reports = [suites._execute(task, config)
                   for task in suite_tasks("continuous", config) if task[0] == "eq15"]
        assert len(reports) == 3
        for r in reports:
            assert r.status == "error", r.parameters
            assert r.parameters["error"].startswith(
                "PrecisionError: truncation budget of 2 terms ran out"
            )
        assert exit_status(reports) == 2

    @pytest.mark.parametrize(
        "task",
        [("eq8-printed", {"n": "0", "lambda": "1/5", "mu": "2/5", "alpha": "1"}),
         ("eq13-printed", {"n": "0", "t": "1/5", "lambda": "3/10", "mu": "1/2",
                           "alpha": "1"}),
         ("eq48-printed", {"n": "0", "k": "0", "expected": "1"})],
        ids=["eq8-printed-n0", "eq13-printed-n0", "eq48-printed-00"],
    )
    def test_pinned_check_that_cannot_tell_the_variants_apart_is_an_error(self, task):
        # at n = 0 the ratio ((alpha+1/2)_n)^2 is 1, and at (n, k) = (0, 0)
        # both biorthogonality kernels give 1: a pass there would pin nothing
        report = suites._execute(task, SuiteConfig())
        assert report.status == "error", report.parameters
        assert report.parameters["error"].startswith(
            "DomainError: pinned check cannot tell printed from corrected"
        )

    @pytest.mark.parametrize(
        "identity, params, settings, dps",
        [("eq16", EQ16_PARAMS, {"precision_digits": 46}, 49),
         ("eq16", EQ16_PARAMS, {"precision_digits": 60}, 63),
         ("eq16", EQ16_PARAMS, {"precision_digits": 80}, 83),
         ("eq8", EQ8_PARAMS, {}, 38),
         ("eq8", EQ8_PARAMS, {"integral_tolerance": "1e-30"}, 43),
         ("exact-float-oracle", {"case": "gauss-terminating"},
          {"pointwise_tolerance": "1e-55"}, 70)],
        ids=["eq16-46", "eq16-60", "eq16-80", "eq8", "eq8-1e-30", "oracle-capped"],
    )
    def test_numeric_handler_runs_at_the_digits_its_tolerance_needs(
        self, identity, params, settings, dps, monkeypatch
    ):
        # the digits of the finer of threshold and kind tolerance plus three,
        # at most P, plus ten guard digits: eq16's 1e-(P-10) needs P - 7, eq8's
        # 1e-25 needs 28, and the oracle's 1e-60 would need 63 > P = 60
        seen = []

        def recording(p, config, threshold):
            seen.append(mp.mp.dps)
            return suites.TaskResult(residual="0", passed=True)

        declared = REGISTRY[identity]
        monkeypatch.setitem(REGISTRY, identity, dataclasses.replace(declared, handler=recording))
        suites.run_task(identity, params, SuiteConfig(**settings))
        assert seen == [dps]

    def test_wilson_context_is_keyed_by_the_working_digits(self, monkeypatch):
        # one P, two integral tolerances: two working precisions, so two
        # contexts, whose node values are computed at their own digits
        contexts = []

        def recording(m, n, ctx, tolerance):
            contexts.append((ctx, mp.mp.dps))
            return mp.mpf(0)

        monkeypatch.setattr(suites.continuous, "wilson_orthogonality_residual", recording)
        for tolerance in (None, "1e-30", None):
            suites.run_task("eq8", EQ8_PARAMS, SuiteConfig(integral_tolerance=tolerance))
        (first, dps), (other, other_dps), (again, _) = contexts
        assert (dps, other_dps) == (38, 43)
        assert first is not other
        assert first is again

    @pytest.mark.parametrize(
        "identity, want",
        [("eq6", {}), ("eq7", {}), ("eq8", {}), ("eq13", {}),
         ("eq8", {"m": "3", "n": "3"}), ("eq13", {"n": "3"})],
        ids=["eq6", "eq7", "eq8", "eq13", "eq8-33", "eq13-3"],
    )
    def test_sized_digits_agree_with_twice_them(self, identity, want, monkeypatch):
        # the oracle for sizing the digits to the tolerance: the check passes
        # at twice them too, and its residual moves by less than 1e-3 of the
        # threshold; the first task of the identity with the wanted parameters
        config = SuiteConfig()
        task = next(
            (i, params) for i, params in suite_tasks("continuous", config)
            if i == identity and want.items() <= params.items()
        )
        sized = suites.run_task(*task, config)
        at = suites.continuous.working_precision
        monkeypatch.setattr(suites.continuous, "working_precision", lambda digits: at(2 * digits))
        doubled = suites.run_task(*task, config)
        assert sized.passed and doubled.passed, (sized, doubled)
        threshold = REGISTRY[identity].threshold(config)
        moved = abs(mp.mpf(sized.residual) - mp.mpf(doubled.residual))
        assert moved < threshold * mp.mpf("1e-3"), (sized, doubled)

    def test_run_task_restores_the_callers_precision(self):
        passing = ("eq16", {"alpha": "1", "lambda": "7/10", "t": "3/10"})
        raising = ("eq4", {"g": "0", "r": "1", "k": "1"})  # g = 0: DomainError
        with mp.workdps(33):
            assert suites.run_task(*passing, SuiteConfig(precision_digits=80)).passed
            assert mp.mp.dps == 33
            with pytest.raises(DomainError):
                suites.run_task(*raising, SuiteConfig(precision_digits=80))
            assert mp.mp.dps == 33

    def test_error_record_mode_follows_declaration(self):
        # g = 0 is outside the conical domain: an error record of a numeric check
        report = suites._execute(("eq4", {"g": "0", "r": "1", "k": "1"}), SuiteConfig())
        assert report.status == "error"
        assert report.mode == "numeric"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_is_an_error_record(self, jobs, monkeypatch):
        # a fault outside PolyidentError becomes an error record, in the
        # pool as in one process, and the run exits 2
        def broken(params, config):
            return Fraction(1) / 0

        declared = REGISTRY["eq40"]
        monkeypatch.setitem(
            REGISTRY, "eq40", dataclasses.replace(declared, handler=broken)
        )
        reports = run_suite("dual-addition", SuiteConfig(**dict(SMALL, jobs=jobs)))
        broken_records = [r for r in reports if r.identity_id == "eq40"]
        assert broken_records
        for r in broken_records:
            assert r.status == "error"
            assert r.parameters["error"] == "ZeroDivisionError: Fraction(1, 0)"
        assert all(r.status == "pass" for r in reports if r.identity_id != "eq40")
        assert exit_status(reports) == 2

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            suite_tasks("nope", SuiteConfig())

    def test_dual_addition_small_grid_passes(self):
        reports = run_suite("dual-addition", SuiteConfig(**SMALL))
        assert reports and all(r.status == "pass" for r in reports)
        # one record per (alpha, l, m, j) for the expansion identity
        eq40 = [r for r in reports if r.identity_id == "eq40"]
        grid = {
            (a, l, m, j)
            for a in ("0", "1/2")
            for l in range(4)
            for m in range(l + 1)
            for j in range(m + 1)
        }
        seen = {
            (
                r.parameters["alpha"],
                int(r.parameters["l"]),
                int(r.parameters["m"]),
                int(r.parameters["j"]),
            )
            for r in eq40
        }
        assert seen == grid

    def test_byte_identical_json_lines(self):
        config = SuiteConfig(**SMALL)
        a = emit_json_lines(run_suite("dual-addition", config))
        b = emit_json_lines(run_suite("dual-addition", config))
        assert a == b

    def test_hermite_pinned_discrepancy(self):
        config = SuiteConfig(jobs=1, hermite_lm_max=2, limit_lm_max=1)
        reports = run_suite("hermite", config)
        pinned = [r for r in reports if r.identity_id == "eq48-printed"]
        assert len(pinned) == 1
        assert pinned[0].residual == "-1"
        assert pinned[0].status == "pass"
        assert all(r.status == "pass" for r in reports)

    def test_hermite_records_match_expected_file(self):
        # pins every record byte for byte, including the points and limit
        # strings of the limit records; regenerate the file only for an
        # intended change of output
        config = SuiteConfig(jobs=1, hermite_lm_max=2, limit_lm_max=2)
        expected = Path(__file__).with_name("golden") / "hermite-small.jsonl"
        assert emit_json_lines(run_suite("hermite", config)) == expected.read_text()

    def test_exact_status_residual_invariant(self):
        # outside the pinned-discrepancy records, an exact check passes
        # exactly when its residual is the zero rational
        config = SuiteConfig(**SMALL)
        for suite in ("racah", "dual-addition", "classical-addition"):
            for r in run_suite(suite, config):
                assert r.mode == "exact"
                if not r.identity_id.endswith("-printed"):
                    assert (r.status == "pass") == (r.residual == "0")


#: a racah system's tasks plus continuous tasks that take milliseconds each
MIXED_TASKS = [
    ("eq29", {"system": "0,0,-3,1", "N": "2"}),
    ("eq16", {"alpha": "1", "lambda": "3/10", "t": "1/2"}),
    ("eq30", {"system": "0,0,-3,1", "N": "2"}),
    ("eq4", {"g": "1", "r": "1/2", "k": "4/5"}),
    ("eq25", {"system": "0,0,-3,1", "N": "2", "n": "1"}),
    ("eq34", {"alpha": "1", "beta": "-1/2", "lambda": "1/2", "t": "2/5"}),
    ("eq20", {"system": "0,0,-3,1", "N": "2", "n": "2"}),
    ("exact-float-oracle", {"case": "gauss-terminating"}),
    ("eq21", {"system": "0,0,-3,1", "N": "2", "n": "1"}),
]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the batches of each map
    call and returns the tasks it was given instead of running them."""

    calls: list = []
    max_workers = None

    def __init__(self, max_workers):
        RecordingPool.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, packed):
        batches = [tasks for tasks, _config in packed]
        RecordingPool.calls.append(batches)
        return iter(batches)


def wilson_key(task):
    """The _wilson_context key of a numeric task, or None if it has none."""
    params = task[1]
    if "lambda" in params and "mu" in params:
        return params["lambda"], params["mu"], params.get("alpha")
    return None


#: eq13, eq13-printed and eq33 on one (lambda, mu, alpha) = (3/10, 1/2, 1)
WILSON_TASKS = [
    ("eq33", {"n": "2", "x": "3/10", "lambda": "3/10", "mu": "1/2", "alpha": "1"}),
    ("eq13", {"n": "0", "t": "1/5", "lambda": "3/10", "mu": "1/2", "alpha": "1"}),
    ("eq13-printed", {"n": "1", "t": "1/5", "lambda": "3/10", "mu": "1/2", "alpha": "1"}),
]


class TestPoolScheduling:
    @pytest.mark.parametrize("cores", [2, 3])
    def test_batches_share_cached_state(self, cores, monkeypatch):
        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: cores)
        RecordingPool.calls = []
        config = SuiteConfig(**dict(SMALL, jobs=cores))
        tasks = suite_tasks("all", config)
        returned = run_suite("all", config)
        [batches] = RecordingPool.calls
        flat = [task for batch in batches for task in batch]
        # every task exactly once
        assert returned == flat
        assert sorted(map(repr, flat)) == sorted(map(repr, tasks))
        # numeric batches first, largest first, ties in builder order; no
        # batch mixes the two modes
        kinds = [[task[0] in NUMERIC for task in batch] for batch in batches]
        assert all(len(set(kind)) == 1 for kind in kinds)
        numeric = [batch for batch, kind in zip(batches, kinds) if kind[0]]
        exact = batches[len(numeric):]
        assert numeric and exact and batches[:len(numeric)] == numeric
        order = [(-len(batch), tasks.index(batch[0])) for batch in numeric]
        assert order == sorted(order)
        # one batch per (lambda, mu, alpha); a task without one runs alone
        where = {}
        for index, batch in enumerate(numeric):
            keys = {wilson_key(task) for task in batch}
            assert len(keys) == 1
            key = keys.pop()
            if key is None:
                assert len(batch) == 1
            else:
                assert where.setdefault(key, index) == index
        assert len(where) < len(numeric) < sum(map(len, numeric))
        # exact blocks: contiguous slices in builder order, at most 4 per worker
        assert flat[sum(map(len, numeric)):] == [t for t in tasks if t[0] not in NUMERIC]
        assert len(exact) <= 4 * cores

    def test_one_core_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(suites, "suite_tasks", lambda name, config: MIXED_TASKS)
        RecordingPool.max_workers = None
        reports = run_suite("racah", SuiteConfig(jobs=2))
        assert RecordingPool.max_workers is None
        assert reports == run_suite("racah", SuiteConfig(jobs=1))

    def test_pool_runs_tasks_sharing_a_wilson_context(self, monkeypatch):
        monkeypatch.setattr(suites, "suite_tasks", lambda name, config: WILSON_TASKS)
        # the pool first, so that its workers cannot inherit the Wilson
        # contexts a serial run would leave in this process
        pooled = emit_json_lines(run_suite("continuous", SuiteConfig(precision_digits=46, jobs=2)))
        serial = emit_json_lines(run_suite("continuous", SuiteConfig(precision_digits=46, jobs=1)))
        assert pooled == serial
        assert serial.count('"status": "pass"') == len(WILSON_TASKS)

    def test_pool_reports_equal_one_process_reports(self, monkeypatch):
        monkeypatch.setattr(suites, "suite_tasks", lambda name, config: MIXED_TASKS)
        serial = emit_json_lines(run_suite("racah", SuiteConfig(jobs=1)))
        pooled = emit_json_lines(run_suite("racah", SuiteConfig(jobs=2)))
        assert pooled == serial
        assert serial.count("\n") == len(MIXED_TASKS)
        assert '"status": "fail"' not in serial and '"status": "error"' not in serial

    @pytest.mark.parametrize("cores", [2, 64])
    def test_workers_capped_by_cores_and_tasks(self, cores, monkeypatch):
        # the pool forks every worker at once: never more than cores or tasks
        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(suites, "suite_tasks", lambda name, config: MIXED_TASKS)
        RecordingPool.max_workers = None
        run_suite("racah", SuiteConfig(jobs=10_000))
        assert RecordingPool.max_workers == min(cores, len(MIXED_TASKS))

    def test_unknown_identity_is_an_error_record_on_the_pool(self, monkeypatch):
        tasks = MIXED_TASKS + [("no-such-identity", {"n": "1"})]
        monkeypatch.setattr(suites, "suite_tasks", lambda name, config: tasks)
        reports = run_suite("racah", SuiteConfig(jobs=2))
        assert len(reports) == len(tasks)
        unknown = [r for r in reports if r.identity_id == "no-such-identity"]
        assert len(unknown) == 1
        assert unknown[0].status == "error"
        assert unknown[0].mode == "exact"
        assert unknown[0].parameters["error"] == (
            "ConfigError: no handler for identity 'no-such-identity'"
        )
        assert exit_status(reports) == 2


class TestTypedParameters:
    @pytest.mark.parametrize(
        "fields",
        [{}, {"l_max": 10, "alphas": (Fraction(5, 7),), "hermite_lm_max": 14},
         {"limit_lm_max": 8}],
        ids=["defaults", "larger-exact-grids", "larger-limit-grid"],
    )
    def test_handlers_receive_parsed_parameters(self, fields, monkeypatch):
        # names stay text; every other value is an int exactly when its
        # denominator is 1, else a Fraction, and str() gives back its text
        seen = []

        def record(p, config, threshold=None):
            seen.append(p)
            return suites.TaskResult("0", True)

        monkeypatch.setattr(suites, "REGISTRY", {
            identity: dataclasses.replace(declared, handler=record)
            for identity, declared in REGISTRY.items()
        })
        config = SuiteConfig(**fields)
        tasks = suite_tasks("all", config)
        for identity, params in tasks:
            suites.run_task(identity, params, config)
        assert len(seen) == len(tasks)
        for (_identity, params), p in zip(tasks, seen):
            assert p.keys() == params.keys()
            for key, text in params.items():
                if key in ("system", "case", "target"):
                    assert p[key] == text
                else:
                    integral = Fraction(text).denominator == 1
                    assert type(p[key]) is (int if integral else Fraction)
                    assert str(p[key]) == text

    def test_malformed_parameter_is_an_error_record(self):
        task = ("eq25", {"system": "0,0,-3,1", "N": "2", "n": "one"})
        report = suites._execute(task, SuiteConfig(jobs=1))
        assert report.status == "error"
        assert report.parameters["n"] == "one"
        assert report.parameters["error"] == "DomainError: not a rational literal: 'one'"


#: every config key -> (its value in a config file, the equivalent flags);
#: each value differs from the default
EVERY_KEY = {
    "alphas": ("1/3,2", ["--alphas", "1/3,2"]),
    "l_max": ("3", ["--l-max", "3"]),
    "hermite_lm_max": ("5", ["--hermite-lm-max", "5"]),
    "limit_lm_max": ("2", ["--limit-lm-max", "2"]),
    "precision_digits": ("50", ["--precision-digits", "50"]),
    "integral_tolerance": ("1e-12", ["--integral-tolerance", "1e-12"]),
    "pointwise_tolerance": ("1e-38", ["--pointwise-tolerance", "1e-38"]),
    "jobs": ("3", ["--jobs", "3"]),
    "timings": ("on", ["--timings"]),
    "format": ("json-lines", ["--format", "json-lines"]),
}

#: settings removed from `verify`, as (config key, flag, a value it took):
#: alpha_powers set the grid of the dyadic limit test, which exact
#: reconstruction replaced; the other five sized grids and eq15's term
#: budget, which are now fixed or derived from the working digits
REMOVED_KEYS = [
    ("alpha_powers", "--alpha-powers", "4..16"),
    ("m_max", "--m-max", "2"),
    ("addition_n_max", "--n-max", "4"),
    ("biorthogonality_max", "--bio-max", "6"),
    ("t_max", "--t-max", "3/20"),
    ("truncation_budget", "--truncation-budget", "32"),
]

#: the flags of `verify`
VERIFY_FLAGS = {flag for _value, (flag, *_rest) in EVERY_KEY.values()} | {"--config"}


#: a config-file line: a key (known, near miss or arbitrary) = a value
#: (one that some key takes, or empty, negative, huge, nan, 5,000-digit,
#: malformed or arbitrary), a comment or arbitrary text; repeated keys
#: come from drawing a key twice
config_lines = st.one_of(
    st.tuples(
        st.sampled_from(sorted(cli._CONFIG_READERS))
        | st.sampled_from(["", "L_MAX", "l-max", "shiny"]) | st.text(max_size=8),
        st.sampled_from(["0", "1", "3", "60", "0,1/2,7/3", "-1/3", "1e-30", "on", "off",
                         "json-lines", "text"])
        | st.sampled_from(["", "-1", "-7/3", "nan", "inf", "1e999999999", "1e-999999999",
                           "9" * 5000, "9" * 4000, "1/0", "1/2,2/4", "1.5", "maybe", "="])
        | st.integers(-10**6, 10**6).map(str) | st.text(max_size=12),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}\n"),
    st.text(max_size=20).map(lambda text: f"# {text}\n") | st.text(max_size=20),
)
VERIFY_PARSER = cli.make_parser()


#: eval argument text: small rationals, and text each slot must refuse
#: with exit 2 ("1/2" in an integer slot, a word, nothing, a zero
#: denominator, an exponent past the bound, a negative degree)
SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7).map(format_rational)
REFUSED_TEXT = st.sampled_from(["1/2", "x", "", "1/0", "1e4301", "-1"])
#: degrees just over each eval bound, and gamma = -N-1 for N just over
#: eval racah's: each is refused before any work
OVER_BOUNDS = st.sampled_from(sorted({str(bound + 1) for bound in cli.MAX_DEGREE.values()}))
OVER_RACAH_N = st.just(str(-cli.MAX_RACAH_N - 2))
#: eval argument name -> its text: degrees and points up to 60, gamma = -N-1
#: for N up to 60, and the values just over the bounds
EVAL_SLOTS = {
    "n": st.integers(0, 60).map(str) | OVER_BOUNDS | REFUSED_TEXT,
    "x": st.integers(0, 60).map(str) | REFUSED_TEXT,
    "gamma": st.integers(-61, -1).map(str) | OVER_RACAH_N | SMALL_RATIONALS | REFUSED_TEXT,
}


class TestEvalFuzz:
    @given(fn=st.sampled_from(sorted(cli._EVALUATORS)), arity=st.integers(0, 8),
           data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_eval_arguments_exit_zero_or_two(self, fn, arity, data, capsys):
        names = cli._EVALUATORS[fn][0]
        texts = [data.draw(EVAL_SLOTS.get(names[i] if i < len(names) else "",
                                          SMALL_RATIONALS | REFUSED_TEXT))
                 for i in range(arity)]
        try:
            status = main(["eval", fn, *texts])
        except SystemExit as exc:  # argparse's own usage errors
            status = exc.code
        err = capsys.readouterr().err
        assert status in (0, 2), (texts, err)
        assert "Traceback" not in err

    def test_a_result_too_long_to_print_is_not_a_bad_argument(self, capsys):
        # H_600 has coefficients of 808 digits; at the lowest limit Python
        # allows, 640, they cannot become text
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["eval", "hermite", "600"]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad arguments" not in captured.err
        assert captured.err == ("error: DomainError: the result has an integer of more "
                                "than 640 digits, too long to print\n")
        assert main(["eval", "hermite", "600"]) == 0

    @pytest.mark.parametrize("fn, extra", [("gegenbauer", ["1/3"]), ("hermite", []),
                                           ("wilson", ["1/16", "1/5", "2/5", "1"])])
    def test_a_degree_over_the_bound_exits_2_at_once(self, fn, extra, capsys):
        bound = cli.MAX_DEGREE[fn]
        for n in (bound + 1, 8000, 10**6):
            started = time.perf_counter()
            assert main(["eval", fn, str(n), *extra]) == 2
            assert time.perf_counter() - started < 1
            assert capsys.readouterr().err == (
                f"error: DomainError: eval {fn} takes a degree n <= {bound}, got {n}\n")

    def test_a_racah_system_over_the_bound_exits_2_at_once(self, capsys):
        for N in (cli.MAX_RACAH_N + 1, 2000, 10**6):
            started = time.perf_counter()
            assert main(["eval", "racah", "3", "5", "0", "1/2", str(-N - 1), "1/3"]) == 2
            assert time.perf_counter() - started < 1
            assert capsys.readouterr().err == (
                f"error: DomainError: eval racah takes N = -gamma-1 <= {cli.MAX_RACAH_N}, "
                f"got N = {N}\n")

    def test_the_bounds_keep_what_the_suites_and_ci_evaluate(self, capsys):
        # the suites' degrees and the N = 400 of the one-value CI step stay in reach
        assert main(["eval", "racah", "3", "5", "0", "1/2", "-401", "1/3"]) == 0
        assert capsys.readouterr().out == "144611739193/569172835\n"
        assert min(cli.MAX_DEGREE.values()) >= 1000 and cli.MAX_RACAH_N >= 400

    @pytest.mark.parametrize("argv", [["gegenbauer", "1/2", "0"], ["racah", "0", "x", "0", "0",
                                                                   "-2", "1"]])
    def test_only_an_integer_that_does_not_parse_is_a_bad_argument(self, argv, capsys):
        assert main(["eval", *argv]) == 2
        assert f"bad arguments for {argv[0]}: invalid literal for int()" in capsys.readouterr().err


#: malformed, empty, negative, extreme and huge flag text, each refused
#: with exit 2 before any work
REFUSED_FLAG_TEXT = st.sampled_from(["x", "", "-1", "1.5", "1e3", "1/0", "nan", "9" * 5000])
#: `verify` flag -> (text it takes, text it refuses): a grid at its floor
#: and at most two jobs; values just and far past each grid ceiling, alphas
#: past the digit bound, and each flag's malformed, empty, negative,
#: extreme and huge text
VERIFY_FLAG_TEXT = {
    "--alphas": (st.sampled_from(["0", "1/2,7/3", "-1/3", "-1", "1.5", "1e99"]),
                 st.sampled_from(["1,1", "1e100", "1e4300", "9" * 4000, "9" * 5000, ",", "0,x",
                                  "", "x", "1/0", "nan"])),
    **{"--" + name.replace("_", "-"): (st.just("0"),
                                      st.sampled_from([str(ceiling + 1), str(10**9)])
                                      | REFUSED_FLAG_TEXT)
       for name, ceiling in suites.GRID_CEILINGS.items()},
    "--precision-digits": (st.sampled_from(["46", "200"]),
                           st.sampled_from(["45", "201", "100000"]) | REFUSED_FLAG_TEXT),
    "--integral-tolerance": (st.just("1e-20"), st.sampled_from(["1e-5", "0", "inf"])
                             | REFUSED_FLAG_TEXT),
    "--pointwise-tolerance": (st.sampled_from(["1e-40", "1e-36"]), st.just("1e-30")
                              | REFUSED_FLAG_TEXT),
    "--jobs": (st.sampled_from(["1", "2"]), st.just("0x1") | REFUSED_FLAG_TEXT),
    "--format": (st.sampled_from(["text", "json-lines"]), st.just("xml") | REFUSED_FLAG_TEXT),
}
#: flags every case gives, so that a config file never widens a grid nor
#: asks for all cores
ALWAYS_GIVEN = ("--l-max", "--hermite-lm-max", "--limit-lm-max", "--jobs")


class TestVerifyFuzz:
    @given(suite=st.sampled_from(["racah", "classical-addition", "hermite", "dual-addition"]),
           data=st.data(), timings=st.booleans(),
           config=st.none() | st.tuples(st.lists(config_lines, max_size=4),
                                        st.sampled_from([b"", b"\xff", b"\xc3"])))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_verify_flags_exit_zero_one_or_two(self, suite, data, timings, config,
                                                   tmp_path, capsys):
        # every flag given or not (the grid flags and --jobs always), with
        # text it takes or, for at most two of them, text it refuses; a
        # refused value or config file exits 2 at once, a grid at its
        # floors runs
        given_flags = [flag for flag in VERIFY_FLAG_TEXT
                       if flag in ALWAYS_GIVEN or data.draw(st.booleans())]
        refused = data.draw(st.sets(st.sampled_from(given_flags), max_size=2))
        argv = ["verify", suite]
        for flag in given_flags:
            takes, refuses = VERIFY_FLAG_TEXT[flag]
            argv.append(f"{flag}={data.draw(refuses if flag in refused else takes)}")
        if timings:
            argv.append("--timings")
        if config is not None:
            lines, tail = config
            cfg = tmp_path / "fuzz.cfg"
            cfg.write_bytes("".join(lines).encode() + tail)
            argv += ["--config", str(cfg)]
        started = time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            status = exc.code
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert status in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        assert status == 2 or not refused, argv
        assert elapsed < 3, argv

    @pytest.mark.parametrize("name", sorted(suites.GRID_CEILINGS))
    def test_a_grid_past_its_ceiling_exits_2_at_once_naming_the_bound(self, name, capsys):
        ceiling = suites.GRID_CEILINGS[name]
        flag = "--" + name.replace("_", "-")
        for value in (ceiling + 1, 5000, 10**9):
            started = time.perf_counter()
            assert main(["verify", "dual-addition", flag, str(value), "--jobs", "1"]) == 2
            assert time.perf_counter() - started < 1
            assert f"error: {name} must be <= {ceiling}, got {value}\n" in capsys.readouterr().err
        assert getattr(SuiteConfig(**{name: ceiling}), name) == ceiling
        # CI's larger grids stay in reach
        assert ceiling >= {"l_max": 16, "hermite_lm_max": 24, "limit_lm_max": 8}[name]

    def test_an_alpha_of_too_many_digits_exits_2(self, capsys):
        # past 4,300 digits an alpha could not even be written into a record
        for alpha in ("1e100", "1/" + "9" * 101, "1e4300", "-" + "9" * 4000):
            assert main(["verify", "racah", f"--alphas={alpha}", "--jobs", "1"]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: alphas must have numerators and denominators of at most "
                f"{suites.ALPHA_DIGITS_CEILING} digits\n")
        assert main(["verify", "racah", "--alphas=1e99", "--jobs", "1"]) == 0


class TestConfigDeclaration:
    @given(lines=st.lists(config_lines, max_size=6),
           tail=st.just(b"") | st.sampled_from([b"\xff", b"\xc3", b"\x80\xfe"]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_config_file_gives_a_config_or_a_polyident_error(self, tmp_path, lines, tail):
        # builds the config only: no suite runs and no pool starts
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_bytes("".join(lines).encode() + tail)
        args = VERIFY_PARSER.parse_args(["verify", "racah", "--config", str(cfg)])
        try:
            config, _fmt = cli.build_config(args)
        except PolyidentError:
            return
        assert isinstance(config, SuiteConfig)

    def test_config_keys_are_the_fields_plus_format(self):
        fields = {f.name for f in dataclasses.fields(SuiteConfig)}
        assert set(cli._CONFIG_READERS) == fields | {"format"}
        assert set(EVERY_KEY) == fields | {"format"}

    def test_every_field_has_one_verify_flag(self):
        parser = cli.make_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = [a for a in commands.choices["verify"]._actions if a.option_strings]
        flags = [flag for a in options for flag in a.option_strings]
        assert set(flags) - {"-h", "--help"} == VERIFY_FLAGS
        dests = [a.dest for a in options]
        for f in dataclasses.fields(SuiteConfig):
            assert dests.count(f.name) == 1, f.name

    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "every.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, (value, _) in EVERY_KEY.items()))
        parse = cli.make_parser().parse_args
        flags = [arg for _value, argv in EVERY_KEY.values() for arg in argv]
        from_file = cli.build_config(parse(["verify", "racah", "--config", str(cfg)]))
        from_flags = cli.build_config(parse(["verify", "racah", *flags]))
        assert from_file == from_flags
        config, fmt = from_file
        assert fmt == "json-lines"
        default = SuiteConfig()
        for f in dataclasses.fields(SuiteConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name

    def test_flags_win_and_an_absent_flag_keeps_the_file(self, tmp_path):
        cfg = tmp_path / "some.cfg"
        cfg.write_text("l_max = 3\ntimings = on\nformat = json-lines\n")
        parse = cli.make_parser().parse_args
        config, fmt = cli.build_config(parse(
            ["verify", "racah", "--config", str(cfg), "--l-max", "5", "--format", "text"]
        ))
        assert (config.l_max, config.timings, fmt) == (5, True, "text")


class TestCli:
    def test_verify_exit_zero(self, capsys):
        code = main(
            ["verify", "dual-addition", "--alphas", "0,1/2", "--l-max", "2",
             "--jobs", "1", "--format", "json-lines"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert all(json.loads(line)["status"] == "pass" for line in out.splitlines())

    def test_eval_gegenbauer(self, capsys):
        assert main(["eval", "gegenbauer", "2", "0"]) == 0
        assert capsys.readouterr().out.strip() == "-1/2, 0, 3/2"

    def test_eval_racah(self, capsys):
        assert main(["eval", "racah", "1", "2", "0", "0", "-3", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_eval_racah_single_point(self, capsys):
        # gamma = -1 is the system with N = 0, whose one value is 1
        assert main(["eval", "racah", "0", "0", "0", "0", "-1", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("gamma", ["0", "1/2", "-3/2"])
    def test_eval_racah_gamma_not_negative_integer(self, gamma, capsys):
        assert main(["eval", "racah", "0", "0", "0", "0", gamma, "1"]) == 2
        assert "gamma must be a negative integer" in capsys.readouterr().err

    def test_eval_racah_degenerate_system_names_rationals(self, capsys):
        # one clause per problem, each closed form's zero factors counted
        assert main(["eval", "racah", "1", "1", "-1", "0", "-3", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: DegenerateParameterError: degenerate Racah parameters -1,0,-3,1: "
            "(alpha+1)_{1} = 0 in the series denominator; "
            "norm ratio at n=1: 2 zero factors; endpoint value at n=1: 1 zero factor\n"
        )

    def test_degenerate_system_records_spell_the_system(self, capsys):
        # alpha = -1/2 specializes to degenerate systems: error records, exit 2
        assert main(["verify", "racah", "--alphas=-1/2", "--format", "json-lines"]) == 2
        errors = [r for r in map(json.loads, capsys.readouterr().out.splitlines())
                  if r["status"] == "error"]
        assert errors
        for record in errors:
            text = record["parameters"]["error"]
            assert "Fraction(" not in text
            assert f"degenerate Racah parameters {record['parameters']['system']}: " in text

    def test_eval_hermite(self, capsys):
        assert main(["eval", "hermite", "2"]) == 0
        assert capsys.readouterr().out.strip() == "-2, 0, 4"

    def test_eval_phi(self, capsys):
        assert main(["eval", "phi", "7/10", "1", "-1/2", "3/10"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out.lstrip("(").split(" ")[0]) == pytest.approx(0.9, abs=0.2)

    def test_eval_wilson(self, capsys):
        assert main(["eval", "wilson", "1", "1/4", "1/5", "2/5", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_eval_wilson_exactly_cancelling_sum(self, capsys):
        # W_1 = 4h(h^2 - x^2) is exactly 0 at h = x = 1/4 (alpha = 0, x^2 = 1/16)
        assert main(["eval", "wilson", "1", "1/16", "0", "0", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "polyident", "list"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "eq40" in done.stdout

    @pytest.mark.parametrize(
        "args",
        [["eval", "phi", "7/10", "1", "-1/2", "3/10", "--precision-digits", "200"],
         ["list"],
         ["verify", "racah", "--jobs", "1", "--format", "json-lines"]],
        ids=["eval", "list", "verify"],
    )
    def test_reader_that_stops_early_costs_no_traceback(self, args):
        # the read end closes before the first byte is written, as with
        # `| head -c 5` on a long line
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "polyident", *args],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err
        assert "Traceback" not in err
        assert err == ""

    def test_reader_that_stops_early_keeps_the_exit_status(self, monkeypatch):
        # verify's status comes from the records, not from the write
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        failing = [VerificationReport("eq40", {"j": "0"}, "exact", "1", "fail")]
        monkeypatch.setattr(cli, "run_suite", lambda name, config: failing)
        read_end, write_end = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
            assert main(["verify", "racah", "--jobs", "1"]) == 1
            monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
            assert main(["list"]) == 0
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_eval_malformed_rational(self, capsys):
        assert main(["eval", "gegenbauer", "2", "zork"]) == 2

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "warp"])
        assert err.value.code == 2

    def test_list_mentions_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identity in ("eq40", "eq48-printed", "eq8", "whipple"):
            assert identity in out

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            "# grid\nalphas = 0\nl_max = 4\njobs = 1\nformat = json-lines\n"
        )
        values = load_config_file(str(cfg))
        assert values == {"alphas": "0", "l_max": 4, "jobs": 1, "format": "json-lines"}
        code = main(
            ["verify", "dual-addition", "--config", str(cfg), "--l-max", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        # the flag lowered l_max to 1: no record may exceed it
        assert max(int(r["parameters"].get("l", 0)) for r in recs) == 1

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shiny = 1\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "dual-addition", "--l-max=-1"],
            ["verify", "racah", "--integral-tolerance", "abc"],
            ["verify", "continuous", "--precision-digits", "20"],
            ["verify", "racah", "--jobs=-1"],
            ["verify", "racah", "--precision-digits", "45"],
            ["verify", "racah", "--integral-tolerance", "1"],
            ["verify", "racah", "--integral-tolerance", "inf"],
            ["verify", "racah", "--pointwise-tolerance=-1"],
            ["verify", "racah", "--pointwise-tolerance", "0"],
            ["verify", "dual-addition", "--alphas", "1,1", "--l-max", "1"],
            ["verify", "continuous", "--precision-digits", "201"],
        ],
        ids=["empty-grid", "unparseable-tolerance", "vacuous-precision",
             "negative-jobs", "precision-at-1e-5", "loose-tolerance",
             "infinite-tolerance", "negative-tolerance", "zero-tolerance",
             "repeated-alphas", "precision-above-ceiling"],
    )
    def test_rejected_config_exits_two(self, argv, capsys):
        # the case's own flags come last, so they win over these defaults
        command, suite, *flags = argv
        assert main([command, suite, "--jobs", "1", "--format", "json-lines", *flags]) == 2
        assert capsys.readouterr().out == ""

    def test_precision_ceiling_is_named_and_accepted(self, tmp_path, capsys):
        # above the ceiling a run would take minutes; it exits 2 before any task
        assert main(["verify", "continuous", "--precision-digits", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"precision_digits must be <= {suites.PRECISION_CEILING}, got 100000" in captured.err
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(f"precision_digits = {suites.PRECISION_CEILING + 1}\n")
        assert main(["verify", "racah", "--config", str(cfg)]) == 2
        assert SuiteConfig(precision_digits=suites.PRECISION_CEILING).precision_digits == 200

    def test_eval_precision_error_exits_two(self, capsys):
        assert main(["eval", "phi", "4000", "3/2", "1/2", "22/25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PrecisionError" in captured.err

    @pytest.mark.parametrize("lam", ["1e6", "1e400"])
    def test_eval_spectral_parameter_out_of_reach_exits_two(self, lam, capsys):
        # the series would need more terms than the cap, of ever larger size
        assert main(["eval", "phi", lam, "1", "1", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PrecisionError: 2F1 parameters out of reach" in captured.err

    def test_eval_precision_after_arguments(self, capsys):
        # a trailing --precision-digits is an option, not an argument, and
        # the negative rational -1/2 stays an argument
        assert main(["eval", "phi", "7/10", "1", "-1/2", "3/10", "--precision-digits", "5"]) == 0
        assert capsys.readouterr().out.strip() == "0.96972"

    @pytest.mark.parametrize("digits", ["0", "-5"])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_eval_nonpositive_precision_exits_two(self, digits, where, capsys):
        flag = ["--precision-digits", digits]
        fn_args = ["phi", "7/10", "1", "-1/2", "3/10"]
        argv = ["eval", *flag, *fn_args] if where == "before" else ["eval", *fn_args, *flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--precision-digits must be a positive integer, got {digits}" in captured.err

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_eval_precision_above_ceiling_exits_two(self, where, capsys):
        # verify's bound and message, before anything is evaluated
        flag = ["--precision-digits", "100000"]
        fn_args = ["phi", "7/10", "1", "-1/2", "3/10"]
        argv = ["eval", *flag, *fn_args] if where == "before" else ["eval", *fn_args, *flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"precision_digits must be <= {suites.PRECISION_CEILING}, got 100000" in captured.err
        ceiling = ["--precision-digits", str(suites.PRECISION_CEILING)]
        assert main(["eval", *fn_args, *ceiling]) == 0
        assert capsys.readouterr().out.startswith("0.96971538875610591588")

    def test_eval_surplus_arguments_exit_two(self, capsys):
        assert main(["eval", "gegenbauer", "3", "1/2", "extra"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes 2 argument(s)" in captured.err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("l_max = banana\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))
        code = main(["verify", "racah", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("case", ["missing", "directory", "undecodable"])
    def test_unreadable_config_exits_two_naming_the_path(self, case, tmp_path):
        # run as a process, so an escaping exception would show as a traceback
        cfg = tmp_path / "polyident.cfg"
        if case == "directory":
            cfg.mkdir()
        elif case == "undecodable":
            cfg.write_bytes(b"jobs = 1\n\xff\xfe\n")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "polyident", "verify", "racah", "--config", str(cfg)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert f"error: {cfg}: cannot read config file" in done.stderr

    @pytest.mark.parametrize(
        "case, message, line, flags",
        [pytest.param(case, message, f"{key} = {value}\n", [flag, value],
                      id=f"{case}-{message}")
         for key, flag, value in REMOVED_KEYS
         for case, message in (("config", f"unknown key {key!r}"),
                               ("flag", f"unrecognized arguments: {flag} {value}"))],
    )
    def test_removed_alpha_powers_exits_two(self, case, message, line, flags, tmp_path):
        # as a key or a flag, each removed setting is now unknown
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line)
        args = ["--config", str(cfg)] if case == "config" else flags
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "polyident", "verify", "hermite", *args],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert message in done.stderr

    @pytest.mark.parametrize(
        "args, status",
        [(["verify", "racah", "--prec", "60"], 2),
         (["verify", "racah", "--limit", "2"], 2),
         (["eval", "phi", "1", "1", "1", "1", "--prec", "30"], 2),
         (["verify", "racah", "--precision-digits", "60", "--limit-lm-max", "2"], 0),
         (["eval", "phi", "1/2", "1", "1", "1/2", "--precision-digits", "30"], 0)],
        ids=["verify-prec", "verify-limit", "eval-prec", "verify-full", "eval-full"],
    )
    def test_flags_take_full_names_only(self, args, status):
        # an abbreviated flag is unrecognized, never read as the flag it prefixes
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "polyident", *args],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert done.returncode == status, done.stderr
        assert "Traceback" not in done.stderr
        if status == 2:
            assert done.stdout == ""
            if args[0] == "verify":
                assert f"unrecognized arguments: {' '.join(args[2:])}" in done.stderr
            else:
                assert "takes 4 argument(s)" in done.stderr

    @pytest.mark.parametrize(
        "line", ["timings = maybe", "alphas = 0,1/2,2/4"],
        ids=["unknown-boolean", "repeated-alphas"],
    )
    def test_bad_config_value_exits_two(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"jobs = 1\n{line}\n")
        assert main(["verify", "racah", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad value for" in captured.err

    def test_config_booleans(self, tmp_path):
        cfg = tmp_path / "flags.cfg"
        for word, expected in (("On", True), ("yes", True), ("0", False), ("off", False)):
            cfg.write_text(f"timings = {word}\n")
            assert load_config_file(str(cfg)) == {"timings": expected}
