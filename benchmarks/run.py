"""polyident benchmark: time to a verdict, with a correctness gate.

    python3 benchmarks/run.py --workload discrete --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Every timed verify call runs in a fresh interpreter (``child.py``), as a
command-line call would: cold ``lru_cache``s, no Wilson contexts yet.
With ``--trace 0`` the run measures set-up several times, then repeats
verify calls while another fits in ``--seconds``, and reports medians of
the end-to-end metrics.  Those calls sample the host's speed as they run
(``speed.py``), and each time is reported at the reference speed.  With ``--trace 1`` it makes one untraced and one
traced call at one job, plus, for a pool workload, one untraced call at the
workload's job count (with per-task timings, for the pool metrics), and
reports the per-layer metrics.

Each call's records are checked against the workload's golden task list
(see ``gate.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every record passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from gate import GateResult, check, parse_records
from workloads import WORKLOADS, Workload, config_fields, expected_tasks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run stops starting new calls so that it ends within 180 seconds
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 10
INJECTIONS = ("flip", "drop", "extra")


class BenchmarkError(RuntimeError):
    pass


@dataclass
class Call:
    out: dict
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    #: speed samples (cost, total) taken during the verify call, all processes
    samples: list[tuple[float, float]]


def speed_scale(samples) -> float:
    """Reference kernel cost over the mean measured cost: below 1 on a slow host."""
    return speed.REFERENCE_COST_S / statistics.fmean(cost for cost, _ in samples)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(spec: dict, deadline: float) -> Call:
    """Run child.py once; CPU and peak RSS come from wait4 on that process.

    wait4 reports the child's own usage plus that of the descendants it
    reaped (the pool workers), and nothing of earlier runs.  With
    ``spec["probe"]`` true the child samples the host's speed.
    """
    # imports use cached bytecode, as an installed command's do
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryFile(dir=ROOT) as sink, \
            tempfile.NamedTemporaryFile(dir=ROOT, prefix=".speed-") as samples:
        if spec.get("probe"):
            spec = dict(spec, probe=samples.name)
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=sink, cwd=ROOT, env=env, start_new_session=True,
        )
        timer = threading.Timer(max(deadline - start, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                _kill_group(proc.pid)
                proc.wait()
        if proc.returncode != 0:
            raise BenchmarkError(f"child exited with {proc.returncode}")
        sink.seek(0)
        out = json.load(sink)
        verify_samples = speed.read_samples(samples.name)
    if not Path(out["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"polyident imported from {out['module']}, not from {ROOT / 'src'}")
    return Call(
        out=out,
        setup_s=out["ready"] - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        samples=verify_samples,
    )


def _inject(records: list[dict], how: str | None) -> list[dict]:
    """Deliberate damage, used only to show that the gate catches it."""
    if how == "flip":
        records[0] = dict(records[0], status="fail")
    elif how == "drop":
        records = records[:-1]
    elif how == "extra":
        records = records + [dict(records[0])]
    return records


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload: Workload, seed: int, inject: str | None = None):
        self.workload = workload
        self.seed = seed
        self.inject = inject
        self.expected, dropped = expected_tasks(workload, seed)
        self.spec = {
            "suites": list(workload.suites),
            "config": dict(config_fields(workload, seed), jobs=workload.jobs),
            "drop": [list(t) for t in dropped],
            "trace": False,
            "probe": False,
        }
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []
        self.exit_statuses: list[int] = []

    def call(self, **changes) -> Call:
        spec = dict(self.spec, **changes)
        result = run_child(spec, self.deadline)
        if "output" in result.out:
            records = _inject(parse_records(result.out["output"]), self.inject)
            gate: GateResult = check(records, self.expected)
            self.attempted += gate.expected
            self.failed += gate.failed
            self.examples.extend(gate.examples[: 5 - len(self.examples)])
            self.exit_statuses.append(result.out["exit_status"])
        return result

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not any(self.exit_statuses)

    def end_to_end(self, seconds: float) -> tuple[dict, list[str]]:
        self.call(setup_only=True)  # warm-up: byte-compiles and fills the page cache
        # half the set-up samples before the verify calls and half after,
        # so that a short burst of host load does not decide the median
        setups = [self.call(setup_only=True, probe=True) for _ in range(SETUP_SAMPLES // 2)]
        calls: list[Call] = []
        start = time.monotonic()
        while True:
            calls.append(self.call(probe=True))
            longest = max(c.out["verify_s"] for c in calls)
            now = time.monotonic()
            if now - start + longest > seconds or now + longest > self.deadline:
                break
        setups += [self.call(setup_only=True, probe=True) for _ in range(SETUP_SAMPLES // 2)]
        setups += calls
        raw = {
            "setup_s": [c.setup_s for c in setups],
            "verify_s": [c.out["verify_s"] for c in calls],
            "cpu_s": [c.cpu_s for c in calls],
        }
        scaled = {
            "setup_s": [c.setup_s * speed_scale(c.out["setup_samples"]) for c in setups],
            "verify_s": [], "cpu_s": [],
        }
        scales = []
        for c in calls:
            # the probe's own CPU time is taken out before scaling; at jobs > 1
            # its share of the wall time is taken as spread over the workers
            scale = speed_scale(c.out["setup_samples"] + c.samples)
            probe_s = sum(total for _, total in c.samples)
            setup_probe_s = sum(total for _, total in c.out["setup_samples"])
            scales.append(scale)
            scaled["verify_s"].append((c.out["verify_s"] - probe_s / self.workload.jobs) * scale)
            scaled["cpu_s"].append((c.cpu_s - probe_s - setup_probe_s) * scale)
        metrics = {name: (statistics.median(values), "s") for name, values in scaled.items()}
        metrics["peak_rss_mb"] = (statistics.median(c.peak_rss_mb for c in calls), "MB")
        lines = [
            f"{self.workload.name}: {self._describe()}; "
            f"medians of {len(calls)} verify call(s) and {len(setups)} set-ups",
            *(f"  {name:<14}{value:>12.4f} {unit}" for name, (value, unit) in metrics.items()),
            f"  {'failed_share':<14}{self.failed / self.attempted:>12.6f} ratio"
            f" ({self.failed} of {self.attempted} checks)",
            f"  times above are at the reference speed; host speed scale "
            f"{statistics.median(scales):.4f} (median over calls, "
            f"{sum(len(c.samples) for c in calls)} samples during verify)",
            "  as measured: " + ", ".join(
                f"{name} {statistics.median(values):.4f} s" for name, values in raw.items()),
        ]
        return metrics, lines

    def per_layer(self) -> tuple[dict, list[str]]:
        serial = dict(self.spec["config"], jobs=1, timings=True)
        reference = self.call(config=serial)
        traced = self.call(config=serial, trace=True)
        pool = reference
        if self.workload.jobs > 1:
            pool = self.call(config=dict(self.spec["config"], timings=True))
        metrics = {name: tuple(v) for name, v in traced.out["metrics"].items()}
        metrics.update(_pool_metrics(pool, self.workload.jobs))
        metrics["report.bytes"] = (len(traced.out["output"].encode()), "bytes")
        overhead = traced.out["verify_s"] - reference.out["verify_s"]
        metrics["trace.overhead_s"] = (overhead, "s")

        verify_s = metrics["trace.verify_s"][0]
        self_total = sum(v for n, (v, _) in metrics.items() if n.startswith("layer_self_s."))
        unattributed = metrics["trace.unattributed_s"][0]
        pool_note = f", one untraced call at {self.workload.jobs} jobs" if pool is not reference else ""
        lines = [
            f"{self.workload.name}: {self._describe()}; one untraced and one traced "
            f"call at 1 job{pool_note}",
            f"  self times {self_total:.4f} s + unattributed {unattributed:.4f} s = "
            f"{self_total + unattributed:.4f} s; traced verify_s {verify_s:.4f} s",
            f"  tracing overhead {overhead:+.4f} s (traced {traced.out['verify_s']:.4f} s, "
            f"untraced {reference.out['verify_s']:.4f} s, one call each); "
            f"{metrics['trace.spans'][0]} spans at the measured cost per span give "
            f"{metrics['trace.overhead_est_s'][0]:.4f} s",
            f"  missing names: {', '.join(traced.out['missing']) or 'none'}",
            "  largest self times: " + ", ".join(
                f"{name} {self_s:.2f} s/{calls}" for name, calls, self_s in traced.out["top_spans"]),
            *(f"  {name:<44}{value:>14.6g} {unit}" for name, (value, unit) in metrics.items()),
        ]
        return metrics, lines

    def _describe(self) -> str:
        seed = f"seed {self.seed}"
        if self.workload.seeded:
            seed += f" (alpha {self.spec['config']['alphas'][0]})"
        else:
            seed += " (not used: default grids)"
        return f"{seed}, jobs {self.workload.jobs}, {len(self.expected)} checks"


def _pool_metrics(call: Call, jobs: int) -> dict:
    """Pool use from the per-task ``elapsed`` of an untraced call.

    ``elapsed`` is truncated to whole milliseconds, so the task sum is a
    lower bound, short by less than 1 ms per task: busy_share reads low and
    excess_s high by that much.
    """
    task_s = [r["elapsed"] / 1000 for r in parse_records(call.out["output"])]
    verify_s = call.out["verify_s"]
    return {
        "suites.pool.busy_share": (sum(task_s) / (jobs * verify_s), "ratio"),
        "suites.pool.excess_s": (verify_s - max(sum(task_s) / jobs, max(task_s)), "s"),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            inject: str | None = None) -> tuple[dict, list[str]]:
    run = Run(workload, seed, inject)
    metrics, lines = run.per_layer() if trace else run.end_to_end(seconds)
    lines += [f"  gate: {example}" for example in run.examples]
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="damage the records before the gate (gate self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyident" / "suites.py").is_file():
        print(f"error: no polyident sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), args.inject)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
