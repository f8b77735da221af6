"""One timed verify call in a fresh interpreter, as a CLI call would make it.

    python3 benchmarks/child.py '<spec json>'

The spec names the suites to run, the ``SuiteConfig`` fields, tasks to
drop from the builders' output, whether to trace, and the file for the
speed samples of the verify call (``speed.py``), if any.  The child prints
one JSON object: the monotonic time at which ``polyident.suites`` was
imported and the config built, speed samples taken right after that, the
verify time (first ``run_suite`` call to output emitted and exit status
computed), the exit status, the emitted json-lines text, and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def _drop_tasks(suites, dropped) -> None:
    """Make ``suites.suite_tasks`` leave out the given (identity, params) tasks."""
    keys = {(identity, tuple(sorted(params.items()))) for identity, params in dropped}
    builder = suites.suite_tasks

    def suite_tasks(name, config):
        return [t for t in builder(name, config)
                if (t[0], tuple(sorted(t[1].items()))) not in keys]

    suites.suite_tasks = suite_tasks


def main(spec: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from fractions import Fraction

    from polyident import report, suites

    fields = dict(spec["config"])
    if "alphas" in fields:
        fields["alphas"] = tuple(Fraction(a) for a in fields["alphas"])
    config = suites.SuiteConfig(**fields)
    ready = time.monotonic()
    out = {"ready": ready, "module": suites.__file__}
    if spec.get("probe"):
        out["setup_samples"] = [speed.sample() for _ in range(speed.SAMPLES_AFTER_SETUP)]
    if spec.get("setup_only"):
        return out

    if spec["drop"]:
        _drop_tasks(suites, spec["drop"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def verify():
        reports = []
        for name in spec["suites"]:
            reports.extend(suites.run_suite(name, config))
        text = report.emit_json_lines(reports)
        return text, report.exit_status(reports)

    probe = speed.Probe(spec["probe"]) if spec.get("probe") else None
    if probe:
        probe.start()
    start = time.monotonic()
    text, status = tracer.run_root(verify) if tracer else verify()
    out["verify_s"] = time.monotonic() - start
    if probe:
        probe.stop()
    out["exit_status"] = status
    out["output"] = text
    if tracer:
        out["metrics"] = tracer.metrics()
        out["missing"] = tracer.missing
        out["top_spans"] = tracer.top_spans()
    return out


if __name__ == "__main__":
    json.dump(main(json.loads(sys.argv[1])), sys.stdout)
