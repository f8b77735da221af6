"""The benchmark's workloads and the golden task lists that gate them.

This module is pure data plus the seed rule; it never imports polyident,
so the measuring process stays small and the golden lists stay the record
of what the suite builders produced when they were written.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: placeholder for the seeded alpha inside the discrete-large golden list
ALPHA = "$alpha"

#: printed-vs-corrected checks that pin a known discrepancy
PINNED = ("eq8-printed", "eq13-printed", "eq48-printed")


@dataclass(frozen=True)
class Workload:
    name: str
    #: names passed to ``suites.run_suite``, one call each, in one process
    suites: tuple[str, ...]
    #: worker processes for the timed runs (``SuiteConfig.jobs``)
    jobs: int
    #: ``SuiteConfig`` fields other than jobs and timings
    grid: tuple[tuple[str, object], ...]
    #: golden list names whose union is the expected task set
    golden: tuple[str, ...]
    #: pinned checks that the expected task set must contain
    pinned: tuple[str, ...]
    #: golden lists trimmed to the first task of each identity
    first_per_identity: tuple[str, ...] = ()
    #: identities left out of those trimmed lists
    skipped: tuple[str, ...] = ()
    seeded: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="discrete",
            suites=("racah", "classical-addition", "hermite", "dual-addition"),
            jobs=1,
            grid=(),
            golden=("racah", "classical-addition", "hermite", "dual-addition"),
            pinned=("eq48-printed",),
        ),
        Workload(
            name="discrete-large",
            suites=("dual-addition", "hermite"),
            jobs=1,
            grid=(("l_max", 10), ("hermite_lm_max", 14)),
            golden=("dual-addition-l10", "hermite-lm14"),
            pinned=("eq48-printed",),
            seeded=True,
        ),
        Workload(
            name="all-pool",
            suites=("all",),
            jobs=2,
            grid=(),
            golden=("racah", "dual-addition", "classical-addition", "hermite", "continuous"),
            pinned=PINNED,
            first_per_identity=("continuous",),
            skipped=("eq32",),  # each eq32 task alone takes 10-13 s of the ~30 s budget
        ),
    )
}


def seeded_alpha(seed: int) -> Fraction:
    """A rational in [0, 3] with denominator at most 7, drawn from the seed."""
    rng = random.Random(seed)
    q = rng.randint(1, 7)
    return Fraction(rng.randint(0, 3 * q), q)


def config_fields(workload: Workload, seed: int) -> dict:
    """JSON-ready ``SuiteConfig`` overrides; rationals travel as strings."""
    fields = dict(workload.grid)
    if workload.seeded:
        fields["alphas"] = [str(seeded_alpha(seed))]
    return fields


def load_golden(name: str) -> list[tuple[str, dict[str, str]]]:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return [(identity, params) for identity, params in json.load(fh)]


def first_of_each_identity(tasks):
    seen: set[str] = set()
    kept = []
    for identity, params in tasks:
        if identity not in seen:
            seen.add(identity)
            kept.append((identity, params))
    return kept


def expected_tasks(workload: Workload, seed: int):
    """(expected tasks, tasks the run must drop from the builders' output)."""
    alpha = str(seeded_alpha(seed)) if workload.seeded else None
    expected, dropped = [], []
    for name in workload.golden:
        tasks = load_golden(name)
        if alpha is not None:
            tasks = [
                (i, {k: alpha if v == ALPHA else v for k, v in p.items()}) for i, p in tasks
            ]
        if name in workload.first_per_identity:
            kept = [t for t in first_of_each_identity(tasks) if t[0] not in workload.skipped]
            dropped.extend(t for t in tasks if t not in kept)
            tasks = kept
        expected.extend(tasks)
    ids = {identity for identity, _ in expected}
    absent = [p for p in workload.pinned if p not in ids]
    if absent:
        raise ValueError(f"{workload.name}: golden list lacks pinned checks {absent}")
    return expected, dropped
