"""Record the golden task lists the correctness gate compares against.

    python3 benchmarks/make_golden.py

Each list is what a suite builder returns for one grid: identity id plus
input parameters.  The lists are a record of the builders when they were
written; regenerate them only when a change of task grid is intended, and
say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from polyident import suites  # noqa: E402
from workloads import ALPHA, GOLDEN_DIR  # noqa: E402

#: stand-in alpha for the seeded list, replaced by ALPHA when written
_SENTINEL = Fraction(7, 3)

LISTS = {
    "racah": ("racah", {}),
    "classical-addition": ("classical-addition", {}),
    "hermite": ("hermite", {}),
    "dual-addition": ("dual-addition", {}),
    "continuous": ("continuous", {}),
    "dual-addition-l10": ("dual-addition", {"alphas": (_SENTINEL,), "l_max": 10}),
    "hermite-lm14": ("hermite", {"hermite_lm_max": 14}),
}


def write(name: str, suite: str, fields: dict) -> int:
    tasks = suites.suite_tasks(suite, suites.SuiteConfig(**fields))
    if "alphas" in fields:
        sentinel = str(_SENTINEL)
        tasks = [
            (i, {k: ALPHA if k == "alpha" and v == sentinel else v for k, v in p.items()})
            for i, p in tasks
        ]
    lines = [json.dumps([identity, params]) for identity, params in tasks]
    (GOLDEN_DIR / f"{name}.json").write_text("[\n" + ",\n".join(lines) + "\n]\n")
    return len(tasks)


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (suite, fields) in LISTS.items():
        print(f"{name}: {write(name, suite, fields)} tasks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
