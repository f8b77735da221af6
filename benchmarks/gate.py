"""Correctness gate: compare a run's emitted records with its golden task list.

A record matches a golden task when the identity ids agree and the
record's parameters contain every parameter of the task with the same
value; extra record parameters (tolerances and other diagnostics) are
ignored, so moving them elsewhere does not break the gate.  Every matched
record must pass, and an exact-mode record must have residual ``0``,
except a pinned check whose task names an ``expected`` value: there the
exact residual is the reproduced deviation and must equal that value
(``eq48-printed`` pins the printed kernel's -1 at (2, 1)).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class GateResult:
    expected: int
    bad_records: int = 0
    missing: int = 0
    unexpected: int = 0
    examples: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.bad_records + self.missing + self.unexpected

    @property
    def failed_share(self) -> float:
        return self.failed / self.expected

    def note(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _key(identity: str, params: dict, names: tuple[str, ...]):
    return identity, names, tuple(params[n] for n in names)


def check(records: list[dict], expected: list[tuple[str, dict]]) -> GateResult:
    result = GateResult(expected=len(expected))
    remaining: Counter = Counter()
    names_by_id: dict[str, set[tuple[str, ...]]] = {}
    for identity, params in expected:
        names = tuple(sorted(params))
        names_by_id.setdefault(identity, set()).add(names)
        remaining[_key(identity, params, names)] += 1

    for record in records:
        identity, params = record["identity_id"], record["parameters"]
        matched = None
        for names in sorted(names_by_id.get(identity, ())):
            if all(n in params for n in names):
                key = _key(identity, params, names)
                if remaining[key] > 0:
                    matched = key
                    break
        if matched is None:
            result.unexpected += 1
            result.note(f"unexpected record {identity} {params}")
            continue
        remaining[matched] -= 1
        _, names, values = matched
        want = dict(zip(names, values)).get("expected", "0")
        if record["status"] != "pass":
            result.bad_records += 1
            result.note(f"{record['status']}: {identity} {params}")
        elif record["mode"] == "exact" and record["residual"] != want:
            result.bad_records += 1
            result.note(f"exact residual {record['residual']}: {identity} {params}")

    for (identity, names, values), count in remaining.items():
        if count > 0:
            result.missing += count
            result.note(f"missing {identity} {dict(zip(names, values))}")
    return result
