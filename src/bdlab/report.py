"""Verification reports and deterministic randomness plumbing.

Every verify_* suite returns a Report: the suite name, an echo of the
configuration, the number of cases run and the list of failures with both
sides serialized.  Reports are deterministic functions of (config, seed):
randomness is split per case index from a single seed, and serialization
sorts keys, so two runs with the same inputs are byte-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any


def case_rng(seed: int, case: int | str) -> random.Random:
    """Independent generator for one case, derived from the suite seed."""
    return random.Random(f"{seed}:{case}")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@dataclass
class Failure:
    case: int | str
    lhs: Any
    rhs: Any

    def to_json(self) -> dict:
        return {"case": self.case, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class Report:
    suite: str
    config: dict = field(default_factory=dict)
    cases: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, case: int | str, ok: bool, lhs: Any = None, rhs: Any = None) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(Failure(case, _jsonable(lhs), _jsonable(rhs)))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": self.cases,
            "failures": [f.to_json() for f in self.failures],
        }


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    to_json = getattr(value, "to_json", None)
    if callable(to_json):
        return to_json()
    return repr(value)
