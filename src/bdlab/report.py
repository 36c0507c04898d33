"""Verification reports and deterministic randomness plumbing.

Every verify_* suite returns a Report: the suite name, an echo of the
configuration, the number of cases run and the list of failures with both
sides serialized.  A suite hands its labelled cases and a map from a case to
its two sides to ``Report.compare``.  Reports are deterministic functions of
(config, seed): randomness is split per case index from a single seed, and
serialization sorts keys, so two runs with the same inputs are byte-identical.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable


def case_rng(seed: int, case: int | str) -> random.Random:
    """Independent generator for one case, derived from the suite seed."""
    return random.Random(f"{seed}:{case}")


def canonical_json(obj: Any) -> str:
    """The text the stdlib ``json`` module writes for ``dumps(obj, sort_keys=True, indent=2)``, plus "\\n".

    With an indent, the stdlib falls back to its pure-Python encoder, which
    passes every token up through one generator per level of nesting; this
    writer appends each part to one list instead.  It takes str, int, bool,
    None, list, tuple and dict, the values every ``to_json`` here builds, and
    raises the stdlib's TypeError on anything else, floats included.  Strings
    go through the stdlib's C escaper, so non-ASCII characters are escaped
    alike.  Dict keys must be str or int; any other key raises TypeError.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_key(key: Any) -> str:
    """A dict key as the stdlib writes it, before quoting; only str and int keys are taken."""
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return int.__repr__(key)
    raise TypeError(f"keys must be str or int, not {key.__class__.__name__}")


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append the JSON of ``value``, nested lines starting with ``newline`` plus two spaces."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _write(x, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, x in sorted(value.items()):
            out.append(sep + _quote(_json_key(key)) + ": ")
            _write(x, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


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

    def compare(self, cases: Iterable[tuple[int | str, Any]], sides: Callable[[Any], tuple[Any, Any]],
                same: Callable[[Any, Any], bool] = operator.eq) -> None:
        """Record each (label, x) of ``cases`` as same(lhs, rhs), with (lhs, rhs) = sides(x)."""
        for label, x in cases:
            lhs, rhs = sides(x)
            self.cases += 1
            if not same(lhs, rhs):
                self.failures.append(Failure(label, _jsonable(lhs), _jsonable(rhs)))

    def compare_homomorphism(self, f: Callable[[Any], Any], one: Any, unit: Any,
                             sample: Callable[[random.Random], Any], seed: int, count: int) -> None:
        """Case "unital" is (f(one), unit); case idx draws X, then Y, with sample(case_rng(seed, idx)),
        and compares f(XY) with f(X)f(Y) as idx:mul and f(X*) with f(X)* as idx:star."""
        def cases():
            yield "unital", lambda: (f(one), unit)
            for idx in range(count):
                rng = case_rng(seed, idx)
                X, Y = sample(rng), sample(rng)
                yield f"{idx}:mul", lambda X=X, Y=Y: (f(X * Y), f(X) * f(Y))
                yield f"{idx}:star", lambda X=X: (f(X.star()), f(X).star())

        self.compare(cases(), lambda sides: sides())

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": self.cases,
            "failures": [f.to_json() for f in self.failures],
        }


def _jsonable(value: Any) -> Any:
    """A failure side as JSON data: its ``to_json()``, lists and tuples element by element, else itself."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    to_json = getattr(value, "to_json", None)
    return to_json() if callable(to_json) else value
