"""Per-layer tracing of bdlab from outside the package.

``Tracer.install()`` replaces the entry points of every bdlab module with a
wrapper that counts the call and, when the call enters a layer (module) other
than its caller's, records a span: name, start, end, parent and job id.
Wrapped are the public functions of each module, the public methods and
arithmetic dunders of its classes (aliases such as ``__rmul__ = __mul__`` and
``__matmul__ = compose`` each get their own wrapper), a few private helpers
that metrics need, and every other module attribute that refers to a wrapped
function, such as ``cantor.gamma``.  The package's source is not touched and
``uninstall()`` puts the originals back.

Spans of a job stay in memory until the job ends; ``end_job()`` folds them
into per-layer self time with ``self_times`` and keeps the first
``keep_spans`` of them for writing out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

LAYERS = ("scalar", "coeff", "crossed", "limits", "cantor", "fock", "invariants", "report", "cli")

#: Dunder methods that are entry points; the rest (__init__, __repr__, ...) are not wrapped.
DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__neg__", "__eq__", "__matmul__"})

#: Private helpers wrapped because a metric is defined on them.
PRIVATE = {"scalar": {"_normalize", "_reduce_root_group"}, "coeff": {"_phase"}}


class Span(NamedTuple):
    job: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += (s.end - s.start) - _covered(children.get(s.span_id, []))
    return dict(out)


def _lcm_of_denominators(group: dict) -> int:
    conductor = 1
    for root, coeff in group.items():
        if coeff:
            conductor = math.lcm(conductor, root.denominator)
    return conductor


class Tracer:
    """Counts and spans for one traced pass; ``reset()`` starts the next pass."""

    def __init__(self, keep_spans: int = 0):
        self.keep_spans = keep_spans
        self.kept: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[tuple[int, str]] = []
        self.paused = False
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.parse_s = 0.0
        self.max_conductor = 1
        self.phases: set = set()
        self.job = 0
        self._spans: list[Span] = []
        self._next_id = 0

    # --- hooks: work done while the tracer is paused, so it is not counted ---

    def _on_reduce(self, args) -> None:
        self.max_conductor = max(self.max_conductor, _lcm_of_denominators(args[0]))

    def _on_alpha_power(self, args) -> None:
        _, element, power = args[:3]
        if power != 0 and not element.is_zero():
            self.tally["alpha_power.nontrivial"] += 1

    def _on_phase(self, args) -> None:
        algebra, z_power, alpha_power = args[:3]
        self.phases.add((algebra.angle, z_power * alpha_power))

    def _on_shifted(self, args) -> None:
        f, d = args[:2]
        if d:
            self.tally["shifted.values"] += len(f.values)
            self.tally["shifted.nonzero"] += sum(1 for v in f.values if not v.is_zero())

    def _on_agrees(self, args) -> None:
        a, b = args[:2]
        window = min(a.trust, b.trust)
        self.tally["agrees.entries"] += sum(1 for (i, j) in set(a.entries) | set(b.entries) if max(i, j) < window)

    def _on_canonical_json(self, result: str) -> None:
        self.tally["report.bytes"] += len(result.encode("utf-8"))

    def _hooks(self, name: str) -> tuple[Callable | None, Callable | None]:
        if name == "scalar._reduce_root_group":
            return self._on_reduce, None
        if name.startswith("coeff.") and name.endswith(".alpha_power"):
            return self._on_alpha_power, None
        if name == "coeff.CircleRotation._phase":
            return self._on_phase, None
        if name == "cantor.CylinderFunction.shifted":
            return self._on_shifted, None
        if name == "fock.FockOperator.agrees":
            return self._on_agrees, None
        if name == "report.canonical_json":
            return None, self._on_canonical_json
        return None, None

    # --- wrapping ---

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        layer = name.split(".", 1)[0]
        pre, post = self._hooks(name)
        from bdlab.errors import BudgetError, MismatchError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if pre is not None:
                tracer.paused = True
                try:
                    pre(args)
                finally:
                    tracer.paused = False
            stack = tracer._stack
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][0] if stack else None
                stack.append((span_id, layer))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except (BudgetError, MismatchError):
                    tracer.errors[layer] += 1
                    raise
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer._spans.append(Span(tracer.job, span_id, parent, name, start, end))
            if post is not None:
                post(result)
            return result

        return wrapper

    def install(self) -> None:
        import bdlab

        modules = {layer: importlib.import_module(f"bdlab.{layer}") for layer in LAYERS}
        wrapped: dict[int, Callable] = {}
        for layer, mod in modules.items():
            extra = PRIVATE.get(layer, set())
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and _defined_in(value, mod) and (not attr.startswith("_") or attr in extra):
                    wrapped[id(value)] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer, mod, extra)
        # Rebind every module-level name that refers to a wrapped function,
        # including re-imports such as cantor.gamma and the package exports.
        for mod in (bdlab, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])

    def _wrap_class(self, cls: type, layer: str, mod, extra: set[str]) -> None:
        for attr, value in list(vars(cls).items()):
            if not (attr in DUNDERS or attr in extra or not attr.startswith("_")):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod) and _defined_in(value.__func__, mod):
                self._patch(cls, attr, staticmethod(self._wrap(value.__func__, name)))
            elif inspect.isfunction(value) and _defined_in(value, mod):
                self._patch(cls, attr, self._wrap(value, name))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # --- jobs ---

    def end_job(self) -> None:
        """Fold the finished job's spans into per-layer self time and parse time."""
        spans = self._spans
        for layer, seconds in self_times(spans).items():
            self.self_s[layer] += seconds
        layer_of = {s.span_id: s.layer for s in spans}
        for s in spans:
            # parse time: outermost from_json calls made directly by the CLI
            if s.name.endswith(".from_json") and layer_of.get(s.parent) == "cli":
                self.parse_s += s.end - s.start
        if len(self.kept) < self.keep_spans:
            self.kept.extend(spans[: self.keep_spans - len(self.kept)])
        self._spans = []
        self.job += 1

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                fh.write(json.dumps(s._asdict()) + "\n")

    # --- metrics ---

    def counts(self) -> dict[str, float]:
        """Exact per-pass counts: identical on every pass over the same jobs."""
        c, t = self.calls, self.tally

        def total(suffix: str, layer: str) -> int:
            return sum(n for name, n in c.items() if name.startswith(layer + ".") and name.endswith(suffix))

        alpha_calls = total(".alpha_power", "coeff")
        phase_calls = c["coeff.CircleRotation._phase"]
        shifted = t["shifted.values"]
        out = {
            "scalar.mul.calls": c["scalar.Scalar.__mul__"] + c["scalar.Scalar.__rmul__"],
            "scalar.add.calls": c["scalar.Scalar.__add__"] + c["scalar.Scalar.__radd__"],
            "scalar.normalize.calls": c["scalar._normalize"],
            "scalar.max_conductor": self.max_conductor,
            "coeff.alpha_power.calls": alpha_calls,
            "coeff.alpha_power.nontrivial_ratio": t["alpha_power.nontrivial"] / alpha_calls if alpha_calls else 0.0,
            "coeff.phase.repeat_ratio": 1 - len(self.phases) / phase_calls if phase_calls else 0.0,
            "coeff.mul.calls": c["coeff.CircleFunction.__mul__"] + c["coeff.FiniteCyclicFunction.__mul__"],
            "crossed.crossed_mul.calls": c["crossed.CrossedElement.__mul__"],
            "crossed.matrix_mul.calls": c["crossed.MatrixElement.__mul__"],
            "limits.gamma.calls": c["limits.gamma"],
            "cantor.rho.calls": c["cantor.rho"],
            "cantor.rho_extract.calls": c["cantor.rho_extract"],
            "cantor.odometer_mul.calls": c["cantor.OdometerElement.__mul__"],
            "cantor.shifted.values": shifted,
            "cantor.shifted.nonzero_ratio": t["shifted.nonzero"] / shifted if shifted else 0.0,
            "fock.compose.calls": c["fock.FockOperator.compose"] + c["fock.FockOperator.__matmul__"],
            "fock.block_mul.calls": c["fock.BlockMatrix.__mul__"],
            "fock.agrees.entries_compared": t["agrees.entries"],
            "invariants.calls": sum(n for name, n in c.items() if name.startswith("invariants.")),
            "report.bytes_out": t["report.bytes"],
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def times(self) -> dict[str, float]:
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["cli.parse_s"] = self.parse_s
        return out


def _defined_in(fn, mod) -> bool:
    """True for functions written in the module's source (not dataclass-generated ones)."""
    return getattr(fn, "__module__", None) == mod.__name__ and fn.__code__.co_filename == mod.__file__

