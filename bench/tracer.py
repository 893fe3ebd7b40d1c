"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions of the named
``ruleproofs`` modules with timing wrappers. ``from module import name``
copies a binding, so every module namespace that holds one of those
function objects gets the wrapper, and a call is timed whichever name it
goes through. Nothing inside ``src/`` is edited.

A span's self time is its duration minus the time covered by the spans
it called, so the self times of all spans recorded in one phase, plus the
phase time covered by no span, add up to the phase's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from time import perf_counter

TRACED_MODULES = ("theory", "reasoner", "proofgraph", "potentials",
                  "decoder", "evalharness", "datagen")

# Namespaces that may hold a copied binding of a traced function.
NAMESPACES = ("ruleproofs",) + tuple(f"ruleproofs.{m}" for m in TRACED_MODULES) \
    + ("ruleproofs.cli",)

# Leaf helpers used as sort keys or inside inner loops. Each call costs
# less than the wrapper itself, so timing them would mostly measure the
# tracer; their time is counted in the self time of their callers.
UNTRACED = frozenset({
    "theory.atom_sort_key",
    "theory.literal_sort_key",
    "proofgraph.node_kind",
    "proofgraph.node_sort_key",
})

# (outer, inner): count inner calls made while outer is on the stack.
NESTED = (
    ("reasoner.critical_sentences", "reasoner.closure"),
    ("datagen.generate_theory", "reasoner.closure"),
)


class _Stat:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []


class Tracer:
    """In-memory span aggregates, keyed by phase and span name."""

    def __init__(self):
        self.phase = None
        self.stats: dict[str, dict[str, _Stat]] = {}
        self.covered: dict[str, float] = {}
        self.nested: dict[str, dict[tuple[str, str], int]] = {}
        self.decodes: dict[str, dict[str, int]] = {}
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        self._active[name] = self._active.get(name, 0) + 1
        frame = [0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _pop(self, name, frame, start) -> float:
        """Close one span segment; charge its duration to the caller."""
        duration = perf_counter() - start
        self._stack.pop()
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.covered[self.phase] = self.covered.get(self.phase, 0.0) + duration
        return duration

    def _record(self, name, duration, child_s):
        stat = self.stats.setdefault(self.phase, {}).get(name)
        if stat is None:
            stat = self.stats[self.phase][name] = _Stat()
        stat.calls += 1
        stat.self_s += duration - child_s
        stat.durations.append(duration)

    def _exit(self, name, frame, start):
        self._record(name, self._pop(name, frame, start), frame[0])
        for outer, inner in NESTED:
            if inner == name and self._active.get(outer):
                counts = self.nested.setdefault(self.phase, {})
                counts[(outer, inner)] = counts.get((outer, inner), 0) + 1

    def span(self, name):
        """Context manager timing one block as the span ``name``."""
        return _Span(self, name)

    def _observe(self, name, args, kwargs, result):
        """Count fallbacks and repairs of decodes that asked for connectivity
        (without it, every result is flagged relaxed by definition)."""
        if name != "decoder.decode_with_fallback":
            return
        if not kwargs.get("connectivity", args[1] if len(args) > 1 else True):
            return
        counts = self.decodes.setdefault(self.phase, {"connected": 0, "relaxed": 0, "repairs": 0})
        counts["connected"] += 1
        counts["relaxed"] += int(result.connectivity_relaxed)
        counts["repairs"] += result.stats.repair_edges_added

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start)
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Time each resumption of a generator as one span segment.

        The segments of one call are recorded as one call: their summed
        duration and self time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self.phase is None:
                yield from inner
                return
            total = child = 0.0
            while True:
                frame, start = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    item = _DONE
                finally:
                    total += self._pop(name, frame, start)
                    child += frame[0]
                if item is _DONE:
                    break
                yield item
            self._record(name, total, child)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules, in every
        namespace that holds it."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"ruleproofs.{short}")
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__ or name in UNTRACED):
                    continue
                wrappers[id(value)] = self.wrap(name, value)
        for namespace in NAMESPACES:
            module = importlib.import_module(namespace)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    # -- summaries ---------------------------------------------------------

    def summary(self, phase: str, wall_s: float) -> dict:
        """Every span of one phase, plus the phase time no span covers."""
        spans = {}
        for name, stat in sorted(self.stats.get(phase, {}).items()):
            spans[name] = {
                "calls": stat.calls,
                "total_s": sum(stat.durations),
                "self_s": stat.self_s,
                "p50_ms": percentile(stat.durations, 50) * 1e3,
                **tail(stat.durations),
            }
        return {
            "wall_s": wall_s,
            "other_s": wall_s - self.covered.get(phase, 0.0),
            "spans": spans,
            "nested": {f"{o}>{i}": n for (o, i), n in self.nested.get(phase, {}).items()},
            "decodes": dict(self.decodes.get(phase, {})),
        }


_DONE = object()


class _Span:
    __slots__ = ("tracer", "name", "frame", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.phase is not None:
            self.frame, self.start = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        if self.tracer.phase is not None:
            self.tracer._exit(self.name, self.frame, self.start)
        return False


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(durations) -> dict:
    """The highest percentile in TAIL_PERCENTILES with at least ten calls
    above it, in ms; both 0.0 when there are too few calls for any."""
    n = len(durations)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return {"tail_ms": percentile(durations, pct) * 1e3, "tail_pct": pct}
    return {"tail_ms": 0.0, "tail_pct": 0.0}
