"""Span recorder that times the public entry points of each ``repro`` layer.

Nothing here edits the program: :func:`install` replaces each entry point
named in :data:`ENTRY_POINTS` with a timing wrapper, in the defining module
and in every already-imported ``repro`` module that bound the same object by
name.  Spans live in memory and are folded into per-layer totals as they
close:

* ``busy_s`` -- wall time inside the outermost span of the layer,
* ``self_s`` -- that time minus the part covered by spans of other layers,
* ``calls`` plus the layer's own work counters.

Generator entry points (``TraceSource.chunks``, ``iter_statistics``) are
timed per ``next()``, so a consumer's work between items is never charged to
the producer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

ROOT_LAYER = "cli"

# (layer, module, attribute path, counter hook name or None).  The hooks are
# methods of Recorder: ``hook(args, kwargs, result)`` on calls, and on every
# yielded item for generators.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("trace", "repro.trace.stream", "TraceSource.chunks", "on_chunk"),
    ("trace", "repro.trace.generator", "generate_suite", "on_suite"),
    ("cpu", "repro.cpu.simulator", "CPU.run", "on_cpu_run"),
    ("bus.characterize", "repro.bus.bus_model", "CharacterizedBus.__init__", None),
    ("bus.classify_vectorized", "repro.bus.bus_model", "CharacterizedBus.iter_statistics",
     "on_stats_item"),
    ("bus.classify_scalar", "repro.bus.bus_model", "CharacterizedBus.analyze", "on_analyze"),
    ("interconnect.worst_coupling", "repro.interconnect.block_kernels",
     "block_worst_coupling", None),
    ("interconnect.toggles", "repro.interconnect.block_kernels", "block_toggle_counts", None),
    ("interconnect.coupling_weights", "repro.interconnect.block_kernels",
     "block_coupling_energy_weights", None),
    ("interconnect.scalar_kernels", "repro.interconnect.crosstalk",
     "worst_coupling_factor_per_cycle", None),
    ("interconnect.scalar_kernels", "repro.interconnect.crosstalk", "toggle_counts", None),
    ("interconnect.scalar_kernels", "repro.interconnect.crosstalk",
     "coupling_energy_weights", None),
    ("core.replay", "repro.core.dvs_system", "DVSRunState.feed", "on_feed"),
    ("core.replay", "repro.core.dvs_system", "DVSRunState.feed_summary", "on_feed"),
    ("core.replay", "repro.core.dvs_system", "DVSRunState.finish", "on_finish"),
    ("core.fixed_vs", "repro.core.fixed_vs", "evaluate_fixed_scaling", None),
    ("analysis.static_eval", "repro.analysis.static_scaling", "run_static_voltage_sweep", None),
    ("analysis.static_eval", "repro.bus.bus_model", "CharacterizedBus.energy_breakdown",
     "on_voltage_point"),
    ("analysis.static_eval", "repro.bus.bus_model", "CharacterizedBus.error_rate", None),
    ("analysis.static_eval", "repro.bus.bus_model", "CharacterizedBus.nominal_energy", None),
    ("analysis.render", "repro.analysis.reporting", "format_*", None),
    ("runtime.cache", "repro.runtime.cache", "ResultCache.get", None),
    ("runtime.cache", "repro.runtime.cache", "ResultCache.put", None),
    ("workqueue.submit", "repro.runtime.workqueue", "WorkQueue.submit", None),
)

GENERATOR_ENTRY_POINTS = {"TraceSource.chunks", "CharacterizedBus.iter_statistics"}


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: int) -> None:
        self.layer = layer
        self.start = start
        self.child = 0


class Recorder:
    """Per-thread span stacks folded into per-layer totals on span exit."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # nested_ns[outer][inner]: time of outermost ``inner`` spans that ran
        # inside an ``outer`` span (used to take trace time out of classify).
        self.nested_ns: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counts: dict[str, int] = defaultdict(int)
        self._distinct_sources: dict[int, tuple[Any, int]] = {}
        self._distinct_arrays: dict[int, tuple[Any, int]] = {}

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        self._stack().append(_Frame(layer, time.perf_counter_ns()))

    def exit(self) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        outermost = all(outer.layer != frame.layer for outer in stack)
        with self._lock:
            self.self_ns[frame.layer] += duration - frame.child
            self.calls[frame.layer] += 1
            if outermost:
                self.busy_ns[frame.layer] += duration
                for outer_layer in {outer.layer for outer in stack}:
                    self.nested_ns[outer_layer][frame.layer] += duration
        if stack:
            stack[-1].child += duration

    # ------------------------------------------------------------------ #
    # Counter hooks
    # ------------------------------------------------------------------ #
    def on_chunk(self, args: tuple, kwargs: dict, chunk: Any) -> None:
        self.counts["trace.cycles"] += int(chunk.n_cycles)
        self.counts["trace.bytes"] += int(chunk.trace.nbytes)

    def on_suite(self, args: tuple, kwargs: dict, suite: Any) -> None:
        for trace in suite.values():
            self.counts["trace.cycles"] += int(trace.n_cycles)
            self.counts["trace.bytes"] += int(trace.nbytes)

    def on_cpu_run(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["cpu.cycles"] += int(result.instructions_executed)

    def on_stats_item(self, args: tuple, kwargs: dict, item: Any) -> None:
        stats, _ = item
        self.counts["bus.classified_cycles"] += int(stats.n_cycles)
        workload = args[1] if len(args) > 1 else kwargs.get("workload")
        n_cycles = getattr(workload, "n_cycles", None)
        if n_cycles is not None:
            # Keep the object alive so its id cannot be reused by another.
            self._distinct_sources.setdefault(id(workload), (workload, int(n_cycles)))

    def on_analyze(self, args: tuple, kwargs: dict, stats: Any) -> None:
        self.counts["bus.classified_cycles"] += int(stats.n_cycles)
        values = args[1] if len(args) > 1 else kwargs.get("values")
        self._distinct_arrays.setdefault(id(values), (values, int(stats.n_cycles)))

    def on_feed(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["core.replay_cycles"] += int(args[1].n_cycles)

    def on_finish(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["core.voltage_transitions"] += len(result.voltage_events)

    def on_voltage_point(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["analysis.voltage_points"] += 1

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, Any]:
        """Plain-JSON per-layer totals (seconds) and counters."""
        distinct = sum(n for _, n in self._distinct_sources.values()) + sum(
            n for _, n in self._distinct_arrays.values()
        )
        layers = sorted(set(self.busy_ns) | set(self.self_ns))
        return {
            "layers": {
                layer: {
                    "busy_s": self.busy_ns[layer] / 1e9,
                    "self_s": self.self_ns[layer] / 1e9,
                    "calls": self.calls[layer],
                }
                for layer in layers
            },
            "nested_s": {
                outer: {inner: ns / 1e9 for inner, ns in inner_map.items()}
                for outer, inner_map in self.nested_ns.items()
            },
            "counts": dict(self.counts),
            "distinct_trace_cycles": distinct,
        }


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
def _wrap_call(recorder: Recorder, layer: str, fn: Callable, hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(
    recorder: Recorder, layer: str, fn: Callable, hook: Callable | None
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)

        def timed() -> Any:
            try:
                while True:
                    recorder.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.exit()
                    if hook is not None:
                        hook(args, kwargs, item)
                    yield item
            finally:
                inner.close()

        return timed()

    return wrapper


def _rebind(original: Any, replacement: Any) -> None:
    """Point every imported ``repro`` module's name for ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(recorder: Recorder) -> list[str]:
    """Wrap every entry point of :data:`ENTRY_POINTS`; returns the ones wrapped."""
    wrapped: list[str] = []
    for layer, module_name, path, hook_name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        hook = getattr(recorder, hook_name) if hook_name is not None else None
        if path.endswith("*"):
            prefix = path[:-1]
            names = [n for n, v in vars(module).items() if n.startswith(prefix) and callable(v)]
            targets = [(module, name) for name in names]
        elif "." in path:
            class_name, attribute = path.split(".")
            targets = [(getattr(module, class_name), attribute)]
        else:
            targets = [(module, path)]
        for owner, attribute in targets:
            original = getattr(owner, attribute)
            wrap = _wrap_generator if path in GENERATOR_ENTRY_POINTS else _wrap_call
            replacement = wrap(recorder, layer, original, hook)
            setattr(owner, attribute, replacement)
            if owner is module:
                _rebind(original, replacement)
            owner_path = path.rsplit(".", 1)[0] + "." if owner is not module else ""
            wrapped.append(f"{module_name}:{owner_path}{attribute}")
    return wrapped
