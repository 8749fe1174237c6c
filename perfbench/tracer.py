"""Span recorder for the traced benchmark run.

The traced run measures each layer from outside: it swaps a timing
wrapper in for a layer's public function *where the caller bound it*
(``solve_fluid`` is imported by name into both
``repro.scheduler.background`` and ``repro.core.experiment``, so both
names are patched), runs the workload, and puts every original back.

Spans are kept in memory as ``[name, start, end, parent, tag]`` rows and
folded into per-layer totals when the run ends.  A span's parent is the
innermost open span on the same thread, so the service's campaign
threads and the client thread build separate trees.  Self time is a
span's duration minus the time its children cover; children on one
thread nest and never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

#: (module, attribute as bound there, span name); a dotted attribute is
#: a method patched on its class, which covers every caller
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.scheduler.background", "BackgroundModel.build_pool", "scheduler.build_pool"),
    ("repro.scheduler.background", "BackgroundModel.build_scenario", "scheduler.build_scenario"),
    ("repro.scheduler.background", "solve_fluid", "network.solve_fluid"),
    ("repro.core.experiment", "solve_fluid", "network.solve_fluid"),
    ("repro.network.fluid", "cached_minimal_paths", "topology.paths"),
    ("repro.network.fluid", "cached_valiant_paths", "topology.paths"),
    ("repro.core.experiment", "execute_run", "core.execute_run"),
    ("repro.service.executor", "execute_run", "core.execute_run"),
    ("repro.parallel.campaign", "execute_run", "core.execute_run"),
    ("repro.core.checkpoint", "append_record", "core.checkpoint_append"),
    ("repro.core.checkpoint", "record_to_dict", "core.record_codec"),
    ("repro.core.checkpoint", "record_from_dict", "core.record_codec"),
    ("repro.service.store", "RunRecordStore.get", "service.store_get"),
    ("repro.service.store", "RunRecordStore.put", "service.store_put"),
    ("repro.service.journal", "JobJournal.record", "service.journal_record"),
    ("repro.service.http", "manifest_to_campaign", "dist.manifest_to_campaign"),
    ("repro.parallel.campaign", "run_campaign_parallel", "parallel.campaign"),
)


def _count_iterations(tracer: "Tracer", result: Any) -> None:
    tracer.count("network.solver_iterations", int(getattr(result, "iterations", 0)))


def _count_store_get(tracer: "Tracer", result: Any) -> None:
    tracer.count("service.store_misses" if result is None else "service.store_hits")


#: span name -> hook called with the wrapped function's return value
RESULT_HOOKS: dict[str, Callable[["Tracer", Any], None]] = {
    "network.solve_fluid": _count_iterations,
    "service.store_get": _count_store_get,
}


class Tracer:
    """In-memory spans and counters, plus the patches that feed them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: (tag, counter name) -> count
        self.counts: Counter[tuple[str, str]] = Counter()
        #: label stamped on every span opened from now on
        self.tag = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        #: targets that no longer exist in the program, skipped
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.tag, name)] += n

    def counted(self, name: str, tags: tuple[str, ...]) -> int:
        return sum(self.counts[(tag, name)] for tag in tags)

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        row = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.tag]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(row)
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            row[2] = time.perf_counter()

    def wrap(self, fn: Callable, name: str) -> Callable:
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            try:
                owner: object = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(original, name))
            self._undo.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def totals(self, tags: tuple[str, ...]) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}`` over spans
        whose tag is in ``tags``."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _tag in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for idx, (name, t0, t1, _parent, tag) in enumerate(self.spans):
            if tag not in tags:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_s[idx]
        return out


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over a bare call, in seconds."""

    def noop() -> None:
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    wrapped = time.perf_counter() - t0
    return max(wrapped - bare, 0.0) / samples
