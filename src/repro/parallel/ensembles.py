"""Parallel execution of independent controlled ensembles.

Each :class:`~repro.core.ensembles.EnsembleConfig` already derives its
RNG purely from its own fields (``derive_rng(cfg.seed, "ensemble",
...)``), so a list of ensembles is embarrassingly parallel and the
results are identical to running them in a serial loop — the same
determinism-by-construction contract the campaign dispatcher relies on.

Results are delivered to ``on_result`` in **canonical list order**
(index 0 first), regardless of completion order — they commit through
the campaign pipeline's :class:`~repro.core.experiment.CanonicalMerge`
— so callers can stream output or persist a resumable checkpoint: after
Ctrl-C, everything delivered is a clean prefix of the serial output.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.core.ensembles import EnsembleConfig, EnsembleResult, run_ensemble
from repro.core.experiment import CanonicalMerge, SlotResult
from repro.parallel.executor import run_tasks
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    NULL_TRACE,
    Telemetry,
    resolve_telemetry,
)
from repro.topology.dragonfly import DragonflyTopology

_CTX = None


class _EnsembleContext:
    def __init__(self, top, cfgs, trace_enabled, metrics_enabled):
        self.top = top
        self.cfgs = cfgs
        self.trace_enabled = trace_enabled
        self.metrics_enabled = metrics_enabled


def _init_worker(ctx: _EnsembleContext) -> None:
    global _CTX
    _CTX = ctx


def _run_one(idx: int) -> SlotResult:
    ctx = _CTX
    trace = MemoryTraceWriter() if ctx.trace_enabled else NULL_TRACE
    tel = Telemetry(trace=trace, metrics=MetricsRegistry(enabled=ctx.metrics_enabled))
    res = run_ensemble(ctx.top, ctx.cfgs[idx], telemetry=tel)
    return SlotResult(
        idx,
        res,
        events=trace.events if ctx.trace_enabled else [],
        metrics=tel.metrics if ctx.metrics_enabled else None,
        worker=os.getpid(),
    )


def run_ensembles(
    top: DragonflyTopology,
    cfgs: list[EnsembleConfig],
    *,
    jobs: int = 1,
    telemetry: Telemetry | None = None,
    on_result: Callable[[int, EnsembleResult], None] | None = None,
    scramble_seed: int | None = None,
) -> list[EnsembleResult]:
    """Run every ensemble config; returns results in list order.

    With ``jobs`` > 1 the ensembles run on a worker pool; worker trace
    events are forwarded with ``worker``/``ensemble_index`` tags and
    worker metrics are merged into the parent registry in canonical
    order.  A worker process dying repeatedly raises — an ensemble has
    no per-run error-record to degrade into.
    """
    tel = resolve_telemetry(telemetry)
    if jobs <= 1:
        results: list[EnsembleResult] = []
        for idx, cfg in enumerate(cfgs):
            res = run_ensemble(top, cfg, telemetry=tel)
            results.append(res)
            if on_result is not None:
                on_result(idx, res)
        return results

    ctx = _EnsembleContext(
        top, list(cfgs), tel.trace.enabled, tel.metrics.enabled
    )
    merge = CanonicalMerge(
        tel, len(cfgs), index_field="ensemble_index", on_commit=on_result
    )
    for outcome in run_tasks(
        list(range(len(cfgs))),
        _run_one,
        jobs=jobs,
        initializer=_init_worker,
        initargs=(ctx,),
        scramble_seed=scramble_seed,
    ):
        if not outcome.ok:
            raise RuntimeError(
                f"ensemble {outcome.task} lost its worker process "
                f"{outcome.attempts} times"
            ) from outcome.error
        merge.pending[outcome.task] = outcome.result
        merge.commit()
    return merge.records
