"""Parallel campaign execution with serial-equivalent results.

:func:`run_campaign_parallel` runs the campaign pipeline
(:func:`repro.core.experiment.run_pipeline`) with a :class:`PoolBackend`
and produces output **byte-identical** to
:func:`repro.core.experiment.run_campaign` with ``jobs=1``:

* Every run's RNG stream is re-derived in the worker from the same
  ``(seed, app, size, sample, mode)`` key the serial loop uses — no
  state is threaded between runs, so worker count and completion order
  cannot influence a single draw (see ``docs/PARALLEL.md``).
* The pipeline's canonical merge commits results in (sample-major,
  mode-minor) order: checkpoint records are appended, worker trace
  events forwarded, and worker metrics merged only for the contiguous
  completed prefix.  The checkpoint file is therefore always a clean,
  resumable prefix of the serial file — including after Ctrl-C — and
  its final bytes are identical for any ``jobs``.
* A run that raises inside the worker becomes an error-status record
  (same isolation as serial); a run whose worker process *dies* is
  retried on a rebuilt pool a bounded number of times, then isolated
  into an error-status record as well.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

from repro.core.experiment import (
    CampaignConfig,
    CampaignContext,
    RunRecord,
    RunSlot,
    SlotResult,
    SlotRunner,
    execute_run,
    run_pipeline,
    sample_draws,
    write_guard_bundle,
)
from repro.guard import Watchdog, WorkerHeartbeat, set_worker_heartbeat
from repro.parallel.executor import run_tasks
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.telemetry import Telemetry
from repro.topology.dragonfly import DragonflyTopology

_RUNNER: SlotRunner | None = None


def _init_worker(runner: SlotRunner, heartbeat_dir: str | None) -> None:
    global _RUNNER
    _RUNNER = runner
    if heartbeat_dir is not None:
        # every guard tick inside the engines refreshes this file's
        # mtime; the parent's watchdog reads staleness as "hung"
        runner.heartbeat = WorkerHeartbeat(heartbeat_dir)
        set_worker_heartbeat(runner.heartbeat)


def _run_slot(slot: RunSlot) -> SlotResult:
    return _RUNNER.run(slot)


@dataclass
class PoolBackend:
    """Fan misses over ``jobs`` forked worker processes.

    Workers inherit the :class:`CampaignContext` (topology, config, the
    background pool built just before the fork) and run slots through
    one :class:`SlotRunner` each; results come back as record objects
    with the run's captured telemetry.  With an active
    ``GuardPolicy.hang_timeout`` a heartbeat watchdog SIGKILLs hung
    workers.  A worker that dies on the same run past ``max_retries``
    pool rebuilds turns it into an error record (``guard.worker_lost``,
    plus a diagnostics bundle when configured).

    ``scramble_seed`` is a test hook: it makes the dispatcher deliver
    completions in a deterministically shuffled order, which must not —
    and provably does not — change any output.
    """

    jobs: int
    scramble_seed: int | None = None
    max_retries: int = 2
    #: the run function workers call (default: :func:`execute_run`)
    execute: object = None

    def run(self, ctx: CampaignContext, slots, tel: Telemetry, worker_ids):
        ctx.background()  # built before the fork: every worker inherits it
        runner = SlotRunner(
            ctx,
            trace=tel.trace.enabled,
            metrics=tel.metrics.enabled,
            series=tel.series,
            execute=self.execute or execute_run,
            draws=sample_draws,
        )
        guard = ctx.cfg.guard
        policy = guard if (guard is not None and guard.active) else None
        heartbeat_dir = None
        watchdog = None
        if policy is not None and policy.hang_timeout is not None:
            heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
            # published so live observers (``repro-study top``) can find
            # the per-worker liveness files without being told the directory
            tel.event("campaign.workers", jobs=self.jobs, heartbeat_dir=heartbeat_dir)
            watchdog = Watchdog(
                heartbeat_dir,
                policy.hang_timeout,
                pid_provider=lambda: set(),  # run_tasks rebinds this per pool
                on_kill=lambda pid, age: tel.event(
                    "guard.worker_hung", pid=pid, stale_s=round(age, 3)
                ),
            )
        outcomes = run_tasks(
            slots,
            _run_slot,
            jobs=self.jobs,
            initializer=_init_worker,
            initargs=(runner, heartbeat_dir),
            max_retries=self.max_retries,
            scramble_seed=self.scramble_seed,
            watchdog=watchdog,
        )
        try:
            if watchdog is not None:
                watchdog.start()
            for outcome in outcomes:
                if outcome.ok:
                    yield outcome.result
                else:
                    yield self._lost(ctx, policy, tel, outcome)
        finally:
            # closing reaps the pool's workers if we are being abandoned
            outcomes.close()
            if watchdog is not None:
                watchdog.stop()
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)

    def _lost(self, ctx: CampaignContext, policy, tel: Telemetry, outcome) -> SlotResult:
        """The worker process died on this run every time (crash or
        watchdog kill): isolate it exactly like an in-run failure."""
        slot = outcome.task
        rec = ctx.lost_record(slot, outcome.error, outcome.attempts)
        label = f"{ctx.cfg.app.name}-{slot.mode}-s{slot.sample}"
        tel.event(
            "guard.worker_lost",
            label=label,
            sample=slot.sample,
            mode=slot.mode,
            attempts=outcome.attempts,
            error=str(outcome.error),
        )
        write_guard_bundle(
            ctx.top, ctx.cfg, policy, None, None, label, slot.sample,
            ctx.modes[slot.mode], outcome.attempts, outcome.error, tel,
        )
        return SlotResult(slot.index, rec, worker=os.getpid())


def run_campaign_parallel(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    jobs: int,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    scramble_seed: int | None = None,
    max_pool_retries: int = 2,
) -> list[RunRecord]:
    """Parallel twin of ``run_campaign`` (which delegates here for jobs>1).

    ``scramble_seed`` and ``max_pool_retries`` configure the
    :class:`PoolBackend`.
    """
    return run_pipeline(
        CampaignContext(top, cfg, background_model, scenarios),
        PoolBackend(jobs, scramble_seed, max_pool_retries),
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
        jobs=jobs,
    ).records
