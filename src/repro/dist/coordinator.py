"""Distributed campaign coordinator: materialize, merge, fall back.

:func:`run_campaign_distributed` runs the campaign pipeline
(:func:`repro.core.experiment.run_pipeline`) with a :class:`QueueBackend`,
so it keeps the serial contract: the returned records, the checkpoint
file, and the telemetry stream are **byte-identical** to a serial run,
no matter how many workers participate, on how many hosts, or how many
of them crash.

:class:`QueueBackend` owns the queue protocol: it materializes the
queue (manifest + one content-addressed task per miss), sweeps
``results/`` for committed payloads, writes error records for tasks
whose retry budget is exhausted, watches fleet liveness, and degrades
to a local :class:`repro.parallel.campaign.PoolBackend` when nobody is
working and nobody is coming.  It executes nothing itself (until
fallback) and yields each task's result exactly once, in discovery
order; the pipeline's canonical merge does the rest.  The memoizing
service layer (:mod:`repro.service.executor`) uses the same backend for
its cache misses.

Observability: ``dist.worker`` (first sighting of each worker),
``dist.task_stolen`` (a speculative duplicate won), ``dist.lease_reclaimed``
(a retry attempt), ``dist.queue`` (periodic depth snapshot),
``dist.fallback`` — plus ``dist_*`` gauges/counters on ``/metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.experiment import (
    CampaignConfig,
    CampaignContext,
    RunRecord,
    SlotResult,
    effective_jobs,
    run_pipeline,
)
from repro.dist.manifest import (
    build_tasks,
    campaign_to_manifest,
    payload_result,
    result_payload,
)
from repro.dist.queue import QueueTask, QueueUnavailable, WorkQueue
from repro.parallel.campaign import PoolBackend
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.telemetry import Telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.util.backoff import Backoff, BackoffPolicy

#: queue-outage schedule on the coordinator side
COORDINATOR_BACKOFF = BackoffPolicy(base=0.2, cap=10.0)

#: seconds of (no progress ∧ no live lease) before local fallback
DEFAULT_FALLBACK_AFTER = 10.0

#: the worker name results produced by the local fallback pool carry
FALLBACK_OWNER = "coordinator:fallback"


@dataclass
class QueueBackend:
    """Execute misses on whatever fleet serves a shared queue directory.

    ``jobs`` only sizes the local fallback pool (used when no worker
    ever appears or the whole fleet dies).  ``worker_ids`` passed to
    :meth:`run` is the merge's dense-id map, so ``dist.worker``
    sightings and trace tags agree on ids.
    """

    queue: WorkQueue
    jobs: int | None = None
    fallback_after: float = DEFAULT_FALLBACK_AFTER
    poll: float = 0.2
    status_every: float = 5.0

    def _fallback(self, ctx: CampaignContext, remaining: list[QueueTask], tel: Telemetry):
        """Execute ``remaining`` on a local pool, committing via the queue.

        Results go *through the queue* (first-commit-wins), so a worker
        fleet that resurrects mid-fallback cannot double-merge anything.
        They are yielded in memory too: the campaign must finish even if
        the queue directory died outright (records are deterministic, so
        any queue-committed duplicate from a resurrected worker is
        byte-identical to ours).
        """
        by_index = {t.index: t for t in remaining}
        pool = PoolBackend(effective_jobs(self.jobs))
        for res in pool.run(ctx, remaining, tel, {}):
            task = by_index[res.index]
            res.worker = FALLBACK_OWNER
            try:
                self.queue.commit_result(
                    task.tid, result_payload(task, res, worker=FALLBACK_OWNER, attempt=1)
                )
            except QueueUnavailable:
                pass
            yield task, res

    def run(self, ctx: CampaignContext, slots, tel: Telemetry, worker_ids: dict):
        queue = self.queue
        wanted = {s.index for s in slots}
        tasks = [t for t in build_tasks(ctx.top, ctx.cfg) if t.index in wanted]
        queue.create(campaign_to_manifest(ctx.top, ctx.cfg, tel), tasks)

        m = tel.metrics
        if m.enabled:
            m.gauge("dist_queue_depth", "tasks not yet completed").set(len(tasks))
            m.gauge("dist_leases_live", "live worker leases").set(0)

        backoff = Backoff(COORDINATOR_BACKOFF)
        outage = 0
        last_progress = time.monotonic()
        last_status = 0.0
        seen_attempts: dict[str, int] = {}
        #: last owner observed holding each task's lease (steal attribution)
        last_owner: dict[str, str] = {}
        yielded: set[str] = set()
        fallen_back = False

        def _sight_worker(owner: str) -> None:
            if owner not in worker_ids:
                worker_ids[owner] = len(worker_ids)
                tel.event("dist.worker", owner=owner, worker=worker_ids[owner])

        def _yielded(t: QueueTask) -> None:
            yielded.add(t.tid)
            if m.enabled:
                m.counter("dist_tasks_done_total", "runs merged").inc()

        def _note_attempts(t: QueueTask, used: int) -> None:
            """Record attempt movement; >1 means an expired lease got
            reclaimed somewhere (a retry)."""
            prev = seen_attempts.get(t.tid, 0)
            if used > max(prev, 1):
                # the queue records the displaced owner at reclaim time;
                # the lease-scan guess is only a fallback (our scan may
                # already have seen the reclaimer's fresh lease)
                tel.event(
                    "dist.lease_reclaimed",
                    tid=t.tid,
                    run_index=t.index,
                    attempt=used,
                    victim=queue.last_victim(t.tid) or last_owner.get(t.tid, ""),
                )
                if m.enabled:
                    m.counter("dist_retries_total", "expired-lease reclaims").inc(
                        used - max(prev, 1)
                    )
            if used > prev:
                seen_attempts[t.tid] = used

        while len(yielded) < len(tasks):
            progressed = 0
            try:
                # 0) lease scan: first-sighting events + steal attribution
                live = queue.live_leases()
                for tid, lease in live.items():
                    owner = str(lease.get("owner", "?"))
                    _sight_worker(owner)
                    last_owner[tid] = owner

                # 1) sweep newly committed results
                for t in tasks:
                    if t.tid in yielded:
                        continue
                    payload = queue.read_result(t.tid)
                    if payload is None:
                        continue
                    owner = str(payload.get("worker", "?"))
                    _sight_worker(owner)
                    if payload.get("speculative"):
                        tel.event(
                            "dist.task_stolen",
                            tid=t.tid,
                            run_index=t.index,
                            owner=owner,
                            victim=last_owner.get(t.tid, ""),
                        )
                        if m.enabled:
                            m.counter(
                                "dist_steals_total",
                                "speculative duplicates that won",
                            ).inc()
                    # the payload's attempt count is authoritative even when
                    # the whole claim→reclaim→commit happened between two of
                    # our sweeps (the attempts scan below never sees it)
                    _note_attempts(t, int(payload.get("attempt", 0) or 0))
                    _yielded(t)
                    progressed += 1
                    yield payload_result(payload)

                # 2) retry bookkeeping: attempt counters that moved past 1
                #    mean an expired lease got reclaimed somewhere
                for t in tasks:
                    if t.tid in yielded:
                        continue
                    used = queue.attempts_used(t.tid)
                    _note_attempts(t, used)
                    # budget exhausted with no result: the task is dead —
                    # write its error record so the campaign completes
                    if used >= queue.retry_budget and not queue.has_result(t.tid):
                        if t.tid in live:
                            continue  # final attempt still running
                        exc = RuntimeError(f"retry budget exhausted after {used} attempts")
                        res = SlotResult(t.index, ctx.lost_record(t, exc, used))
                        queue.commit_result(
                            t.tid, result_payload(t, res, worker="coordinator", attempt=used)
                        )
                        tel.event(
                            "dist.task_exhausted",
                            tid=t.tid,
                            run_index=t.index,
                            attempts=used,
                        )

                if m.enabled:
                    m.gauge("dist_queue_depth", "tasks not yet completed").set(
                        len(tasks) - len(yielded)
                    )
                    m.gauge("dist_leases_live", "live worker leases").set(len(live))
                now = time.monotonic()
                if now - last_status >= self.status_every:
                    last_status = now
                    tel.event(
                        "dist.queue",
                        depth=len(tasks) - len(yielded),
                        merged=len(yielded),
                        total=len(tasks),
                        leases=len(live),
                        workers=len(worker_ids),
                    )

                if progressed or live:
                    last_progress = now
                elif not fallen_back and now - last_progress >= self.fallback_after:
                    # nobody is working and nobody is coming: degrade to
                    # the local fork pool and finish the campaign ourselves
                    fallen_back = True
                    remaining = [t for t in tasks if t.tid not in yielded]
                    tel.event(
                        "dist.fallback",
                        remaining=len(remaining),
                        waited_s=round(now - last_progress, 3),
                    )
                    for t, res in self._fallback(ctx, remaining, tel):
                        _yielded(t)
                        yield res
                    last_progress = time.monotonic()
                    continue  # next sweep skips everything yielded
                outage = 0
                if len(yielded) < len(tasks) and not progressed:
                    time.sleep(self.poll)
            except QueueUnavailable:
                outage += 1
                tel.event("dist.queue_unavailable", outages=outage)
                backoff.sleep(min(outage, 8))


def run_campaign_distributed(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    queue_dir: str,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    ttl: float | None = None,
    retry_budget: int | None = None,
    fallback_after: float = DEFAULT_FALLBACK_AFTER,
    poll: float = 0.2,
    status_every: float = 5.0,
) -> list[RunRecord]:
    """Run the campaign over a shared-directory work queue.

    ``jobs`` only sizes the local *fallback* pool (used when no worker
    ever appears or the whole fleet dies); a healthy distributed
    campaign executes nothing in this process.
    """
    kw = {}
    if ttl is not None:
        kw["ttl"] = ttl
    if retry_budget is not None:
        kw["retry_budget"] = retry_budget
    queue = WorkQueue(queue_dir, **kw)
    return run_pipeline(
        CampaignContext(top, cfg, background_model, scenarios),
        QueueBackend(queue, jobs, fallback_after, poll, status_every),
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
        queue=str(queue.root),
    ).records
