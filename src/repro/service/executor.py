"""Memoizing campaign executor (cache in front of every dispatch path).

:func:`run_campaign_cached` is the cache-aware twin of
:func:`repro.core.experiment.run_campaign`: the same campaign pipeline
(:func:`repro.core.experiment.run_pipeline`) with a
:class:`~repro.service.store.RunRecordStore` as a second source and a
second sink.  Slots the resumed checkpoint does not fill are looked up
in the store, keyed by ``(campaign fingerprint, RNG key)``; hits are
served from disk, misses execute on the backend the uncached paths use
— the serial loop, the :mod:`repro.parallel` fork pool, or a
:mod:`repro.dist` shared-directory queue — and every fresh ``ok`` record
is committed back to the store.  The background pool is a store
artifact too: the first miss reads it from the store when a campaign
with the same pool inputs (any modes) already built it, and commits it
after a build otherwise.

Equivalence contract: because each run is a pure function of its
content address, a warm campaign's records and checkpoint JSONL are
**byte-identical** to a cold serial run, while executing zero
simulation steps (and never building the background pool).  The
pipeline's canonical merge interleaves cache hits and fresh results
exactly where a serial loop would have written them.  Error-status
records are never cached: a failed run re-executes on the next request
(the record it produces is still deterministic).
"""

from __future__ import annotations

from repro.core.experiment import (
    CampaignConfig,
    CampaignContext,
    CampaignOutcome,
    SerialBackend,
    effective_jobs,
    execute_run,
    run_pipeline,
)
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.service.store import RunRecordStore
from repro.telemetry import Telemetry
from repro.topology.dragonfly import DragonflyTopology

#: what one cached campaign did: the records plus cache accounting
CacheOutcome = CampaignOutcome


def run_campaign_cached(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    store: RunRecordStore,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    queue_dir: str | None = None,
    fallback_after: float = 10.0,
    poll: float = 0.2,
) -> CacheOutcome:
    """Run the campaign through the result cache; returns a
    :class:`CacheOutcome` whose ``records`` match ``run_campaign``.

    Dispatch of misses follows the same rules as ``run_campaign``:
    ``queue_dir`` fans them over a shared-directory work queue,
    ``jobs`` > 1 over the local fork pool, otherwise the serial loop.
    Cache hits never dispatch at all.
    """
    n_jobs = effective_jobs(jobs)
    start_fields: dict = {"cache": str(store.root)}
    if queue_dir is not None:
        from repro.dist.coordinator import QueueBackend
        from repro.dist.queue import WorkQueue

        backend = QueueBackend(
            WorkQueue(queue_dir), jobs=jobs, fallback_after=fallback_after, poll=poll
        )
    elif n_jobs > 1:
        from repro.parallel.campaign import PoolBackend

        backend = PoolBackend(n_jobs, execute=execute_run)
        start_fields["jobs"] = n_jobs
    else:
        backend = SerialBackend(execute_run)
    return run_pipeline(
        CampaignContext(top, cfg, background_model, scenarios),
        backend,
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
        store=store,
        **start_fields,
    )
