"""Fault-tolerant multi-host campaign execution over a shared directory.

The distributed layer splits a campaign across any number of worker
processes on any number of hosts, coordinating through nothing but a
shared filesystem directory (``--queue DIR``): a crash-tolerant work
queue built on O_EXCL lease files, atomic renames, and first-commit-wins
hard links.  Results merge back in canonical order, byte-identical to a
serial run — see ``docs/DISTRIBUTED.md``.

* :class:`WorkQueue` — the directory protocol (leases, commits, scans);
* :func:`run_campaign_distributed` — the coordinator: the campaign
  pipeline with :class:`~repro.dist.coordinator.QueueBackend`
  (materialize, sweep results, local-pool fallback);
* :class:`DistWorker` — the ``repro worker`` claim-execute-commit loop;
* :mod:`repro.dist.manifest` — campaign ↔ JSON manifest round-trip.
"""

from repro.dist.coordinator import run_campaign_distributed
from repro.dist.manifest import (
    NotDistributable,
    build_tasks,
    campaign_to_manifest,
    manifest_to_campaign,
)
from repro.dist.queue import (
    Lease,
    QueueStatus,
    QueueTask,
    QueueUnavailable,
    WorkQueue,
    task_id,
)
from repro.dist.worker import DistWorker, WorkerStats, default_owner

__all__ = [
    "DistWorker",
    "Lease",
    "NotDistributable",
    "QueueStatus",
    "QueueTask",
    "QueueUnavailable",
    "WorkQueue",
    "WorkerStats",
    "build_tasks",
    "campaign_to_manifest",
    "default_owner",
    "manifest_to_campaign",
    "run_campaign_distributed",
    "task_id",
]
