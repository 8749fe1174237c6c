"""Bounded LRU caches for topology construction and faulted views.

Rebuilding a :class:`DragonflyTopology` (and re-deriving a fault-masked
view of it) is pure — the result depends only on ``(params, seed)`` and
the :class:`~repro.faults.FaultSchedule` — so worker processes memoize
both behind small LRU caches keyed by those identities.  Cache keys are
the frozen dataclasses themselves: equality is field-wise, so two
distinct ``(system, faults)`` inputs can never alias a key.

Every array of a cached topology (and the capacity arrays of a cached
faulted view) is frozen read-only before it is stored, so an accidental
in-place mutation by a consumer raises ``ValueError`` instead of
silently poisoning later cache hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.faults import FaultSchedule
from repro.topology.dragonfly import DragonflyParams, DragonflyTopology


@dataclass(frozen=True)
class TopologySpec:
    """Hashable, pickle-friendly identity of a pristine topology.

    ``(params, seed)`` fully determine a :class:`DragonflyTopology`'s
    structure — including the seeded global-cable assignment — so
    :meth:`build` reconstructs a byte-identical system in any process.
    """

    params: DragonflyParams
    seed: int = 0

    @classmethod
    def of(cls, top: DragonflyTopology) -> "TopologySpec":
        return cls(params=top.params, seed=top.seed)

    def build(self) -> DragonflyTopology:
        return DragonflyTopology(self.params, seed=self.seed)


_TOPO_MAXSIZE = 8
_VIEW_MAXSIZE = 16

_lock = threading.Lock()
_topologies: OrderedDict[TopologySpec, DragonflyTopology] = OrderedDict()
_views: OrderedDict[tuple[TopologySpec, FaultSchedule], DragonflyTopology] = (
    OrderedDict()
)


def freeze_topology_arrays(top: DragonflyTopology) -> DragonflyTopology:
    """Mark every ndarray attribute of ``top`` read-only, in place."""
    for value in vars(top).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return top


def cached_topology(spec: TopologySpec) -> DragonflyTopology:
    """Build (or fetch) the pristine topology for ``spec``.

    The returned object is shared across callers and its arrays are
    read-only; treat it as immutable (every engine in this library
    already does).
    """
    with _lock:
        top = _topologies.get(spec)
        if top is not None:
            _topologies.move_to_end(spec)
            return top
    top = freeze_topology_arrays(spec.build())
    with _lock:
        _topologies[spec] = top
        _topologies.move_to_end(spec)
        while len(_topologies) > _TOPO_MAXSIZE:
            _topologies.popitem(last=False)
    return top


def cached_faulted_view(
    spec: TopologySpec, schedule: FaultSchedule | None
) -> DragonflyTopology:
    """The fault-masked view of ``spec``'s topology under ``schedule``.

    ``None`` (or an empty/inactive schedule) returns the cached pristine
    topology itself, mirroring ``with_faults``'s strict no-op contract.
    """
    base = cached_topology(spec)
    if schedule is None or not schedule:
        return base
    key = (spec, schedule)
    with _lock:
        view = _views.get(key)
        if view is not None:
            _views.move_to_end(key)
            return view
    view = base.with_faults(schedule)
    if view is not base:
        # with_faults gives the view fresh capacity/fault_scale arrays
        # (structure is shared with the already-frozen base)
        view.capacity.flags.writeable = False
        view.fault_scale.flags.writeable = False
    with _lock:
        _views[key] = view
        _views.move_to_end(key)
        while len(_views) > _VIEW_MAXSIZE:
            _views.popitem(last=False)
    return view


def clear_topology_cache() -> None:
    """Drop all cached topologies and faulted views."""
    with _lock:
        _topologies.clear()
        _views.clear()


def topology_cache_stats() -> dict[str, int]:
    with _lock:
        return {"topologies": len(_topologies), "views": len(_views)}
