"""Facility-level default-routing-change studies (Figs. 13 and 14).

Motivated by the paper's findings, ALCF and NERSC changed the production
default routing mode on Theta and Cori to AD3.  The paper then compared
one week of LDMS data before and after the change (Fig. 13: system-wide
stalls, flits, and stalls-to-flits ratio) and sampled every NIC's mean
packet-pair latency ~100 times in each window (Fig. 14: percentile
changes — 20-30% tail reductions).

:func:`simulate_production_window` reproduces one such window: each LDMS
interval samples a fresh production job mix, routes it with the window's
default :class:`~repro.mpi.env.RoutingEnv` through the fluid engine in
rate mode, accumulates tile counters, and reads per-NIC mean latencies
from the two cumulative NIC counters exactly as the paper's pipeline
does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.biases import AD3, RoutingMode
from repro.core.metrics import (
    percent_change,
    percentile_summary,
)
from repro.faults import FaultSchedule
from repro.monitoring.ldms import LdmsCollector
from repro.monitoring.nic import NicLatencyCounters
from repro.mpi.env import RoutingEnv
from repro.network.congestion import PACKET_BYTES
from repro.network.counters import CounterBank
from repro.network.fluid import FlowSet, FluidParams, solve_fluid
from repro.scheduler.background import job_flows
from repro.scheduler.placement import FreeNodePool, production_placement
from repro.scheduler.workload import WorkloadModel
from repro.telemetry import Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.util import derive_rng


@dataclass
class WindowConfig:
    """One production observation window."""

    env: RoutingEnv
    n_intervals: int = 100
    interval: float = 60.0
    target_fill: float = 0.88
    seed: int = 1234
    params: FluidParams | None = None
    #: degraded-network state over the window.  Timed specs flip as the
    #: window's simulated clock (``interval`` seconds per step) crosses
    #: their start/end; an empty schedule is a strict no-op.
    faults: "FaultSchedule | None" = None


@dataclass
class WindowResult:
    """Counters and latency samples from one window."""

    config: WindowConfig
    ldms: LdmsCollector
    nic_latency_samples: np.ndarray  # pooled per-NIC per-interval means (s)

    def series(self) -> dict[str, np.ndarray]:
        """System-wide network-tile flits/stalls/ratio series (Fig. 13)."""
        return self.ldms.series()

    def latency_percentiles(self) -> dict[float, float]:
        """Percentiles of per-NIC mean latency (Fig. 14 input)."""
        return percentile_summary(self.nic_latency_samples)


def simulate_production_window(
    top: DragonflyTopology,
    cfg: WindowConfig,
    *,
    workload: WorkloadModel | None = None,
    trace=None,
    telemetry: Telemetry | None = None,
) -> WindowResult:
    """Simulate one week-like window of production under a default mode.

    ``trace`` optionally supplies a
    :class:`repro.scheduler.simulator.ScheduleTrace`: the window then
    follows the trace's time-correlated machine states (jobs persist
    across consecutive intervals, as in a real LDMS week) instead of
    sampling an independent job mix per interval.
    """
    workload = workload or WorkloadModel(top)
    tel = resolve_telemetry(telemetry)
    params = cfg.params or FluidParams(k_min=3, k_nonmin=2, n_iter=5)
    bank = CounterBank(top)
    ldms = LdmsCollector(bank, interval=cfg.interval)
    nic = NicLatencyCounters(top)
    samples: list[np.ndarray] = []

    for i in range(cfg.n_intervals):
        t0 = time.perf_counter() if tel.enabled else 0.0
        # note: the routing mode is *not* part of the key, so two windows
        # with the same seed see identical job mixes and load levels
        rng = derive_rng(cfg.seed, "facility", i)
        p2p_parts: list[FlowSet] = []
        a2a_parts: list[FlowSet] = []
        if trace is not None:
            idx = min(i, len(trace.active_at) - 1)
            placed = [
                (sj.job, sj.nodes) for sj in trace.active_at[idx] if sj.nodes is not None
            ]
        else:
            jobs = workload.sample_active_jobs(rng, target_fill=cfg.target_fill)
            pool = FreeNodePool(top)
            placed = []
            for job in jobs:
                if pool.n_free < job.n_nodes:
                    continue
                placed.append(
                    (job, production_placement(top, job.n_nodes, rng, pool=pool))
                )
        for job, nodes in placed:
            p2p, a2a = job_flows(job, nodes, rng)
            if p2p.n:
                p2p_parts.append(p2p.with_class(0))
            if a2a.n:
                a2a_parts.append(a2a.with_class(1))
        # per-interval load level varies (day/night, job churn).  The
        # archetype rates are busy-phase bursts; a week-long window
        # averages over duty cycles, so the sustained level is lower
        # than the campaign background's per-run intensity.
        level = float(rng.lognormal(np.log(0.45), 0.35))
        flows = FlowSet.concat(p2p_parts + a2a_parts).scaled(level * cfg.interval)

        solve_top = (
            top.with_faults(cfg.faults, at_time=i * cfg.interval)
            if cfg.faults is not None
            else top
        )
        res = solve_fluid(
            solve_top,
            flows,
            cfg.env.modes_list(),
            rng=rng,
            params=params,
            fixed_duration=cfg.interval,
            telemetry=tel,
        )
        res.accumulate_counters(bank, top)
        ldms.sample()

        before = nic.snapshot()
        pairs = np.maximum(res.flows.nbytes / PACKET_BYTES, 1.0)
        nic.record_flows(res.flows, res.flow_latency, pairs)
        means = NicLatencyCounters.window_mean_latency(before, nic.snapshot())
        samples.append(means[np.isfinite(means)])

        if tel.enabled:
            if tel.metrics.enabled:
                tel.metrics.counter(
                    "facility_intervals_total", "production intervals simulated"
                ).inc()
            tel.event(
                "facility.interval",
                interval=i,
                jobs=len(placed),
                flows=flows.n,
                load_level=level,
                converged=res.converged,
                residual_mean=res.residual_mean,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )

    # the loop samples on every whole boundary, so this only emits when a
    # trace-driven window leaves sub-cadence residue (flagged partial)
    ldms.finalize(cfg.n_intervals * cfg.interval)
    pooled = np.concatenate(samples) if samples else np.zeros(0)
    tel.event(
        "facility.window",
        intervals=cfg.n_intervals,
        mode=cfg.env.p2p_mode.name,
        latency_samples=int(pooled.size),
    )
    return WindowResult(config=cfg, ldms=ldms, nic_latency_samples=pooled)


@dataclass
class DefaultChangeStudy:
    """Before/after comparison of a facility default change."""

    before: WindowResult
    after: WindowResult

    def latency_change(self) -> dict[float, float]:
        """Per-percentile % change in mean latency (negative = faster)."""
        return percent_change(
            self.before.latency_percentiles(), self.after.latency_percentiles()
        )

    def counter_change(self) -> dict[str, float]:
        """Relative change of window-total flits, stalls, and ratio."""
        b, a = self.before.series(), self.after.series()
        out = {}
        for key in ("flits", "stalls"):
            tb, ta = b[key].sum(), a[key].sum()
            out[key] = float((ta - tb) / tb) if tb else float("nan")
        rb = b["stalls"].sum() / max(b["flits"].sum(), 1.0)
        ra = a["stalls"].sum() / max(a["flits"].sum(), 1.0)
        out["ratio"] = float((ra - rb) / rb) if rb else float("nan")
        return out


def run_default_change_study(
    top: DragonflyTopology,
    *,
    n_intervals: int = 100,
    seed: int = 1234,
    before_env: RoutingEnv | None = None,
    after_mode: RoutingMode = AD3,
    params: FluidParams | None = None,
) -> DefaultChangeStudy:
    """Simulate the before (AD0 default) and after (AD3) weeks."""
    before = simulate_production_window(
        top,
        WindowConfig(
            env=before_env or RoutingEnv(),
            n_intervals=n_intervals,
            seed=seed,
            params=params,
        ),
    )
    # the paper verifies its two windows are comparable by checking the
    # flit totals are "roughly in line"; we make them comparable by
    # construction (same job-mix draws, different routing), which removes
    # week-to-week workload variance from the comparison
    after = simulate_production_window(
        top,
        WindowConfig(
            env=RoutingEnv.uniform(after_mode),
            n_intervals=n_intervals,
            seed=seed,
            params=params,
        ),
    )
    return DefaultChangeStudy(before=before, after=after)
