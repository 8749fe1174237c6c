"""Production / isolated / controlled run harness.

This is the reproduction of the paper's Section III methodology: run an
application at a job size, under a routing-mode setting, against sampled
production background congestion (or none, for isolated runs), many
times, with AutoPerf attached.

Pairing: sample ``i`` of every mode shares the same placement, background
scenario, and intensity draw (same derived RNG streams), so mode
comparisons are paired exactly as the paper's repeated A/B runs over the
same four-month production window aimed to be.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.apps.base import Application
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD3, RoutingMode
from repro.core.metrics import SampleStats, remove_outliers
from repro.faults import FaultSchedule, NetworkPartitionedError
from repro.guard import GuardPolicy, InvariantViolation, RunTimeoutError
from repro.guard.bundle import RingTraceWriter, write_bundle
from repro.guard.context import RunGuard, use_guard
from repro.monitoring.autoperf import AutoPerf, AutoPerfReport
from repro.mpi.env import RoutingEnv
from repro.mpi.patterns import Phase, TrafficOp
from repro.network.counters import CounterBank
from repro.network.fluid import FlowSet, FluidParams, FluidResult, solve_fluid
from repro.scheduler.background import (
    BackgroundModel,
    BackgroundScenario,
    pool_from_bytes,
    pool_identity,
    pool_to_bytes,
)
from repro.scheduler.placement import groups_spanned, make_placement
from repro.telemetry import (
    NULL_TELEMETRY,
    NULL_TRACE,
    MemoryTraceWriter,
    MetricsRegistry,
    MultiTraceWriter,
    Telemetry,
    resolve_telemetry,
)
from repro.telemetry.series import CadenceRecorder, CounterSeries
from repro.topology.dragonfly import DragonflyTopology
from repro.util import derive_rng

#: fixed software overhead charged per posted message (MPI_Isend etc.)
POST_OVERHEAD = 0.4e-6


def mask_endpoint_background(
    top: DragonflyTopology, bg: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Zero the ambient utilization on the job's own NIC links.

    The batch scheduler gives a job exclusive nodes, so no background
    traffic injects or ejects at the job's NICs; the pooled background
    scenarios are built machine-wide and must be masked per placement.
    Network (rank-1/2/3) links stay shared, as on the real systems.
    """
    bg = np.asarray(bg).copy()
    nodes = np.asarray(nodes)
    bg[top.injection_link(nodes)] = 0.0
    bg[top.ejection_link(nodes)] = 0.0
    return bg


@dataclass
class PhaseTiming:
    """Resolved wall-clock pieces of one phase (per iteration)."""

    phase: Phase
    comm_time: float
    op_times: dict[str, float]
    op_calls: dict[str, float]
    op_bytes: dict[str, float]
    result: FluidResult


def phase_slices(phase: Phase, base_class: int = 0) -> tuple[FlowSet, list[tuple[str, int, int]]]:
    """Lower a phase to (flows, slices) with traffic classes offset.

    ``base_class`` offsets the TrafficOp class indices, so multiple jobs'
    phases can be concatenated into one joint solve (each job owning a
    (p2p, a2a) class pair).  Slice tags are ``"p2p"`` / ``"coll<i>"``.
    """
    parts: list[FlowSet] = []
    slices: list[tuple[str, int, int]] = []
    cursor = 0
    if phase.p2p is not None and phase.p2p.flows.n:
        fl = phase.p2p.flows.with_class(base_class + int(TrafficOp.P2P))
        parts.append(fl)
        slices.append(("p2p", cursor, cursor + fl.n))
        cursor += fl.n
    for i, coll in enumerate(phase.collectives):
        if not coll.flows.n:
            continue
        fl = coll.flows.with_class(base_class + int(coll.traffic_op))
        parts.append(fl)
        slices.append((f"coll{i}", cursor, cursor + fl.n))
        cursor += fl.n
    return FlowSet.concat(parts), slices


def phase_times_from_result(
    phase: Phase,
    res: FluidResult,
    slices: list[tuple[str, int, int]],
    *,
    offset: int = 0,
) -> PhaseTiming:
    """Convert a (possibly joint) solve into one phase's MPI-op times.

    ``offset`` shifts the slice windows into the combined result when the
    solve covered several jobs' flows.
    """
    n_ranks = 0
    if phase.p2p is not None and phase.p2p.flows.n:
        n_ranks = int(np.unique(phase.p2p.flows.src).size)
    for coll in phase.collectives:
        if coll.flows.n:
            n_ranks = max(n_ranks, int(np.unique(coll.flows.src).size))

    op_times: dict[str, float] = {}
    op_calls: dict[str, float] = {}
    op_bytes: dict[str, float] = {}

    def _add(op: str, t: float, calls: float, nbytes: float) -> None:
        op_times[op] = op_times.get(op, 0.0) + t
        op_calls[op] = op_calls.get(op, 0.0) + calls
        op_bytes[op] = op_bytes.get(op, 0.0) + nbytes

    comm_time = 0.0
    for tag, s0, s1 in slices:
        start, stop = offset + s0, offset + s1
        f_time = res.flow_time[start:stop]
        f_lat = res.flow_latency[start:stop]
        f_lat_amb = res.flow_latency_ambient[start:stop]
        f_lat_worst = res.flow_latency_worst[start:stop]
        if tag == "p2p":
            spec = phase.p2p
            t_bw = float(f_time.max()) if f_time.size else 0.0
            # exposed message latency is queueing behind *other* traffic;
            # waiting on the phase's own burst is the bandwidth term, of
            # which overlapped exchanges hide a fraction behind compute
            if f_lat_amb.size == 0:
                t_lat = 0.0
            elif spec.latency_stat == "p90":
                t_lat = spec.exposed_messages * float(np.percentile(f_lat_amb, 90))
            else:
                t_lat = spec.exposed_messages * float(f_lat_amb.mean())
            t_wait = (1.0 - spec.overlap_fraction) * t_bw + t_lat
            t_post = spec.messages_per_rank * POST_OVERHEAD
            # calls and bytes are reported per rank, as AutoPerf does
            _add(spec.wait_op, t_wait, spec.messages_per_rank, 0.0)
            _add(
                spec.post_op,
                t_post,
                spec.messages_per_rank,
                float(spec.flows.nbytes.sum()) / max(n_ranks, 1),
            )
            comm_time += t_wait + t_post
        else:
            coll = phase.collectives[int(tag[4:])]
            if f_lat.size == 0:
                t_rounds = 0.0
            elif coll.sync == "global":
                # every round waits for the slowest participant's slowest
                # packet (the paper's V-D point about collectives); the
                # partner pattern rotates per round, so the sustained
                # per-round cost is a high percentile, not the single
                # unluckiest pair
                t_rounds = coll.rounds * float(np.percentile(f_lat_worst, 99))
            else:
                t_rounds = coll.rounds * float(f_lat.mean())
            if f_time.size == 0:
                t_bw = 0.0
            elif coll.sync == "pairwise":
                # pairwise rounds pipeline past each other, so stragglers
                # of different rounds overlap: a high percentile, not the
                # absolute worst flow, sets the pace
                t_bw = float(np.percentile(f_time, 90))
            else:
                t_bw = float(f_time.max())
            t_coll = t_rounds + t_bw
            _add(coll.op, t_coll, coll.calls, coll.calls * coll.msg_bytes)
            comm_time += t_coll

    return PhaseTiming(
        phase=phase,
        comm_time=comm_time,
        op_times=op_times,
        op_calls=op_calls,
        op_bytes=op_bytes,
        result=res,
    )


def resolve_phase(
    top: DragonflyTopology,
    phase: Phase,
    env: RoutingEnv,
    *,
    background_util: np.ndarray | None,
    rng: np.random.Generator,
    params: FluidParams | None = None,
    telemetry: Telemetry | None = None,
) -> PhaseTiming:
    """Solve one phase and convert the equilibrium into MPI-op times."""
    flows, slices = phase_slices(phase)
    res = solve_fluid(
        top,
        flows,
        env.modes_list(),
        background_util=background_util,
        rng=rng,
        params=params,
        min_duration=phase.spread_time,
        telemetry=telemetry,
    )
    return phase_times_from_result(phase, res, slices)


@dataclass
class RunRecord:
    """One application run's outcome."""

    app: str
    mode: str
    n_nodes: int
    placement: str
    groups: int
    runtime: float
    report: AutoPerfReport
    background_intensity: float
    sample_index: int
    #: ``"ok"`` or ``"error"``; error records carry a NaN runtime, an
    #: empty report, and the exception text in :attr:`error`, so one
    #: failed run never aborts its campaign.
    status: str = "ok"
    error: str = ""
    #: executions it took to produce this record (>1 after transient
    #: solver-non-convergence retries)
    attempts: int = 1
    #: fluid-solver diagnostics aggregated over the run's phases: did
    #: every phase solve converge, how many did not, and the worst final
    #: residuals (max / mean |Δx|) seen across them.
    solver_converged: bool = True
    solver_nonconverged_phases: int = 0
    solver_max_residual: float = 0.0
    solver_max_residual_mean: float = 0.0
    solver_iterations: int = 0
    #: cadence-sampled counter/latency series (opt-in via
    #: ``Telemetry.series``); ``None`` — the default — keeps records and
    #: checkpoints byte-identical to unobserved campaigns
    series: CounterSeries | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def mpi_time(self) -> float:
        return self.report.mpi_time

    @property
    def mpi_fraction(self) -> float:
        return self.report.mpi_fraction


def solver_diagnostics(timings: list[PhaseTiming]) -> dict:
    """Aggregate per-phase fluid diagnostics for a run (RunRecord fields)."""
    results = [t.result for t in timings]
    nonconv = [r for r in results if not r.converged]
    return {
        "solver_converged": not nonconv,
        "solver_nonconverged_phases": len(nonconv),
        "solver_max_residual": max((r.residual for r in results), default=0.0),
        "solver_max_residual_mean": max((r.residual_mean for r in results), default=0.0),
        "solver_iterations": max((r.iterations for r in results), default=0),
    }


def run_app_once(
    top: DragonflyTopology,
    app: Application,
    nodes: np.ndarray,
    env: RoutingEnv,
    *,
    background_util: np.ndarray | None = None,
    rng: np.random.Generator,
    params: FluidParams | None = None,
    collect_counters: bool = True,
    telemetry: Telemetry | None = None,
    series_recorder: CadenceRecorder | None = None,
) -> tuple[float, AutoPerfReport, list[PhaseTiming]]:
    """One run: resolve each phase once, scale by iterations, add noise.

    Returns (runtime seconds, AutoPerf report, per-phase timings).

    ``series_recorder`` opts into cadence sampling: each resolved phase
    contributes its counter deltas at its position on the run's
    per-iteration sim-time axis, and the recorder is finalized against
    the run's aggregate counter totals (so the series windows sum to the
    end-of-run aggregate exactly).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    P = nodes.size
    n_iter = app.n_iterations(P)
    phases = app.phases(nodes, rng)

    autoperf = AutoPerf(app.name, P)
    bank = CounterBank(top) if collect_counters else None

    per_iter = 0.0
    timings: list[PhaseTiming] = []
    prev_f = prev_s = 0.0
    for phase in phases:
        pt = resolve_phase(
            top,
            phase,
            env,
            background_util=background_util,
            rng=rng,
            params=params,
            telemetry=telemetry,
        )
        timings.append(pt)
        # compute-time jitter: OS/core-spec noise, a fraction of a percent
        compute = phase.compute_time * float(rng.lognormal(0.0, 0.004))
        per_iter += compute + pt.comm_time
        for op, t in pt.op_times.items():
            autoperf.record_op(
                op,
                calls=pt.op_calls.get(op, 0.0) * n_iter,
                nbytes=pt.op_bytes.get(op, 0.0) * n_iter,
                time=t * n_iter,
            )
        if bank is not None:
            pt.result.accumulate_counters(bank, top)
        if series_recorder is not None:
            if bank is not None:
                snap = bank.snapshot()
                f, s = snap.total_flits(), snap.total_stalls()
            else:
                f, s = prev_f, prev_s
            series_recorder.add(per_iter, f - prev_f, s - prev_s)
            prev_f, prev_s = f, s
            series_recorder.observe_latency(pt.result.flow_latency)

    # run-level multiplicative noise (I/O, startup, residual OS noise)
    runtime = per_iter * n_iter * float(rng.lognormal(0.0, 0.008))
    autoperf.add_total_time(runtime)
    if bank is not None:
        autoperf.attach_counters(bank.local_view(nodes))
    if series_recorder is not None:
        series_recorder.finalize(per_iter, prev_f, prev_s)
    return runtime, autoperf.finalize(), timings


@dataclass
class CampaignConfig:
    """A production-style measurement campaign.

    One campaign = one application at one job size, sampled ``samples``
    times per routing mode, with paired noise across modes.
    """

    app: Application
    n_nodes: int = 256
    modes: tuple[RoutingMode, ...] = (AD0, AD3)
    samples: int = 30
    placement: str = "production"
    background: str = "production"  # "production" | "isolated"
    seed: int = 2021
    scenario_pool: int = 12
    uniform_env: bool = True  # set both routing env vars to the mode
    params: FluidParams | None = None
    #: degraded-network state the whole campaign runs under (an empty
    #: schedule is a strict no-op: byte-identical results)
    faults: FaultSchedule | None = None
    #: executions allowed per run; >1 retries transient solver
    #: non-convergence with a freshly-derived RNG stream.  Partition
    #: errors are deterministic and never retried.
    max_attempts: int = 1
    #: seconds slept before retry ``k`` (scaled by ``k``); 0 = no sleep
    retry_backoff: float = 0.0
    #: run guardrails (deadlines, budgets, invariant checks, watchdog);
    #: ``None`` or an inactive policy is a strict no-op — results are
    #: byte-identical to an unguarded campaign (see docs/GUARDRAILS.md).
    #: Deliberately excluded from :func:`campaign_fingerprint`: guards
    #: change how failures are *bounded*, never what a healthy run
    #: produces, so guarded and unguarded checkpoints stay compatible.
    guard: GuardPolicy | None = None


def campaign_fingerprint(top: DragonflyTopology, cfg: CampaignConfig) -> dict:
    """Identity of a campaign for checkpoint compatibility checks.

    Everything that changes the produced records is included; retry and
    checkpointing knobs themselves are not (they only change *how* the
    records get produced).
    """
    return {
        "system": top.params.name,
        "app": cfg.app.name,
        "n_nodes": cfg.n_nodes,
        "modes": [m.name for m in cfg.modes],
        "samples": cfg.samples,
        "placement": cfg.placement,
        "background": cfg.background,
        "seed": cfg.seed,
        "scenario_pool": cfg.scenario_pool,
        "uniform_env": cfg.uniform_env,
        "faults": cfg.faults.describe() if cfg.faults else "",
    }


def _error_record(
    cfg: CampaignConfig,
    mode: RoutingMode,
    sample: int,
    groups: int,
    intensity: float,
    exc: BaseException,
    attempts: int,
) -> RunRecord:
    """Degenerate record for a run that raised: NaN runtime, empty report."""
    return RunRecord(
        app=cfg.app.name,
        mode=mode.name,
        n_nodes=cfg.n_nodes,
        placement=cfg.placement,
        groups=groups,
        runtime=float("nan"),
        report=AutoPerfReport(
            app=cfg.app.name, n_nodes=cfg.n_nodes, ops={}, total_time=0.0
        ),
        background_intensity=intensity,
        sample_index=sample,
        status="error",
        error=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
    )


def sample_draws(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    i: int,
    bm: BackgroundModel | None,
    scenarios: list[BackgroundScenario] | None,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Per-sample shared draws (paired across modes): placement, background.

    The sample stream is derived fresh from ``(seed, app, size,
    placement, i)`` on every call, so any process can reproduce sample
    ``i``'s context without replaying samples ``0..i-1``.
    """
    sample_rng = derive_rng(cfg.seed, cfg.app.name, cfg.n_nodes, cfg.placement, i)
    nodes = make_placement(cfg.placement, top, cfg.n_nodes, sample_rng)
    if cfg.background == "production":
        scenario = scenarios[int(sample_rng.integers(0, len(scenarios)))]
        intensity = bm.sample_intensity(sample_rng)
        bg = mask_endpoint_background(top, scenario.at_intensity(intensity), nodes)
    else:
        bg, intensity = None, 0.0
    return nodes, bg, intensity


def write_guard_bundle(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    policy: GuardPolicy | None,
    guard: RunGuard | None,
    ring: RingTraceWriter | None,
    label: str,
    sample: int,
    mode: RoutingMode,
    attempt: int,
    exc: BaseException,
    tel: Telemetry,
) -> None:
    """Best-effort diagnostics bundle for a guard-terminated run (or one
    whose pool worker was lost; ``guard``/``ring`` are then ``None``)."""
    if policy is None or policy.bundle_dir is None:
        return
    path = write_bundle(
        policy.bundle_dir,
        label=label,
        reason={"type": type(exc).__name__, "message": str(exc)},
        fingerprint=campaign_fingerprint(top, cfg),
        rng_key={
            "seed": cfg.seed,
            "app": cfg.app.name,
            "n_nodes": cfg.n_nodes,
            "sample": sample,
            "mode": mode.name,
            "attempt": attempt,
        },
        policy=asdict(policy),
        events=ring.tail() if ring is not None else [],
        violations=list(guard.violations) if guard is not None else [],
        counters=tel.metrics.to_dict() if tel.metrics.enabled else {},
    )
    if path is not None:
        tel.event("guard.bundle", label=label, path=str(path))


def execute_run(
    top: DragonflyTopology,
    run_top: DragonflyTopology,
    cfg: CampaignConfig,
    i: int,
    mode: RoutingMode,
    nodes: np.ndarray,
    bg: np.ndarray | None,
    intensity: float,
    tel: Telemetry,
) -> RunRecord:
    """One campaign run: the retry loop, error isolation, and telemetry.

    This is the unit the parallel dispatcher fans out; its RNG stream is
    derived solely from ``(seed, app, size, sample, mode)``, so the
    record is identical no matter which process executes it or when.

    With an active :attr:`CampaignConfig.guard`, a :class:`RunGuard` is
    installed around the engines for the run's duration; budget/invariant
    failures are deterministic, so they are never retried — they become
    error-status records (plus a diagnostics bundle when configured).
    """
    app = cfg.app
    env = RoutingEnv.uniform(mode) if cfg.uniform_env else RoutingEnv(p2p_mode=mode)
    policy = cfg.guard if (cfg.guard is not None and cfg.guard.active) else None
    label = f"{app.name}-{mode.name}-s{i}"
    t0 = time.perf_counter() if tel.enabled else 0.0
    rec: RunRecord | None = None
    attempt = 0
    while rec is None:
        attempt += 1
        # attempt 1 uses the canonical paired stream; retries use
        # a fresh derivation so the transient draw changes
        key = (cfg.seed, app.name, cfg.n_nodes, i, mode.name)
        run_rng = (
            derive_rng(*key)
            if attempt == 1
            else derive_rng(*key, "retry", attempt)
        )
        guard: RunGuard | None = None
        ring: RingTraceWriter | None = None
        run_tel = tel
        if policy is not None:
            if policy.bundle_dir is not None:
                # capture the run's trailing events for the bundle without
                # requiring the campaign to persist full traces
                ring = RingTraceWriter(policy.bundle_events)
                run_tel = Telemetry(
                    trace=MultiTraceWriter([tel.trace, ring]), metrics=tel.metrics
                )
            guard = RunGuard(policy, telemetry=run_tel, label=label)
        # a fresh recorder per attempt: a retried run's series must
        # reflect only the attempt that produced the record
        recorder = CadenceRecorder(tel.series) if tel.series is not None else None
        try:
            with use_guard(guard):
                runtime, report, timings = run_app_once(
                    run_top,
                    app,
                    nodes,
                    env,
                    background_util=bg,
                    rng=run_rng,
                    params=cfg.params,
                    telemetry=run_tel,
                    series_recorder=recorder,
                )
        except NetworkPartitionedError as exc:
            # deterministic: retrying cannot help
            rec = _error_record(
                cfg, mode, i, groups_spanned(top, nodes), intensity, exc, attempt
            )
        except (RunTimeoutError, InvariantViolation) as exc:
            # budget exhaustion and broken conservation laws are
            # deterministic too: isolate, bundle, never retry
            rec = _error_record(
                cfg, mode, i, groups_spanned(top, nodes), intensity, exc, attempt
            )
            write_guard_bundle(
                top, cfg, policy, guard, ring, label, i, mode, attempt, exc, tel
            )
        except Exception as exc:
            if attempt < cfg.max_attempts:
                if cfg.retry_backoff > 0:
                    time.sleep(cfg.retry_backoff * attempt)
                continue
            rec = _error_record(
                cfg, mode, i, groups_spanned(top, nodes), intensity, exc, attempt
            )
        else:
            diag = solver_diagnostics(timings)
            if not diag["solver_converged"] and attempt < cfg.max_attempts:
                if cfg.retry_backoff > 0:
                    time.sleep(cfg.retry_backoff * attempt)
                continue
            rec = RunRecord(
                app=app.name,
                mode=mode.name,
                n_nodes=cfg.n_nodes,
                placement=cfg.placement,
                groups=groups_spanned(top, nodes),
                runtime=runtime,
                report=report,
                background_intensity=intensity,
                sample_index=i,
                attempts=attempt,
                series=recorder.result if recorder is not None else None,
                **diag,
            )
    if tel.enabled:
        wall = time.perf_counter() - t0
        m = tel.metrics
        if m.enabled:
            m.counter("campaign_samples_total", "campaign runs executed").inc()
            if not rec.ok:
                m.counter(
                    "campaign_failures_total", "campaign runs ending in error"
                ).inc()
            m.histogram(
                "campaign_sample_seconds", "wall time per campaign run"
            ).observe(wall)
        tel.event(
            "campaign.sample",
            app=app.name,
            mode=mode.name,
            sample=i,
            status=rec.status,
            error=rec.error,
            attempts=rec.attempts,
            runtime_s=rec.runtime,
            mpi_time_s=rec.report.mpi_time,
            background_intensity=intensity,
            solver_converged=rec.solver_converged,
            solver_nonconverged_phases=rec.solver_nonconverged_phases,
            solver_max_residual=rec.solver_max_residual,
            wall_ms=wall * 1e3,
        )
    return rec


def prepare_checkpoint(
    checkpoint_path: str | None,
    top: DragonflyTopology,
    cfg: CampaignConfig,
    resume: bool,
) -> dict[tuple[int, str], RunRecord]:
    """Open (or resume) a campaign checkpoint; returns completed runs."""
    done: dict[tuple[int, str], RunRecord] = {}
    if checkpoint_path is None:
        return done
    fp = campaign_fingerprint(top, cfg)
    if resume and os.path.exists(checkpoint_path):
        # a crash mid-append may have torn the final line: truncate it
        # before reading, then atomically rewrite without error and
        # superseded records (a crash mid-rewrite keeps the old file)
        ckpt.repair_tail(checkpoint_path)
        done = ckpt.load_records(checkpoint_path, fp)
        ckpt.rewrite(checkpoint_path, fp, list(done.values()))
    else:
        ckpt.write_header(checkpoint_path, fp)
    return done


def effective_jobs(jobs: int | None) -> int:
    """Resolve the worker count: explicit argument, else ``$REPRO_JOBS``."""
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


# ----------------------------------------------------------------------
# the campaign pipeline: plan -> sources -> backend -> merge -> sinks
# ----------------------------------------------------------------------

#: per-sample draws a :class:`SlotRunner` keeps (each entry holds a
#: placement plus a masked background array); modes of the same sample
#: reuse the entry
DRAW_CACHE_CAP = 4


@dataclass(frozen=True)
class RunSlot:
    """One run of a campaign's plan: its canonical index and RNG identity.

    ``index`` is the run's position in the canonical (sample-major,
    mode-minor) order: the order the serial loop executes and the order
    checkpoint records are committed in.  Pipeline stages read only these
    three fields, so a queue task (which adds its content address) serves
    as a slot too.
    """

    index: int
    sample: int
    mode: str


def plan_slots(cfg: CampaignConfig) -> list[RunSlot]:
    """Every run of the campaign, sample-major and mode-minor."""
    n = len(cfg.modes)
    return [
        RunSlot(i * n + k, i, mode.name)
        for i in range(cfg.samples)
        for k, mode in enumerate(cfg.modes)
    ]


@dataclass
class SlotResult:
    """One executed run, as a backend hands it to the merge."""

    index: int
    record: RunRecord
    #: trace events captured where the run executed; empty when the run
    #: wrote straight into the campaign's own telemetry
    events: list[dict] = field(default_factory=list)
    metrics: MetricsRegistry | None = None
    #: the executing worker (pid or queue owner); the merge maps it to a
    #: dense id
    worker: object = None


@dataclass
class CampaignOutcome:
    """What one campaign did: the records plus where each came from."""

    records: list[RunRecord] = field(default_factory=list)
    #: runs served from the result store
    hits: int = 0
    #: runs handed to the backend
    misses: int = 0
    #: runs already in the resumed checkpoint
    resumed: int = 0

    @property
    def total(self) -> int:
        return len(self.records)


#: metrics counter (name, help) per ``cache.pool`` result
_POOL_COUNTERS = {
    "hit": ("cache_pool_hits_total", "background pools read from the result store"),
    "miss": ("cache_pool_misses_total", "background pools built on a result-store miss"),
}


class CampaignContext:
    """A campaign's inputs, as every pipeline stage sees them.

    The background pool is built on first use (:meth:`background`), so a
    campaign served entirely from its checkpoint or the result store
    never builds it.  Under the ``fork`` start method pool workers
    inherit the context by memory image; it is never pickled.

    With :attr:`store` set (:func:`run_pipeline` sets it to the
    campaign's result store), a pool the campaign would build is first
    looked up in the store under its :meth:`pool_identity`, and
    committed there after a build, reporting ``cache.pool`` on
    :attr:`telemetry`.
    """

    def __init__(
        self,
        top: DragonflyTopology,
        cfg: CampaignConfig,
        background_model: BackgroundModel | None = None,
        scenarios: list[BackgroundScenario] | None = None,
    ) -> None:
        if cfg.background not in ("production", "isolated"):
            raise ValueError(f"unknown background kind {cfg.background!r}")
        self.top = top
        self.cfg = cfg
        # background scenarios are built against the pristine fabric
        # (ambient traffic predates the fault window); the job itself
        # routes on the degraded view
        self.run_top = top.with_faults(cfg.faults) if cfg.faults is not None else top
        self.modes = {m.name: m for m in cfg.modes}
        self._background = (background_model, scenarios)
        self._resolved = False
        #: a :class:`repro.service.store.RunRecordStore` holding pools
        self.store = None
        self.telemetry: Telemetry = NULL_TELEMETRY

    def _model(self) -> BackgroundModel:
        return self._background[0] or BackgroundModel(self.top)

    def _pool_rng_key(self) -> tuple:
        cfg = self.cfg
        return (cfg.seed, "bgpool", cfg.app.name, cfg.n_nodes)

    def pool_identity(self) -> dict | None:
        """Identity of the pool this campaign builds
        (:func:`repro.scheduler.background.pool_identity`); ``None`` when
        it builds none: an isolated background, or an explicit pool."""
        if self.cfg.background != "production" or self._background[1] is not None:
            return None
        return self._identity(self._model())

    def _identity(self, bm: BackgroundModel) -> dict | None:
        cfg = self.cfg
        return pool_identity(bm, self._pool_rng_key(), cfg.scenario_pool, cfg.n_nodes)

    def background(
        self,
    ) -> tuple[BackgroundModel | None, list[BackgroundScenario] | None]:
        """The ``(model, scenario pool)`` runs sample from, built once.

        A pure function of ``(top, cfg)`` when no explicit model/pool was
        given (the pool RNG is derived from the campaign seed), so a
        worker process rebuilds the identical pool from the config alone.
        """
        if not self._resolved:
            bm, scenarios = self._background
            if self.cfg.background == "production":
                bm = self._model()
                if scenarios is None:
                    scenarios = self._stored_pool(bm)
                self._background = (bm, scenarios)
            else:
                self._background = (None, None)
            self._resolved = True
        return self._background

    def _stored_pool(self, bm: BackgroundModel) -> list[BackgroundScenario]:
        """Build the pool, or read it from :attr:`store` when it holds it."""
        cfg, store, tel = self.cfg, self.store, self.telemetry
        ident = None if store is None else self._identity(bm)
        if ident is not None:
            found = store.get_pool(ident)
            if found is not None:
                scenarios = pool_from_bytes(*found, bm.default_env)
                self._pool_event("hit", ident, len(found[1]))
                return scenarios
        scenarios = bm.build_pool(
            cfg.scenario_pool, derive_rng(*self._pool_rng_key()), reserve_nodes=cfg.n_nodes
        )
        if ident is not None:
            meta, payload = pool_to_bytes(scenarios)
            self._pool_event("miss", ident, len(payload))
            try:
                store.put_pool(ident, meta, payload)
            except ckpt.StoreUnavailableError as exc:
                # as for a run: the pool is built, only its reuse is lost
                tel.event("cache.pool_put_failed", error=str(exc))
        return scenarios

    def _pool_event(self, result: str, ident: dict, nbytes: int) -> None:
        from repro.service.store import pool_key

        tel = self.telemetry
        if tel.metrics.enabled:
            tel.metrics.counter(*_POOL_COUNTERS[result]).inc()
        tel.event(
            "cache.pool",
            result=result,
            key=pool_key(ident)[:12],
            bytes=nbytes,
            store=str(self.store.root),
        )

    def lost_record(self, slot: RunSlot, exc: BaseException, attempts: int) -> RunRecord:
        """Error record for a run that never returned one (its worker
        died every time, or its queue retry budget ran out)."""
        nodes, _, intensity = sample_draws(
            self.top, self.cfg, slot.sample, *self.background()
        )
        return _error_record(
            self.cfg,
            self.modes[slot.mode],
            slot.sample,
            groups_spanned(self.top, nodes),
            intensity,
            exc,
            attempts,
        )


class SlotRunner:
    """Run one slot: per-sample draws, telemetry capture, heartbeat, run.

    The serial backend, fork-pool workers and queue workers all execute
    runs through one of these.  With ``telemetry`` set, runs write
    straight into it; otherwise each run gets a fresh capture bundle
    (``trace``/``metrics``/``series`` say what to capture) that travels
    back in its :class:`SlotResult` for the canonical merge.
    ``execute``/``draws`` default to :func:`execute_run` and
    :func:`sample_draws`; callers pass the names bound in their own
    module so a patch there takes effect.
    """

    def __init__(
        self,
        ctx: CampaignContext,
        *,
        telemetry: Telemetry | None = None,
        trace: bool = False,
        metrics: bool = False,
        series=None,
        execute=None,
        draws=None,
    ) -> None:
        self.ctx = ctx
        self.telemetry = telemetry
        self.trace = trace
        self.metrics = metrics
        self.series = series
        self.execute = execute if execute is not None else execute_run
        self.sample_draws = draws if draws is not None else sample_draws
        #: a :class:`repro.guard.WorkerHeartbeat` marked busy around
        #: every run (the watchdog's and ``queue-status``'s liveness file)
        self.heartbeat = None
        self._draws: dict[int, tuple] = {}

    def draws(self, sample: int) -> tuple[np.ndarray, np.ndarray | None, float]:
        d = self._draws.get(sample)
        if d is None:
            ctx = self.ctx
            d = self.sample_draws(ctx.top, ctx.cfg, sample, *ctx.background())
            if len(self._draws) >= DRAW_CACHE_CAP:
                self._draws.pop(next(iter(self._draws)))
            self._draws[sample] = d
        return d

    def run(self, slot: RunSlot) -> SlotResult:
        ctx = self.ctx
        nodes, bg, intensity = self.draws(slot.sample)
        tel = self.telemetry
        if tel is None:
            tel = Telemetry(
                trace=MemoryTraceWriter() if self.trace else NULL_TRACE,
                metrics=MetricsRegistry(enabled=self.metrics),
                series=self.series,
            )
        hb = self.heartbeat
        if hb is not None:
            hb.start_task()
        try:
            rec = self.execute(
                ctx.top,
                ctx.run_top,
                ctx.cfg,
                slot.sample,
                ctx.modes[slot.mode],
                nodes,
                bg,
                intensity,
                tel,
            )
        finally:
            if hb is not None:
                hb.end_task()
        if self.telemetry is not None:
            return SlotResult(slot.index, rec)
        return SlotResult(
            slot.index,
            rec,
            events=tel.trace.events if self.trace else [],
            metrics=tel.metrics if self.metrics else None,
            worker=os.getpid(),
        )


@dataclass
class SerialBackend:
    """Execute every miss in this process, in plan order.

    Backends share one shape: ``run(ctx, slots, tel, worker_ids)``
    yields a :class:`SlotResult` per slot, in any order; ``worker_ids``
    is the merge's dense-id map, for backends that announce workers.
    """

    #: the run function (default :func:`execute_run`)
    execute: object = None

    def run(self, ctx, slots, tel, worker_ids):
        runner = SlotRunner(ctx, telemetry=tel, execute=self.execute)
        for slot in slots:
            yield runner.run(slot)


class CanonicalMerge:
    """Commit the contiguous completed prefix of the plan, in plan order.

    A committed record is appended to the checkpoint (unless it was
    resumed from it); a fresh run's captured trace events are re-emitted
    tagged with a dense worker id and the run index, and its metrics are
    merged under the run index.  Checkpoint bytes and merged telemetry
    therefore do not depend on completion order, and an interrupted
    campaign leaves a clean, resumable prefix of the serial file.
    Parallel ensembles commit their results through the same merge.
    """

    def __init__(
        self,
        tel: Telemetry,
        n: int,
        checkpoint_path: str | None = None,
        *,
        index_field: str = "run_index",
        on_commit=None,
    ) -> None:
        self.tel = tel
        self.checkpoint_path = checkpoint_path
        #: the trace field carrying a re-emitted event's slot index
        self.index_field = index_field
        #: called as ``on_commit(index, record)`` for each fresh result
        self.on_commit = on_commit
        self.records: list = [None] * n
        #: results waiting for every earlier slot to commit
        self.pending: dict[int, SlotResult] = {}
        self.worker_ids: dict[object, int] = {}
        self._pos = 0

    def commit(self) -> None:
        tel = self.tel
        while self._pos < len(self.records):
            if self.records[self._pos] is None:
                res = self.pending.pop(self._pos, None)
                if res is None:
                    return
                self.records[res.index] = res.record
                if self.checkpoint_path is not None:
                    ckpt.append_record(self.checkpoint_path, res.record)
                if res.events:
                    wid = self.worker_ids.setdefault(res.worker, len(self.worker_ids))
                    for ev in res.events:
                        fields = {k: v for k, v in ev.items() if k != "ev"}
                        fields["worker"] = wid
                        fields[self.index_field] = res.index
                        tel.trace.emit(ev["ev"], **fields)
                if res.metrics is not None and tel.metrics.enabled:
                    tel.metrics.merge(res.metrics, tag=res.index)
                if self.on_commit is not None:
                    self.on_commit(res.index, res.record)
            self._pos += 1


def run_pipeline(
    ctx: CampaignContext,
    backend,
    *,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    store=None,
    **start_fields,
) -> CampaignOutcome:
    """Run one campaign: plan, fill slots from the sources, execute the
    misses on ``backend``, merge in canonical order.

    Sources are the resumed checkpoint, then ``store`` (a
    :class:`repro.service.store.RunRecordStore`) when given.  Every
    fresh ``ok`` record is put back into the store as it arrives; error
    records never are.  ``start_fields`` extend ``campaign.start``.
    """
    cfg = ctx.cfg
    tel = resolve_telemetry(telemetry)
    done = prepare_checkpoint(checkpoint_path, ctx.top, cfg, resume)
    tel.event(
        "campaign.start",
        app=cfg.app.name,
        n_nodes=cfg.n_nodes,
        modes=[m.name for m in cfg.modes],
        samples=cfg.samples,
        placement=cfg.placement,
        background=cfg.background,
        seed=cfg.seed,
        faults=cfg.faults.describe() if cfg.faults else "",
        resumed_runs=len(done),
        **start_fields,
    )
    plan = plan_slots(cfg)
    merge = CanonicalMerge(tel, len(plan), checkpoint_path)
    outcome = CampaignOutcome()
    misses: list[RunSlot] = []
    for slot in plan:
        prior = done.get((slot.sample, slot.mode))
        if prior is None:
            misses.append(slot)
        else:
            merge.records[slot.index] = prior  # already on disk
    outcome.resumed = len(plan) - len(misses)

    ctx.store, ctx.telemetry = store, tel
    with contextlib.ExitStack() as stack:
        if store is not None:
            from repro.service.store import entry_key

            fp = campaign_fingerprint(ctx.top, cfg)
            stack.enter_context(store.pinned([entry_key(fp, s.sample, s.mode) for s in plan]))
            misses = _store_lookup(store, fp, misses, merge, outcome, tel)
        outcome.misses = len(misses)
        merge.commit()  # leading hits (or a fully served campaign) commit now
        if misses:
            results = backend.run(ctx, misses, tel, merge.worker_ids)
            try:
                for res in results:
                    if store is not None:
                        _store_put(store, fp, plan[res.index], res.record, tel)
                    merge.pending[res.index] = res
                    merge.commit()
            finally:
                results.close()

    records = outcome.records = [rec for rec in merge.records if rec is not None]
    tel.event(
        "campaign.end",
        app=cfg.app.name,
        records=len(records),
        failed_runs=sum(1 for r in records if not r.ok),
        nonconverged_runs=sum(1 for r in records if not r.solver_converged),
    )
    return outcome


def _store_lookup(store, fp, misses, merge, outcome, tel) -> list[RunSlot]:
    """The store source: buffer every hit; returns the slots still missing."""
    still: list[RunSlot] = []
    for slot in misses:
        cached = store.get(fp, slot.sample, slot.mode)
        if cached is None:
            still.append(slot)
        else:
            merge.pending[slot.index] = SlotResult(
                slot.index, ckpt.record_from_dict(cached)
            )
    outcome.hits = len(misses) - len(still)
    m = tel.metrics
    if m.enabled:
        if outcome.hits:
            m.counter("cache_hits_total", "runs served from the cache").inc(
                outcome.hits
            )
        if still:
            m.counter("cache_misses_total", "runs executed on a miss").inc(len(still))
    tel.event(
        "cache.lookup",
        hits=outcome.hits,
        misses=len(still),
        resumed=outcome.resumed,
        total=len(merge.records),
        store=str(store.root),
    )
    return still


def _store_put(store, fp, slot: RunSlot, rec: RunRecord, tel: Telemetry) -> None:
    """The store sink: remember a fresh ``ok`` record."""
    if not rec.ok:
        return
    try:
        store.put(fp, slot.sample, slot.mode, ckpt.record_to_dict(rec))
    except ckpt.StoreUnavailableError as exc:
        # a full/broken cache disk degrades the store to a no-op: the
        # run is already computed, the campaign (and its checkpoint)
        # must not lose it
        tel.event("cache.put_failed", sample=slot.sample, mode=slot.mode, error=str(exc))


def run_campaign(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    queue_dir: str | None = None,
) -> list[RunRecord]:
    """Run the campaign; returns one RunRecord per (mode, sample).

    A run that raises is isolated into an error-status record instead of
    aborting the sweep.  With ``checkpoint_path`` set, finished runs are
    appended to a JSONL file; ``resume=True`` loads compatible completed
    runs from it and skips re-executing them (records come out identical
    to an uninterrupted campaign, because each run's RNG stream is
    derived independently).

    ``jobs`` > 1 dispatches the runs over that many worker processes via
    :mod:`repro.parallel`; records, checkpoint bytes, and the resume
    behaviour are identical to serial execution (see docs/PARALLEL.md).
    ``jobs=None`` reads ``$REPRO_JOBS`` (default 1).

    ``queue_dir`` hands the runs to a shared-directory work queue
    instead: any number of ``repro worker --queue DIR`` processes on any
    number of hosts execute them, and this process coordinates and
    merges — falling back to the local pool if no worker ever shows up
    (see docs/DISTRIBUTED.md).  Results stay byte-identical either way.
    """
    kw = dict(
        background_model=background_model,
        scenarios=scenarios,
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )
    if queue_dir is not None:
        from repro.dist.coordinator import run_campaign_distributed

        return run_campaign_distributed(top, cfg, queue_dir=queue_dir, jobs=jobs, **kw)
    n_jobs = effective_jobs(jobs)
    if n_jobs > 1:
        from repro.parallel.campaign import run_campaign_parallel

        return run_campaign_parallel(top, cfg, jobs=n_jobs, **kw)
    return run_pipeline(
        CampaignContext(top, cfg, background_model, scenarios),
        SerialBackend(execute_run),
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
    ).records


def runtimes_by_mode(records: list[RunRecord], *, filter_outliers: bool = True) -> dict[str, np.ndarray]:
    """Group runtimes by mode name, with the paper's outlier filter.

    Error-status records (NaN runtime) are excluded — a mode whose runs
    all failed still appears, with an empty array.
    """
    out: dict[str, np.ndarray] = {}
    for mode in sorted({r.mode for r in records}):
        v = np.array(
            [r.runtime for r in records if r.mode == mode and r.ok], dtype=np.float64
        )
        v = v[np.isfinite(v)]
        out[mode] = remove_outliers(v) if filter_outliers else v
    return out


def stats_by_mode(records: list[RunRecord]) -> dict[str, SampleStats]:
    """Mean/std/n per mode (Table II's left columns)."""
    return {m: SampleStats.from_values(v) for m, v in runtimes_by_mode(records).items()}
