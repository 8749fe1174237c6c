"""The three benchmark workloads and the metrics computed from them.

Every workload is a closed loop with one client: it issues a campaign,
waits for its records, checks them, and only then issues the next.
Each campaign request falls into one class:

* ``cold``        -- every run executes and the pool inputs are new;
* ``repeat_pool`` -- every run executes, but the background pool has the
  inputs of an earlier campaign (same seed, app and size; other modes);
* ``warm``        -- every run is served without executing (the result
  store, or a finished checkpoint on ``--resume``).

The workloads differ in which layer does the work (see README.md):
``theta-sweep`` is pool, path and solver bound; ``service-mix`` is
HTTP, journal and store bound; ``mini-fanout`` is fork-pool dispatch
and checkpoint bound.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
import urllib.request
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

from repro.apps import PRODUCTION_APPS, app_by_name
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.experiment import CampaignConfig, run_campaign
from repro.dist.manifest import campaign_to_manifest
from repro.service import CampaignService, RunRecordStore, client, run_campaign_cached
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, NullTraceWriter, Telemetry
from repro.topology.systems import mini, theta

try:  # the path memo is slated for removal (ROADMAP 2d)
    from repro.topology import pathcache
except ImportError:
    pathcache = None

from tracer import Tracer, span_cost_s

# bound before a traced run patches the module attribute, so the
# benchmark's own output checks never show up as program spans
_record_to_dict = ckpt.record_to_dict

#: set-ups spread over the measured loop of an untraced run, after the
#: one before it; ``setup_s`` is the median of all of them
SETUP_REPS = 15
#: a tail has at least this many samples beyond it
TAIL_MIN_BEYOND = 10
#: a tail is the median of the tails of consecutive windows of at least
#: this many samples, so that a few seconds of host contention move one
#: window's tail and not the run's
TAIL_WINDOW = 50
#: fork-pool workers in mini-fanout (`compare -j 2` on a 2-CPU host)
FANOUT_JOBS = 2
#: the event-stream poll of the service; at most a tenth of warm_p50_s
SERVICE_POLL_S = 0.001

CLASSES = ("cold", "repeat_pool", "warm")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_s", "s"),
    ("repeat_pool_s", "s"),
    ("warm_s", "s"),
    ("cold_p50_s", "s"),
    ("cold_tail_s", "s"),
    ("warm_p50_s", "s"),
    ("warm_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("runs_per_s", "1/s"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("scheduler.build_pool_s", "s"),
    ("scheduler.build_scenario_calls", "count"),
    ("network.solve_fluid_calls", "count"),
    ("network.solve_fluid_self_s", "s"),
    ("network.solver_iterations", "count"),
    ("topology.paths_calls", "count"),
    ("topology.paths_s", "s"),
    ("topology.path_memo_hits", "count"),
    ("topology.path_memo_misses", "count"),
    ("topology.path_memo_evictions", "count"),
    ("core.execute_run_calls", "count"),
    ("core.execute_run_s", "s"),
    ("core.checkpoint_append_calls", "count"),
    ("core.checkpoint_append_s", "s"),
    ("core.record_codec_s", "s"),
    ("service.store_get_calls", "count"),
    ("service.store_get_s", "s"),
    ("service.store_put_calls", "count"),
    ("service.store_put_s", "s"),
    ("service.store_hits", "count"),
    ("service.store_misses", "count"),
    ("service.journal_record_calls", "count"),
    ("service.journal_record_s", "s"),
    ("dist.manifest_to_campaign_s", "s"),
    ("service.http_submit_s", "s"),
    ("service.wait_s", "s"),
    ("telemetry.job_events", "count"),
    ("parallel.campaign_s", "s"),
    ("parallel.overhead_s", "s"),
    ("startup.import_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


@dataclass
class Request:
    """One campaign the client issued and waited for."""

    cls: str
    #: client view: from the call until the records are in hand
    latency_s: float
    #: executor view: the campaign's own wall time
    server_s: float
    runs: int
    executed: int
    ok: bool


def canon(records) -> list[str]:
    """Records as canonical JSON lines (RunRecords or their dicts)."""
    return [
        json.dumps(r if isinstance(r, dict) else _record_to_dict(r), sort_keys=True)
        for r in records
    ]


def campaign_seeds(label: str, seed: int):
    """Endless seeded stream of distinct campaign seeds (never 0, the
    warm-up seed), so no campaign seed repeats within a run."""
    rng = random.Random(f"{label}:{seed}")
    seen = {0}
    while True:
        s = rng.randrange(1, 2**31)
        if s not in seen:
            seen.add(s)
            yield s


def stratified(items: list, rng: random.Random):
    """Endless stream visiting every item once per shuffled cycle, so
    every run sees the same mix up to its last partial cycle."""
    while True:
        cycle = list(items)
        rng.shuffle(cycle)
        yield from cycle


class Workload:
    """One closed-loop workload: set-up, a measured loop, checks."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        #: set for the measured loop of a traced run
        self.tracer: Tracer | None = None
        self.rng = random.Random(f"{self.name}:mix:{seed}")
        self.seeds = campaign_seeds(self.name, seed)
        #: whole-run output checks beyond the per-request ones
        self.checks = 0
        self.failed_checks = 0
        self.notes: list[str] = []
        #: path-memo activity of benchmark-only work inside the loop
        self.memo_excluded: Counter[str] = Counter()
        self._files = 0

    def path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"{stem}-{self._files}")

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def begin(self, cls: str) -> None:
        """Spans opened from here on belong to a request of class ``cls``."""
        if self.tracer is not None:
            self.tracer.tag = cls

    # subclasses fill these in
    def setup(self) -> None: ...
    def prepare(self) -> None: ...
    def unit(self) -> list[Request]: ...
    def finish(self, requests: list[Request]) -> None: ...
    def close(self) -> None: ...


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class ThetaSweep(Workload):
    """Cold compare, repeat-pool campaign and warm replay on theta."""

    name = "theta-sweep"

    def setup(self) -> None:
        self.top = theta()
        self.store = RunRecordStore(self.path("store"))
        warm = CampaignConfig(
            app=app_by_name("milc")(), n_nodes=64, modes=(AD0,), samples=1,
            seed=0, scenario_pool=1,
        )
        for _ in range(2):  # a cold run, then its replay from the store
            run_campaign_cached(
                self.top, warm, store=self.store, checkpoint_path=self.path("warmup")
            )

    def unit(self) -> list[Request]:
        s = next(self.seeds)
        milc = app_by_name("milc")
        cfg_a = CampaignConfig(app=milc(), n_nodes=256, samples=8, modes=(AD0, AD3), seed=s)
        cfg_b = CampaignConfig(app=milc(), n_nodes=256, samples=8, modes=(AD1, AD2), seed=s)
        out: list[Request] = []
        cold = None
        for cls, cfg in (("cold", cfg_a), ("repeat_pool", cfg_b), ("warm", cfg_a)):
            self.begin(cls)
            res, wall = _timed(
                run_campaign_cached, self.top, cfg, store=self.store,
                checkpoint_path=self.path(f"{cls}-{s}"),
            )
            ok = all(r.ok for r in res.records) and len(res.records) == 16
            if cls == "warm":
                ok = ok and res.misses == 0 and canon(res.records) == cold
            else:
                ok = ok and res.hits == 0
            if cls == "cold":
                cold = canon(res.records)
            out.append(Request(cls, wall, wall, len(res.records), res.misses, ok))
        return out


class ServiceMix(Workload):
    """Small paper-app campaigns through the HTTP service: new and repeats."""

    name = "service-mix"
    #: request classes, cycled
    PATTERN = ("cold", "warm", "repeat_pool", "warm")
    #: job sizes; at 64 nodes Rayleigh and HACC cost 3x the median, and
    #: those two combinations alone would fill the ten samples beyond
    #: the cold tail, putting it on the cliff between them and the rest
    SIZES = (16, 32)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        combos = [(app.name, n) for app in PRODUCTION_APPS for n in self.SIZES]
        self.combos = stratified(combos, self.rng)
        self.svc: CampaignService | None = None
        self.first: list[tuple[dict, list[str]]] = []  # (manifest, records)
        self.last_cold: tuple[str, int, int] | None = None
        self.k = 0
        self.waits = 0

    def manifest(self, app: str, nodes: int, seed: int, modes) -> dict:
        cfg = CampaignConfig(
            app=app_by_name(app)(), n_nodes=nodes, samples=4, modes=modes, seed=seed
        )
        return campaign_to_manifest(self.top, cfg, NULL_TELEMETRY)

    def setup(self) -> None:
        self.top = mini()
        root = self.path("store")
        self.store = RunRecordStore(root)
        self.svc = CampaignService(
            self.store, jobs=1, poll=SERVICE_POLL_S, journal_dir=os.path.join(root, "journal")
        ).start()
        warm = self.manifest("milc", 16, 0, (AD0, AD3))
        for _ in range(2):
            self.roundtrip(warm)

    def prepare(self) -> None:
        self.hits0 = client.cache_stats(self.svc.url)["cache_hits_total"]

    def roundtrip(self, manifest: dict) -> tuple[dict, float, int]:
        """Submit, follow the job's event stream to its end, fetch the
        records; returns (status document, latency, events seen)."""
        url = self.svc.url
        t0 = time.perf_counter()
        with self.span("service.http_submit"):
            jid = client.submit(url, manifest)["id"]
        with self.span("service.wait"):
            events = 0
            with urllib.request.urlopen(f"{url}/campaigns/{jid}/events", timeout=120) as resp:
                for line in resp:
                    if b'"service.end"' in line:
                        break
                    events += 1
            doc = client.status(url, jid)
        latency = time.perf_counter() - t0
        self.waits += 1
        return doc, latency, events

    def unit(self) -> list[Request]:
        cls = self.PATTERN[self.k % len(self.PATTERN)]
        self.k += 1
        if cls == "cold":
            app, nodes = next(self.combos)
            self.last_cold = (app, nodes, next(self.seeds))
            manifest, expect = self.manifest(*self.last_cold, (AD0, AD3)), None
        elif cls == "repeat_pool":
            manifest, expect = self.manifest(*self.last_cold, (AD1, AD2)), None
        else:
            manifest, expect = self.first[self.rng.randrange(len(self.first))]
        self.begin(cls)
        doc, latency, events = self.roundtrip(manifest)
        if self.tracer is not None:
            self.tracer.count("telemetry.job_events", events)
        records = doc.get("records", [])
        cache = doc.get("cache", {})
        got = canon(records)
        ok = doc.get("state") == "done" and len(records) == 8
        ok = ok and all(r.get("status") == "ok" for r in records)
        if expect is None:
            ok = ok and cache.get("hits") == 0
            self.first.append((manifest, got))
        else:
            ok = ok and cache.get("misses") == 0 and got == expect
        server = float(doc["finished_at"]) - float(doc["submitted_at"])
        return [Request(cls, latency, server, len(records), cache.get("misses", 0), ok)]

    def finish(self, requests: list[Request]) -> None:
        self.checks += 1
        hits = client.cache_stats(self.svc.url)["cache_hits_total"] - self.hits0
        expect = sum(r.runs for r in requests if r.cls == "warm")
        if hits != expect:
            self.failed_checks += 1
            self.notes.append(f"/cache/stats hits {hits} != warm runs {expect}")
        self.notes.append(
            f"waits: {self.waits} event-stream follows, service poll {SERVICE_POLL_S} s"
        )

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


class _ResumedRuns(NullTraceWriter):
    """A disabled trace sink, so the program takes its untraced paths,
    that keeps ``resumed_runs`` of each ``campaign.start`` event."""

    def __init__(self) -> None:
        super().__init__()
        self.resumed: list[int] = []

    def emit(self, event: str, /, **fields) -> None:
        if event == "campaign.start":
            self.resumed.append(fields["resumed_runs"])


class MiniFanout(Workload):
    """Many cheap runs through the fork pool, with a checkpoint."""

    name = "mini-fanout"
    #: one app, so campaign cost varies with the program, not the mix;
    #: a MILC run on 16 nodes costs about 7 ms
    APP = "milc"
    SAMPLES = 48
    NODES = 16

    def config(self, seed: int, modes) -> CampaignConfig:
        return CampaignConfig(
            app=app_by_name(self.APP)(), n_nodes=self.NODES, samples=self.SAMPLES,
            modes=modes, seed=seed,
        )

    def setup(self) -> None:
        self.top = mini()
        warm = CampaignConfig(
            app=app_by_name("milc")(), n_nodes=self.NODES, samples=2, modes=(AD0, AD3), seed=0
        )
        run_campaign(self.top, warm, jobs=FANOUT_JOBS, checkpoint_path=self.path("warmup"))

    def prepare(self) -> None:
        # the serial reference for the first campaign's checkpoint bytes
        s = next(self.seeds)
        path = self.path("reference")
        run_campaign(self.top, self.config(s, (AD0, AD3)), jobs=1, checkpoint_path=path)
        with open(path, "rb") as f:
            self.reference = f.read()
        self.pending = [s]

    def replica(self, cfg: CampaignConfig) -> None:
        """Traced runs only: the same campaign serially, in-process, so
        execute_run is visible (fork children's spans are not)."""
        self.begin("replica")
        before = memo_stats()
        run_campaign(self.top, cfg, jobs=1, checkpoint_path=self.path("replica"))
        for key, value in memo_stats().items():
            self.memo_excluded[key] += value - before[key]

    def unit(self) -> list[Request]:
        first = bool(self.pending)
        s = self.pending.pop() if first else next(self.seeds)
        out: list[Request] = []
        ck_a = self.path(f"cold-{s}")
        cold = None
        for cls, modes, path, resume in (
            ("cold", (AD0, AD3), ck_a, False),
            ("repeat_pool", (AD1, AD2), self.path(f"repeat-{s}"), False),
            ("warm", (AD0, AD3), ck_a, True),
        ):
            cfg = self.config(s, modes)
            sink = _ResumedRuns()
            tel = Telemetry(trace=sink, metrics=MetricsRegistry(enabled=False))
            self.begin(cls)
            records, wall = _timed(
                run_campaign, self.top, cfg, jobs=FANOUT_JOBS, telemetry=tel,
                checkpoint_path=path, resume=resume,
            )
            executed = len(records) - sum(sink.resumed)
            ok = len(records) == 2 * self.SAMPLES and all(r.ok for r in records)
            # a warm resume executes nothing; the other classes execute everything
            ok = ok and len(sink.resumed) == 1 and executed == (0 if resume else len(records))
            if cls == "cold":
                cold = canon(records)
                if first:
                    with open(path, "rb") as f:
                        same = f.read() == self.reference
                    if not same:
                        self.notes.append("first campaign checkpoint != serial reference")
                    ok = ok and same
            elif cls == "warm":
                ok = ok and canon(records) == cold
            out.append(Request(cls, wall, wall, len(records), executed, ok))
            if self.tracer is not None and not resume:
                self.replica(cfg)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ThetaSweep, ServiceMix, MiniFanout)
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def window_tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with
    ``TAIL_MIN_BEYOND`` samples beyond it: the 11th-largest sample, at
    percentile ``100 * (n - 10) / n``.  The level moves smoothly with the
    sample count instead of jumping between fixed percentiles.  Below
    the p50 (fewer than 21 samples) the p50 stands in."""
    vals = sorted(values)
    n = len(vals)
    rank = n - TAIL_MIN_BEYOND
    if rank <= n / 2:
        return 50.0, statistics.median(vals)
    return 100.0 * rank / n, vals[rank - 1]


def tail(values: list[float]) -> tuple[int, float, float]:
    """``(windows, percentile, value)``: the samples, in the order they
    were taken, split into as many consecutive windows of at least
    ``TAIL_WINDOW`` samples as they fill (at least one), and the median
    of the windows' tails (:func:`window_tail`); the percentile is that
    of the first window.  A burst of contention on the host inflates
    the few samples it covers, which alone would fill the 10 beyond a
    run-wide tail; here it moves the tail of one window of several."""
    w = max(1, len(values) // TAIL_WINDOW)
    bounds = [len(values) * i // w for i in range(w + 1)]
    tails = [window_tail(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    return w, tails[0][0], statistics.median(v for _, v in tails)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    requests: list[Request], setup_times: list[float], wall: float
) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics plus one descriptive line per metric."""
    by = {c: [r for r in requests if r.cls == c] for c in CLASSES}
    vals: dict[str, float] = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": len(requests) / wall,
        "runs_per_s": sum(r.executed for r in requests) / wall,
    }
    lines = [
        f"setup_s: median of {len(setup_times)} set-ups",
        f"jobs_per_s: {len(requests)} campaigns in {wall:.2f} s",
        f"runs_per_s: {sum(r.executed for r in requests)} executed runs in {wall:.2f} s",
    ]
    for c in CLASSES:
        vals[f"{c}_s"] = statistics.median(r.server_s for r in by[c])
        lines.append(f"{c}_s: median executor wall of {len(by[c])} {c} campaigns")
    for c in ("cold", "warm"):
        lat = [r.latency_s for r in by[c]]
        w, p, v = tail(lat)
        vals[f"{c}_p50_s"] = statistics.median(lat)
        vals[f"{c}_tail_s"] = v
        where = f"{len(lat)} {c} latencies"
        if w > 1:
            where = f"each of {w} windows of {len(lat) // w}+ of {where}, median"
        lines.append(
            f"{c}_tail_s: p{p:.1f} of {where}"
            + ("" if p > 50 else " (fewer than 21 samples: the p50 stands in)")
        )
    return vals, lines


def per_layer(
    tracer: Tracer,
    requests: list[Request],
    memo: dict[str, int],
    import_s: float,
    wall: float,
) -> dict[str, float]:
    """Per-layer metrics, each per campaign request of the traced run."""
    n = len(requests)
    req = tracer.totals(CLASSES)
    with_replica = tracer.totals(CLASSES + ("replica",))
    replica = tracer.totals(("replica",))

    def total(name: str, field: str = "total_s", table=req) -> float:
        return table.get(name, {}).get(field, 0.0)

    def calls(name: str, table=req) -> float:
        return table.get(name, {}).get("calls", 0)

    serial_exec = total("core.execute_run", table=replica)
    overhead = total("parallel.campaign") - serial_exec / FANOUT_JOBS if serial_exec else 0.0
    raw = {
        "scheduler.build_pool_s": total("scheduler.build_pool"),
        "scheduler.build_scenario_calls": calls("scheduler.build_scenario"),
        "network.solve_fluid_calls": calls("network.solve_fluid"),
        "network.solve_fluid_self_s": total("network.solve_fluid", "self_s"),
        "network.solver_iterations": tracer.counted("network.solver_iterations", CLASSES),
        "topology.paths_calls": calls("topology.paths"),
        "topology.paths_s": total("topology.paths"),
        "topology.path_memo_hits": memo["hits"],
        "topology.path_memo_misses": memo["misses"],
        "topology.path_memo_evictions": memo["evictions"],
        "core.execute_run_calls": calls("core.execute_run", table=with_replica),
        "core.execute_run_s": total("core.execute_run", table=with_replica),
        "core.checkpoint_append_calls": calls("core.checkpoint_append"),
        "core.checkpoint_append_s": total("core.checkpoint_append"),
        "core.record_codec_s": total("core.record_codec"),
        "service.store_get_calls": calls("service.store_get"),
        "service.store_get_s": total("service.store_get"),
        "service.store_put_calls": calls("service.store_put"),
        "service.store_put_s": total("service.store_put"),
        "service.store_hits": tracer.counted("service.store_hits", CLASSES),
        "service.store_misses": tracer.counted("service.store_misses", CLASSES),
        "service.journal_record_calls": calls("service.journal_record"),
        "service.journal_record_s": total("service.journal_record"),
        "dist.manifest_to_campaign_s": total("dist.manifest_to_campaign"),
        "service.http_submit_s": total("service.http_submit"),
        "service.wait_s": total("service.wait"),
        "telemetry.job_events": tracer.counted("telemetry.job_events", CLASSES),
        "parallel.campaign_s": total("parallel.campaign"),
        "parallel.overhead_s": overhead,
    }
    out = {k: v / n for k, v in raw.items()}
    out["startup.import_s"] = import_s
    out["trace.overhead_frac"] = len(tracer.spans) * span_cost_s() / wall
    return out


#: spans shown per request class in the traced run's breakdown
BREAKDOWN = (
    ("scheduler.build_pool", "total_s", "pool"),
    ("topology.paths", "total_s", "paths"),
    ("network.solve_fluid", "self_s", "solve self"),
    ("core.execute_run", "total_s", "execute_run"),
    ("service.store_get", "total_s", "store get"),
    ("service.store_put", "total_s", "store put"),
    ("service.journal_record", "total_s", "journal"),
    ("core.checkpoint_append", "total_s", "ckpt append"),
)


def class_breakdown(tracer: Tracer, requests: list[Request]) -> list[str]:
    """One line per request class: its median wall beside the mean time
    per request in the main layers."""
    lines = []
    for cls in CLASSES:
        mine = [r for r in requests if r.cls == cls]
        if not mine:
            continue
        spans = tracer.totals((cls,))
        parts = [
            f"{label} {spans[name][field] / len(mine):.4f}"
            for name, field, label in BREAKDOWN
            if name in spans
        ]
        wall = statistics.median(r.server_s for r in mine)
        lines.append(f"{cls}: {wall:.4f} s per campaign; s per campaign: " + ", ".join(parts))
    return lines


def clear_memo() -> None:
    if pathcache is not None:
        pathcache.clear_path_cache()


def memo_stats() -> dict[str, int]:
    if pathcache is None:
        return {"hits": 0, "misses": 0, "evictions": 0}
    stats = pathcache.path_cache_stats()
    return {k: stats[k] for k in ("hits", "misses", "evictions")}


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every worker process the run forked has ended (the
    fork pool shuts down without waiting for its workers)."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def timed_setup(wl: Workload) -> float:
    """One set-up.  Each starts with an empty path memo and no leftover
    pool workers, so none reuses or competes with what an earlier one
    started."""
    clear_memo()
    reap_children()
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def spare_setup(name: str, seed: int, workdir: str) -> float:
    """A set-up of a throw-away workload in its own directory, made
    between two units of the measured loop and then undone."""
    d = os.path.join(workdir, "spare-setup")
    os.makedirs(d)
    spare = WORKLOADS[name](seed, d)
    try:
        return timed_setup(spare)
    finally:
        spare.close()
        shutil.rmtree(d, ignore_errors=True)
        clear_memo()
        reap_children()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: str, import_s: float
) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, human-readable lines)."""
    tracer = Tracer() if trace else None
    wl = WORKLOADS[name](seed, workdir)
    try:
        setup_times = [timed_setup(wl)]
        wl.prepare()
        clear_memo()
        reap_children()
        if tracer is not None:
            wl.tracer = tracer.install()
        requests: list[Request] = []
        units: list[float] = []
        while True:
            u0 = time.perf_counter()
            requests += wl.unit()
            units.append(time.perf_counter() - u0)
            # Spare set-ups, spread evenly over the loop, so that setup_s
            # samples the same swings of the host as the loop does.  A
            # traced run reports no setup_s and makes none.
            while tracer is None and len(setup_times) < 1 + SETUP_REPS * sum(units) / seconds:
                setup_times.append(spare_setup(name, seed, workdir))
            # stop at the unit boundary nearest the time budget, which the
            # spare set-ups do not use up
            if sum(units) + statistics.median(units) / 2 > seconds:
                break
        wall = sum(units)
        if tracer is not None:
            tracer.uninstall()  # the output checks below are not traced
        memo = {k: v - wl.memo_excluded[k] for k, v in memo_stats().items()}
        wl.finish(requests)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
        reap_children()

    failed = sum(1 for r in requests if not r.ok) + wl.failed_checks
    attempted = len(requests) + wl.checks
    e2e, lines = end_to_end(requests, setup_times, wall)
    if trace:
        values = per_layer(tracer, requests, memo, import_s, wall)
        lines += class_breakdown(tracer, requests)
        units_of = dict(PER_LAYER)
    else:
        values = e2e
        units_of = dict(END_TO_END)
    lines += wl.notes
    if tracer is not None and tracer.missing:
        lines.append("not traced, absent from the program: " + ", ".join(tracer.missing))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units_of[k]} for k in units_of},
    }
    return result, lines
