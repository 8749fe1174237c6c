"""The background pool as a content-addressed artifact of the result store.

A campaign with a :class:`RunRecordStore` reads its background pool from
the store when a campaign with the same pool inputs already built it,
and commits the pool after a build otherwise.  The claims under test:

* **identity completeness** — mutating any input of the pool identity
  changes the key if and only if the built pool's bytes change; the
  campaign fields that never reach ``build_pool`` (modes, samples, the
  runs' solver settings, ``uniform_env``, placement, the campaign's
  fault schedule) leave it unchanged;
* **reuse** — campaigns that differ only in their modes build the pool
  once, and every record and checkpoint byte equals store-less
  ``run_campaign``;
* **damage** — a truncated, bit-flipped or misaddressed artifact is
  quarantined, counted as a pool miss and rebuilt, and ``verify()``
  reports it; a failed pool commit degrades to an event.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import HACC, MILC
from repro.chaos import ChaosSchedule, active, deactivate
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.experiment import CampaignConfig, CampaignContext, run_campaign
from repro.faults import FaultSchedule
from repro.mpi.env import RoutingEnv
from repro.network.fluid import FluidParams
from repro.scheduler import background as bgmod
from repro.scheduler import workload as wlmod
from repro.scheduler.background import (
    BackgroundModel,
    pool_from_bytes,
    pool_identity,
    pool_to_bytes,
)
from repro.scheduler.workload import JobSizeMix, WorkloadModel
from repro.service import CampaignService, RunRecordStore, client, run_campaign_cached
from repro.service.store import pool_key
from repro.telemetry import MemoryTraceWriter, MetricsRegistry, Telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.systems import mini, toy
from repro.util import derive_rng

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

#: job sizes that fit the small test systems (the production mix starts
#: at 128 nodes, which leaves a mini/toy pool without a single job)
SMALL_MIX = JobSizeMix(sizes=(4, 8, 16))


@pytest.fixture(autouse=True)
def _no_leftover_schedule():
    deactivate()
    yield
    deactivate()


def _model(top, **kw) -> BackgroundModel:
    mix = kw.pop("mix", SMALL_MIX)
    return BackgroundModel(top, workload=WorkloadModel(top, mix=mix), **kw)


def _cfg(**kw):
    kw.setdefault("samples", 2)
    kw.setdefault("seed", 11)
    kw.setdefault("modes", (AD0, AD3))
    kw.setdefault("scenario_pool", 3)
    return CampaignConfig(app=MILC(), n_nodes=16, **kw)


@pytest.fixture
def build_calls(monkeypatch):
    """Counts ``BackgroundModel.build_pool`` calls."""
    calls = []
    real = BackgroundModel.build_pool

    def counted(self, *a, **k):
        calls.append(1)
        return real(self, *a, **k)

    monkeypatch.setattr(BackgroundModel, "build_pool", counted)
    return calls


def _traced():
    return Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry(enabled=True))


def _pool_events(tel, name="cache.pool"):
    return [e for e in tel.trace.events if e["ev"] == name]


def _dicts(records):
    return [ckpt.record_to_dict(r) for r in records]


# ----------------------------------------------------------------------
# identity completeness
# ----------------------------------------------------------------------
BASE_KEY = (11, "bgpool", "milc", 16)


def _pool_bytes(bm, rng_key=BASE_KEY, n=2, reserve=16) -> bytes:
    meta, payload = pool_to_bytes(
        bm.build_pool(n, derive_rng(*rng_key), reserve_nodes=reserve)
    )
    return json.dumps(meta).encode() + payload


def _rebuilt(top: DragonflyTopology, **params) -> DragonflyTopology:
    return DragonflyTopology(replace(top.params, **params), seed=top.seed)


def _fluid_constant(monkeypatch):
    monkeypatch.setattr(bgmod, "POOL_FLUID_PARAMS", FluidParams(k_min=2, k_nonmin=2, n_iter=2))


def _rates_constant(monkeypatch):
    monkeypatch.setitem(bgmod.ARCHETYPE_RATES, "stencil", 1.0e9)


def _weights_constant(monkeypatch):
    monkeypatch.setitem(wlmod.ARCHETYPE_WEIGHTS, "quiet", 0.9)
    monkeypatch.setitem(bgmod.ARCHETYPE_WEIGHTS, "quiet", 0.9)


#: every identity input -> how to mutate it.  A mutation returns
#: ``(model, rng_key, n_scenarios, reserve_nodes)``.
TOP = mini()
IDENTITY_MUTATIONS = {
    "topology.n_groups": lambda: (_model(_rebuilt(TOP, n_groups=3)),),
    "topology.chassis_per_group": lambda: (_model(_rebuilt(TOP, chassis_per_group=3)),),
    "topology.routers_per_chassis": lambda: (_model(_rebuilt(TOP, routers_per_chassis=6)),),
    "topology.nodes_per_router": lambda: (_model(_rebuilt(TOP, nodes_per_router=3)),),
    "topology.n_compute_nodes": lambda: (_model(_rebuilt(TOP, n_compute_nodes=100)),),
    "topology.cables_per_group_pair": lambda: (_model(_rebuilt(TOP, cables_per_group_pair=3)),),
    "topology.lanes_per_cable": lambda: (_model(_rebuilt(TOP, lanes_per_cable=1)),),
    "topology.rank2_links_per_bundle": lambda: (_model(_rebuilt(TOP, rank2_links_per_bundle=1)),),
    "topology.rank1_bw_bidir": lambda: (_model(_rebuilt(TOP, rank1_bw_bidir=2.0e9)),),
    "topology.rank2_bw_bidir": lambda: (_model(_rebuilt(TOP, rank2_bw_bidir=2.0e9)),),
    "topology.rank3_bw_bidir": lambda: (_model(_rebuilt(TOP, rank3_bw_bidir=1.0e9)),),
    "topology.nic_bw_bidir": lambda: (_model(_rebuilt(TOP, nic_bw_bidir=2.0e9)),),
    "topology.seed": lambda: (_model(mini(seed=1)),),
    "topology.faults": lambda: (
        _model(TOP.with_faults(FaultSchedule.parse("rank3:0.3", seed=2))),
    ),
    "model.target_fill": lambda: (_model(TOP, target_fill=0.5),),
    "model.default_env": lambda: (_model(TOP, default_env=RoutingEnv.uniform(AD3)),),
    "model.mix": lambda: (_model(TOP, mix=JobSizeMix(sizes=(8, 16, 32))),),
    "rng_key.seed": lambda: (_model(TOP), (12, "bgpool", "milc", 16)),
    "rng_key.app": lambda: (_model(TOP), (11, "bgpool", "hacc", 16)),
    "rng_key.n_nodes": lambda: (_model(TOP), (11, "bgpool", "milc", 32)),
    "scenario_pool": lambda: (_model(TOP), BASE_KEY, 3),
    "reserve_nodes": lambda: (_model(TOP), BASE_KEY, 2, 64),
}

#: module constants ``build_scenario`` reads, patched for one case
CONSTANT_MUTATIONS = {
    "model.archetype_rates": _rates_constant,
    "model.archetype_weights": _weights_constant,
    "model.fluid": _fluid_constant,
}

#: model fields outside the identity: they act per run, never on the pool
NON_IDENTITY_MUTATIONS = {
    "model.intensity_log_mean": lambda: (_model(TOP, intensity_log_mean=-2.0),),
    "model.intensity_log_sigma": lambda: (_model(TOP, intensity_log_sigma=0.9),),
    "topology.name": lambda: (_model(_rebuilt(TOP, name="renamed")),),
}


def _key_and_bytes(model, rng_key=BASE_KEY, n=2, reserve=16):
    ident = pool_identity(model, rng_key, n, reserve)
    return pool_key(ident), _pool_bytes(model, rng_key, n, reserve)


@pytest.fixture(scope="module")
def base():
    return _key_and_bytes(_model(TOP))


def test_base_pool_has_traffic(base):
    """The identity cases below only mean something on a non-empty pool."""
    _, data = base
    meta, payload = json.loads(data[: data.index(b"]") + 1]), data[data.index(b"]") + 1 :]
    assert all(m["n_jobs"] > 0 for m in meta)
    assert any(payload)


@pytest.mark.parametrize("field", sorted(IDENTITY_MUTATIONS))
def test_identity_field_changes_key_and_bytes(base, field):
    key, data = _key_and_bytes(*IDENTITY_MUTATIONS[field]())
    assert key != base[0]
    assert data != base[1]


@pytest.mark.parametrize("field", sorted(CONSTANT_MUTATIONS))
def test_identity_constant_changes_key_and_bytes(base, field, monkeypatch):
    CONSTANT_MUTATIONS[field](monkeypatch)
    key, data = _key_and_bytes(_model(TOP))
    assert key != base[0]
    assert data != base[1]


@pytest.mark.parametrize("field", sorted(NON_IDENTITY_MUTATIONS))
def test_non_identity_field_keeps_key_and_bytes(base, field):
    key, data = _key_and_bytes(*NON_IDENTITY_MUTATIONS[field]())
    assert key == base[0]
    assert data == base[1]


def test_identity_covers_every_topology_parameter():
    """In the style of SITE_EXERCISES == SITES: a new DragonflyParams
    field fails here until it has a mutation case above."""
    from dataclasses import fields

    from repro.topology.dragonfly import DragonflyParams

    names = {f"topology.{f.name}" for f in fields(DragonflyParams)}
    covered = set(IDENTITY_MUTATIONS) | set(NON_IDENTITY_MUTATIONS)
    assert names - {"topology.name"} <= covered
    assert "topology.name" in NON_IDENTITY_MUTATIONS


def test_identity_round_trips_through_json():
    ident = pool_identity(_model(TOP), BASE_KEY, 2, 16)
    assert json.loads(json.dumps(ident)) == ident


def test_custom_model_class_is_never_stored():
    class Tweaked(BackgroundModel):
        pass

    assert pool_identity(Tweaked(TOP), BASE_KEY, 2, 16) is None


@pytest.mark.parametrize(
    "change",
    [
        {"modes": (AD1, AD2)},
        {"samples": 5},
        {"params": FluidParams(n_iter=2)},
        {"uniform_env": False},
        {"placement": "random"},
        {"faults": FaultSchedule.parse("rank3:0.2", seed=1)},
        {"max_attempts": 3},
    ],
    ids=lambda c: next(iter(c)),
)
def test_campaign_fields_outside_the_pool_keep_its_identity(change):
    ident = CampaignContext(TOP, _cfg()).pool_identity()
    assert ident is not None
    assert CampaignContext(TOP, _cfg(**change)).pool_identity() == ident


def test_campaign_pool_identity_matches_what_it_builds():
    cfg = _cfg()
    assert CampaignContext(TOP, cfg).pool_identity() == pool_identity(
        BackgroundModel(TOP), (cfg.seed, "bgpool", cfg.app.name, 16), cfg.scenario_pool, 16
    )


def test_campaigns_that_build_no_pool_have_no_identity():
    assert CampaignContext(TOP, _cfg(background="isolated")).pool_identity() is None
    pool = _model(TOP).build_pool(1, derive_rng(0), reserve_nodes=16)
    assert CampaignContext(TOP, _cfg(), scenarios=pool).pool_identity() is None


def test_mini_topology_seeds_never_share_a_pool():
    a = CampaignContext(mini(seed=0), _cfg()).pool_identity()
    b = CampaignContext(mini(seed=1), _cfg()).pool_identity()
    assert pool_key(a) != pool_key(b)


def test_toy_identity_fields_reach_the_key():
    t = toy()
    base_key = pool_key(pool_identity(_model(t), BASE_KEY, 2, 8))
    assert pool_key(pool_identity(_model(toy(seed=3)), BASE_KEY, 2, 8)) != base_key
    assert pool_key(pool_identity(_model(t), BASE_KEY, 2, 4)) != base_key


def test_codec_round_trip_is_exact():
    bm = _model(TOP)
    pool = bm.build_pool(3, derive_rng(*BASE_KEY), reserve_nodes=16)
    back = pool_from_bytes(*pool_to_bytes(pool), bm.default_env)
    for a, b in zip(pool, back):
        assert a.util.dtype == b.util.dtype and a.util.tobytes() == b.util.tobytes()
        assert (a.n_jobs, a.fill, a.default_env) == (b.n_jobs, b.fill, b.default_env)
    with pytest.raises(ValueError):
        meta, payload = pool_to_bytes(pool)
        pool_from_bytes(meta, payload[:-8], bm.default_env)


# ----------------------------------------------------------------------
# reuse through the campaign paths
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Store-less records and checkpoint bytes of both mode pairs."""
    out = {}
    for modes in ((AD0, AD3), (AD1, AD2)):
        path = tmp_path_factory.mktemp("ref") / "ck.jsonl"
        recs = run_campaign(
            TOP, _cfg(modes=modes), background_model=_model(TOP),
            checkpoint_path=str(path),
        )
        out[modes[0].name] = (_dicts(recs), path.read_bytes())
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeat_pool_campaign_builds_the_pool_once(
    reference, build_calls, tmp_path, jobs
):
    store = RunRecordStore(tmp_path / "cache")
    results = []
    for modes in ((AD0, AD3), (AD1, AD2)):
        tel = _traced()
        ck = tmp_path / f"{modes[0].name}.jsonl"
        out = run_campaign_cached(
            TOP, _cfg(modes=modes), store=store, background_model=_model(TOP),
            telemetry=tel, checkpoint_path=str(ck), jobs=jobs,
        )
        assert (_dicts(out.records), ck.read_bytes()) == reference[modes[0].name]
        results.append([e["result"] for e in _pool_events(tel)])
    assert len(build_calls) == 1
    assert results == [["miss"], ["hit"]]
    st = store.stats()
    assert (st.pool_entries, st.pool_hits, st.pool_misses) == (1, 1, 1)
    # run-entry accounting never counts the pool
    assert st.entries == len(store) == 8 and st.hits == 0


def test_pool_hit_shows_in_metrics(tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    for modes, name in (((AD0, AD3), "misses"), ((AD1, AD2), "hits")):
        tel = _traced()
        run_campaign_cached(TOP, _cfg(modes=modes), store=store, telemetry=tel)
        counters = tel.metrics.to_dict()
        assert counters[f"cache_pool_{name}_total"]["value"] == 1


def test_default_model_pool_is_shared_too(build_calls, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    for modes in ((AD0, AD3), (AD1, AD2)):
        ref = run_campaign(TOP, _cfg(modes=modes))
        out = run_campaign_cached(TOP, _cfg(modes=modes), store=store)
        assert _dicts(out.records) == _dicts(ref)
    assert len(build_calls) == 3  # two references, one cached build


def test_different_pool_inputs_never_share(build_calls, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    for cfg in (_cfg(), _cfg(seed=12), _cfg(scenario_pool=2)):
        run_campaign_cached(TOP, cfg, store=store, background_model=_model(TOP))
    # the campaign fingerprint does not tell topology seeds apart (its run
    # entries would all hit), so resolve the seed-1 pool directly
    other = mini(seed=1)
    ctx = CampaignContext(other, _cfg(), _model(other))
    ctx.store = store
    ctx.background()
    assert len(build_calls) == 4
    assert store.stats().pool_entries == 4


def test_store_less_and_explicit_pool_campaigns_do_not_touch_pools(build_calls, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    pool = _model(TOP).build_pool(3, derive_rng(5), reserve_nodes=16)
    run_campaign_cached(TOP, _cfg(), store=store, scenarios=pool)
    run_campaign_cached(TOP, _cfg(background="isolated"), store=store)
    assert store.stats().pool_entries == 0
    assert len(build_calls) == 1  # the explicit pool above


def test_service_jobs_share_the_pool(tmp_path):
    from repro.dist.manifest import campaign_to_manifest
    from repro.telemetry import NULL_TELEMETRY

    store = RunRecordStore(tmp_path / "cache")
    service = CampaignService(store).start()
    try:
        for modes in ((AD0, AD3), (AD1, AD2)):
            man = campaign_to_manifest(TOP, _cfg(modes=modes), NULL_TELEMETRY)
            jid = client.submit(service.url, man)["id"]
            assert client.wait(service.url, jid, timeout=300)["state"] == "done"
        stats = client.cache_stats(service.url)
    finally:
        service.close()
    assert stats["pool_entries"] == 1
    assert stats["pool_hits_total"] == 1 and stats["pool_misses_total"] == 1
    assert stats["pool_bytes"] > 0


def test_compare_reuses_the_pool_across_processes(tmp_path):
    """Two `compare --cache` processes with the same seed: the second
    one's trace holds a pool hit, and cache-status counts one pool."""
    src = str(Path(bgmod.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cache = tmp_path / "cache"
    results = []
    for modes in ("AD0,AD3", "AD1,AD2"):
        trace = tmp_path / f"{modes}.jsonl"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "compare", "--system", "mini",
                "--nodes", "16", "--samples", "2", "--seed", "3", "--modes", modes,
                "--cache", str(cache), "--trace", str(trace),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        results.append([e["result"] for e in events if e["ev"] == "cache.pool"])
    assert results == [["miss"], ["hit"]]
    status = subprocess.run(
        [sys.executable, "-m", "repro", "cache-status", "--cache", str(cache)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert status.returncode == 0, status.stderr
    assert "pool_entries 1" in status.stdout


# ----------------------------------------------------------------------
# damage, failure and budgets
# ----------------------------------------------------------------------
@pytest.fixture
def stored(tmp_path):
    """A store holding the pool of ``_cfg()``, plus that pool's path."""
    store = RunRecordStore(tmp_path / "cache")
    run_campaign_cached(TOP, _cfg(), store=store, background_model=_model(TOP))
    ident = CampaignContext(TOP, _cfg(), _model(TOP)).pool_identity()
    path = store.pools_dir / f"{pool_key(ident)}.pool"
    assert path.exists()
    return store, path


def _rerun_after_damage(store, reference, build_calls):
    """The AD1,AD2 campaign on a damaged pool: a quarantined miss, a
    rebuild, byte-identical records, and a healthy artifact again."""
    q0 = store.quarantined
    tel = _traced()
    out = run_campaign_cached(
        TOP, _cfg(modes=(AD1, AD2)), store=store, background_model=_model(TOP),
        telemetry=tel,
    )
    assert [e["result"] for e in _pool_events(tel)] == ["miss"]
    assert store.quarantined == q0 + 1
    assert len(build_calls) == 1
    assert _dicts(out.records) == reference["AD1"][0]
    assert store.verify() == (len(store) + 1, [])


def _offsets(raw: bytes) -> dict[str, int]:
    header_end = raw.index(b"\n", len(b"REPRO-POOL\n"))
    return {
        "magic": 5,
        "header": header_end // 2,
        "header_end": header_end,
        "payload_start": header_end + 1,
        "payload": (header_end + len(raw)) // 2,
        "last_byte": len(raw) - 1,
    }


@pytest.mark.parametrize(
    "where", ["magic", "header", "header_end", "payload_start", "payload", "last_byte"]
)
def test_truncated_pool_is_quarantined_and_rebuilt(
    stored, reference, build_calls, where
):
    store, path = stored
    raw = path.read_bytes()
    path.write_bytes(raw[: _offsets(raw)[where]])
    _rerun_after_damage(store, reference, build_calls)


@pytest.mark.parametrize("where", ["magic", "header", "payload", "last_byte"])
def test_bit_flipped_pool_is_quarantined_and_rebuilt(
    stored, reference, build_calls, where
):
    store, path = stored
    raw = bytearray(path.read_bytes())
    raw[_offsets(bytes(raw))[where]] ^= 0x10
    path.write_bytes(bytes(raw))
    _rerun_after_damage(store, reference, build_calls)


def test_pool_naming_another_identity_is_quarantined(
    stored, reference, build_calls, tmp_path
):
    store, path = stored
    other = RunRecordStore(tmp_path / "other")
    run_campaign_cached(TOP, _cfg(seed=12), store=other, background_model=_model(TOP))
    (foreign,) = other.pools_dir.iterdir()
    path.write_bytes(foreign.read_bytes())  # intact, but addressed elsewhere
    build_calls.clear()
    _rerun_after_damage(store, reference, build_calls)


def test_verify_reports_a_damaged_pool(stored):
    store, path = stored
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    ok, bad = store.verify()
    assert bad == [f"pool:{path.stem}"]
    assert ok == len(store)
    assert not path.exists()  # quarantined, like a bad run entry


@pytest.mark.parametrize(
    "spec", ["store.commit.pre_rename:enospc:at=1", "store.commit.post_tmp:torn:at=1"]
)
def test_failed_pool_commit_degrades_to_an_event(reference, tmp_path, spec):
    """The pool is the campaign's first commit; failing it leaves no
    file behind and the campaign completes byte-identically."""
    store = RunRecordStore(tmp_path / "cache")
    tel = _traced()
    with active(ChaosSchedule.parse(spec)):
        out = run_campaign_cached(
            TOP, _cfg(), store=store, background_model=_model(TOP), telemetry=tel
        )
    assert _dicts(out.records) == reference["AD0"][0]
    assert os.listdir(store.pools_dir) == []
    assert os.listdir(store.tmp_dir) == []
    (failed,) = _pool_events(tel, "cache.pool_put_failed")
    assert "pool artifact commit" in failed["error"]
    assert len(store) == len(out.records)  # the run commits still landed


def test_eio_on_pool_read_is_a_miss(stored, build_calls):
    store, path = stored
    with active(ChaosSchedule.parse("store.get.read:eio:at=1")):
        assert store.get_pool(CampaignContext(TOP, _cfg(), _model(TOP)).pool_identity()) is None
    assert path.exists()  # an I/O error is not damage


def test_duplicate_pool_commit_keeps_the_first(stored):
    store, path = stored
    ident = CampaignContext(TOP, _cfg(), _model(TOP)).pool_identity()
    before = path.read_bytes()
    meta, payload = store.get_pool(ident)
    assert store.put_pool(ident, meta, payload) is False
    assert path.read_bytes() == before


def test_pools_count_against_max_bytes_only(tmp_path):
    store = RunRecordStore(tmp_path / "cache", max_entries=2)
    ident = {"pool": 1}
    store.put_pool(ident, [{"n_jobs": 0, "fill": 0.0, "n_links": 4}], bytes(32))
    for i in range(3):
        store.put({"c": 1}, i, "AD0", {"v": i})
    assert len(store) == 2 and store.stats().pool_entries == 1  # not an entry

    store = RunRecordStore(tmp_path / "small", max_bytes=4000)
    store.put_pool(ident, [{"n_jobs": 0, "fill": 0.0, "n_links": 400}], bytes(3200))
    os.utime(store.pools_dir / f"{pool_key(ident)}.pool", (1, 1))  # the oldest file
    store.put({"c": 1}, 0, "AD0", {"v": "x" * 1000})
    assert store.stats().pool_entries == 0  # evicted first, LRU
    assert len(store) == 1


def test_cache_stats_fields(stored):
    store, path = stored
    d = store.stats().to_dict()
    assert d["pool_entries"] == 1 and d["pool_bytes"] == path.stat().st_size
    assert d["pool_misses_total"] == 1 and d["pool_hits_total"] == 0
    assert d["bytes"] == sum(p.stat().st_size for p in store.entries_dir.iterdir())


def test_hacc_campaign_reuses_its_own_pool(build_calls, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    for modes in ((AD0, AD3), (AD1, AD2)):
        cfg = CampaignConfig(app=HACC(), n_nodes=16, samples=1, scenario_pool=2, modes=modes)
        run_campaign_cached(TOP, cfg, store=store, background_model=_model(TOP))
    assert len(build_calls) == 1
