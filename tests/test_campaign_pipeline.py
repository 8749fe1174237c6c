"""The campaign pipeline: plan -> sources -> backend -> merge -> sinks.

Sources run before any backend, so a campaign whose every slot comes
from its checkpoint or the result store never builds the background
pool; configuration errors surface before any source is touched; the
canonical merge commits in plan order whatever order results arrive
in; and fork-pool workers never outlive a parent that dies abruptly.
"""

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.experiment import (
    CampaignConfig,
    CampaignContext,
    CanonicalMerge,
    RunSlot,
    SlotResult,
    plan_slots,
    run_campaign,
)
from repro.parallel import run_tasks
from repro.scheduler.background import BackgroundModel
from repro.service import RunRecordStore, run_campaign_cached
from repro.telemetry import MemoryTraceWriter, Telemetry
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 4)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), seed=11, scenario_pool=4, **kw
    )


@pytest.fixture
def pool_builds(monkeypatch):
    calls = []
    real = BackgroundModel.build_pool

    def counting(self, *a, **kw):
        calls.append(1)
        return real(self, *a, **kw)

    monkeypatch.setattr(BackgroundModel, "build_pool", counting)
    return calls


class TestLazyBackgroundPool:
    def test_warm_cached_replay_never_builds_the_pool(self, top, tmp_path, pool_builds):
        store = RunRecordStore(tmp_path / "cache")
        cold = run_campaign_cached(top, _cfg(), store=store)
        assert len(pool_builds) == 1 and cold.misses == 8
        warm = run_campaign_cached(top, _cfg(), store=store)
        assert warm.hits == 8 and warm.misses == 0
        assert len(pool_builds) == 1  # the replay built nothing
        assert [r.runtime for r in warm.records] == [r.runtime for r in cold.records]

    def test_fully_resumed_campaign_never_builds_the_pool(
        self, top, tmp_path, pool_builds
    ):
        ck = tmp_path / "ck.jsonl"
        run_campaign(top, _cfg(), checkpoint_path=str(ck))
        assert len(pool_builds) == 1
        before = ck.read_bytes()
        records = run_campaign(top, _cfg(), checkpoint_path=str(ck), resume=True)
        assert len(pool_builds) == 1
        assert len(records) == 8
        assert ck.read_bytes() == before

    def test_partial_resume_builds_the_pool_once(self, top, tmp_path, pool_builds):
        full = tmp_path / "full.jsonl"
        run_campaign(top, _cfg(), checkpoint_path=str(full))
        ck = tmp_path / "ck.jsonl"
        lines = full.read_bytes().splitlines(keepends=True)
        ck.write_bytes(b"".join(lines[:5]))  # header + samples 0-1
        pool_builds.clear()
        run_campaign(top, _cfg(), checkpoint_path=str(ck), resume=True)
        assert len(pool_builds) == 1
        assert ck.read_bytes() == full.read_bytes()


class TestConfigErrorsBeforeSources:
    def test_unknown_background_raises_before_checkpoint_or_store(self, top, tmp_path):
        ck = tmp_path / "ck.jsonl"
        with pytest.raises(ValueError, match="unknown background kind"):
            run_campaign(top, _cfg(background="bogus"), checkpoint_path=str(ck))
        assert not ck.exists()

        store = RunRecordStore(tmp_path / "cache")
        with pytest.raises(ValueError, match="unknown background kind"):
            run_campaign_cached(top, _cfg(background="bogus"), store=store)
        assert store.stats().misses == 0 and store.stats().hits == 0


class TestPlanAndMerge:
    def test_plan_is_sample_major_mode_minor(self):
        cfg = _cfg(samples=2)
        assert plan_slots(cfg) == [
            RunSlot(0, 0, "AD0"),
            RunSlot(1, 0, "AD3"),
            RunSlot(2, 1, "AD0"),
            RunSlot(3, 1, "AD3"),
        ]

    def test_merge_commits_the_contiguous_prefix_in_plan_order(self, top, tmp_path):
        recs = run_campaign(top, _cfg(samples=2))
        tel = Telemetry(trace=MemoryTraceWriter())
        ck = tmp_path / "ck.jsonl"
        ck.write_text("")
        merge = CanonicalMerge(tel, len(recs), str(ck))
        merge.records[0] = recs[0]  # resumed: already on disk
        ev = [{"ev": "campaign.sample", "sample": 1}]
        for idx in (3, 1, 2):  # out-of-order arrival
            merge.pending[idx] = SlotResult(idx, recs[idx], events=ev, worker=f"w{idx}")
            merge.commit()
            if idx == 3:
                assert ck.read_text() == ""  # slot 1 still missing
        assert merge.records == recs
        assert len(ck.read_text().splitlines()) == 3
        tagged = [(e["run_index"], e["worker"]) for e in tel.trace.events]
        assert tagged == [(1, 0), (2, 1), (3, 2)]  # dense ids in commit order

    def test_context_rejects_unknown_background_eagerly(self, top):
        with pytest.raises(ValueError):
            CampaignContext(top, _cfg(background="nope"))


def _sleepy(task):
    pid_dir, i = task
    Path(pid_dir, f"{os.getpid()}.{i}").write_text("")
    time.sleep(3.0)
    return i


def _abrupt_pool_parent(pid_dir):
    """A pool parent that dies mid-campaign the way SIGKILL would."""
    threading.Timer(1.0, os._exit, (0,)).start()
    list(run_tasks([(pid_dir, i) for i in range(4)], _sleepy, jobs=2))


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_exit_when_their_parent_dies(tmp_path):
    parent = multiprocessing.get_context("fork").Process(
        target=_abrupt_pool_parent, args=(str(tmp_path),)
    )
    parent.start()
    parent.join(timeout=30)
    pids = {int(p.name.split(".")[0]) for p in tmp_path.iterdir()}
    assert len(pids) == 2  # both workers were mid-task when the parent died
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    survivors = [p for p in pids if _alive(p)]
    for pid in survivors:  # never leave orphans behind, even on failure
        os.kill(pid, signal.SIGKILL)
    assert survivors == []
