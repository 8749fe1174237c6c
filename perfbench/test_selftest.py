"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_selftest.py

* tracing is invisible to the program: a traced campaign writes the
  same records and checkpoint bytes as an untraced one;
* every metric a run prints is declared in BENCHMARK.json, and every
  declared metric is printed, with its unit, and the default of
  ``--seconds`` is the declared ``run_seconds``;
* without the program next to it the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.apps import app_by_name  # noqa: E402
from repro.core.biases import AD0, AD3  # noqa: E402
from repro.core.experiment import CampaignConfig, run_campaign  # noqa: E402
from repro.service import RunRecordStore, run_campaign_cached  # noqa: E402
from repro.topology.systems import mini  # noqa: E402

from run import RUN_SECONDS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, ServiceMix, canon  # noqa: E402


def _campaigns(tmp: str) -> dict[str, bytes | list[str]]:
    """The cached executor, the fork pool and the service on one small
    campaign."""
    top = mini()
    cfg = CampaignConfig(app=app_by_name("milc")(), n_nodes=16, samples=3, modes=(AD0, AD3), seed=5)
    out: dict[str, bytes | list[str]] = {}
    for name in ("cold", "warm"):
        path = os.path.join(tmp, f"cached-{name}.jsonl")
        res = run_campaign_cached(
            top, cfg, store=RunRecordStore(os.path.join(tmp, "store")), checkpoint_path=path
        )
        out[f"cached-{name}"] = canon(res.records)
        with open(path, "rb") as f:
            out[f"cached-{name}.jsonl"] = f.read()
    path = os.path.join(tmp, "fanout.jsonl")
    out["fanout"] = canon(run_campaign(top, cfg, jobs=2, checkpoint_path=path))
    with open(path, "rb") as f:
        out["fanout.jsonl"] = f.read()
    svc = ServiceMix(1, tmp)
    svc.setup()
    try:
        for name in ("service-cold", "service-warm"):
            doc, _, _ = svc.roundtrip(svc.manifest("milc", 16, 5, (AD0, AD3)))
            out[name] = canon(doc["records"])
    finally:
        svc.close()
    return out


def test_traced_run_is_byte_identical(tmp_path):
    plain = _campaigns(str(tmp_path / "plain"))
    tracer = Tracer().install()
    try:
        traced = _campaigns(str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert not tracer.missing
    # the wrappers really ran (fork children's spans stay in the children)
    assert {row[0] for row in tracer.spans} >= {
        "scheduler.build_pool", "network.solve_fluid", "topology.paths",
        "core.execute_run", "core.checkpoint_append", "service.store_get",
        "service.store_put", "service.journal_record", "dist.manifest_to_campaign",
        "parallel.campaign",
    }
    assert traced == plain


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = _declared()["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_printed_metrics_match_declared(workload, trace):
    bench = _declared()
    assert workload in {w["name"] for w in bench["workloads"]}
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_exist():
    assert {w["name"] for w in _declared()["workloads"]} == set(WORKLOADS)


def test_default_seconds_match_declared():
    assert RUN_SECONDS == _declared()["run_seconds"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in _declared()["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("service-mix", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
