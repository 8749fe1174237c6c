"""End-to-end benchmark of the repro runtime (see perfbench/README.md).

One workload per invocation, from the root of a checkout:

    python3 perfbench/run.py --workload theta-sweep --seed 1 --seconds 36 --trace 0

prints the metrics, the output-check results and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.

    python3 perfbench/run.py --traced [--seconds 36]

runs every workload three times untraced and once traced, each in a
fresh process, and prints the per-layer table of each workload next to
its untraced end-to-end medians.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch for stores, journals and checkpoints, inside the checkout
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("theta-sweep", "service-mix", "mini-fanout")
#: the default of --seconds: ``run_seconds`` of BENCHMARK.json
RUN_SECONDS = 36
#: untraced runs per workload in the --traced report
TRACED_REPORT_RUNS = 3


def _load_program() -> float:
    """Import the program from the checkout's ``src``; returns the
    import time.  Exits 2, printing no result, when it is not there."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    try:
        import repro  # noqa: F401
        import workloads  # noqa: F401  (imports every layer it drives)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return time.perf_counter() - t0


def _clean_environment() -> None:
    """Runs must not inherit settings that change the program's behaviour
    (worker count, path memo size, chaos failpoints, guard mode)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def run_one(args: argparse.Namespace) -> int:
    _clean_environment()
    import_s = _load_program()
    import workloads

    warnings.simplefilter("ignore")  # solver non-convergence warnings are expected
    # the service's shutdown cancels idle connection handlers, which
    # asyncio logs as errors; they carry no information about the run
    logging.getLogger("asyncio").setLevel(logging.CRITICAL)
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    tempfile.tempdir = workdir
    try:
        result, lines = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(
        f"  checks: {'pass' if result['correct'] else 'FAIL'}  "
        f"failed {result['failed']} of {result['attempted']} attempted"
    )
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run in a fresh process: (result object, its other output lines)."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    *lines, last = out.stdout.strip().splitlines()
    return json.loads(last), lines


def traced_report(args: argparse.Namespace) -> int:
    """Per-layer table of each workload beside its untraced medians."""
    for wl in WORKLOAD_NAMES:
        runs = [_child(wl, seed, args.seconds, 0)[0] for seed in range(1, TRACED_REPORT_RUNS + 1)]
        traced, traced_lines = _child(wl, 1, args.seconds, 1)
        print(f"== {wl}: end-to-end, median of {len(runs)} untraced runs")
        for name, m in runs[0]["metrics"].items():
            med = statistics.median(r["metrics"][name]["value"] for r in runs)
            print(f"  {name:34s} {med:14.6g} {m['unit']}")
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        print(f"  checks: failed {failed} of {attempted} attempted")
        print(f"== {wl}: per layer, per campaign request of one traced run")
        print("\n".join(traced_lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="report every workload")
    args = ap.parse_args(argv)
    if args.traced:
        return traced_report(args)
    if args.workload is None:
        ap.error("--workload or --traced is required")
    return run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
