"""beamblock benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload bundled [--seed 0] [--seconds 15]
                             [--trace 0|1]
    python3 perfbench/run.py --record-golden

Run from anywhere; paths are taken relative to this file's checkout. With
``--trace 0`` the run prints every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record-golden`` rewrites ``golden.json`` from one unit of every
workload at the default seed; see README.md for when to do that.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bundled", "stress_report", "stress_scan", "queries")
DEFAULT_SEED = 0
# Set-up is timed in fresh processes until there are at least SETUP_MIN of
# them and they took SETUP_BUDGET_S together (at most SETUP_MAX); setup_s is
# their median. Set-up takes 0.3-0.8 s, so a run gets four to nine samples.
# Half the budget is spent before the measuring process and half after it,
# so that the samples straddle host slowdowns that last a few seconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 4, 9, 2.5
# Every run, set-up included, must end within this many seconds.
RUN_DEADLINE_S = 175.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, work: Path, deadline: float,
               spans: Path | None = None) -> dict:
    """Start worker.py in a fresh process and return its JSON record.

    The worker traces its units when ``spans`` names a span file.
    """
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", "1" if spans is not None else "0",
           "--mode", mode, "--work", str(work), "--t0", repr(t0)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker ({mode}) exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample_setups(args, work: Path, deadline: float, setups: list,
                  budget_s: float) -> None:
    """Add set-up-only samples to ``setups`` until they took ``budget_s``.

    The measuring process adds one more sample, hence the ``+ 1``.
    """
    while (len(setups) + 1 < SETUP_MIN
           or (sum(setups) < budget_s and len(setups) + 1 < SETUP_MAX)):
        setups.append(run_worker(args, "setup", work, deadline)["setup_s"])


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(0.9 * len(ordered)) - 1, 0)]


def median_of(rec: dict, key: str) -> float:
    return statistics.median(u[key] for u in rec["units"])


def relative_wall(rec: dict) -> float:
    """A typical unit's wall time in reference-kernel times.

    Each call's wall time is divided by the reference kernel's time around
    it; the medians of that ratio over the run, one per call of the unit,
    are summed.
    """
    by_key = {}
    for c in rec["calls"]:
        by_key.setdefault(c["key"], []).append(c["wall_s"] / c["ref_s"])
    return sum(statistics.median(v) for v in by_key.values())


def end_to_end(rec: dict, setups: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_rel": relative_wall(rec),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(traced: dict, plain: dict) -> dict:
    out = {k: statistics.median(m[k] for m in traced["layers"])
           for k in traced["layers"][0]}
    wall = median_of(plain, "wall_s")
    out["raw.wall_s"] = wall
    out["raw.cpu_s"] = median_of(plain, "cpu_s")
    out["raw.call_s.p90"] = p90([c["wall_s"] for c in plain["calls"]])
    out["raw.samples_per_s"] = plain["samples_per_unit"] / wall
    out["raw.ref_s"] = statistics.median(c["ref_s"] for c in plain["calls"])
    out["trace.wall_s"] = median_of(traced, "wall_s")
    out["trace_overhead_pct"] = 100.0 * (relative_wall(traced)
                                         / relative_wall(plain) - 1.0)
    return out


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            sample_setups(args, work, deadline, setups, SETUP_BUDGET_S / 2)
        recs = [run_worker(args, "measure", work, deadline)]
        if not args.trace:
            sample_setups(args, work, deadline, setups, SETUP_BUDGET_S)
        else:
            # traced units run in a process of their own, so that both the
            # untraced and the traced units are first in a fresh process
            spans = HERE / "_trace" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            recs.insert(0, run_worker(args, "measure", work, deadline, spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics, names = per_layer(*recs), spec["per_layer"]
    else:
        metrics = end_to_end(recs[0], setups + [recs[0]["setup_s"]])
        names = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    failed = sum(r["failed"] for r in recs)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in recs), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def record_golden(args) -> None:
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        args.workload, args.seed = name, DEFAULT_SEED
        work = HERE / "_work" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            rec = run_worker(args, "record", work, time.monotonic() + 900)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        golden["workloads"][name] = rec["digests"]
        print(f"{name}: {len(rec['digests'])} digests", file=sys.stderr)
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "beamblock" / "__init__.py").is_file():
        print(f"error: no beamblock sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.record_golden:
        record_golden(args)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = measure(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload:<14} {name:<34} {m['value']:>16.6f} "
              f"{m['unit']}")
    print(f"{args.workload:<14} {'failed_ratio':<34} "
          f"{result['failed'] / result['attempted']:>16.6f} "
          f"({result['failed']}/{result['attempted']} calls)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
