"""Record a baseline: every workload, ten seeds, plus one traced run.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json, runs ``run.py`` once per seed 0..9
with tracing off, then once with tracing on at seed 0. Prints each
end-to-end metric's median and quartile spread (interquartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives it) next to a third
of its bound, the traced per-layer table with each self time's share of the
traced wall time, and writes everything to ``baseline.json`` beside this
file. Exits 1 if the spread of any metric but ``setup_s`` reaches a third
of its bound. The spread of ``setup_s`` is printed but not gated: it is
host start-up time in raw seconds, which no reference kernel can correct
(README.md, "Why relative times"); only its median is compared between
commits.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    archive = re.search(r"archive sha256 (\w+)", proc.stderr)
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            archive.group(1) if archive else None)


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"machine": {"python": platform.python_version(),
                          "platform": platform.platform(),
                          "processor": platform.processor(),
                          "cpus": os.cpu_count()},
              "run_seconds": spec["run_seconds"], "workloads": {}}
    import numpy
    import scipy
    record["machine"].update(numpy=numpy.__version__, scipy=scipy.__version__)
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, archives = [], {}
        for seed in range(RUNS):
            t0 = time.monotonic()
            result, archive = run(workload, seed, 0)
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"{result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
            runs.append(result)
            if archive:
                archives[str(seed)] = archive
        traced, _ = run(workload, 0, 1)
        summary = {}
        print(f"\n{workload}: {RUNS} runs")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            summary[name] = {"median": statistics.median(values),
                             "spread": s, "values": values}
            gated = name != "setup_s"
            ok = s < bounds[name] / 3 or not gated
            steady &= ok
            print(f"  {name:<16} median {statistics.median(values):>14.6g} "
                  f"{units[name]:<5} spread {s:6.3f} "
                  f"(bound/3 {bounds[name] / 3:.3f})"
                  f"{'' if gated else '  not gated'}{'' if ok else '  WIDE'}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = layers["trace.wall_s"]
        print(f"  traced, seed 0: wall {wall:.4f} s, overhead "
              f"{layers['trace_overhead_pct']:.1f}%")
        for k, v in layers.items():
            if k.endswith(".self_s") and v > 0.01 * wall:
                print(f"    {k:<36} {v:10.4f} s  {100 * v / wall:5.1f}%")
        record["workloads"][workload] = {
            "end_to_end": summary, "per_layer_seed0": layers,
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": (sum(r["attempted"] for r in runs)
                          + traced["attempted"]),
            "archive_sha256": archives or None}
    out = HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwritten to {out}; steady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
