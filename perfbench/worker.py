"""One workload run in a fresh process; started by ``run.py``.

Imports beamblock from the checkout's ``src``, generates the workload's
inputs (the timed set-up), then runs units in a closed loop: one CLI call
at a time through ``beamblock.cli.run_cli``, the next as soon as the last
returns. The reference kernel is timed before every call and after the
last one, so that each call's time can be given relative to the host's
speed at that moment (see README.md, "Why relative times"). Outputs are
checked after each unit, outside the timed region. The last stdout line
is a JSON record of raw measurements.

Modes: ``setup`` stops after set-up; ``measure`` runs the loop (with
``--trace 1`` every unit is traced); ``record`` runs one unit and prints
its output digests for ``golden.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# A run measures at least this many units, however short --seconds is.
MIN_UNITS = 3
# The reference kernel: REF_REPS rounds of small numpy calls, 17-27 ms on
# one vCPU of a 2.1 GHz Xeon VM. Interpreter and numpy dispatch dominate it,
# as they dominate the program's calls, so host slowdowns move both alike.
REF_REPS, REF_SIZE = 120, 8000


def reference_s(x) -> float:
    """Seconds one pass of the reference kernel takes on ``x``."""
    import numpy as np

    t = time.perf_counter()
    for _ in range(REF_REPS):
        np.sort(np.sin(x) * 2.0).cumsum()
    return time.perf_counter() - t


def pin_to_one_cpu() -> None:
    """Keep the calls and the reference kernel on the same vCPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program():
    sys.path.insert(0, str(SRC))
    import beamblock.cli

    where = Path(beamblock.cli.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"beamblock imported from {where}, not {SRC}")
    return beamblock.cli


def run_unit(cli, calls, results_cls, ref_x, tracer=None):
    """Run one unit's calls; returns (results, refs).

    ``refs`` holds the reference kernel's time on ``ref_x`` before each
    call and after the last one. The kernel calls no beamblock function,
    so a traced unit records no spans for it.
    """
    results, refs = [], []
    for i, call in enumerate(calls):
        refs.append(reference_s(ref_x))
        if tracer is not None:
            tracer.call = i
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        c = time.process_time()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.run_cli(call.argv)
        except Exception:  # an escaped exception is a counted failure
            error = traceback.format_exc()
        wall = time.perf_counter() - t
        results.append(results_cls(rc, error, wall, time.process_time() - c,
                                   out.getvalue(), err.getvalue()))
    refs.append(reference_s(ref_x))
    return results, refs


def call_errors(wl, calls, results, golden, first):
    """Errors per call: exit status, then the workload's output checks.

    ``first`` maps digest keys to the first unit's digests; empty while the
    first unit is checked, which then fills it and gets the full checks.
    """
    errors = [[] for _ in calls]
    for i, res in enumerate(results):
        if res.error is not None:
            errors[i].append(f"exception:\n{res.error}")
        elif res.rc != 0:
            errors[i].append(f"exit {res.rc}: {res.stderr.strip()}")
    if any(errors):
        return errors
    try:
        checked = wl.check(calls, results, full=not first)
    except Exception:  # a crashing check fails every call of the unit
        return [[f"check raised:\n{traceback.format_exc()}"] for _ in calls]
    for i, (call, (errs, digests)) in enumerate(zip(calls, checked)):
        errors[i] += errs
        prefix = f"{call.key}/"
        produced = {prefix + k: v for k, v in digests.items()}
        for what, ref in (("golden", golden), ("first unit", first)):
            if not ref:
                continue
            expected = {k: v for k, v in ref.items() if k.startswith(prefix)}
            errors[i] += [f"{k} differs from the {what} digest"
                          for k in sorted(set(produced) | set(expected))
                          if produced.get(k) != expected.get(k)]
    if not first and not any(errors):
        for call, (_, digests) in zip(calls, checked):
            first.update({f"{call.key}/{k}": v for k, v in digests.items()})
    return errors


def digests_of(wl, calls, results):
    out = {}
    for call, (errs, digests) in zip(calls, wl.check(calls, results, True)):
        if errs:
            raise RuntimeError(f"{call.key}: {errs}")
        out.update({f"{call.key}/{k}": v for k, v in digests.items()})
    return out


def expected_calls(workload: str) -> list[str]:
    """Span names that must record calls on a workload; see README.md."""
    common = ["cli.run_cli", "grid.solid_angle_weights",
              "coverage.overlay_best_beam", "coverage.weighted_cdf",
              "coverage.percentile_value", "roi.masks",
              "models.compare_models", "models.apply_model"]
    synth = ["scenario.load", "scenario.build_patterns",
             "synth.synth_pattern_set", "synth.apply_blockage_mask",
             "coverage.coverage_above", "roi.roi_improvement",
             "lossstats.loss_stats", "lossstats.gaussian_fit"]
    report = ["lossstats.study_summary", "scanio.write_scan_csv",
              "svgplot.heatmap_svg", "svgplot.cdf_svg",
              "report.write_report"]
    return {"bundled": common + synth + report,
            "stress_report": common + synth + report,
            "stress_scan": common + ["scanio.parse_scan_csv"],
            "queries": common + synth}[workload]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure", "record"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="span file written with --trace 1")
    args = ap.parse_args()

    pin_to_one_cpu()
    cli = import_program()
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, Path(args.work), args.seed)
    calls = wl.calls(0)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if hasattr(wl, "archive_sha256"):
        print(f"archive sha256 {wl.archive_sha256} (seed {args.seed})",
              file=sys.stderr)

    import numpy as np

    ref_x = np.random.default_rng(0).standard_normal(REF_SIZE)
    if args.mode == "record":
        results, _ = run_unit(cli, calls, workloads.CallResult, ref_x)
        print(json.dumps({"digests": digests_of(wl, calls, results)}))
        return 0

    golden_all = json.loads((HERE / "golden.json").read_text())
    golden = None
    if wl.digests_any_seed or args.seed == golden_all["seed"]:
        golden = golden_all["workloads"][args.workload]

    tracer = tracing.Tracer() if args.trace else None
    min_units = 1 if tracer else MIN_UNITS
    units, timed, layers, first = [], [], [], {}
    attempted = failed = 0
    t_start = time.perf_counter()
    unit = 0
    while True:
        if unit:
            calls = wl.calls(unit)
        gc.collect()
        if tracer:
            tracer.unit = unit
            tracer.install()
        try:
            results, refs = run_unit(cli, calls, workloads.CallResult,
                                     ref_x, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        errors = call_errors(wl, calls, results, golden, first)
        attempted += len(calls)
        for call, errs in zip(calls, errors):
            if errs:
                failed += 1
                print(f"FAILED unit {unit} {call.key}: " + "; ".join(errs),
                      file=sys.stderr)
        units.append({"wall_s": sum(r.wall_s for r in results),
                      "cpu_s": sum(r.cpu_s for r in results)})
        for i, (call, r) in enumerate(zip(calls, results)):
            timed.append({"key": call.key, "wall_s": r.wall_s,
                          "ref_s": (refs[i] + refs[i + 1]) / 2})
        if tracer:
            layers.append(tracer.unit_metrics(unit))
        unit += 1
        if (len(units) >= min_units
                and time.perf_counter() - t_start >= args.seconds):
            break

    if tracer:
        if args.spans:
            tracer.dump(args.spans)
        silent = [n for n in expected_calls(args.workload)
                  if any(m[f"{n}.calls"] == 0 for m in layers)]
        if silent:
            print(f"error: traced functions recorded no calls on "
                  f"{args.workload}: {', '.join(silent)}", file=sys.stderr)
            return 3

    print(json.dumps({
        "setup_s": setup_s, "units": units, "calls": timed,
        "layers": layers, "attempted": attempted, "failed": failed,
        "samples_per_unit": wl.samples_per_unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
