"""Command-line interface.

Single-invocation, file-in/file-out. Exit codes: 0 success, 2 bad usage or
configuration, 1 bad input data.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .coverage import coverage_above, percentile_value
from .errors import ConfigError, DataError
from .lossstats import Study, gaussian_fit
from .models import model_preset
from .roi import DELTA_DEFAULTS, ROI_LAWS, roi_improvement, write_roi_csv
from .report import json_text, write_report
from .scanio import MODES, parse_scan_csv, write_scan_csv, write_text
from .scenario import (Scenario, build_patterns, list_bundled, load_bundled,
                       load_scenario, scenario_metadata)
from .svgplot import cdf_svg, heatmap_svg


def _resolve_scenario(ref: str):
    """The file ``ref`` names or spells as a path, else a bundled scenario."""
    if Path(ref).is_file() or Path(ref).name != ref or ref.endswith(".json"):
        return load_scenario(ref)
    return load_bundled(ref)


def finite_float(text: str) -> float:
    """argparse type of the dB flags: a float, neither NaN nor infinite."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _out_path(text: str) -> str:
    """argparse type of every --out: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _parse_percentiles(text: str) -> tuple[float, ...]:
    try:
        items = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"bad percentiles list: {text!r}") from exc
    if not items or not all(0.0 <= p <= 100.0 for p in items):
        raise ConfigError(f"percentiles must be a non-empty list in "
                          f"[0, 100]: {text!r}")
    return items


@functools.lru_cache(maxsize=1)
def _kept_patterns(scenario: Scenario) -> tuple:
    """``build_patterns(scenario)`` as (mode, set) pairs, a tuple no caller
    can change, kept for the next analysis call on an equal scenario.
    Analyses read only each set's best-beam field, so no kept set builds
    its per-beam values."""
    return tuple(build_patterns(scenario).items())


def _load_study(args) -> tuple[Study, Scenario | None]:
    """Pattern sets from --scan or --scenario, and that scenario or None;
    an unset --delta5 becomes its delta5_dbm, or the R5 default with --scan."""
    if args.scan is not None:
        study, scenario = Study(parse_scan_csv(args.scan).modes), None
    else:
        scenario = _resolve_scenario(args.scenario)
        study = Study(dict(_kept_patterns(scenario)))
    if getattr(args, "delta5", 0.0) is None:  # stats, compare and roi
        args.delta5 = getattr(scenario, "delta5_dbm", DELTA_DEFAULTS["delta5"])
    return study, scenario


def _emit(payload: dict, out: str | None) -> None:
    text = json_text(payload)
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> None:
    scenario = _resolve_scenario(args.scenario)
    modes = build_patterns(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scan_csv(out / "scan.csv", modes)
    _emit(scenario_metadata(scenario), out / "scan_meta.json")


def _cmd_overlay(args) -> None:
    overlay = _load_study(args)[0].overlay(args.mode)
    write_text(args.out,
               heatmap_svg(overlay, f"{args.mode} best-beam EIRP (dBm)"))


def _cmd_cdf(args) -> None:
    percentiles = (_parse_percentiles(args.percentiles)
                   if args.percentiles is not None else ())
    study, _ = _load_study(args)
    modes = sorted(study.overlays)
    if args.out:
        write_text(args.out,
                   cdf_svg([(mode, study.cdf(mode)) for mode in modes],
                           "sphere coverage CDF", "best-beam EIRP (dBm)"))
    for mode in modes:
        if args.threshold is not None:
            pct = coverage_above(study.overlay(mode), study.weights,
                                 args.threshold)
            print(f"{mode}: {pct:.2f}% of sphere >= "
                  f"{args.threshold:g} dBm")
        for p in percentiles:
            print(f"{mode}: p{p:g} = "
                  f"{percentile_value(study.cdf(mode), p):.2f} dBm")


def _cmd_roi(args) -> None:
    study, _ = _load_study(args)
    deltas = {name: getattr(args, name) for name in DELTA_DEFAULTS}
    region = study.region(args.roi_kind, **deltas)
    payload = {"kind": region.kind, "params": region.params,
               "coverage_pct": region.coverage(study.weights)}
    if base := ROI_LAWS[args.roi_kind][2]:
        imp = roi_improvement(study.region(base, **deltas), region,
                              study.weights)
        payload["baseline_pct"] = imp.base_pct
        payload["improvement_abs_pct"] = imp.abs_pct
        payload["improvement_rel_pct"] = imp.rel_pct
    out = args.out and Path(args.out)
    if out:
        out.mkdir(parents=True, exist_ok=True)
        write_roi_csv(region, out / "roi_mask.csv")
    _emit(payload, out and out / "roi.json")


def _cmd_stats(args) -> None:
    study, _ = _load_study(args)
    stats = study.hand_stats(args.delta5, study.weights)
    out = {label: s and asdict(s) for label, s in stats.items()}
    out["gaussian_fit"] = asdict(gaussian_fit(stats["r5"]))
    out["delta5_dbm"] = args.delta5
    _emit(out, args.out)


def _cmd_compare(args) -> None:
    names = None
    if args.models is not None:
        names = [name.strip() for name in args.models.split(",")]
        if "" in names or len(set(names)) < len(names):
            raise ConfigError("--models must name each preset once, "
                              "none blank")
    study, scenario = _load_study(args)
    study.region("r5", delta5=args.delta5)  # a missing mode outranks a preset
    if scenario is not None and names is None:
        candidates = scenario.models
    else:
        preset_region = scenario.model_region if scenario else None
        candidates = {name: model_preset(name, region=preset_region) for name
                      in names or ["prior-hand-15.3", "prior-body-8.5"]}
    _emit(dict(study.score_models(args.delta5, candidates),
               delta5_dbm=args.delta5), args.out)


def _cmd_report(args) -> None:
    scenario = _resolve_scenario(args.scenario)
    write_report(scenario, args.out)
    print(f"report written to {args.out}")


def _cmd_scenarios(args) -> None:
    for name in list_bundled():
        print(name)


class _Parser(argparse.ArgumentParser):
    """The parser of ``beamblock`` and of each command. It reads an argument
    that starts like a negative number ("-3", "-.5") as a value, so
    ``--delta5 -3.5e1`` reads as ``--delta5=-3.5e1``; older argparse
    releases read only the "-35" and "-3.5" forms so, and take "-3.5e1"
    for an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_input_args(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--scan", help="scan archive CSV")
    g.add_argument("--scenario",
                   help="scenario JSON path or bundled scenario name")


def _add_out(p, what: str, required: bool = False) -> None:
    p.add_argument("--out", type=_out_path, required=required, help=what)


_DELTA_HELP = {
    "delta1": "dB below the free-space peak (R1)",
    "delta2": "dB below the blocked peak (R2)",
    "delta3": "dB below the free-space peak, blocked pattern (R3)",
    "delta4": "absolute blocked EIRP floor in dBm (R4)",
    "delta5": "absolute either-pattern EIRP floor in dBm (R5; default: the "
              f"scenario's delta5_dbm, or {DELTA_DEFAULTS['delta5']:g} with "
              "--scan)",
}


def _add_deltas(p, names) -> None:
    for name in names:
        p.add_argument(f"--{name}", type=finite_float, help=_DELTA_HELP[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``beamblock`` argument parser, built on first use and shared by
    every later ``run_cli`` call in the process. Parsing leaves it as it
    was, and it reads ``sys.stderr`` and ``COLUMNS`` only when it prints."""
    parser = _Parser(
        prog="beamblock",
        description="Spherical beam-pattern blockage analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth",
                       help="synthesize a scenario to scan CSV + metadata")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or bundled scenario name")
    _add_out(p, "output directory", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("overlay", help="best-beam overlay heatmap SVG")
    _add_input_args(p)
    p.add_argument("--mode", default="freespace", choices=MODES)
    _add_out(p, "output SVG path", required=True)
    p.set_defaults(func=_cmd_overlay)

    p = sub.add_parser("cdf", help="coverage CDF curves and percentiles")
    _add_input_args(p)
    _add_out(p, "output SVG path")
    p.add_argument("--threshold", type=finite_float,
                   help="print coverage above this EIRP (dBm)")
    p.add_argument("--percentiles",
                   help="comma list, print these percentile values")
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("roi", help="region-of-interest coverage")
    _add_input_args(p)
    p.add_argument("--roi-kind", default="r5", choices=[
        kind for kind in ROI_LAWS if kind != "r1_matched"])
    _add_deltas(p, DELTA_DEFAULTS)
    _add_out(p, "output directory for mask CSV + coverage JSON "
                "(default: JSON to stdout)")
    p.set_defaults(func=_cmd_roi)

    p = sub.add_parser("stats", help="blockage-loss statistics and fit")
    _add_input_args(p)
    _add_deltas(p, ["delta5"])
    _add_out(p, "output JSON path (default stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("compare", help="score blockage models vs measurement")
    _add_input_args(p)
    _add_deltas(p, ["delta5"])
    p.add_argument("--models", help="comma list of model presets")
    _add_out(p, "output JSON path (default stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="write the full study report bundle")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or bundled scenario name")
    _add_out(p, "output directory", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("scenarios", help="list bundled scenarios")
    p.set_defaults(func=_cmd_scenarios)

    return parser


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
