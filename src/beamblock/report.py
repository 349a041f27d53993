"""Full study report bundle: CSV tables, JSON payload, SVG figures.

Every file is emitted with fixed formatting and sorted keys so a re-run of
the same scenario produces byte-identical output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .coverage import PERCENTILE_CONVENTION, weighted_cdf
from .grid import FLOOR_DB, uniform_weights
from .lossstats import (Study, gaussian_fit, loss_field, loss_stats,
                        study_summary)
from .models import compare_models, comparison_dict
from .roi import matched_r1_for_r5, roi_r5
from .scanio import write_scan_csv
from .scenario import Scenario, build_patterns, scenario_metadata
from .svgplot import cdf_svg, heatmap_svg

CONVENTIONS = {
    "percentile": PERCENTILE_CONVENTION,
    "weighting": "sin(theta) solid-angle weights over valid grid points",
    "invalid_points": "excluded from numerator and denominator of all "
                      "sphere percentages",
    "relative_improvement": "100 * (coverage(R5) - coverage(matched R1)) "
                            "/ coverage(matched R1)",
    "floor_db": FLOOR_DB,
}

# summary.json's scenario block: these scenario_metadata keys plus n_beams.
_SCENARIO_KEYS = ("name", "title", "subarray", "orientation", "grip",
                  "delta5_dbm", "thresholds_dbm", "percentiles", "models")

# The phantom block reports coverage lost only, not the RoI columns.
_PHANTOM_KEYS = ("threshold_dbm", "free_pct", "blocked_pct", "abs_lost_pct",
                 "rel_lost_pct")

# Heatmap title word per mode, in eirp_cdf.svg curve order.
_MODE_LABELS = (("freespace", "free-space"), ("true_hand", "hand-blocked"),
                ("phantom", "body-blocked"))


def _range_str(pair) -> str:
    if pair is None:
        return "n/a"
    return f"{pair[0]:.1f} to {pair[1]:.1f}"


def write_report(scenario: Scenario, out_dir) -> dict:
    """Write the full bundle into ``out_dir``; returns the JSON payload."""
    study = Study(build_patterns(scenario))
    weights = study.weights
    summary = study_summary(study, "true_hand", scenario.thresholds_dbm,
                            scenario.percentiles)
    free = study.overlay("freespace")
    hand = study.overlay("true_hand")

    uweights = uniform_weights(scenario.grid)
    base = matched_r1_for_r5(free, scenario.delta5_dbm)
    enhanced = roi_r5(free, hand, scenario.delta5_dbm)
    loss = loss_field(free, hand)
    stats = {label: None if region.params.get("empty") else
             {"weighted": loss_stats(loss, region, weights),
              "unweighted": loss_stats(loss, region, uweights)}
             for label, region in (("r1_matched", base), ("r5", enhanced))}
    fit = gaussian_fit(stats["r5"]["weighted"])
    comparison = compare_models(free, {"true_hand": hand,
                                       **scenario.models},
                                enhanced, weights)

    meta = scenario_metadata(scenario)
    payload = {
        "scenario": dict({k: meta[k] for k in _SCENARIO_KEYS},
                         n_beams=len(scenario.beams)),
        "conventions": CONVENTIONS,
        **summary,
        "roi_loss_stats": {label: block and {k: asdict(v) for k, v in
                           block.items()} for label, block in stats.items()},
        "gaussian_fit": asdict(fit),
        "models": comparison_dict(comparison),
    }
    if "phantom" in study.modes:
        body = study_summary(study, "phantom", scenario.thresholds_dbm,
                             scenario.percentiles)
        payload["phantom"] = {
            "thresholds": [{k: r[k] for k in _PHANTOM_KEYS}
                           for r in body["thresholds"]],
            "percentiles": [{k: r[k] for k in ("percentile", "loss_db")}
                            for r in body["percentiles"]],
        }

    # The CDF figures refuse an unplottable range, so they come first too.
    title = scenario.title
    eirp_svg = cdf_svg([(mode, study.cdf(mode)) for mode, _ in _MODE_LABELS
                        if mode in study.modes],
                       f"{title}: sphere coverage CDF", "best-beam EIRP (dBm)")
    loss_svg = cdf_svg([("loss over R5", weighted_cdf(loss, weights,
                                                      mask=enhanced))],
                       f"{title}: blockage loss CDF", "blockage loss (dB)",
                       gaussian=fit)

    # Made only now, so a data error above leaves no empty directory.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["study", "subarray", "orientation", "grip",
                    "gross_loss_db", "rel_coverage_lost_pct",
                    "roi_improvement_pct"])
        h = payload["headline"]
        w.writerow([scenario.name, scenario.subarray, scenario.orientation,
                    scenario.grip, _range_str(h["gross_loss_db"]),
                    _range_str(h["rel_coverage_lost_pct"]),
                    _range_str(h["roi_improvement_pct"])])

    with open(out / "coverage.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(summary["thresholds"][0]))
        for r in summary["thresholds"]:
            w.writerow([f"{r['threshold_dbm']:g}"] +
                       [("n/a" if v is None else f"{v:.4f}")
                        for v in list(r.values())[1:]])

    with open(out / "percentiles.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(summary["percentiles"][0]))
        for r in summary["percentiles"]:
            w.writerow([f"{r['percentile']:g}"] +
                       [f"{v:.4f}" for v in list(r.values())[1:]])

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    write_scan_csv(out / "scan.csv", study.modes)

    for mode, label in _MODE_LABELS:
        path = out / f"overlay_{mode}.svg"
        if mode in study.modes:
            path.write_text(heatmap_svg(study.overlay(mode), f"{title}: "
                            f"{label} best-beam EIRP (dBm)"), encoding="utf-8")
        else:  # a reused directory keeps no stale heatmap
            path.unlink(missing_ok=True)
    (out / "eirp_cdf.svg").write_text(eirp_svg, encoding="utf-8")
    (out / "loss_cdf.svg").write_text(loss_svg, encoding="utf-8")
    return payload
