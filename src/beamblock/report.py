"""Full study report bundle: CSV tables, JSON payload, SVG figures.

Every file is emitted with fixed formatting and sorted keys so a re-run of
the same scenario produces byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from pathlib import Path

from .coverage import PERCENTILE_CONVENTION, weighted_cdf
from .grid import FLOOR_DB, uniform_weights
from .lossstats import Study, gaussian_fit, study_summary
from .scanio import write_scan_csv, write_text
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


def json_text(payload: dict) -> str:
    """Add ``conventions`` to ``payload``; return it as the JSON text of every
    file and stdout beamblock emits: keys sorted, indent 2, final newline."""
    payload["conventions"] = CONVENTIONS
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(rows: list[dict]) -> list[list]:
    """A CSV table of ``rows``: their keys as the header, then each row's
    first value in ``%g`` and the rest to 4 decimals, ``n/a`` for None."""
    return [list(rows[0])] + [
        [f"{first:g}"] + ["n/a" if v is None else f"{v:.4f}" for v in rest]
        for first, *rest in (r.values() for r in rows)]


def _write_csv(path, rows) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_text(path, text.getvalue())


def write_report(scenario: Scenario, out_dir) -> dict:
    """Write the full bundle into ``out_dir``; returns the JSON payload."""
    modes = build_patterns(scenario)
    study = Study(modes)
    weights = study.weights
    summary = study_summary(study, "true_hand", scenario.thresholds_dbm,
                            scenario.percentiles)
    floor = scenario.delta5_dbm
    stats = study.hand_stats(floor, weights)
    unweighted = study.hand_stats(floor, uniform_weights(scenario.grid))
    fit = gaussian_fit(stats["r5"])

    meta = scenario_metadata(scenario)
    payload = {
        "scenario": dict({k: meta[k] for k in _SCENARIO_KEYS},
                         n_beams=len(scenario.beams)),
        **summary,
        "roi_loss_stats": {
            label: s and {"weighted": asdict(s),
                          "unweighted": asdict(unweighted[label])}
            for label, s in stats.items()},
        "gaussian_fit": asdict(fit),
        "models": study.score_models(floor, scenario.models),
    }
    if "phantom" in modes:
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
                        if mode in modes],
                       f"{title}: sphere coverage CDF", "best-beam EIRP (dBm)")
    loss_svg = cdf_svg([("loss over R5", weighted_cdf(
        study.loss(), weights, mask=study.region("r5", delta5=floor)))],
                       f"{title}: blockage loss CDF", "blockage loss (dB)",
                       gaussian=fit)

    # Made only now, so a data error above leaves no empty directory.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    headline = summary["headline"]
    _write_csv(out / "summary.csv", [
        ["study", "subarray", "orientation", "grip", *headline],
        [scenario.name, scenario.subarray, scenario.orientation,
         scenario.grip] + ["n/a" if r is None else f"{r[0]:.1f} to {r[1]:.1f}"
                           for r in headline.values()]])
    _write_csv(out / "coverage.csv", _table(summary["thresholds"]))
    _write_csv(out / "percentiles.csv", _table(summary["percentiles"]))
    write_text(out / "summary.json", json_text(payload))

    write_scan_csv(out / "scan.csv", modes)

    for mode, label in _MODE_LABELS:
        path = out / f"overlay_{mode}.svg"
        if mode in modes:
            write_text(path, heatmap_svg(study.overlay(mode), f"{title}: "
                                         f"{label} best-beam EIRP (dBm)"))
        else:  # a reused directory keeps no stale heatmap
            path.unlink(missing_ok=True)
    write_text(out / "eirp_cdf.svg", eirp_svg)
    write_text(out / "loss_cdf.svg", loss_svg)
    return payload
