"""Blockage-loss fields, weighted statistics, Gaussian fits, study rollups.

The loss field is free minus blocked in dB, so positive values are losses
and negative values mark directions where a reflection added power.
Statistics over a region of interest use the same solid-angle weights as
every other spherical percentage, renormalized within the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import (WeightedCDF, coverage_above, lost_percentages,
                       overlay_best_beam, percentile_value, region_sample,
                       weighted_cdf)
from .errors import DataError
from .grid import Pattern, WeightField, _one_grid, solid_angle_weights
from .models import compare_models, comparison_dict
from .roi import DELTA_DEFAULTS, ROI_LAWS, RoIMask, roi_improvement
from .scanio import MODES


class Study:
    """Best-beam overlays of per-mode pattern sets on one sphere, each
    derived field made once: the one analysis behind ``stats``, ``compare``
    and ``report``.

    ``modes`` maps mode names (``freespace``, ``true_hand``, ...) to
    PatternSets on one grid, as returned by ``build_patterns`` or
    ``parse_scan_csv(...).modes``; beam ids play no part. ``overlays`` maps
    every mode name to its best-beam overlay, the set's ``best()`` field,
    made on construction without building a per-beam cube; the study keeps
    no pattern set. The sin(theta) weights are computed on construction;
    each full-sphere CDF, each region at its deltas, and the hand-blockage
    loss field, on first use, then reused. A region reads the blocked
    overlay only if its law does (R2-R5), so R1 and the matched R1 need the
    freespace mode alone.
    """

    def __init__(self, modes: dict):
        if not modes:
            raise DataError(f"input provides none of {', '.join(MODES)}")
        self.overlays = {mode: overlay_best_beam(pset)
                         for mode, pset in modes.items()}
        self.weights = solid_angle_weights(_one_grid("all modes",
                                                     *modes.values()))
        self._made = {}

    def _once(self, key: tuple, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def overlay(self, mode: str) -> Pattern:
        if mode not in self.overlays:
            raise DataError(f"input provides no {mode} mode; have "
                            f"{', '.join(sorted(self.overlays))}")
        return self.overlays[mode]

    def cdf(self, mode: str) -> WeightedCDF:
        return self._once(("cdf", mode), lambda: weighted_cdf(
            self.overlay(mode), self.weights))

    def region(self, kind: str, mode: str = "true_hand", **deltas) -> RoIMask:
        """``ROI_LAWS[kind]`` on the freespace overlay, and the ``mode`` one
        if the law has a baseline (a baseline is shared by every mode); an
        unset or None delta takes its default."""
        law, names, base = ROI_LAWS[kind]
        free = self.overlay("freespace")
        blocked = self.overlay(mode) if base else None
        values = tuple(DELTA_DEFAULTS[n] if deltas.get(n) is None
                       else deltas[n] for n in names)
        return self._once((kind, mode if base else None, values),
                          lambda: law(free, blocked, *values))

    def loss(self) -> Pattern:
        """The hand-blockage loss field, free space minus ``true_hand``."""
        return self._once(("loss",), lambda: loss_field(
            self.overlay("freespace"), self.overlay("true_hand")))

    def hand_stats(self, floor: float, weights: WeightField) -> dict:
        """``loss_stats`` of the hand loss over the matched R1 (None if
        empty) and R5 at ``floor``."""
        r5, base = (self.region(k, delta5=floor) for k in ("r5", "r1_matched"))
        return {"r1_matched": None if base.params["empty"] else
                loss_stats(self.loss(), base, weights),
                "r5": loss_stats(self.loss(), r5, weights)}

    def score_models(self, floor: float, candidates: dict) -> dict:
        """``comparison_dict`` of ``true_hand``, then ``candidates``, on the
        R5 at ``floor``."""
        return comparison_dict(compare_models(
            self.overlay("freespace"),
            {"true_hand": self.overlay("true_hand"), **candidates},
            self.region("r5", delta5=floor), self.weights))


def loss_field(free: Pattern, blocked: Pattern) -> Pattern:
    """Pointwise free minus blocked, in dB."""
    grid = _one_grid("free and blocked patterns", free, blocked)
    return Pattern._adopt(grid, free.values - blocked.values)


@dataclass(frozen=True)
class LossStats:
    """Weighted summary of a loss field over a region."""

    mean_db: float
    median_db: float
    std_db: float
    sphere_pct: float
    n_points: int


def _weighted_moments(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    # In units of a power of two at least half the largest |v|, no square
    # overflows, even for huge finite values; scaling by a power of two is
    # exact, so ordinary values keep the bits of the unscaled sums.
    unit = 2.0 ** (math.frexp(float(np.max(np.abs(v))))[1] - 1)
    s = v / unit
    # pivot keeps a constant field at variance 0.0 exactly
    pivot = float(s[0])
    x = s - pivot
    mean_x = float(np.dot(w, x))
    var = float(np.dot(w, (x - mean_x) ** 2))
    return (pivot + mean_x) * unit, math.sqrt(var) * unit


def loss_stats(loss: Pattern, roi: RoIMask,
               weights: WeightField) -> LossStats:
    """Mean, median, population std of the loss over ``roi``.

    The median is the top-p p50 of the region's ``weighted_cdf``, the
    largest sample value with at least half the region's weight at or
    above it. ``sphere_pct`` is the region's share of the valid sphere (not
    renormalized).
    """
    v, w = region_sample(loss, weights, roi)
    mean, std = _weighted_moments(v, w / w.sum())
    median = percentile_value(weighted_cdf(loss, weights, mask=roi), 50.0)
    return LossStats(mean_db=mean, median_db=median, std_db=std,
                     sphere_pct=roi.coverage(weights), n_points=int(v.size))


_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class GaussianFit:
    """Normal fit to a loss distribution, by weighted moment matching."""

    mu: float
    sigma: float
    family: str = "gaussian"

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.sigma == 0:
            return (x >= self.mu).astype(float)
        # the standard normal CDF of z is 0.5 * erfc(-z / sqrt(2))
        return 0.5 * _erfc(-((x - self.mu) / self.sigma) / math.sqrt(2.0))


def gaussian_fit(stats: LossStats) -> GaussianFit:
    """Gaussian with the mean and std of ``stats``, a region's weighted
    ``loss_stats``, whose moments it reuses."""
    return GaussianFit(mu=stats.mean_db, sigma=stats.std_db)


def _range(rows: list, key: str) -> list | None:
    vals = [r[key] for r in rows if r[key] is not None]
    return [min(vals), max(vals)] if vals else None


def study_summary(study: Study, blocked_mode: str,
                  thresholds, percentiles) -> dict:
    """Roll the freespace and ``blocked_mode`` overlays up to headlines.

    At each threshold t: sphere coverage above t for both overlays with the
    absolute and relative loss, plus the R5-versus-matched-R1 improvement
    using t as the absolute floor. At each percentile p: the overlay level
    drop. Threshold and percentile lists are deduplicated and sorted
    descending, so the summary is permutation-invariant in both.

    Returns summary.json's ``thresholds`` and ``percentiles`` rows (dicts
    keyed in the column order of coverage.csv and percentiles.csv) and its
    ``headline`` ranges ([lo, hi], or None when no row defines one).
    """
    thr = sorted({float(t) for t in thresholds}, reverse=True)
    pct = sorted({float(p) for p in percentiles}, reverse=True)
    if not thr or not pct:
        raise DataError("thresholds and percentiles must be non-empty")

    weights = study.weights

    t_rows = []
    for t in thr:
        # the matched R1 is free >= t, so its coverage is the free one
        imp = roi_improvement(*(study.region(k, blocked_mode, delta5=t)
                                for k in ("r1_matched", "r5")), weights)
        blocked_pct = coverage_above(study.overlay(blocked_mode), weights, t)
        abs_lost, rel_lost = lost_percentages(imp.base_pct, blocked_pct)
        t_rows.append({
            "threshold_dbm": t, "free_pct": imp.base_pct,
            "blocked_pct": blocked_pct, "abs_lost_pct": abs_lost,
            "rel_lost_pct": rel_lost, "r1_pct": imp.base_pct,
            "r5_pct": imp.enhanced_pct, "improvement_abs_pct": imp.abs_pct,
            "improvement_rel_pct": imp.rel_pct})
    p_rows = []
    for p in pct:
        fv = percentile_value(study.cdf("freespace"), p)
        bv = percentile_value(study.cdf(blocked_mode), p)
        p_rows.append({"percentile": p, "free_dbm": fv, "blocked_dbm": bv,
                       "loss_db": fv - bv})

    return {
        "thresholds": t_rows,
        "percentiles": p_rows,
        "headline": {
            "gross_loss_db": _range(p_rows, "loss_db"),
            "rel_coverage_lost_pct": _range(t_rows, "rel_lost_pct"),
            "roi_improvement_pct": _range(t_rows, "improvement_rel_pct"),
        },
    }
