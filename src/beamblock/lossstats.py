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

from .coverage import (CoverageLost, WeightedCDF, coverage_lost,
                       overlay_best_beam, percentile_value, weighted_cdf)
from .errors import DataError
from .grid import Pattern, WeightField, solid_angle_weights
from .roi import (RoIImprovement, RoIMask, matched_r1_for_r5, roi_improvement,
                  roi_r5)


class Study:
    """Per-mode pattern sets on one sphere, each derived field made once.

    ``modes`` maps mode names (``freespace``, ``true_hand``, ...) to
    PatternSets on one grid, as returned by ``build_patterns`` or
    ``parse_scan_csv(...).modes``. The sin(theta) weights are computed on
    construction; each mode's best-beam overlay and full-sphere CDF on first
    use, then reused.
    """

    def __init__(self, modes: dict):
        self.modes = dict(modes)
        self.weights = solid_angle_weights(next(iter(modes.values())).grid)
        self._overlays = {}
        self._cdfs = {}

    def overlay(self, mode: str) -> Pattern:
        if mode not in self._overlays:
            if mode not in self.modes:
                raise DataError(f"input provides no {mode} mode; have "
                                f"{', '.join(sorted(self.modes))}")
            self._overlays[mode] = overlay_best_beam(self.modes[mode])
        return self._overlays[mode]

    def cdf(self, mode: str) -> WeightedCDF:
        if mode not in self._cdfs:
            self._cdfs[mode] = weighted_cdf(self.overlay(mode), self.weights)
        return self._cdfs[mode]


def loss_field(free: Pattern, blocked: Pattern) -> Pattern:
    """Pointwise free minus blocked, in dB."""
    if free.grid != blocked.grid:
        raise DataError("free and blocked patterns must share one grid")
    return Pattern.from_values(free.grid, free.values - blocked.values)


@dataclass(frozen=True)
class LossStats:
    """Weighted summary of a loss field over a region."""

    mean_db: float
    median_db: float
    std_db: float
    sphere_pct: float
    n_points: int


def _select(loss: Pattern, roi: RoIMask,
            weights: WeightField) -> tuple[np.ndarray, np.ndarray]:
    if loss.grid != roi.grid or loss.grid != weights.grid:
        raise DataError("loss, region, and weights must share one grid")
    sel = roi.mask & loss.grid.valid & np.isfinite(loss.values)
    v = loss.values[sel]
    w = weights.weights[sel]
    if v.size == 0 or w.sum() <= 0:
        raise DataError("region contains no weighted valid points")
    return v, w / w.sum()


def _weighted_moments(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    # pivot keeps a constant field at variance 0.0 exactly
    pivot = float(v[0])
    x = v - pivot
    mean_x = float(np.dot(w, x))
    var = float(np.dot(w, (x - mean_x) ** 2))
    return pivot + mean_x, float(np.sqrt(var))


def _weighted_median(v: np.ndarray, w: np.ndarray) -> float:
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, 0.5 - 1e-12, side="left"))
    return float(v[order][min(idx, v.size - 1)])


def loss_stats(loss: Pattern, roi: RoIMask,
               weights: WeightField) -> LossStats:
    """Mean, median, population std of the loss over ``roi``.

    The median is the smallest sample value whose cumulative region weight
    reaches one half. ``sphere_pct`` is the region's share of the valid
    sphere (not renormalized).
    """
    v, w = _select(loss, roi, weights)
    mean, std = _weighted_moments(v, w)
    return LossStats(mean_db=mean, median_db=_weighted_median(v, w),
                     std_db=std, sphere_pct=roi.coverage(weights),
                     n_points=int(v.size))


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


def gaussian_fit(loss: Pattern, roi: RoIMask,
                 weights: WeightField) -> GaussianFit:
    """Gaussian with the region's weighted mean and std."""
    v, w = _select(loss, roi, weights)
    mean, std = _weighted_moments(v, w)
    return GaussianFit(mu=mean, sigma=std)


@dataclass(frozen=True)
class ThresholdRow:
    """Coverage and region-of-interest outcome at one EIRP threshold."""

    threshold_dbm: float
    coverage: CoverageLost
    improvement: RoIImprovement  # base_pct: matched R1, enhanced_pct: R5


@dataclass(frozen=True)
class PercentileRow:
    """Percentile levels of both overlays and the drop between them."""

    percentile: float
    free_dbm: float
    blocked_dbm: float
    loss_db: float


def _range(values: list) -> tuple[float, float] | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return (min(vals), max(vals))


@dataclass(frozen=True)
class StudySummary:
    """One study's headline numbers: loss, coverage lost, RoI gain ranges."""

    thresholds: tuple[ThresholdRow, ...]
    percentiles: tuple[PercentileRow, ...]
    gross_loss_db: tuple[float, float] | None
    rel_lost_pct: tuple[float, float] | None
    improvement_pct: tuple[float, float] | None


def study_summary(study: Study, blocked_mode: str,
                  thresholds, percentiles) -> StudySummary:
    """Roll the freespace and ``blocked_mode`` overlays up to headlines.

    At each threshold t: sphere coverage above t for both overlays with the
    absolute and relative loss, plus the R5-versus-matched-R1 improvement
    using t as the absolute floor. At each percentile p: the overlay level
    drop. Threshold and percentile lists are deduplicated and sorted
    descending, so the summary is permutation-invariant in both.
    """
    thr = sorted({float(t) for t in thresholds}, reverse=True)
    pct = sorted({float(p) for p in percentiles}, reverse=True)
    if not thr or not pct:
        raise DataError("thresholds and percentiles must be non-empty")

    weights = study.weights
    f = study.overlay("freespace")
    b = study.overlay(blocked_mode)
    f_cdf = study.cdf("freespace")
    b_cdf = study.cdf(blocked_mode)

    t_rows = []
    for t in thr:
        cov = coverage_lost(f, b, weights, t)
        base = matched_r1_for_r5(f, t)
        enhanced = roi_r5(f, b, t)
        t_rows.append(ThresholdRow(
            threshold_dbm=t, coverage=cov,
            improvement=roi_improvement(base, enhanced, weights)))
    p_rows = []
    for p in pct:
        fv = percentile_value(f_cdf, p)
        bv = percentile_value(b_cdf, p)
        p_rows.append(PercentileRow(percentile=p, free_dbm=fv, blocked_dbm=bv,
                                    loss_db=fv - bv))

    return StudySummary(
        thresholds=tuple(t_rows),
        percentiles=tuple(p_rows),
        gross_loss_db=_range([r.loss_db for r in p_rows]),
        rel_lost_pct=_range([r.coverage.rel_lost_pct for r in t_rows]),
        improvement_pct=_range([r.improvement.rel_pct for r in t_rows]),
    )
