"""Best-beam overlay, weighted CDFs, coverage and percentile statistics.

All spherical percentages use solid-angle weights over valid points only.
Percentiles follow the top-p convention used throughout the analysis: the
p-th percentile value is the level exceeded (non-strictly) over at least
p percent of the weighted sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import Pattern, PatternSet, WeightField, _ArrayRecord, _one_grid

PERCENTILE_CONVENTION = ("top-p: percentile_value(cdf, p) is the largest "
                         "sample value v with weighted mass(value >= v) "
                         ">= p/100")


def overlay_best_beam(pset: PatternSet) -> Pattern:
    """Pointwise maximum EIRP over the codebook's beams."""
    return Pattern(pset.grid, pset.best())


@dataclass(frozen=True, eq=False)
class WeightedCDF(_ArrayRecord):
    """Weighted empirical distribution of a dB field.

    ``values`` finite and ascending; ``cum_weights[i]`` is the total mass
    at or below ``values[i]``, finite, ascending and ending at 1. Compares
    and hashes by value, -0.0 equal to 0.0; copies a writable input array.
    """

    values: np.ndarray
    cum_weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.cum_weights, dtype=float)
        if v.ndim != 1 or v.shape != c.shape or v.size == 0:
            raise DataError("values and cum_weights must be matching 1-D")
        if not (np.isfinite(v).all() and np.isfinite(c).all()):
            raise DataError("values and cum_weights must be finite")
        if np.any(np.diff(v) < 0):
            raise DataError("values must be ascending")
        if np.any(np.diff(c) < 0):
            raise DataError("cumulative weights must be ascending")
        if abs(float(c[-1]) - 1.0) > 1e-9:
            raise DataError("cumulative weights must end at 1")
        self._keep(values=v, cum_weights=c)

    def cdf_at(self, x):
        """Weighted mass of samples <= x; a float, or an array for one."""
        i = np.searchsorted(self.values, x, side="right")
        mass = np.where(i > 0, self.cum_weights[i - 1], 0.0)
        return float(mass) if mass.ndim == 0 else mass


def region_sample(pattern: Pattern, weights: WeightField,
                  region=None) -> tuple[np.ndarray, np.ndarray]:
    """Values and weights of ``pattern`` at the valid points of ``region``, a
    RoIMask (the whole grid if None), in grid order."""
    _one_grid("pattern, region and weights", pattern, region, weights)
    sel = pattern.grid.valid if region is None else region.mask
    v = pattern.values[sel]
    w = weights.weights[sel]
    if not w.sum() > 0:
        raise DataError("region contains no weighted valid points")
    # NaN or an infinity anywhere shows in the extremes, with no temporary
    if not np.isfinite([v.min(), v.max()]).all():
        raise DataError("non-finite value at a valid grid point")
    return v, w


def weighted_cdf(pattern: Pattern, weights: WeightField,
                 mask=None) -> WeightedCDF:
    """Distribution of ``pattern`` over the valid sphere.

    With ``mask``, a RoIMask, the distribution is restricted to the
    region's points and renormalized within them.
    """
    v, w = region_sample(pattern, weights, mask)
    order = np.argsort(v, kind="stable")
    v = v[order]
    c = np.cumsum(w[order]) / w.sum()
    v.setflags(write=False)
    c.setflags(write=False)
    return WeightedCDF(values=v, cum_weights=c)


def coverage_above(pattern: Pattern, weights: WeightField,
                   threshold: float) -> float:
    """Percent of the valid sphere with value >= threshold (non-strict)."""
    _one_grid("pattern and weights", pattern, weights)
    # invalid points hold NaN, which compares False
    return 100.0 * float(weights.weights[pattern.values >= threshold].sum())


def percentile_value(cdf: WeightedCDF, p: float) -> float:
    """Value exceeded over at least p percent of the weighted samples.

    The largest sample value v with mass(>= v) >= p/100; p = 100 returns
    the minimum sample, p = 0 the maximum.
    """
    if not 0.0 <= p <= 100.0:
        raise ConfigError("percentile must lie in [0, 100]")
    # the last sample whose preceding mass is <= target; sample 0's is 0
    target = 1.0 - p / 100.0
    idx = int(np.searchsorted(cdf.cum_weights[:-1], target + 1e-12,
                              side="right"))
    return float(cdf.values[idx])


def lost_percentages(free_pct: float,
                     blocked_pct: float) -> tuple[float, float | None]:
    """Absolute and relative coverage lost between two percentages."""
    abs_lost = free_pct - blocked_pct
    rel = 100.0 * abs_lost / free_pct if free_pct > 0 else None
    return abs_lost, rel

