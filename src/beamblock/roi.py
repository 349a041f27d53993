"""Region-of-interest definitions over best-beam overlay patterns.

Five region laws, all built from non-strict thresholds on the free-space
overlay G and the blocked overlay G_b (peak values taken over valid points):

    R1: G >= max(G) - d1
    R2: R1 or G_b >= max(G_b) - d2
    R3: R1 or G_b >= max(G) - d3
    R4: R1 or G_b >= d4          (absolute EIRP floor)
    R5: G >= d5 or G_b >= d5     (either-pattern absolute floor)

R1 depends only on the free pattern; R2-R4 extend an R1 core, so each
contains R1 by construction. The matched baseline for R5 keeps only the
free-pattern half of its rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .grid import (AngularGrid, Pattern, WeightField, _ArrayRecord,
                   _one_grid, point_prefixes)
from .scanio import write_text


@dataclass(frozen=True, eq=False)
class RoIMask(_ArrayRecord):
    """Boolean region on a grid's valid points, tagged with the law that
    produced it. Compares and hashes by grid, mask and kind."""

    grid: AngularGrid
    mask: np.ndarray
    kind: str
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise DataError("mask shape must match the grid")
        self._keep(mask=m & self.grid.valid)

    def coverage(self, weights: WeightField) -> float:
        """The region's share of the valid sphere, in percent."""
        _one_grid("region and weights", self, weights)
        return 100.0 * float(weights.weights[self.mask].sum())


def _check_delta(value: float, name: str) -> None:
    # relative widths only; absolute floors (delta4/delta5) may be negative
    if value < 0:
        raise ConfigError(f"{name} must be >= 0 dB")


def roi_r1(free: Pattern, delta1: float) -> RoIMask:
    """Within delta1 dB of the free-space overlay peak."""
    _check_delta(delta1, "delta1")
    thr = free.max_value() - delta1
    return RoIMask(grid=free.grid, mask=free.values >= thr, kind="R1",
                   params={"delta1": delta1, "threshold_dbm": thr})


def _r1_plus(kind: str, free: Pattern, blocked: Pattern, delta1: float,
             blocked_thr: float, params: dict) -> RoIMask:
    """R1, extended by blocked points at or above ``blocked_thr``."""
    _one_grid("free and blocked patterns", free, blocked)
    mask = roi_r1(free, delta1).mask | (blocked.values >= blocked_thr)
    return RoIMask(grid=free.grid, mask=mask, kind=kind,
                   params={"delta1": delta1, **params})


def roi_r2(free: Pattern, blocked: Pattern, delta1: float,
           delta2: float) -> RoIMask:
    """R1, extended by points near the blocked overlay's own peak."""
    _check_delta(delta2, "delta2")
    thr = blocked.max_value() - delta2
    return _r1_plus("R2", free, blocked, delta1, thr,
                    {"delta2": delta2, "blocked_threshold_dbm": thr})


def roi_r3(free: Pattern, blocked: Pattern, delta1: float,
           delta3: float) -> RoIMask:
    """R1, extended by blocked points near the free-space peak."""
    _check_delta(delta3, "delta3")
    thr = free.max_value() - delta3
    return _r1_plus("R3", free, blocked, delta1, thr,
                    {"delta3": delta3, "blocked_threshold_dbm": thr})


def roi_r4(free: Pattern, blocked: Pattern, delta1: float,
           delta4: float) -> RoIMask:
    """R1, extended by blocked points above an absolute EIRP floor."""
    return _r1_plus("R4", free, blocked, delta1, delta4, {"delta4": delta4})


def roi_r5(free: Pattern, blocked: Pattern, delta5: float) -> RoIMask:
    """Points where either overlay clears an absolute EIRP floor."""
    _one_grid("free and blocked patterns", free, blocked)
    mask = (free.values >= delta5) | (blocked.values >= delta5)
    return RoIMask(grid=free.grid, mask=mask, kind="R5",
                   params={"delta5": delta5})


def matched_r1_for_r5(free: Pattern, delta5: float) -> RoIMask:
    """Free-pattern-only baseline with the same absolute floor as R5.

    An empty baseline (floor above the free-space peak) is legal: coverage
    is then 0% and relative improvement is undefined. The ``empty`` flag in
    ``params`` marks that case for report emitters.
    """
    raw = np.asarray(free.values >= delta5) & free.grid.valid
    return RoIMask(grid=free.grid, mask=raw, kind="R1",
                   params={"delta5": delta5, "empty": not bool(raw.any())})


# kind -> (law on the free and blocked overlays and deltas, naming its
# function at call time; the deltas it reads; baseline, None if free-only).
ROI_LAWS = {
    "r1": (lambda f, b, *d: roi_r1(f, *d), ("delta1",), None),
    "r2": (lambda f, b, *d: roi_r2(f, b, *d), ("delta1", "delta2"), "r1"),
    "r3": (lambda f, b, *d: roi_r3(f, b, *d), ("delta1", "delta3"), "r1"),
    "r4": (lambda f, b, *d: roi_r4(f, b, *d), ("delta1", "delta4"), "r1"),
    "r5": (lambda f, b, *d: roi_r5(f, b, *d), ("delta5",), "r1_matched"),
    "r1_matched": (lambda f, b, *d: matched_r1_for_r5(f, *d), ("delta5",),
                   None),
}

# Every law default: dB below a peak (delta1-3) or a floor in dBm (delta4-5).
DELTA_DEFAULTS = {"delta1": 5.0, "delta2": 5.0, "delta3": 10.0,
                  "delta4": -35.0, "delta5": -35.0}


@dataclass(frozen=True)
class RoIImprovement:
    """Coverage gained by an enhanced region over its baseline."""

    base_pct: float
    enhanced_pct: float
    abs_pct: float
    rel_pct: float | None


def improvement_from_percent(base_pct: float,
                             enhanced_pct: float) -> RoIImprovement:
    """Improvement metrics from two already-computed coverages."""
    abs_pct = enhanced_pct - base_pct
    rel = 100.0 * abs_pct / base_pct if base_pct > 0 else None
    return RoIImprovement(base_pct=base_pct, enhanced_pct=enhanced_pct,
                          abs_pct=abs_pct, rel_pct=rel)


def roi_improvement(base: RoIMask, enhanced: RoIMask,
                    weights: WeightField) -> RoIImprovement:
    """Absolute and relative sphere coverage gained by ``enhanced``."""
    return improvement_from_percent(base.coverage(weights),
                                    enhanced.coverage(weights))


def write_roi_csv(mask: RoIMask, path) -> None:
    """Dump a region as one `phi,theta,in_roi` row per grid point."""
    points = point_prefixes(mask.grid, np.ones(mask.grid.shape, dtype=bool))
    write_text(path, ("phi,theta,in_roi\n" + "%d\n".join(points) + "%d\n")
               % tuple(mask.mask.ravel().tolist()))
