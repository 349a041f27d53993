"""Simple blockage models and head-to-head comparison against measurement.

Two model families predict a blocked overlay from a free-space one:

    constant_loss:  subtract one number everywhere
    flat_region:    subtract one number inside a sharp angular region

Presets carry the customary literature numbers: mean hand loss 15.3 dB,
mean body loss 8.5 dB, and a 30 dB flat in-region loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .coverage import WeightedCDF, percentile_value, weighted_cdf
from .errors import ConfigError, DataError
from .grid import AngularGrid, Pattern, WeightField
from .roi import RoIMask
from .synth import BlockageMask, MaskRegion

# Percentiles at which model deltas are scored against the free overlay.
DELTA_PERCENTILES = (90.0, 80.0, 50.0, 20.0)

# Resolution of reported CDF cross-over levels, in dB.
CROSSOVER_RESOLUTION_DB = 0.1

PRESET_LOSSES_DB = {
    "prior-hand-15.3": 15.3,
    "prior-body-8.5": 8.5,
    "3gpp-flat-30": 30.0,
}


@dataclass(frozen=True)
class BlockageModel:
    """``loss_db`` everywhere, or only inside ``region`` if one is given;
    build via the constructor helpers below."""

    loss_db: float
    region: MaskRegion | None = None

    def __post_init__(self):
        if not np.isfinite(self.loss_db):
            raise ConfigError("loss_db must be finite")


def constant_loss(loss_db: float) -> BlockageModel:
    return BlockageModel(loss_db=float(loss_db))


def flat_region(region: MaskRegion, loss_db: float) -> BlockageModel:
    if region.edge_taper_deg != 0.0:
        raise ConfigError("flat_region models use sharp regions (taper 0)")
    return BlockageModel(loss_db=float(loss_db),
                         region=replace(region, delta_db=float(loss_db)))


def model_preset(name: str, region: MaskRegion | None = None) -> BlockageModel:
    """Build a preset by name; region presets need the region supplied."""
    if name not in PRESET_LOSSES_DB:
        raise ConfigError(f"unknown model preset: {name!r}")
    loss = PRESET_LOSSES_DB[name]
    if name == "3gpp-flat-30":
        if region is None:
            raise ConfigError("preset '3gpp-flat-30' needs a region")
        return flat_region(region, loss)
    return constant_loss(loss)


def _on_grid(r: MaskRegion, grid: AngularGrid) -> bool:
    """Whether a model region's theta span lies on ``grid``'s theta axis."""
    return grid.theta[0] <= r.theta_lo and r.theta_hi <= grid.theta[-1]


def apply_model(free: Pattern, model: BlockageModel) -> Pattern:
    """Predicted blocked pattern: ``free`` minus the model's dB delta."""
    grid, r = free.grid, model.region
    if r is not None and not _on_grid(r, grid):
        raise DataError("model region lies outside the grid")
    delta = (model.loss_db if r is None
             else BlockageMask(regions=(r,)).delta_field(grid))
    return Pattern._adopt(grid, free.values - delta)


@dataclass(frozen=True)
class CandidateResult:
    """One candidate's percentile deltas versus the free overlay."""

    name: str
    deltas_db: dict
    cdf: WeightedCDF = field(compare=False, repr=False, default=None)


@dataclass(frozen=True)
class CrossOver:
    """Level where two candidate CDFs swap order."""

    name_a: str
    name_b: str
    value_dbm: float


@dataclass(frozen=True)
class ComparisonReport:
    candidates: tuple[CandidateResult, ...]
    crossovers: tuple[CrossOver, ...]


def comparison_dict(report: ComparisonReport) -> dict:
    """JSON form of a comparison; deltas keyed by percentile, descending."""
    return {
        "percentiles": list(DELTA_PERCENTILES),
        "candidates": [
            {"name": c.name,
             "deltas_db": {f"{p:g}": c.deltas_db[p]
                           for p in sorted(c.deltas_db, reverse=True)}}
            for c in report.candidates],
        "crossovers": [{"a": x.name_a, "b": x.name_b,
                        "value_dbm": x.value_dbm}
                       for x in report.crossovers],
    }


def _cdf_crossovers(a: WeightedCDF, b: WeightedCDF) -> list[float]:
    """Levels where sign(F_a - F_b) flips, on the merged sample set."""
    xs = np.union1d(a.values, b.values)
    diff = a.cdf_at(xs) - b.cdf_at(xs)
    sign = np.sign(np.where(np.abs(diff) <= 1e-12, 0.0, diff))
    # A flip is a nonzero sign unlike the nonzero one before it; its level
    # is the midpoint between its sample and the sample just below.
    nz = np.flatnonzero(sign)
    flips = nz[1:][sign[nz[1:]] != sign[nz[:-1]]]
    return [round(round(mid / CROSSOVER_RESOLUTION_DB)
                  * CROSSOVER_RESOLUTION_DB, 1)
            for mid in (xs[flips - 1] + xs[flips]) / 2.0]


def compare_models(free: Pattern, candidates: dict, roi: RoIMask,
                   weights: WeightField) -> ComparisonReport:
    """Score candidate blocked overlays against the free one over ``roi``.

    ``candidates`` maps names to blocked Patterns or BlockageModels (models
    are applied to ``free`` first); an iterable of (name, candidate) pairs
    works too. Deltas are free minus candidate at each DELTA_PERCENTILES
    level of the region-restricted weighted CDFs; cross-overs are detected
    between every candidate pair.
    """
    candidates = dict(candidates)
    if not candidates:
        raise DataError("at least one candidate is required")
    free_cdf = weighted_cdf(free, weights, mask=roi)
    results = []
    for name, cand in candidates.items():
        pattern = apply_model(free, cand) if isinstance(cand, BlockageModel) \
            else cand
        cdf = weighted_cdf(pattern, weights, mask=roi)
        deltas = {p: percentile_value(free_cdf, p) - percentile_value(cdf, p)
                  for p in DELTA_PERCENTILES}
        results.append(CandidateResult(name=name, deltas_db=deltas, cdf=cdf))
    crossovers = []
    for ra, rb in itertools.combinations(results, 2):
        for level in _cdf_crossovers(ra.cdf, rb.cdf):
            crossovers.append(CrossOver(name_a=ra.name, name_b=rb.name,
                                        value_dbm=level))
    return ComparisonReport(candidates=tuple(results),
                            crossovers=tuple(crossovers))
