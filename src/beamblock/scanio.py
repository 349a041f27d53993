"""Scan archive CSV schema and the receive link budget.

One CSV row per (grid point, beam, mode) with header

    phi,theta,beam_id,mode,value_dbm

and modes freespace / phantom / true_hand. Values are EIRP in dBm unless a
link budget is supplied to convert raw received power:

    P_rx = EIRP_tx + G_rx - path_loss - cable_loss
    EIRP_tx = P_rx - G_rx + path_loss + cable_loss

Grid points absent from every (mode, beam) series become invalid points;
points absent from only some series are an error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import AngularGrid, Pattern, PatternSet

MODES = ("freespace", "phantom", "true_hand")

CSV_HEADER = ("phi", "theta", "beam_id", "mode", "value_dbm")

SPEED_OF_LIGHT = 299792458.0


def friis_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c)."""
    if distance_m <= 0 or frequency_hz <= 0:
        raise ConfigError("distance and frequency must be positive")
    return 20.0 * np.log10(4.0 * np.pi * distance_m * frequency_hz
                           / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class LinkBudget:
    """Fixed terms between transmit EIRP and received power."""

    rx_gain_dbi: float = 14.0
    path_loss_db: float = 64.91
    cable_loss_db: float = 0.0

    def __post_init__(self):
        terms = (self.rx_gain_dbi, self.path_loss_db, self.cable_loss_db)
        if not all(np.isfinite(t) for t in terms):
            raise ConfigError("link budget terms must be finite")
        if self.path_loss_db < 0 or self.cable_loss_db < 0:
            raise ConfigError("path and cable losses must be >= 0 dB")

    @classmethod
    def from_geometry(cls, distance_m: float, frequency_hz: float,
                      rx_gain_dbi: float = 14.0,
                      cable_loss_db: float = 0.0) -> "LinkBudget":
        return cls(rx_gain_dbi=rx_gain_dbi,
                   path_loss_db=friis_path_loss_db(distance_m, frequency_hz),
                   cable_loss_db=cable_loss_db)


def eirp_from_prx(prx_dbm: float, budget: LinkBudget):
    """Transmit EIRP implied by a received power measurement."""
    return (np.asarray(prx_dbm, dtype=float) - budget.rx_gain_dbi
            + budget.path_loss_db + budget.cable_loss_db)


def prx_from_eirp(eirp_dbm: float, budget: LinkBudget):
    """Received power implied by a transmit EIRP."""
    return (np.asarray(eirp_dbm, dtype=float) + budget.rx_gain_dbi
            - budget.path_loss_db - budget.cable_loss_db)


@dataclass(frozen=True)
class ScanRecord:
    """One CSV row."""

    phi: float
    theta: float
    beam_id: int
    mode: str
    value_dbm: float


@dataclass(frozen=True)
class ScanData:
    """Parsed archive: per-mode pattern sets on one shared grid."""

    grid: AngularGrid
    modes: dict
    beam_ids: dict

    def __getitem__(self, mode: str) -> PatternSet:
        if mode not in self.modes:
            raise DataError(f"mode {mode!r} not present in scan data")
        return self.modes[mode]


def _angle_key(x: float) -> float:
    return round(x, 9)


def _lattice_axis(keys: list, name: str, max_points: int):
    """Axis over the sorted ``keys`` stepped by their smallest gap, with
    unnamed lattice values filling the gaps, and each key's index on it."""
    if len(keys) < 2:
        return np.array(keys), {k: 0 for k in keys}
    lo, hi = keys[0], keys[-1]
    n = round((hi - lo) / float(np.diff(keys).min()))
    pos = (np.array(keys) - lo) * (n / (hi - lo))
    idx = np.rint(pos).astype(int)
    if n >= max_points or np.any(np.abs(pos - idx) > 1e-6):
        raise DataError(f"inferred grid is invalid: {name} values fit no "
                        f"uniform lattice of at most {max_points} points")
    axis = lo + (hi - lo) / n * np.arange(n + 1)
    axis[idx] = keys
    return axis, dict(zip(keys, idx.tolist()))


def parse_scan_csv(path, link_budget: LinkBudget | None = None) -> ScanData:
    """Read a scan archive, inferring the grid and validity mask."""
    records = []
    seen = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataError(f"expected header {','.join(CSV_HEADER)}")
        for row in reader:
            line = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise DataError(f"line {line}: expected 5 fields")
            try:
                rec = ScanRecord(phi=float(row[0]), theta=float(row[1]),
                                 beam_id=int(row[2]), mode=row[3].strip(),
                                 value_dbm=float(row[4]))
            except ValueError as exc:
                raise DataError(f"line {line}: {exc}") from exc
            if not (math.isfinite(rec.phi) and math.isfinite(rec.theta)):
                raise DataError(f"line {line}: non-finite angle")
            if rec.mode not in MODES:
                raise DataError(f"line {line}: unknown mode {rec.mode!r}")
            if rec.beam_id < 0:
                raise DataError(f"line {line}: beam_id must be >= 0")
            key = (rec.mode, rec.beam_id, _angle_key(rec.phi),
                   _angle_key(rec.theta))
            if key in seen:
                raise DataError(f"line {line}: duplicate point, first at "
                                f"line {seen[key]}")
            seen[key] = line
            records.append(rec)
    if not records:
        raise DataError("scan file contains no data rows")

    # Each series must fill at least half of the lattice grid, so the
    # arrays below hold at most two values per row of the file.
    cells = 2 * len(records) // len({(r.mode, r.beam_id) for r in records})
    phis, phi_idx = _lattice_axis(
        sorted({_angle_key(r.phi) for r in records}), "phi", cells)
    thetas, theta_idx = _lattice_axis(
        sorted({_angle_key(r.theta) for r in records}), "theta",
        cells // len(phis))
    series = {}
    for r in records:
        key = (r.mode, r.beam_id)
        if key not in series:
            series[key] = np.full((len(thetas), len(phis)), np.nan)
        series[key][theta_idx[_angle_key(r.theta)],
                    phi_idx[_angle_key(r.phi)]] = r.value_dbm

    present = np.stack([~np.isnan(m) for m in series.values()])
    count = present.sum(axis=0)
    valid = count == len(series)
    partial = (count > 0) & ~valid
    if partial.any():
        it, ip = np.argwhere(partial)[0]
        raise DataError(f"point phi={phis[ip]:g} theta={thetas[it]:g} is "
                        f"present in only {count[it, ip]} of {len(series)} "
                        "(mode, beam) series")
    try:
        grid = AngularGrid(phi=phis, theta=thetas, valid=valid)
    except ConfigError as exc:
        raise DataError(f"inferred grid is invalid: {exc}") from exc

    modes = {}
    beam_ids = {}
    for mode in sorted({m for m, _ in series}):
        ids = sorted(b for m, b in series if m == mode)
        beam_ids[mode] = tuple(ids)
        patterns = []
        for b in ids:
            values = series[(mode, b)]
            if link_budget is not None:
                values = eirp_from_prx(values, link_budget)
            patterns.append(Pattern.from_values(grid, values, kind="eirp"))
        modes[mode] = PatternSet(patterns=tuple(patterns))
    return ScanData(grid=grid, modes=modes, beam_ids=beam_ids)


def write_scan_csv(path, data) -> None:
    """Write a scan archive deterministically.

    ``data`` is a ScanData or a mapping mode -> PatternSet. Rows are ordered
    by mode, beam, theta, phi ascending; only valid points are written;
    values carry six decimal places.
    """
    if isinstance(data, ScanData):
        modes, beam_ids = data.modes, data.beam_ids
    else:
        modes, beam_ids = data, {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for mode in sorted(modes):
            pset = modes[mode]
            ids = beam_ids.get(mode) or tuple(range(len(pset)))
            grid = pset.grid
            for beam, pattern in zip(ids, pset):
                for it, theta in enumerate(grid.theta):
                    for ip, phi in enumerate(grid.phi):
                        if not grid.valid[it, ip]:
                            continue
                        writer.writerow([repr(float(phi)), repr(float(theta)),
                                         beam, mode,
                                         f"{pattern.values[it, ip]:.6f}"])
