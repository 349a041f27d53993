"""Synthetic phased-array pattern generator and blockage masks.

A uniform linear array sits with its boresight on the equator of the
measurement sphere (theta = 90, phi = boresight_phi) and its element axis
tangent to the equator. With dphi = wrap(phi - boresight_phi), the angle
psi off boresight and the direction cosine u along the array axis are

    cos(psi) = sin(theta) * cos(dphi)
    u        = sin(theta) * sin(dphi)

so no Cartesian conversion is needed anywhere. Element models are
one-parameter idealizations: a patch with cos^q power rolloff (front
hemisphere only) and a dipole with cos^2 amplitude rolloff toward the
array axis. EIRP(dir) = tx_power + element_gain(dir) + array_factor(dir).
The array factor depends on u alone, so synthesis evaluates it once per
distinct u of the lattice and gathers it back onto the grid. That lattice
depends on the grid axes and the boresight alone, so the process keeps
the last one (``_u_lattice``) for the next synthesis on them. Its phasor
table is element-major, one row of distinct u per element, and the array
factor sums those rows as whole arrays in the fixed pairwise order of
``_sum_rows``, so its bits depend on neither the table's layout nor
numpy's reduction loop. Analysis reads only best-beam fields: a set takes
its raw best-beam field from that table when made, and holds the table
until its per-beam values are read; the set, not synthesis, cleans both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import AngularGrid, PatternSet

# Patch element power-rolloff exponent; q = 1 gives the ~90 deg element
# half-power beamwidth the synthetic codebooks are calibrated around.
PATCH_Q = 1.0

_ELEMENT_KINDS = ("patch", "dipole", "isotropic")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array description."""

    n_elements: int = 4
    spacing: float = 0.5          # element pitch in wavelengths
    element_kind: str = "patch"
    phase_bits: int = 3           # 0 means ideal (unquantized) phases
    tx_power_dbm: float = -30.0
    element_peak_gain_dbi: float = 5.0
    boresight_phi: float = 180.0

    def __post_init__(self):
        if not 1 <= self.n_elements <= 1 << 16:
            raise ConfigError("bad array: n_elements must lie in [1, 65536]")
        if not self.spacing > 0:
            raise ConfigError("spacing must be positive (wavelengths)")
        # steering phases reach 360 * spacing * (n_elements - 1) degrees
        ramp = 360.0 * float(self.spacing) * int(self.n_elements)
        if not math.isfinite(ramp):
            raise ConfigError(f"bad array: spacing {self.spacing:g} overflows "
                              f"the phase ramp of {self.n_elements} elements")
        if self.element_kind not in _ELEMENT_KINDS:
            raise ConfigError(f"element_kind must be one of {_ELEMENT_KINDS}")
        if not 0 <= self.phase_bits <= 8:
            raise ConfigError("phase_bits must lie in [0, 8]")
        if not 0.0 <= self.boresight_phi < 360.0:
            raise ConfigError("boresight_phi must lie in [0, 360)")


@dataclass(frozen=True)
class BeamSpec:
    """One codebook entry: scan angle off boresight, optional taper."""

    scan_deg: float = 0.0
    amplitude_taper: tuple[float, ...] | None = None

    def __post_init__(self):
        if not -90.0 < self.scan_deg < 90.0:
            raise ConfigError("scan_deg must lie in (-90, 90)")
        if self.amplitude_taper is not None:
            t = tuple(float(x) for x in self.amplitude_taper)
            if any(not 0.0 <= x <= 1.0 for x in t):
                raise ConfigError("amplitude taper entries must be in [0, 1]")
            object.__setattr__(self, "amplitude_taper", t)


def quantize_phases_deg(phases_deg: np.ndarray, bits: int) -> np.ndarray:
    """Snap phases to the 360/2^bits lattice, ties toward the lower phase."""
    if bits == 0:
        return np.asarray(phases_deg, dtype=float) % 360.0
    step = 360.0 / (1 << bits)
    ph = np.asarray(phases_deg, dtype=float) % 360.0
    idx = np.ceil(ph / step - 0.5)
    return (idx * step) % 360.0


def steering_weights(config: ArrayConfig, beam: BeamSpec) -> np.ndarray:
    """Complex element weights steering toward ``beam.scan_deg``."""
    n = config.n_elements
    if beam.amplitude_taper is None:
        taper = np.ones(n)
    else:
        taper = np.asarray(beam.amplitude_taper, dtype=float)
        if taper.size != n:
            raise ConfigError("amplitude taper length must match n_elements")
    k = np.arange(n)
    phases = (-360.0 * config.spacing * k
              * np.sin(np.deg2rad(beam.scan_deg)))
    phases = quantize_phases_deg(phases, config.phase_bits)
    return taper * np.exp(1j * np.deg2rad(phases))


def _steering_phasors(config: ArrayConfig, u) -> np.ndarray:
    """exp(j 2pi d u k), element-major: row k holds element k's phasor at
    every point of the 1-D ``u``. Shared by every beam; the array factor
    sums the rows with ``_sum_rows``."""
    return np.exp(1j * (2.0 * np.pi * config.spacing * np.asarray(u)
                        * np.arange(config.n_elements)[:, None]))


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum the rows of ``terms`` in place, in numpy's pairwise order.

    The total has the bits of ``terms.T.sum(axis=-1)``: n < 4 rows add
    left to right; up to 64 rows add as four strided partial sums over
    whole blocks of four, combined (r0 + r1) + (r2 + r3), then the n % 4
    leftover rows; more rows split at (n - n % 8) // 2 and each half sums
    by these rules. Returns the view of ``terms`` that holds the total.
    """
    n = len(terms)
    if n > 64:
        half = (n - n % 8) // 2
        total = _sum_rows(terms[:half])
        total += _sum_rows(terms[half:])
        return total
    if n < 4:
        for row in terms[1:]:
            terms[0] += row
        return terms[0]
    whole = n - n % 4
    acc = terms[:4]
    for i in range(4, whole, 4):
        acc += terms[i:i + 4]
    acc[0] += acc[1]
    acc[2] += acc[3]
    acc[0] += acc[2]
    for row in terms[whole:]:
        acc[0] += row
    return acc[0]


def _array_factor_db(weights: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    total = np.abs(_sum_rows(weights[:, None] * phasors))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(total)


def _direction_cosines(boresight_phi: float, phi_deg, theta_deg):
    dphi_r = np.deg2rad((np.asarray(phi_deg, dtype=float)
                         - boresight_phi + 180.0) % 360.0 - 180.0)
    sin_t = np.sin(np.deg2rad(np.asarray(theta_deg, dtype=float)))
    return sin_t * np.cos(dphi_r), sin_t * np.sin(dphi_r)


@functools.lru_cache(maxsize=1)
def _u_lattice(phi_bytes: bytes, theta_bytes: bytes, boresight_phi: float):
    """The distinct u, ascending, of the grid with float64 axes
    ``phi_bytes`` and ``theta_bytes`` seen from ``boresight_phi``, and each
    point's index into them; both read-only. Keyed on the axes, not on the
    grid, whose validity mask the lattice does not read, so studies on one
    grid share it whatever their invalid bands."""
    _, u = _direction_cosines(boresight_phi, np.frombuffer(phi_bytes),
                              np.frombuffer(theta_bytes)[:, None])
    # Ravel first: the inverse is then 1-D on every numpy version.
    u_set, at = np.unique(u.ravel(), return_inverse=True)
    at = at.reshape(u.shape)
    u_set.setflags(write=False)
    at.setflags(write=False)
    return u_set, at


def _element_gain_db(config: ArrayConfig, cos_psi, u) -> np.ndarray:
    peak = config.element_peak_gain_dbi
    with np.errstate(divide="ignore", invalid="ignore"):
        if config.element_kind == "patch":
            return np.where(cos_psi > 0,
                            peak + 20.0 * PATCH_Q * np.log10(cos_psi), -np.inf)
        if config.element_kind == "dipole":
            roll = 1.0 - u * u
            return np.where(roll > 0, peak + 20.0 * np.log10(roll), -np.inf)
    return np.full(np.shape(cos_psi), float(peak))


def synth_pattern_set(config: ArrayConfig, beams: list[BeamSpec],
                      grid: AngularGrid) -> PatternSet:
    """EIRP pattern per codebook beam on ``grid``, floor-clamped."""
    if not beams:
        raise ConfigError("at least one beam is required")
    u_set, at = _u_lattice(grid.phi.tobytes(), grid.theta.tobytes(),
                           config.boresight_phi)
    cos_psi, u = _direction_cosines(config.boresight_phi, grid.phi,
                                    grid.theta[:, None])
    with np.errstate(over="ignore"):  # +inf is refused, -inf floored
        base = config.tx_power_dbm + _element_gain_db(config, cos_psi, u)
    phasors = _steering_phasors(config, u_set)
    af_db = np.array([_array_factor_db(steering_weights(config, beam), phasors)
                      for beam in beams])
    # Adding the base and the FLOOR_DB clamp are monotone, even rounded, so
    # the best-beam field takes the maximum over beams first; the set cleans
    # it at once, so a non-finite value errs here.
    best = base + af_db.max(axis=0)[at]

    def cube():
        values = np.take(af_db, at, axis=1)
        values += base
        return values

    return PatternSet._deferred(grid, tuple(range(len(beams))), best, cube)


@dataclass(frozen=True)
class MaskRegion:
    """Rectangular (phi, theta) patch of extra loss or reflection gain.

    ``delta_db`` > 0 attenuates, < 0 models a reflection that adds power.
    ``edge_taper_deg`` is the width of a raised-cosine ramp straddling each
    border (membership is exactly 0.5 on the border); 0 means sharp edges
    with non-strict boundaries.
    """

    phi_lo: float
    phi_hi: float
    theta_lo: float
    theta_hi: float
    delta_db: float
    edge_taper_deg: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phi_lo < 360.0 or not 0.0 < self.phi_hi <= 360.0:
            raise ConfigError("phi bounds must lie in [0, 360]")
        if self.phi_lo == self.phi_hi:
            raise ConfigError("phi_lo and phi_hi must differ")
        if not 0.0 < self.theta_lo <= self.theta_hi < 180.0:
            raise ConfigError("theta bounds must satisfy 0 < lo <= hi < 180")
        if not np.isfinite(self.delta_db):
            raise ConfigError("delta_db must be finite")
        if not 0.0 <= self.edge_taper_deg < np.inf:
            raise ConfigError("edge_taper_deg must be finite and >= 0")


def _axis_membership(inner: np.ndarray, taper: float) -> np.ndarray:
    """Raised-cosine membership from signed distance inside the border."""
    if taper == 0.0:
        return (inner >= 0.0).astype(float)
    half = taper / 2.0
    ramp = 0.5 * (1.0 - np.cos(np.pi * (inner + half) / taper))
    return np.where(inner <= -half, 0.0, np.where(inner >= half, 1.0, ramp))


def _region_membership(region: MaskRegion, grid: AngularGrid) -> np.ndarray:
    # phi interval may wrap: measure distance from the interval center.
    lo, hi = region.phi_lo, region.phi_hi
    width = (hi - lo) % 360.0 if hi <= lo else hi - lo
    center = (lo + width / 2.0) % 360.0
    dist = np.abs((grid.phi - center + 180.0) % 360.0 - 180.0)
    m_phi = _axis_membership(width / 2.0 - dist, region.edge_taper_deg)
    t_center = (region.theta_lo + region.theta_hi) / 2.0
    t_half = (region.theta_hi - region.theta_lo) / 2.0
    m_theta = _axis_membership(t_half - np.abs(grid.theta - t_center),
                               region.edge_taper_deg)
    return m_theta[:, None] * m_phi[None, :]


@dataclass(frozen=True)
class BlockageMask:
    """Ordered list of regions; later regions override where they overlap."""

    regions: tuple[MaskRegion, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    def delta_field(self, grid: AngularGrid) -> np.ndarray:
        """Per-point dB delta to subtract from a free-space pattern."""
        field = np.zeros(grid.shape)
        for region in self.regions:
            m = _region_membership(region, grid)
            field = (1.0 - m) * field + m * region.delta_db
        return field


def apply_blockage_mask(free: PatternSet, mask: BlockageMask) -> PatternSet:
    """Subtract the mask's delta field from every beam pattern.

    The masked best-beam field, the free one minus the delta field, is made
    at once, so a non-finite value errs here, as the free set's does; the
    per-beam values are made from ``free.values`` on first read. Neither
    keeps the delta field; the masked set holds ``free`` until then.
    """
    grid = free.grid
    with np.errstate(over="ignore"):  # +inf is refused, -inf floored
        best = free.best() - mask.delta_field(grid)

    def cube():
        with np.errstate(over="ignore"):
            return free.values - mask.delta_field(grid)

    return PatternSet._deferred(grid, free.beam_ids, best, cube)
