"""Spherical sampling grid, solid-angle weights, and pattern containers.

Angles are in degrees throughout: phi is azimuth in [0, 360), theta is
elevation from zenith in (0, 180). A grid is the cross product of the two
axes; arrays are indexed [i_theta, i_phi]. Points can be marked invalid
(e.g. an elevation band a positioner cannot reach) and every statistic in
this package then ignores them on both sides of the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError

# Sentinel floor for pattern values in dB; anything below clamps to this.
FLOOR_DB = -200.0

# Tolerance for checking that grid steps are uniform, in degrees.
_STEP_TOL = 1e-9


class _ArrayRecord:
    """Base of every ``@dataclass(frozen=True, eq=False)`` holding numpy
    arrays: each is stored read-only, a writable input as a copy, so no
    constructor freezes or aliases a caller's array. Records of one type
    are equal when every ``compare=True`` field is, arrays by
    ``np.array_equal(..., equal_nan=True)``; the hash agrees."""

    def _keep(self, **values) -> None:
        """Set the named fields, arrays stored read-only."""
        for name, value in values.items():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                value = value.copy()
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _compared(self) -> list:
        return [getattr(self, f.name) for f in fields(self) if f.compare]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray)
            else a == b for a, b in zip(self._compared(), other._compared()))

    def __hash__(self):  # an array as float bytes, one NaN, 0.0 for -0.0
        return hash(tuple(np.where(v != v, np.nan, v + 0.0).tobytes()
                          if isinstance(v, np.ndarray) else v
                          for v in self._compared()))


def _check_axis(values: np.ndarray, name: str, lo: float, hi: float,
                lo_open: bool, hi_open: bool) -> None:
    if values.ndim != 1 or values.size == 0:
        raise ConfigError(f"{name} axis must be a non-empty 1-D array")
    if not np.isfinite(values).all():
        raise ConfigError(f"{name} axis must be finite")
    if np.any(np.diff(values) <= 0):
        raise ConfigError(f"{name} axis must be strictly ascending")
    v0, v1 = float(values[0]), float(values[-1])
    if (v0 < lo or (lo_open and v0 == lo)) or (v1 > hi or (hi_open and v1 == hi)):
        raise ConfigError(f"{name} axis must lie in the valid angle range")
    if values.size >= 3:
        steps = np.diff(values)
        if np.any(np.abs(steps - steps[0]) > _STEP_TOL):
            raise ConfigError(f"{name} axis steps must be uniform")


@dataclass(frozen=True, eq=False)
class AngularGrid(_ArrayRecord):
    """Uniform (phi, theta) lattice with a shared validity mask. Compares
    and hashes by value, -0.0 equal to 0.0; copies a writable input array."""

    phi: np.ndarray
    theta: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        _check_axis(phi, "phi", 0.0, 360.0, lo_open=False, hi_open=True)
        _check_axis(theta, "theta", 0.0, 180.0, lo_open=True, hi_open=True)
        valid = np.asarray(self.valid, dtype=bool)
        if valid.shape != (theta.size, phi.size):
            raise ConfigError("valid mask shape must be (n_theta, n_phi)")
        if not valid.any():
            raise ConfigError("grid must contain at least one valid point")
        self._keep(phi=phi, theta=theta, valid=valid)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.theta.size, self.phi.size)

    @property
    def phi_step(self) -> float:
        return float(self.phi[1] - self.phi[0]) if self.phi.size > 1 else 360.0

    @property
    def theta_step(self) -> float:
        return float(self.theta[1] - self.theta[0]) if self.theta.size > 1 else 180.0


def make_grid(phi_step: float, theta_min: float, theta_max: float,
              theta_step: float | None = None) -> AngularGrid:
    """Build the full-azimuth measurement lattice.

    Parameters
    ----------
    phi_step : float
        Azimuth step in degrees; must divide 360 evenly.
    theta_min, theta_max : float
        First and last elevation sample in degrees, 0 < theta < 180.
    theta_step : float, optional
        Elevation step; defaults to ``phi_step``. ``theta_max - theta_min``
        must be an integer number of steps.

    Returns
    -------
    AngularGrid
        All points valid. Mark bands invalid by constructing a new grid
        with an edited mask (see ``with_invalid_band``).
    """
    if not 0.0 < phi_step <= 90.0:
        raise ConfigError("phi_step must be in (0, 90] degrees")
    tstep = phi_step if theta_step is None else theta_step
    if not 0.0 < tstep < np.inf:
        raise ConfigError("theta_step must be finite and positive")
    n_phi = int(round(360.0 / phi_step))
    if n_phi < 1 or abs(n_phi * phi_step - 360.0) > _STEP_TOL:
        raise ConfigError("phi_step must divide 360 degrees evenly")
    if not 0.0 < theta_min < theta_max < 180.0:
        raise ConfigError("theta range must satisfy 0 < min < max < 180")
    n_theta = int(round((theta_max - theta_min) / tstep)) + 1
    if abs((n_theta - 1) * tstep - (theta_max - theta_min)) > 1e-6:
        raise ConfigError("theta range must be an integer number of steps")
    phi = phi_step * np.arange(n_phi)
    theta = theta_min + tstep * np.arange(n_theta)
    valid = np.ones((n_theta, n_phi), dtype=bool)
    return AngularGrid(phi=phi, theta=theta, valid=valid)


def with_invalid_band(grid: AngularGrid, theta_lo: float,
                      theta_hi: float) -> AngularGrid:
    """Copy of ``grid`` with theta in [theta_lo, theta_hi] marked invalid."""
    band = (grid.theta >= theta_lo) & (grid.theta <= theta_hi)
    valid = grid.valid & ~band[:, None]
    return AngularGrid(phi=grid.phi, theta=grid.theta, valid=valid)


@dataclass(frozen=True, eq=False)
class WeightField(_ArrayRecord):
    """Per-point solid-angle weights; zero at invalid points, sum of 1.
    Compares and hashes by value; copies a writable input array."""

    grid: AngularGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != self.grid.shape:
            raise ConfigError("weights shape must match the grid")
        if np.any(w < 0) or np.any(w[~self.grid.valid] != 0):
            raise ConfigError("weights must be >= 0 and zero at invalid points")
        if not abs(float(w.sum()) - 1.0) <= 1e-9:  # NaN too
            raise ConfigError("weights must sum to 1")
        self._keep(weights=w)


def point_prefixes(grid: AngularGrid, mask: np.ndarray) -> list[str]:
    """``"phi,theta,"`` of each point where the boolean ``mask`` holds,
    theta-major, with ``repr(float)`` angles: how the rows of the scan and
    region archives start. No prefix holds a '%', so callers may use them
    in templates."""
    phis = [f"{x!r}," for x in grid.phi.tolist()]
    return [p + t for t, row in zip([f"{x!r}," for x in grid.theta.tolist()],
                                    mask.tolist())
            for p, keep in zip(phis, row) if keep]


def solid_angle_weights(grid: AngularGrid) -> WeightField:
    """sin(theta) area weights on the lattice, normalized over valid points.

    Uniform steps make the cell area proportional to sin(theta) alone; the
    phi and theta step sizes cancel in the normalization.
    """
    w = np.where(grid.valid, np.sin(np.deg2rad(grid.theta))[:, None], 0.0)
    w /= w.sum()
    w.setflags(write=False)
    return WeightField(grid=grid, weights=w)


def uniform_weights(grid: AngularGrid) -> WeightField:
    """Equal mass at every valid point (unweighted statistics)."""
    w = np.where(grid.valid, 1.0, 0.0)
    return WeightField(grid=grid, weights=w / w.sum())


def _one_grid(what: str, first, *rest) -> AngularGrid:
    """The grid of ``first``, which every record of ``rest`` but None must
    share; DataError naming ``what`` if one does not."""
    if any(r is not None and r.grid != first.grid for r in rest):
        raise DataError(f"{what} must share one grid")
    return first.grid


def _cleaned(grid: AngularGrid, values, ndim: int) -> np.ndarray:
    """``values``, a fresh C-ordered float field on ``grid`` (ndim 2) or a
    stack of them (ndim 3), cleaned in place and made read-only: NaN at
    invalid points and clamped up to ``FLOOR_DB``; DataError if a valid
    point is not finite."""
    v = np.asarray(values, dtype=float, order="C")
    if v.ndim != ndim or v.shape[-2:] != grid.shape:
        raise ConfigError("values shape must match the grid")
    v[..., ~grid.valid] = np.nan
    v[v < FLOOR_DB] = FLOOR_DB
    if np.any(~np.isfinite(v) & grid.valid):
        raise DataError("non-finite value at a valid grid point")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class Pattern(_ArrayRecord):
    """A scalar dB field on a grid: EIRP (dBm) or blockage loss (dB).

    Values are NaN at invalid points. Anything below ``FLOOR_DB`` has been
    clamped to it. Compares and hashes by value, NaN equal to NaN and -0.0
    to 0.0; copies a writable input array.
    """

    grid: AngularGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ConfigError("values shape must match the grid")
        self._keep(values=v)

    @classmethod
    def from_values(cls, grid: AngularGrid, values: np.ndarray) -> "Pattern":
        """Clamp to the floor, blank invalid points, and wrap a copy."""
        return cls._adopt(grid, np.array(values, float, order="C"))

    @classmethod
    def _adopt(cls, grid: AngularGrid, values: np.ndarray) -> "Pattern":
        """``from_values`` of a fresh float array, cleaned in place."""
        return cls(grid=grid, values=_cleaned(grid, values, 2))

    def max_value(self) -> float:
        return float(np.nanmax(self.values[self.grid.valid]))


@dataclass(frozen=True, eq=False)
class PatternSet(_ArrayRecord):
    """One pattern per codebook beam: ``values`` is a read-only (n_beams,
    n_theta, n_phi) copy, cleaned as ``Pattern.from_values`` cleans one, and
    ``beam_ids`` the distinct integers in [0, 2**63) that a scan archive
    names the beams by, 0..n-1 by default. Iteration yields read-only
    ``Pattern`` views of the beams. Compares and hashes by value, NaN equal
    to NaN and -0.0 to 0.0.

    Every set holds its read-only best-beam field from the start. A set
    from ``_deferred`` (synthesis, masking and parsing) builds ``values``
    on their first read; ``len``, ``grid``, ``beam_ids`` and ``best`` never
    build them. Every set pickles as its built values."""

    grid: AngularGrid
    values: np.ndarray
    beam_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        v = _cleaned(self.grid, np.array(self.values, float, order="C"), 3)
        if not len(v):
            raise ConfigError("a pattern set needs at least one beam")
        ids = tuple(range(len(v)) if self.beam_ids is None else self.beam_ids)
        if not all(isinstance(b, (int, np.integer)) and 0 <= b < 2**63
                   for b in ids) or not len(v) == len(ids) == len(set(ids)):
            raise DataError(f"beam_ids must be {len(v)} distinct integers in "
                            "[0, 2**63)")
        best = v.max(axis=0)
        best.setflags(write=False)
        self._keep(values=v, beam_ids=tuple(map(int, ids)), _best=best)

    @classmethod
    def _deferred(cls, grid: AngularGrid, beam_ids: tuple[int, ...],
                  best: np.ndarray, cube) -> "PatternSet":
        """The set of best-beam field ``best`` and values ``cube()``, both
        fresh writable arrays cleaned in place (pass ``free.best() - d``,
        never ``free.best()``): ``best`` now, the cube on the first read of
        ``values``, which then drops ``cube``. ``beam_ids`` must be valid."""
        pset = cls.__new__(cls)
        pset._keep(grid=grid, beam_ids=beam_ids,
                   _best=_cleaned(grid, best, 2), _cube=cube)
        return pset

    def __getattr__(self, name):
        # reached only for what the instance lacks: unbuilt deferred values
        if name != "values" or "_cube" not in self.__dict__:
            raise AttributeError(name)
        self._keep(values=_cleaned(self.grid, self._cube(), 3))
        del self.__dict__["_cube"]
        return self.values

    def __reduce__(self):
        return type(self), (self.grid, self.values, self.beam_ids)

    def best(self) -> np.ndarray:
        """The read-only pointwise maximum over the beams."""
        return self._best

    def __len__(self) -> int:
        return len(self.beam_ids)

    def __iter__(self):
        return (Pattern(grid=self.grid, values=v) for v in self.values)
