"""Reference EIRP model the tests check vectorized synthesis against.

Written out from the model in ``beamblock.synth``'s docstring, point by
point and without the library's private helpers, in the same floating-point
operations, so that synthesis must match it byte for byte.
"""

import numpy as np

from beamblock.grid import FLOOR_DB
from beamblock.synth import PATCH_Q


def _cosines(config, phi_deg, theta_deg):
    """cos(psi) off boresight and u along the array axis."""
    dphi = np.deg2rad((np.asarray(phi_deg, dtype=float)
                       - config.boresight_phi + 180.0) % 360.0 - 180.0)
    sin_t = np.sin(np.deg2rad(np.asarray(theta_deg, dtype=float)))
    return sin_t * np.cos(dphi), sin_t * np.sin(dphi)


def _af_db(config, weights, u):
    k = np.arange(config.n_elements)
    terms = np.exp(1j * (2.0 * np.pi * config.spacing
                         * np.asarray(u)[..., None] * k))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs((weights * terms).sum(axis=-1)))


def _element_db(config, cos_psi, u):
    peak = config.element_peak_gain_dbi
    with np.errstate(divide="ignore", invalid="ignore"):
        if config.element_kind == "patch":
            return np.where(cos_psi > 0,
                            peak + 20.0 * PATCH_Q * np.log10(cos_psi),
                            -np.inf)
        if config.element_kind == "dipole":
            return np.where(1.0 - u * u > 0,
                            peak + 20.0 * np.log10(1.0 - u * u), -np.inf)
    return np.full(np.shape(cos_psi), float(peak))


def array_factor_db(config, weights, angle_off_boresight):
    """Array factor in dB on the scan plane, angle in degrees; exact nulls
    clamp to the floor sentinel instead of -inf."""
    u = np.sin(np.deg2rad(np.asarray(angle_off_boresight, dtype=float)))
    return np.maximum(_af_db(config, weights, u), FLOOR_DB)


def element_gain_db(config, phi_deg, theta_deg):
    """Element power gain in dBi at broadcastable (phi, theta) arrays."""
    return _element_db(config, *_cosines(config, phi_deg, theta_deg))


def eirp_at(config, weights, phi_deg, theta_deg):
    """EIRP in dBm at arbitrary angles, without the floor clamp."""
    cos_psi, u = _cosines(config, phi_deg, theta_deg)
    return (config.tx_power_dbm + _element_db(config, cos_psi, u)
            + _af_db(config, weights, u))
