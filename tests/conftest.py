"""Shared fixtures for the test suite."""

import importlib
import pkgutil

import pytest

import beamblock
from beamblock.grid import PatternSet, make_grid
from beamblock.synth import ArrayConfig, BeamSpec, synth_pattern_set

# Hypothesis draws some values from the constants of the local modules in
# sys.modules, so a derandomized test would draw other examples after other
# tests had imported more of them. Every beamblock module is imported here,
# and the perfbench modules that tests load leave sys.modules once loaded,
# so every run draws from the same pool.
for _module in pkgutil.iter_modules(beamblock.__path__):
    importlib.import_module(f"beamblock.{_module.name}")


@pytest.fixture(scope="session")
def full_grid():
    return make_grid(5.0, 5.0, 175.0)


@pytest.fixture(scope="session")
def tiny_grid():
    # 2 theta rows (45, 135) x 4 columns, valid everywhere; all 8 weights
    # are equal
    return make_grid(90.0, 45.0, 135.0)


@pytest.fixture(scope="session")
def patch_config():
    return ArrayConfig(n_elements=4, spacing=0.5, element_kind="patch",
                       phase_bits=3, tx_power_dbm=-30.0,
                       element_peak_gain_dbi=5.0, boresight_phi=180.0)


@pytest.fixture(scope="session")
def patch_beams():
    return [BeamSpec(scan_deg=0.0), BeamSpec(scan_deg=30.0),
            BeamSpec(scan_deg=-30.0)]


@pytest.fixture(scope="session")
def patch_set(full_grid, patch_config, patch_beams) -> PatternSet:
    return synth_pattern_set(patch_config, patch_beams, full_grid)


@pytest.fixture(scope="session")
def dipole_config():
    return ArrayConfig(n_elements=2, spacing=0.5, element_kind="dipole",
                       phase_bits=3, tx_power_dbm=-30.0,
                       element_peak_gain_dbi=5.0, boresight_phi=180.0)


@pytest.fixture(scope="session")
def dipole_set(full_grid, dipole_config) -> PatternSet:
    beams = [BeamSpec(scan_deg=0.0), BeamSpec(scan_deg=45.0),
             BeamSpec(scan_deg=-45.0)]
    return synth_pattern_set(dipole_config, beams, full_grid)
