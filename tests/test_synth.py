"""Synthetic array patterns: steering, quantization, element models, masks."""

import dataclasses
import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest

from beamblock.errors import ConfigError
from beamblock.grid import FLOOR_DB, Pattern, make_grid, with_invalid_band
from beamblock.scenario import (build_patterns, list_bundled, load_bundled,
                                scenario_from_dict)
from beamblock.synth import (ArrayConfig, BeamSpec, BlockageMask, MaskRegion,
                             _sum_rows, _u_lattice, apply_blockage_mask,
                             quantize_phases_deg, steering_weights,
                             synth_pattern_set)
from synth_oracle import array_factor_db, eirp_at, element_gain_db

AF_TOL = 1e-9
QUANT_DEFICIT_MAX_DB = 0.3


def _ideal_weights(config, scan_deg):
    cfg = ArrayConfig(n_elements=config.n_elements, spacing=config.spacing,
                      element_kind=config.element_kind, phase_bits=0,
                      tx_power_dbm=config.tx_power_dbm,
                      element_peak_gain_dbi=config.element_peak_gain_dbi,
                      boresight_phi=config.boresight_phi)
    return cfg, steering_weights(cfg, BeamSpec(scan_deg=scan_deg))


class TestQuantization:
    def test_snaps_to_45_degree_lattice(self):
        out = quantize_phases_deg(np.array([50.0]), 3)
        assert out[0] == 45.0

    def test_ties_resolve_toward_lower_phase(self):
        out = quantize_phases_deg(np.array([22.5, 67.5, 337.5]), 3)
        np.testing.assert_allclose(out, [0.0, 45.0, 315.0])

    def test_zero_bits_is_identity_mod_360(self):
        out = quantize_phases_deg(np.array([-30.0, 370.0, 15.7]), 0)
        np.testing.assert_allclose(out, [330.0, 10.0, 15.7])

    def test_output_on_lattice(self):
        rng = np.random.default_rng(3)
        ph = rng.uniform(-720, 720, size=64)
        for bits in range(1, 9):
            step = 360.0 / 2 ** bits
            out = quantize_phases_deg(ph, bits)
            assert np.all(out >= 0.0) and np.all(out < 360.0)
            np.testing.assert_allclose(out % step, 0.0, atol=1e-9)

    def test_steering_phases_for_scan_30(self):
        config = ArrayConfig(n_elements=4, spacing=0.5, phase_bits=3)
        w = steering_weights(config, BeamSpec(scan_deg=30.0))
        phases = np.rad2deg(np.angle(w)) % 360.0
        np.testing.assert_allclose(phases, [0.0, 270.0, 180.0, 90.0],
                                   atol=1e-9)

    def test_scan_zero_means_uniform_phase(self):
        config = ArrayConfig(n_elements=8, spacing=0.5, phase_bits=3)
        w = steering_weights(config, BeamSpec(scan_deg=0.0))
        np.testing.assert_allclose(w, np.ones(8), atol=1e-12)


class TestArrayFactor:
    def test_four_element_peak(self):
        config = ArrayConfig(n_elements=4, spacing=0.5, phase_bits=0)
        w = steering_weights(config, BeamSpec(scan_deg=0.0))
        af = array_factor_db(config, w, 0.0)
        assert abs(af - 20 * np.log10(4)) < AF_TOL

    def test_single_element_is_flat_zero(self):
        config = ArrayConfig(n_elements=1, spacing=0.5, phase_bits=0)
        w = steering_weights(config, BeamSpec(scan_deg=0.0))
        angles = np.linspace(-89.0, 89.0, 51)
        np.testing.assert_allclose(array_factor_db(config, w, angles), 0.0,
                                   atol=AF_TOL)

    def test_null_clamps_to_floor(self):
        # uniform 4 elements at half-wave spacing null out at 30 degrees
        config = ArrayConfig(n_elements=4, spacing=0.5, phase_bits=0)
        w = steering_weights(config, BeamSpec(scan_deg=0.0))
        assert array_factor_db(config, w, 30.0) == FLOOR_DB

    def test_wrong_weight_count_rejected(self):
        config = ArrayConfig(n_elements=4, spacing=0.5)
        with pytest.raises(ConfigError, match="taper length"):
            synth_pattern_set(config, [BeamSpec(0.0, (1.0, 1.0, 1.0))],
                              make_grid(90.0, 45.0, 135.0))

    def test_overdriven_weights_rejected(self):
        # a taper entry above 1 is refused, so no steering weight exceeds 1
        with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
            BeamSpec(0.0, amplitude_taper=(2.0, 1.0))
        config = ArrayConfig(n_elements=4, spacing=0.5, phase_bits=3)
        for scan in (-60.0, 0.0, 33.3):
            w = steering_weights(config, BeamSpec(scan, (1.0, 0.25, 0.0, 1.0)))
            assert np.all(np.abs(w) <= 1.0 + 1e-12)

    def test_quantization_deficit_band(self):
        """3-bit phase loss at the scan angle stays within 0.3 dB, n <= 8."""
        scans = np.arange(-60.0, 60.5, 1.0)
        for n in range(2, 9):
            config = ArrayConfig(n_elements=n, spacing=0.5, phase_bits=3)
            ideal_cfg, _ = _ideal_weights(config, 0.0)
            for scan in scans:
                wq = steering_weights(config, BeamSpec(scan_deg=scan))
                wi = steering_weights(ideal_cfg, BeamSpec(scan_deg=scan))
                deficit = (array_factor_db(ideal_cfg, wi, scan)
                           - array_factor_db(config, wq, scan))
                assert -1e-12 <= deficit <= QUANT_DEFICIT_MAX_DB, (n, scan)

    def test_two_element_quantizer_is_optimal(self):
        """Exhaustive 64-state check: no 3-bit pair beats the chosen one."""
        lattice = np.arange(8) * 45.0
        config = ArrayConfig(n_elements=2, spacing=0.5, phase_bits=3)
        for scan in np.arange(-60.0, 61.0, 2.5):
            wq = steering_weights(config, BeamSpec(scan_deg=scan))
            mine = array_factor_db(config, wq, scan)
            best = -np.inf
            for p0 in lattice:
                for p1 in lattice:
                    w = np.exp(1j * np.deg2rad([p0, p1]))
                    best = max(best, float(array_factor_db(config, w, scan)))
            assert mine >= best - 1e-9, scan


class TestElementModels:
    def test_isotropic_synthesis_is_flat(self):
        grid = make_grid(5.0, 5.0, 175.0)
        config = ArrayConfig(n_elements=1, element_kind="isotropic",
                             tx_power_dbm=4.0, element_peak_gain_dbi=0.0)
        pats = synth_pattern_set(config, [BeamSpec(scan_deg=0.0)], grid)
        np.testing.assert_allclose(pats.values[0][grid.valid], 4.0,
                                   atol=1e-9)

    def test_patch_peak_at_boresight(self):
        config = ArrayConfig(element_kind="patch", element_peak_gain_dbi=5.0,
                             boresight_phi=180.0)
        assert abs(element_gain_db(config, 180.0, 90.0) - 5.0) < 1e-9

    def test_patch_back_hemisphere_blocked(self):
        config = ArrayConfig(element_kind="patch", boresight_phi=180.0)
        assert element_gain_db(config, 0.0, 90.0) == -np.inf

    def test_patch_rolloff_at_60_degrees(self):
        # cos(60 deg) = 0.5 so the one-way rolloff is 20*log10(0.5)
        config = ArrayConfig(element_kind="patch", element_peak_gain_dbi=5.0,
                             boresight_phi=180.0)
        got = element_gain_db(config, 120.0, 90.0)
        assert abs(got - (5.0 + 20 * np.log10(0.5))) < 1e-9

    def test_dipole_peak_on_boresight_plane(self):
        config = ArrayConfig(element_kind="dipole", element_peak_gain_dbi=5.0,
                             boresight_phi=180.0)
        assert abs(element_gain_db(config, 180.0, 90.0) - 5.0) < 1e-9
        # back side keeps the peak too: u = 0 all along dphi = 180
        assert abs(element_gain_db(config, 0.0, 90.0) - 5.0) < 1e-9

    def test_dipole_null_along_array_axis(self):
        config = ArrayConfig(element_kind="dipole", boresight_phi=180.0)
        assert element_gain_db(config, 270.0, 90.0) == -np.inf

    def test_one_element_patch_halfpower_width_near_90(self):
        config = ArrayConfig(n_elements=1, element_kind="patch",
                             phase_bits=0, tx_power_dbm=0.0,
                             element_peak_gain_dbi=5.0, boresight_phi=180.0)
        w = steering_weights(config, BeamSpec(scan_deg=0.0))
        off = np.arange(-90.0, 90.01, 0.1)
        cut = eirp_at(config, w, 180.0 + off, 90.0)
        peak = cut.max()
        above = off[cut >= peak - 3.0]
        width = above[-1] - above[0]
        assert 85.0 <= width <= 95.0


class TestSynthPatternSet:
    def test_one_pattern_per_beam(self, patch_set, patch_beams):
        assert len(patch_set) == len(patch_beams) == 3

    def test_scan_zero_symmetric_about_boresight(self, full_grid,
                                                 patch_config):
        pats = synth_pattern_set(patch_config, [BeamSpec(scan_deg=0.0)],
                                 full_grid)
        vals = pats.values[0]
        center = int(np.argmin(np.abs(full_grid.phi - 180.0)))
        for k in range(1, 36):
            left = vals[:, (center - k) % 72]
            right = vals[:, (center + k) % 72]
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_array_gain_over_single_element(self, full_grid, patch_config):
        single = ArrayConfig(n_elements=1, spacing=0.5, element_kind="patch",
                             phase_bits=3, tx_power_dbm=-30.0,
                             element_peak_gain_dbi=5.0, boresight_phi=180.0)
        four = synth_pattern_set(patch_config, [BeamSpec(scan_deg=0.0)],
                                 full_grid)
        one = synth_pattern_set(single, [BeamSpec(scan_deg=0.0)],
                                full_grid)
        gain = float(np.nanmax(four.values) - np.nanmax(one.values))
        assert abs(gain - 20 * np.log10(4)) < 0.3

    def test_empty_codebook_rejected(self, full_grid, patch_config):
        with pytest.raises(ConfigError):
            synth_pattern_set(patch_config, [], full_grid)

    def test_back_hemisphere_floored(self, patch_set, full_grid):
        back = np.abs((full_grid.phi - 0.0 + 180.0) % 360.0 - 180.0) < 85.0
        vals = patch_set.values[0][:, back]
        assert (vals == FLOOR_DB).all()

    def test_scanned_dipole_widths_documented(self, full_grid, dipole_set):
        """Boresight beam sits in the low 40s; scanned beams land below 40."""
        widths = []
        theta_row = int(np.argmin(np.abs(full_grid.theta - 90.0)))
        for pat in dipole_set:
            vals = pat.values[theta_row]
            order = np.argsort((full_grid.phi - 180.0 + 180.0) % 360.0 - 180.0)
            # fall back to a fine eirp_at sweep instead of the coarse grid
            widths.append(vals.max())
        cfg = ArrayConfig(n_elements=2, spacing=0.5, element_kind="dipole",
                          phase_bits=3, tx_power_dbm=-30.0,
                          element_peak_gain_dbi=5.0, boresight_phi=180.0)
        off = np.arange(-90.0, 90.001, 0.1)
        measured = []
        for scan in (0.0, 45.0, -45.0):
            w = steering_weights(cfg, BeamSpec(scan_deg=scan))
            cut = eirp_at(cfg, w, 180.0 + off, 90.0)
            peak = cut.max()
            above = off[cut >= peak - 3.0]
            measured.append(above[-1] - above[0])
        assert 40.0 <= measured[0] <= 45.0
        assert measured[1] < 40.0 and measured[2] < 40.0


def _taper(n):
    """Raised-sine taper in [0.25, 1], so every element term differs."""
    return tuple(0.25 + 0.75 * math.sin(math.pi * (k + 0.5) / n)
                 for k in range(n))


_BYTE_CASES = [
    (ArrayConfig(), [BeamSpec(0.0), BeamSpec(30.0), BeamSpec(-45.0)]),
    (ArrayConfig(n_elements=2, element_kind="dipole"),
     [BeamSpec(0.0), BeamSpec(45.0)]),
    (ArrayConfig(n_elements=3, element_kind="isotropic", spacing=0.7),
     [BeamSpec(20.0)]),
    (ArrayConfig(phase_bits=0), [BeamSpec(12.5), BeamSpec(-60.0)]),
    (ArrayConfig(phase_bits=3, boresight_phi=10.0),
     [BeamSpec(-30.0, amplitude_taper=(0.5, 1.0, 1.0, 0.5))]),
    (ArrayConfig(n_elements=8), [BeamSpec(s) for s in range(-75, 90, 10)]),
    # One array size per branch of the row sum's order (_sum_rows): 1 term,
    # 4 <= n <= 64 with 1 and 3 leftover terms and with none, and the split
    # above 64 once (65) and twice (130).
    (ArrayConfig(n_elements=1), [BeamSpec(0.0),
                                 BeamSpec(20.0, amplitude_taper=(0.5,))]),
    (ArrayConfig(n_elements=5, element_kind="dipole"),
     [BeamSpec(-15.0, amplitude_taper=_taper(5)), BeamSpec(40.0)]),
    (ArrayConfig(n_elements=7, element_kind="isotropic", spacing=0.6,
                 phase_bits=2), [BeamSpec(35.0, amplitude_taper=_taper(7))]),
    (ArrayConfig(n_elements=64, phase_bits=0),
     [BeamSpec(0.0), BeamSpec(-50.0, amplitude_taper=_taper(64))]),
    (ArrayConfig(n_elements=65, boresight_phi=200.0),
     [BeamSpec(10.0, amplitude_taper=_taper(65))]),
    (ArrayConfig(n_elements=130, spacing=0.45),
     [BeamSpec(-5.0), BeamSpec(25.0, amplitude_taper=_taper(130))]),
]


# At 1 deg the 64,440 points share 19,914 distinct direction cosines u.
_ONE_DEG_CASES = (0, 1, 4)  # patch, 2-element dipole, boresight_phi=10


@pytest.mark.parametrize("config,beams,lattice", [
    pytest.param(config, beams, (7.2, 3.6, 176.4), id=f"config{i}-beams{i}")
    for i, (config, beams) in enumerate(_BYTE_CASES)] + [
    pytest.param(*_BYTE_CASES[i], (1.0, 1.0, 179.0), id=f"config{i}-1deg")
    for i in _ONE_DEG_CASES])
@pytest.mark.parametrize("band", [None, (80.0, 100.0)])
def test_synthesis_bytes_match_eirp_at_per_beam(config, beams, lattice, band):
    grid = make_grid(*lattice)
    if band is not None:
        grid = with_invalid_band(grid, *band)
    tt, pp = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    got = synth_pattern_set(config, beams, grid)
    assert len(got) == len(beams)
    for beam, pattern in zip(beams, got):
        want = Pattern.from_values(
            grid, eirp_at(config, steering_weights(config, beam), pp, tt))
        assert pattern.values.tobytes() == want.values.tobytes()


def test_row_sum_matches_numpy_reduction_bit_for_bit():
    """_sum_rows reproduces numpy's pairwise order for .sum(axis=-1).

    If a numpy release changes that order, this test names the lengths
    whose bits moved; the synthesis byte test then fails too."""
    rng = np.random.default_rng(21)
    moved = []
    for n in [*range(1, 301), 513, 1000]:
        shape = (40, n)
        rows = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                * 10.0 ** rng.integers(-6, 7, shape))
        want = rows.sum(axis=-1)
        got = _sum_rows(np.ascontiguousarray(rows.T))
        if got.tobytes() != want.tobytes():
            moved.append(n)
    assert moved == []


def _bundled_at(name, step):
    """The bundled scenario ``name`` on a ``step``-degree grid from ``step``
    to 180 - ``step`` degrees theta; its invalid band kept."""
    doc = json.loads((resources.files("beamblock") / "scenarios"
                      / f"{name}.json").read_text(encoding="utf-8"))
    doc["grid"] = {"phi_step": step, "theta_min": step,
                   "theta_max": 180.0 - step}
    return scenario_from_dict(doc)


def _field_bytes(modes):
    return {mode: (pset.best().tobytes(), pset.values.tobytes())
            for mode, pset in modes.items()}


class TestULattice:
    """The process keeps the last u lattice of synthesis, keyed on the grid
    axes and the boresight; a kept lattice changes no byte."""

    @pytest.mark.parametrize("step", [5.0, 1.0])
    @pytest.mark.parametrize("name", list_bundled())
    def test_kept_lattice_gives_the_fresh_bytes(self, name, step):
        names = list_bundled()
        other = _bundled_at(names[names.index(name) - 1], step)
        scenario = _bundled_at(name, step)
        _u_lattice.cache_clear()
        fresh = _field_bytes(build_patterns(scenario))
        build_patterns(other)  # the kept lattice is now another study's
        kept = _field_bytes(build_patterns(scenario))
        assert _u_lattice.cache_info()[:2] == (2, 1)  # hits, misses
        assert kept == fresh

    def test_same_axes_hit_and_a_changed_axis_or_boresight_misses(
            self, patch_config, patch_beams):
        grid = make_grid(5.0, 5.0, 175.0)
        _u_lattice.cache_clear()
        synth_pattern_set(patch_config, patch_beams, grid)
        synth_pattern_set(patch_config, patch_beams[:1],
                          make_grid(5.0, 5.0, 175.0))
        assert _u_lattice.cache_info()[:2] == (1, 1)
        turned = dataclasses.replace(patch_config, boresight_phi=90.0)
        for config, changed in [
                (patch_config, make_grid(5.0, 10.0, 170.0)),  # theta axis
                (patch_config, make_grid(10.0, 5.0, 175.0, 5.0)),  # phi axis
                (turned, grid)]:
            synth_pattern_set(patch_config, patch_beams, grid)
            misses = _u_lattice.cache_info().misses
            synth_pattern_set(config, patch_beams, changed)
            assert _u_lattice.cache_info().misses == misses + 1
        info = _u_lattice.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)

    def test_invalid_band_shares_the_entry(self):
        free, banded = (load_bundled(name) for name in (
            "s1_patch_portrait_hard", "s3_dipole_portrait_hard"))
        assert not banded.grid.valid.all() and free.grid.valid.all()
        _u_lattice.cache_clear()
        for scenario in (free, banded):
            synth_pattern_set(scenario.config, list(scenario.beams),
                              scenario.grid)
        assert _u_lattice.cache_info()[:2] == (1, 1)

    def test_lattice_is_read_only(self, full_grid):
        u_set, at = _u_lattice(full_grid.phi.tobytes(),
                               full_grid.theta.tobytes(), 180.0)
        for kept in (u_set, at):
            with pytest.raises(ValueError):
                kept[0] = 0


class TestValidation:
    def test_bad_element_kind(self):
        with pytest.raises(ConfigError):
            ArrayConfig(element_kind="horn")

    def test_bad_counts_and_spacing(self):
        with pytest.raises(ConfigError):
            ArrayConfig(n_elements=0)
        with pytest.raises(ConfigError):
            ArrayConfig(spacing=0.0)

    @pytest.mark.parametrize("spacing", [1e308, np.float64(1e306)])
    def test_overflowing_phase_ramp_refused_without_warning(self, spacing):
        # 360 * spacing * n_elements is not finite: refused before numpy
        # could warn of an overflow in the steering phases
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="overflows the phase ramp "
                               "of 4 elements"):
                ArrayConfig(spacing=spacing)

    def test_phase_bits_range(self):
        with pytest.raises(ConfigError):
            ArrayConfig(phase_bits=9)
        with pytest.raises(ConfigError):
            ArrayConfig(phase_bits=-1)

    def test_boresight_range(self):
        with pytest.raises(ConfigError):
            ArrayConfig(boresight_phi=360.0)

    def test_beam_spec_limits(self):
        with pytest.raises(ConfigError):
            BeamSpec(scan_deg=90.0)
        with pytest.raises(ConfigError):
            BeamSpec(scan_deg=0.0, amplitude_taper=(1.5, 1.0))


class TestMaskRegions:
    def test_full_cover_sharp_drop(self, full_grid, patch_set):
        region = MaskRegion(phi_lo=0.0, phi_hi=360.0, theta_lo=2.0,
                            theta_hi=178.0, delta_db=30.0, edge_taper_deg=0.0)
        blocked = apply_blockage_mask(patch_set, BlockageMask((region,)))
        for before, after in zip(patch_set, blocked):
            expected = np.maximum(before.values - 30.0, FLOOR_DB)
            np.testing.assert_array_equal(after.values, expected)

    def test_empty_mask_is_identity(self, patch_set):
        blocked = apply_blockage_mask(patch_set, BlockageMask(()))
        for before, after in zip(patch_set, blocked):
            assert np.array_equal(before.values, after.values,
                                  equal_nan=True)

    def test_reflection_region_adds_power(self, full_grid):
        base = Pattern.from_values(full_grid,
                                   np.full(full_grid.valid.shape, -40.0))
        from beamblock.grid import PatternSet
        region = MaskRegion(phi_lo=42.5, phi_hi=77.5, theta_lo=52.5,
                            theta_hi=97.5, delta_db=-6.0, edge_taper_deg=0.0)
        out = apply_blockage_mask(PatternSet(full_grid, [base.values], (4,)),
                                  BlockageMask((region,)))
        assert out.beam_ids == (4,)
        vals = out.values[0]
        inside = ((full_grid.phi[None, :] > 42.5)
                  & (full_grid.phi[None, :] < 77.5)
                  & (full_grid.theta[:, None] > 52.5)
                  & (full_grid.theta[:, None] < 97.5))
        assert np.allclose(vals[inside], -34.0)
        assert np.allclose(vals[~inside], -40.0)

    def test_exact_restore_on_dyadic_values(self, full_grid):
        rng = np.random.default_rng(11)
        steps = rng.integers(-60 * 1024, 10 * 1024,
                             size=full_grid.valid.shape)
        base = Pattern.from_values(full_grid, steps / 1024.0)
        from beamblock.grid import PatternSet
        region = MaskRegion(phi_lo=150.0, phi_hi=210.0, theta_lo=60.0,
                            theta_hi=150.0, delta_db=12.5, edge_taper_deg=0.0)
        anti = MaskRegion(phi_lo=150.0, phi_hi=210.0, theta_lo=60.0,
                          theta_hi=150.0, delta_db=-12.5, edge_taper_deg=0.0)
        once = apply_blockage_mask(PatternSet(full_grid, [base.values]),
                                   BlockageMask((region,)))
        restored = apply_blockage_mask(once, BlockageMask((anti,)))
        assert np.array_equal(restored.values[0], base.values,
                              equal_nan=True)

    def test_border_membership_is_half(self, full_grid):
        region = MaskRegion(phi_lo=100.0, phi_hi=140.0, theta_lo=60.0,
                            theta_hi=120.0, delta_db=10.0, edge_taper_deg=10.0)
        field = BlockageMask((region,)).delta_field(full_grid)
        i90 = int(np.argmin(np.abs(full_grid.theta - 90.0)))
        j100 = int(np.argmin(np.abs(full_grid.phi - 100.0)))
        assert abs(field[i90, j100] - 5.0) < 1e-9

    def test_taper_ramp_is_monotone(self, full_grid):
        region = MaskRegion(phi_lo=100.0, phi_hi=140.0, theta_lo=60.0,
                            theta_hi=120.0, delta_db=10.0, edge_taper_deg=10.0)
        field = BlockageMask((region,)).delta_field(full_grid)
        i90 = int(np.argmin(np.abs(full_grid.theta - 90.0)))
        j = [int(np.argmin(np.abs(full_grid.phi - p)))
             for p in (90.0, 95.0, 100.0, 105.0, 110.0)]
        ramp = field[i90, j]
        assert np.all(np.diff(ramp) >= 0)
        np.testing.assert_allclose(ramp, [0.0, 0.0, 5.0, 10.0, 10.0],
                                   atol=1e-9)

    def test_later_region_overrides(self, full_grid):
        first = MaskRegion(phi_lo=150.0, phi_hi=210.0, theta_lo=60.0,
                           theta_hi=150.0, delta_db=20.0, edge_taper_deg=0.0)
        second = MaskRegion(phi_lo=170.0, phi_hi=190.0, theta_lo=80.0,
                            theta_hi=100.0, delta_db=3.0, edge_taper_deg=0.0)
        field = BlockageMask((first, second)).delta_field(full_grid)
        i90 = int(np.argmin(np.abs(full_grid.theta - 90.0)))
        j180 = int(np.argmin(np.abs(full_grid.phi - 180.0)))
        j160 = int(np.argmin(np.abs(full_grid.phi - 160.0)))
        assert field[i90, j180] == 3.0
        assert field[i90, j160] == 20.0

    def test_wrapping_phi_interval(self, full_grid):
        region = MaskRegion(phi_lo=350.0, phi_hi=10.0, theta_lo=60.0,
                            theta_hi=120.0, delta_db=7.0, edge_taper_deg=0.0)
        field = BlockageMask((region,)).delta_field(full_grid)
        i90 = int(np.argmin(np.abs(full_grid.theta - 90.0)))
        j0 = int(np.argmin(np.abs(full_grid.phi - 0.0)))
        j355 = int(np.argmin(np.abs(full_grid.phi - 355.0)))
        j180 = int(np.argmin(np.abs(full_grid.phi - 180.0)))
        assert field[i90, j0] == 7.0
        assert field[i90, j355] == 7.0
        assert field[i90, j180] == 0.0

    def test_region_validation(self):
        with pytest.raises(ConfigError):
            MaskRegion(phi_lo=10.0, phi_hi=10.0, theta_lo=60.0,
                       theta_hi=120.0, delta_db=5.0)
        with pytest.raises(ConfigError):
            MaskRegion(phi_lo=0.0, phi_hi=90.0, theta_lo=120.0,
                       theta_hi=60.0, delta_db=5.0)
        with pytest.raises(ConfigError):
            MaskRegion(phi_lo=0.0, phi_hi=90.0, theta_lo=60.0,
                       theta_hi=120.0, delta_db=np.nan)
        with pytest.raises(ConfigError):
            MaskRegion(phi_lo=0.0, phi_hi=90.0, theta_lo=60.0,
                       theta_hi=120.0, delta_db=5.0, edge_taper_deg=-1.0)
