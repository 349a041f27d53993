"""Blockage model predictions and model-versus-model CDF comparison."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamblock.coverage import WeightedCDF, weighted_cdf
from beamblock.errors import ConfigError, DataError
from beamblock.grid import (FLOOR_DB, Pattern, make_grid,
                            solid_angle_weights, with_invalid_band)
from beamblock.models import (CROSSOVER_RESOLUTION_DB, PRESET_LOSSES_DB,
                              _cdf_crossovers, apply_model, compare_models,
                              constant_loss, flat_region, model_preset)
from beamblock.roi import roi_r1
from beamblock.synth import BlockageMask, MaskRegion

MIXTURE_TOL = 1e-6


def _pattern(grid, values):
    return Pattern.from_values(grid, np.asarray(values, dtype=float))


def _dyadic(rng, shape, lo=-60, hi=0):
    return rng.integers(lo * 1024, hi * 1024, size=shape) / 1024.0


@pytest.fixture(scope="module")
def grid():
    return make_grid(5.0, 5.0, 175.0)


@pytest.fixture(scope="module")
def free(grid):
    rng = np.random.default_rng(97)
    return _pattern(grid, _dyadic(rng, grid.valid.shape))


@pytest.fixture(scope="module")
def full_roi(free):
    return roi_r1(free, 10000.0)


class TestApplyModel:
    def test_zero_constant_is_identity(self, free):
        out = apply_model(free, constant_loss(0.0))
        assert np.array_equal(out.values, free.values)

    def test_constant_shifts_everything(self, free):
        out = apply_model(free, constant_loss(15.0))
        assert np.array_equal(out.values, free.values - 15.0)

    def test_stacked_constants_add(self, free):
        once = apply_model(apply_model(free, constant_loss(4.5)),
                           constant_loss(8.25))
        both = apply_model(free, constant_loss(12.75))
        assert np.array_equal(once.values, both.values)

    @pytest.mark.parametrize("region", [None, MaskRegion(
        phi_lo=150.0, phi_hi=210.0, theta_lo=60.0, theta_hi=150.0,
        delta_db=30.0)], ids=["constant", "flat-region"])
    def test_fresh_prediction_cleaned_in_place(self, region):
        # a 1-degree grid with an invalid band; predictions below the floor
        grid = with_invalid_band(make_grid(1.0, 1.0, 179.0), 80.0, 100.0)
        free = _pattern(grid, np.random.default_rng(59).uniform(
            -200.0, 20.0, grid.shape))
        model = (constant_loss(30.0) if region is None
                 else flat_region(region, 30.0))
        tracemalloc.start()
        try:
            out = apply_model(free, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        delta = 30.0 if region is None else BlockageMask(
            regions=(region,)).delta_field(grid)
        want = Pattern.from_values(grid, free.values - delta)
        assert (out.values == FLOOR_DB).any()
        assert out.values.tobytes() == want.values.tobytes()
        assert not out.values.flags.writeable
        # a flat region's delta field takes its own temporaries; a constant
        # loss leaves the prediction and its boolean masks, not a copy of it
        assert region or peak < 1.5 * out.values.nbytes

    def test_flat_region_covering_grid_matches_constant(self, grid, free):
        region = MaskRegion(phi_lo=0.0, phi_hi=360.0, theta_lo=5.0,
                            theta_hi=175.0, delta_db=30.0)
        flat = apply_model(free, flat_region(region, 30.0))
        const = apply_model(free, constant_loss(30.0))
        assert np.array_equal(flat.values, const.values)

    def test_flat_region_only_hits_inside(self, grid, free):
        region = MaskRegion(phi_lo=150.0, phi_hi=210.0, theta_lo=60.0,
                            theta_hi=150.0, delta_db=30.0)
        out = apply_model(free, flat_region(region, 30.0))
        inside = ((np.abs(grid.phi[None, :] - 180.0) <= 30.0)
                  & (grid.theta[:, None] >= 60.0)
                  & (grid.theta[:, None] <= 150.0))
        assert np.array_equal(out.values[inside],
                              free.values[inside] - 30.0)
        assert np.array_equal(out.values[~inside], free.values[~inside])

    def test_flat_region_never_below_constant(self, free):
        region = MaskRegion(phi_lo=150.0, phi_hi=210.0, theta_lo=60.0,
                            theta_hi=150.0, delta_db=30.0)
        flat = apply_model(free, flat_region(region, 30.0))
        const = apply_model(free, constant_loss(30.0))
        assert (flat.values >= const.values).all()

    def test_flat_region_outside_grid_rejected(self, free):
        grid = make_grid(5.0, 60.0, 120.0)
        pat = _pattern(grid, np.zeros(grid.valid.shape))
        region = MaskRegion(phi_lo=0.0, phi_hi=90.0, theta_lo=10.0,
                            theta_hi=30.0, delta_db=5.0)
        with pytest.raises(DataError):
            apply_model(pat, flat_region(region, 5.0))

    def test_tapered_region_rejected(self):
        region = MaskRegion(phi_lo=0.0, phi_hi=90.0, theta_lo=60.0,
                            theta_hi=120.0, delta_db=5.0,
                            edge_taper_deg=10.0)
        with pytest.raises(ConfigError):
            flat_region(region, 5.0)


class TestPresets:
    def test_known_losses(self):
        assert PRESET_LOSSES_DB["prior-hand-15.3"] == 15.3
        assert PRESET_LOSSES_DB["prior-body-8.5"] == 8.5
        assert PRESET_LOSSES_DB["3gpp-flat-30"] == 30.0

    def test_constant_presets(self, free):
        hand = model_preset("prior-hand-15.3")
        out = apply_model(free, hand)
        valid = free.grid.valid
        assert np.allclose(out.values[valid], free.values[valid] - 15.3)

    def test_region_preset_requires_region(self):
        with pytest.raises(ConfigError):
            model_preset("3gpp-flat-30")
        region = MaskRegion(phi_lo=150.0, phi_hi=210.0, theta_lo=60.0,
                            theta_hi=150.0, delta_db=30.0)
        model = model_preset("3gpp-flat-30", region=region)
        assert model.region == region
        assert model.loss_db == 30.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            model_preset("fancy-model-99")


class TestCompareModels:
    def test_self_comparison_is_null(self, free, full_roi, grid):
        weights = solid_angle_weights(grid)
        report = compare_models(free, {"self": free}, full_roi, weights)
        cand = report.candidates[0]
        assert cand.name == "self"
        assert all(d == 0.0 for d in cand.deltas_db.values())
        assert report.crossovers == ()

    def test_parallel_shifts_never_cross(self, free, full_roi, grid):
        weights = solid_angle_weights(grid)
        report = compare_models(
            free,
            {"deep": apply_model(free, constant_loss(30.0)),
             "shallow": apply_model(free, constant_loss(15.0))},
            full_roi, weights)
        by_name = {c.name: c for c in report.candidates}
        for p, d in by_name["deep"].deltas_db.items():
            assert d == 30.0
        for p, d in by_name["shallow"].deltas_db.items():
            assert d == 15.0
        assert report.crossovers == ()

    def test_models_applied_in_place(self, free, full_roi, grid):
        weights = solid_angle_weights(grid)
        report = compare_models(free, {"const": constant_loss(10.0)},
                                full_roi, weights)
        for d in report.candidates[0].deltas_db.values():
            assert d == 10.0

    def test_pair_list_accepted(self, free, full_roi, grid):
        weights = solid_angle_weights(grid)
        report = compare_models(free,
                                [("a", constant_loss(5.0)),
                                 ("b", constant_loss(9.0))],
                                full_roi, weights)
        assert [c.name for c in report.candidates] == ["a", "b"]

    def test_crossing_cdfs_detected(self, grid, full_roi, free):
        """A reflection-style candidate must cross a constant-loss one."""
        weights = solid_angle_weights(grid)
        vals = free.values.copy()
        low = vals < np.nanmedian(vals)
        crossing = np.where(low, vals + 6.0, vals - 25.0)
        report = compare_models(
            free,
            {"const": apply_model(free, constant_loss(15.0)),
             "refl": _pattern(grid, crossing)},
            full_roi, weights)
        pairs = {(c.name_a, c.name_b) for c in report.crossovers}
        assert ("const", "refl") in pairs or ("refl", "const") in pairs

    def test_crossover_levels_quantized(self, grid, full_roi, free):
        weights = solid_angle_weights(grid)
        vals = free.values.copy()
        low = vals < np.nanmedian(vals)
        crossing = np.where(low, vals + 6.0, vals - 25.0)
        report = compare_models(
            free,
            {"const": apply_model(free, constant_loss(15.0)),
             "refl": _pattern(grid, crossing)},
            full_roi, weights)
        assert report.crossovers
        for c in report.crossovers:
            scaled = c.value_dbm / CROSSOVER_RESOLUTION_DB
            assert abs(scaled - round(scaled)) < 1e-6

    def test_region_restricted_comparison(self, grid, free):
        weights = solid_angle_weights(grid)
        narrow = roi_r1(free, 5.0)
        report = compare_models(free, {"c": constant_loss(12.0)}, narrow,
                                weights)
        for d in report.candidates[0].deltas_db.values():
            assert d == 12.0


class TestMixtureIdentity:
    def test_half_sphere_region(self, grid):
        """A sharp half-weight region mixes the free CDF with its shift."""
        rng = np.random.default_rng(103)
        # 180-degree periodic in phi: both halves share one distribution
        half = _dyadic(rng, (grid.theta.size, grid.phi.size // 2))
        vals = np.tile(half, (1, 2))
        free = _pattern(grid, vals)
        weights = solid_angle_weights(grid)
        # borders between columns: phi in (357.5, 177.5) covers half the
        # weight by symmetry (36 of 72 columns, same theta profile)
        region = MaskRegion(phi_lo=357.5, phi_hi=177.5, theta_lo=5.0,
                            theta_hi=175.0, delta_db=30.0)
        blocked = apply_model(free, flat_region(region, 30.0))
        f_cdf = weighted_cdf(free, weights)
        b_cdf = weighted_cdf(blocked, weights)
        probes = np.linspace(-95.0, 5.0, 41)
        for t in probes:
            want = 0.5 * (f_cdf.cdf_at(t) + f_cdf.cdf_at(t + 30.0))
            assert b_cdf.cdf_at(t) == pytest.approx(want, abs=MIXTURE_TOL)


def _crossovers_loop(a, b):
    """Cross-over levels as the per-sample scalar loop found them."""
    xs = np.union1d(a.values, b.values)
    diff = np.array([a.cdf_at(x) - b.cdf_at(x) for x in xs])
    sign = np.sign(np.where(np.abs(diff) <= 1e-12, 0.0, diff))
    out = []
    last = 0.0
    last_x = None
    for x, s in zip(xs, sign):
        if s != 0.0:
            if last != 0.0 and s != last:
                mid = (last_x + x) / 2.0
                level = round(mid / CROSSOVER_RESOLUTION_DB) \
                    * CROSSOVER_RESOLUTION_DB
                out.append(round(level, 1))
            last = s
            last_x = x
        elif last != 0.0:
            last_x = x
    return out


@st.composite
def _quantized_cdf(draw):
    """A CDF on a coarse value lattice, so samples tie within and across
    CDFs; integer weights so different CDFs can meet exactly."""
    n = draw(st.integers(1, 12))
    steps = sorted(draw(st.lists(st.integers(-16, 16), min_size=n,
                                 max_size=n)))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n,
                                     max_size=n)), dtype=float)
    return WeightedCDF(values=np.array(steps) * 0.35,
                       cum_weights=np.cumsum(weights) / weights.sum())


_CDF_PAIRS = st.one_of(st.tuples(_quantized_cdf(), _quantized_cdf()),
                       _quantized_cdf().map(lambda c: (c, c)))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_CDF_PAIRS)
def test_crossovers_match_per_sample_loop(pair):
    a, b = pair
    got = _cdf_crossovers(a, b)
    want = _crossovers_loop(a, b)
    assert got == want
    assert all(type(level) is float for level in got)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_quantized_cdf(), st.lists(st.integers(-20, 20), max_size=8))
def test_cdf_at_array_matches_scalar_calls(cdf, steps):
    # below the least sample, on every sample, and between lattice points
    xs = np.concatenate(([cdf.values[0] - 1.0], cdf.values,
                         np.array(steps) * 0.35 + 0.1))
    got = cdf.cdf_at(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    want = [cdf.cdf_at(float(x)) for x in xs]
    assert all(type(w) is float for w in want)
    assert got.tolist() == want
    assert got[0] == 0.0
