"""Best-beam overlays, weighted CDFs, percentiles, and coverage loss."""

from fractions import Fraction

import numpy as np
import pytest

from beamblock.coverage import (WeightedCDF, coverage_above,
                                lost_percentages, overlay_best_beam,
                                percentile_value, region_sample,
                                weighted_cdf)
from beamblock.errors import ConfigError, DataError
from beamblock.grid import (AngularGrid, Pattern, PatternSet, make_grid,
                            solid_angle_weights, uniform_weights,
                            with_invalid_band)
from beamblock.lossstats import Study, loss_stats, study_summary
from beamblock.roi import RoIMask, roi_r1

PROBE_PERCENTILES = (90.0, 80.0, 50.0, 33.3, 20.0, 10.0)


def _two_point_grid():
    return AngularGrid(phi=np.array([0.0, 180.0]), theta=np.array([90.0]),
                       valid=np.ones((1, 2), dtype=bool))


def _pattern(grid, values):
    return Pattern.from_values(grid, np.asarray(values, dtype=float))


def oracle_percentile(values, weights, p):
    """Largest sample with exact rational tail mass >= p/100."""
    total = sum(weights)
    target = Fraction(p).limit_denominator(10 ** 6) / 100
    best = None
    for v in sorted(set(values)):
        tail = Fraction(sum(w for x, w in zip(values, weights) if x >= v),
                        total)
        if tail >= target:
            best = v
    return best


class TestOverlay:
    def test_single_beam_identity(self, tiny_grid):
        pat = _pattern(tiny_grid, np.arange(8.0).reshape(2, 4))
        over = overlay_best_beam(PatternSet(tiny_grid, [pat.values]))
        assert np.array_equal(over.values, pat.values)

    def test_pointwise_max_and_index(self, tiny_grid):
        lo = _pattern(tiny_grid, np.zeros((2, 4)))
        hi = _pattern(tiny_grid, np.full((2, 4), 3.0))
        over = overlay_best_beam(PatternSet(tiny_grid, [lo.values, hi.values]))
        assert np.allclose(over.values, 3.0)

    def test_matches_bruteforce_max(self, patch_set, full_grid):
        over = overlay_best_beam(patch_set)
        stack = patch_set.values
        rng = np.random.default_rng(5)
        for _ in range(20):
            i = rng.integers(0, full_grid.theta.size)
            j = rng.integers(0, full_grid.phi.size)
            assert over.values[i, j] == stack[:, i, j].max()

    def test_invalid_points_flagged(self):
        grid = with_invalid_band(make_grid(5.0, 5.0, 175.0), 5.0, 10.0)
        pat = Pattern.from_values(grid, np.zeros(grid.valid.shape))
        over = overlay_best_beam(PatternSet(grid, [pat.values]))
        assert np.isnan(over.values[:2]).all()
        assert (over.values[2:] == 0.0).all()


class TestWeightedCDF:
    def test_two_equal_points(self):
        grid = _two_point_grid()
        cdf = weighted_cdf(_pattern(grid, [[-30.0, -40.0]]),
                           solid_angle_weights(grid))
        assert cdf.cdf_at(-40.0) == pytest.approx(0.5)
        assert cdf.cdf_at(-35.0) == pytest.approx(0.5)
        assert cdf.cdf_at(-30.0) == pytest.approx(1.0)
        assert cdf.cdf_at(-41.0) == 0.0

    def test_constant_is_unit_step(self, tiny_grid):
        cdf = weighted_cdf(_pattern(tiny_grid, np.full((2, 4), -25.0)),
                           solid_angle_weights(tiny_grid))
        assert cdf.cdf_at(-25.0) == pytest.approx(1.0)
        assert cdf.cdf_at(-25.0 - 1e-9) == 0.0

    def test_sine_weighted_three_points(self):
        # two equator points and one at 30 deg: weights 0.4 / 0.4 / 0.2
        valid = np.array([[True, False], [True, True]])
        grid = AngularGrid(phi=np.array([0.0, 180.0]),
                           theta=np.array([30.0, 90.0]), valid=valid)
        values = np.array([[-30.0, 0.0], [-10.0, -20.0]])
        cdf = weighted_cdf(_pattern(grid, values), solid_angle_weights(grid))
        assert cdf.cdf_at(-30.0) == pytest.approx(0.2)
        assert cdf.cdf_at(-20.0) == pytest.approx(0.6)
        assert cdf.cdf_at(-10.0) == pytest.approx(1.0)

    def test_monotone_and_normalized(self, patch_set, full_grid):
        cdf = weighted_cdf(Pattern(full_grid, patch_set.values[0]),
                           solid_angle_weights(full_grid))
        assert np.all(np.diff(cdf.values) >= 0)
        assert np.all(np.diff(cdf.cum_weights) >= 0)
        assert abs(cdf.cum_weights[-1] - 1.0) < 1e-9

    def test_mask_renormalizes(self, full_grid, patch_set):
        weights = solid_angle_weights(full_grid)
        mask = full_grid.theta[:, None] < 90.0
        mask = RoIMask(grid=full_grid, kind="R1", mask=np.broadcast_to(
            mask, full_grid.valid.shape))
        cdf = weighted_cdf(Pattern(full_grid, patch_set.values[0]), weights,
                           mask=mask)
        assert abs(cdf.cum_weights[-1] - 1.0) < 1e-9

    def test_grid_mismatch_rejected(self, tiny_grid, full_grid):
        pat = _pattern(tiny_grid, np.zeros((2, 4)))
        with pytest.raises(DataError):
            weighted_cdf(pat, solid_angle_weights(full_grid))

    @pytest.mark.parametrize("values, cum_weights", [
        ([0.0, np.nan], [0.5, 1.0]),
        ([-np.inf, 0.0], [0.5, 1.0]),
        ([0.0, np.inf], [0.5, 1.0]),
        ([1.0, 0.0], [0.5, 1.0]),
        ([0.0, 1.0, 2.0], [0.5, 0.4, 1.0]),
        ([0.0, 1.0], [1.5, 1.0]),
        ([0.0, 1.0], [np.nan, 1.0]),
        ([0.0, 1.0], [-np.inf, 1.0]),
        ([0.0], [np.nan]),
    ])
    def test_refuses_what_the_docstring_rules_out(self, values,
                                                  cum_weights):
        with pytest.raises(DataError):
            WeightedCDF(np.array(values), np.array(cum_weights))


class TestRegionSample:
    """One selection of a region's weighted sample, behind ``weighted_cdf``
    and ``loss_stats`` alike."""

    def test_whole_grid_and_region(self):
        grid = with_invalid_band(make_grid(30.0, 30.0, 150.0), 90.0, 90.0)
        weights = solid_angle_weights(grid)
        pat = _pattern(grid, np.arange(60.0).reshape(5, 12))
        v, w = region_sample(pat, weights)
        assert v.tolist() == pat.values[grid.valid].tolist()
        assert w.tolist() == weights.weights[grid.valid].tolist()
        region = roi_r1(pat, 11.0)  # the top theta row, values 48-59
        v, w = region_sample(pat, weights, region)
        assert v.tolist() == list(range(48, 60))
        assert w.sum() == pytest.approx(region.coverage(weights) / 100.0)

    def test_region_from_another_grid_refused(self):
        """Grid B is grid A with its theta = 90 row invalid: a region on B
        is neither sampled nor measured with A's pattern or weights."""
        grid_a = make_grid(30.0, 30.0, 150.0)
        grid_b = with_invalid_band(grid_a, 90.0, 90.0)
        weights_a = solid_angle_weights(grid_a)
        pattern_a = _pattern(grid_a, np.zeros(grid_a.shape))
        region_b = roi_r1(_pattern(grid_b, np.zeros(grid_b.shape)), 1.0)
        for call in (lambda: weighted_cdf(pattern_a, weights_a,
                                          mask=region_b),
                     lambda: region_b.coverage(weights_a),
                     lambda: loss_stats(pattern_a, region_b, weights_a)):
            with pytest.raises(DataError, match="must share one grid"):
                call()

    def test_weights_from_another_grid_refused(self, tiny_grid):
        pat = _pattern(tiny_grid, np.zeros(tiny_grid.shape))
        other = with_invalid_band(tiny_grid, 45.0, 45.0)
        with pytest.raises(DataError, match="must share one grid"):
            region_sample(pat, solid_angle_weights(other))

    def test_one_error_for_an_empty_region(self, tiny_grid):
        pat = _pattern(tiny_grid, np.zeros(tiny_grid.shape))
        weights = solid_angle_weights(tiny_grid)
        empty = RoIMask(grid=tiny_grid, mask=np.zeros(tiny_grid.shape, bool),
                        kind="R1")
        for call in (lambda: weighted_cdf(pat, weights, mask=empty),
                     lambda: loss_stats(pat, empty, weights)):
            with pytest.raises(DataError, match="^region contains no "
                               "weighted valid points$"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_valid_value_refused(self, tiny_grid, bad):
        """``Pattern(...)`` keeps its values as given; a non-finite one at
        a valid point is refused by the CDF and the loss statistics alike,
        as ``Pattern.from_values`` refuses it."""
        values = np.zeros(tiny_grid.shape)
        values[1, 2] = bad
        pat = Pattern(tiny_grid, values)
        weights = solid_angle_weights(tiny_grid)
        everywhere = RoIMask(grid=tiny_grid, mask=tiny_grid.valid, kind="R1")
        for call in (lambda: weighted_cdf(pat, weights),
                     lambda: loss_stats(pat, everywhere, weights)):
            with pytest.raises(DataError, match="^non-finite value at a "
                               "valid grid point$"):
                call()


class TestCoverageAbove:
    def test_constant_all_or_nothing(self, tiny_grid):
        weights = solid_angle_weights(tiny_grid)
        pat = _pattern(tiny_grid, np.full((2, 4), -30.0))
        assert coverage_above(pat, weights, -35.0) == pytest.approx(100.0)
        assert coverage_above(pat, weights, -20.0) == 0.0

    def test_threshold_is_non_strict(self, tiny_grid):
        weights = solid_angle_weights(tiny_grid)
        pat = _pattern(tiny_grid, np.full((2, 4), -35.0))
        assert coverage_above(pat, weights, -35.0) == pytest.approx(100.0)

    def test_half_split(self):
        grid = _two_point_grid()
        pat = _pattern(grid, [[-20.0, -50.0]])
        cov = coverage_above(pat, solid_angle_weights(grid), -30.0)
        assert cov == pytest.approx(50.0)

    def test_complements_cdf(self, patch_set, full_grid):
        weights = solid_angle_weights(full_grid)
        pat = Pattern(full_grid, patch_set.values[0])
        cdf = weighted_cdf(pat, weights)
        for t in (-80.0, -60.0, -45.0, -30.0):
            cov = coverage_above(pat, weights, t)
            # weighted mass of samples >= t, read off the CDF
            i = int(np.searchsorted(cdf.values, t, side="left"))
            tail = 1.0 - (float(cdf.cum_weights[i - 1]) if i else 0.0)
            assert cov == pytest.approx(100.0 * tail, abs=1e-9)


class TestPercentiles:
    def test_unit_step(self, tiny_grid):
        cdf = weighted_cdf(_pattern(tiny_grid, np.full((2, 4), -30.0)),
                           solid_angle_weights(tiny_grid))
        assert percentile_value(cdf, 50.0) == -30.0
        assert percentile_value(cdf, 100.0) == -30.0

    def test_two_point_split(self):
        grid = _two_point_grid()
        cdf = weighted_cdf(_pattern(grid, [[-30.0, -40.0]]),
                           solid_angle_weights(grid))
        assert percentile_value(cdf, 90.0) == -40.0
        assert percentile_value(cdf, 20.0) == -30.0
        assert percentile_value(cdf, 50.0) == -30.0

    def test_out_of_range_rejected(self, tiny_grid):
        cdf = weighted_cdf(_pattern(tiny_grid, np.zeros((2, 4))),
                           solid_angle_weights(tiny_grid))
        with pytest.raises(ConfigError):
            percentile_value(cdf, 101.0)
        with pytest.raises(ConfigError):
            percentile_value(cdf, -1.0)

    def test_galois_connection(self, patch_set, full_grid):
        """Coverage at the p-th percentile value is at least p."""
        weights = solid_angle_weights(full_grid)
        pat = Pattern(full_grid, patch_set.values[0])
        cdf = weighted_cdf(pat, weights)
        for p in PROBE_PERCENTILES:
            v = percentile_value(cdf, p)
            assert coverage_above(pat, weights, v) >= p - 1e-9

    def test_matches_fraction_oracle(self, tiny_grid):
        rng = np.random.default_rng(17)
        weights = uniform_weights(tiny_grid)
        for _ in range(50):
            vals = rng.integers(-50, -10, size=(2, 4)).astype(float)
            cdf = weighted_cdf(_pattern(tiny_grid, vals), weights)
            for p in PROBE_PERCENTILES:
                want = oracle_percentile(list(vals.ravel()), [1] * 8, p)
                assert percentile_value(cdf, p) == want

    def test_percentile_loss_constant_shift(self, full_grid):
        # far from the floor so the 30 dB shift cannot saturate
        rng = np.random.default_rng(29)
        weights = solid_angle_weights(full_grid)
        vals = rng.integers(-70 * 1024, 0, size=full_grid.valid.shape)
        free = _pattern(full_grid, vals / 1024.0)
        blocked = _pattern(free.grid, free.values - 30.0)
        f_cdf = weighted_cdf(free, weights)
        b_cdf = weighted_cdf(blocked, weights)
        for p in PROBE_PERCENTILES:
            assert (percentile_value(f_cdf, p)
                    - percentile_value(b_cdf, p)) == 30.0

    def test_shift_equivariance(self, full_grid):
        rng = np.random.default_rng(23)
        weights = solid_angle_weights(full_grid)
        vals = rng.uniform(-70.0, 0.0, size=full_grid.valid.shape)
        pat = _pattern(full_grid, vals)
        for c in (7.25, -3.5, 12.0):
            shifted = _pattern(full_grid, vals + c)
            a = weighted_cdf(pat, weights)
            b = weighted_cdf(shifted, weights)
            for p in PROBE_PERCENTILES:
                assert percentile_value(b, p) == pytest.approx(
                    percentile_value(a, p) + c, abs=1e-9)
            for t in (-60.0, -40.0, -20.0):
                assert coverage_above(shifted, weights, t + c) \
                    == pytest.approx(coverage_above(pat, weights, t),
                                     abs=1e-9)


class TestCoverageLost:
    """Coverage-lost columns of ``study_summary``'s threshold rows."""

    @staticmethod
    def _row(free, blocked, threshold):
        study = Study({"freespace": PatternSet(free.grid, [free.values]),
                       "true_hand": PatternSet(free.grid, [blocked.values])})
        return study_summary(study, "true_hand", [threshold],
                             [50.0])["thresholds"][0]

    def test_no_blockage_loses_nothing(self, tiny_grid):
        pat = _pattern(tiny_grid, np.full((2, 4), -30.0))
        row = self._row(pat, pat, -35.0)
        assert row["abs_lost_pct"] == 0.0
        assert row["rel_lost_pct"] == 0.0

    def test_fixture_values(self):
        abs_lost, rel_lost = lost_percentages(23.3, 3.4)
        assert abs_lost == pytest.approx(19.9, abs=1e-9)
        assert rel_lost == pytest.approx(85.4, abs=0.05)
        abs_lost, rel_lost = lost_percentages(23.3, 13.1)
        assert abs_lost == pytest.approx(10.2, abs=1e-9)
        assert rel_lost == pytest.approx(43.8, abs=0.05)

    def test_zero_free_coverage_gives_none(self, tiny_grid):
        pat = _pattern(tiny_grid, np.full((2, 4), -90.0))
        blocked = _pattern(tiny_grid, pat.values - 10.0)
        row = self._row(pat, blocked, -35.0)
        assert row["free_pct"] == 0.0
        assert row["rel_lost_pct"] is None

    def test_total_loss_row(self, tiny_grid):
        free = _pattern(tiny_grid, np.full((2, 4), -30.0))
        blocked = _pattern(tiny_grid, free.values - 10.0)
        row = self._row(free, blocked, -35.0)
        assert row["threshold_dbm"] == -35.0
        assert row["free_pct"] == pytest.approx(100.0)
        assert row["blocked_pct"] == 0.0
        assert row["abs_lost_pct"] == pytest.approx(100.0)
        assert row["rel_lost_pct"] == pytest.approx(100.0)
