"""Region-of-interest laws over free and blocked overlay patterns."""

import csv
import io

import numpy as np
import pytest

from beamblock.coverage import overlay_best_beam
from beamblock.errors import ConfigError, DataError
from beamblock.grid import (Pattern, make_grid, solid_angle_weights,
                            with_invalid_band)
from beamblock.roi import (improvement_from_percent, matched_r1_for_r5,
                           roi_improvement, roi_r1, roi_r2, roi_r3, roi_r4,
                           roi_r5, write_roi_csv)


def _pattern(grid, values):
    return Pattern.from_values(grid, np.asarray(values, dtype=float))


@pytest.fixture(scope="module")
def grid():
    return make_grid(45.0, 45.0, 135.0)


@pytest.fixture(scope="module")
def rng_pair(grid):
    rng = np.random.default_rng(41)
    free = _pattern(grid, rng.uniform(-60.0, 0.0, size=grid.valid.shape))
    blocked = _pattern(grid, rng.uniform(-80.0, -5.0,
                                         size=grid.valid.shape))
    return free, blocked


class TestR1:
    def test_zero_width_keeps_only_peak(self, grid, rng_pair):
        free, _ = rng_pair
        mask = roi_r1(free, 0.0)
        peak = np.nanmax(free.values)
        assert mask.mask.sum() == 1
        assert free.values[mask.mask][0] == peak

    def test_huge_width_keeps_everything(self, grid, rng_pair):
        free, _ = rng_pair
        mask = roi_r1(free, 1000.0)
        assert np.array_equal(mask.mask, grid.valid)

    def test_monotone_in_delta(self, rng_pair):
        free, _ = rng_pair
        small = roi_r1(free, 3.0)
        large = roi_r1(free, 10.0)
        assert (small.mask <= large.mask).all()

    def test_boundary_is_non_strict(self, grid):
        values = np.full(grid.valid.shape, -40.0)
        values[1, 0] = -30.0
        mask = roi_r1(_pattern(grid, values), 10.0)
        assert mask.mask.all()

    def test_negative_delta_rejected(self, rng_pair):
        with pytest.raises(ConfigError):
            roi_r1(rng_pair[0], -1.0)

    def test_patch_overlay_near_beam_coverage(self, patch_set, full_grid):
        over = overlay_best_beam(patch_set)
        weights = solid_angle_weights(full_grid)
        mask = roi_r1(over, 5.0)
        assert 10.0 <= mask.coverage(weights) <= 20.0


class TestR2:
    def test_equals_r1_when_unblocked(self, rng_pair):
        free, _ = rng_pair
        r1 = roi_r1(free, 5.0)
        r2 = roi_r2(free, free, 5.0, 5.0)
        assert np.array_equal(r1.mask, r2.mask)

    def test_zero_delta2_adds_blocked_peak(self, rng_pair):
        free, blocked = rng_pair
        r1 = roi_r1(free, 0.0)
        r2 = roi_r2(free, blocked, 0.0, 0.0)
        extra = r2.mask & ~r1.mask
        assert blocked.values[extra].max() == np.nanmax(blocked.values)

    def test_superset_of_r1(self, rng_pair):
        free, blocked = rng_pair
        r1 = roi_r1(free, 5.0)
        r2 = roi_r2(free, blocked, 5.0, 8.0)
        assert (r1.mask <= r2.mask).all()

    def test_reflection_lobe_included(self, grid):
        free = _pattern(grid, np.full(grid.valid.shape, -50.0))
        vals = np.full(grid.valid.shape, -70.0)
        vals[1, 3] = -20.0  # reflection lifts one point above everything
        blocked = _pattern(grid, vals)
        r2 = roi_r2(free, blocked, 0.0, 5.0)
        assert r2.mask[1, 3]

    def test_negative_delta2_rejected(self, rng_pair):
        with pytest.raises(ConfigError):
            roi_r2(rng_pair[0], rng_pair[1], 5.0, -0.1)


class TestR3:
    def test_equals_r1_when_unblocked(self, rng_pair):
        free, _ = rng_pair
        assert np.array_equal(roi_r3(free, free, 5.0, 5.0).mask,
                              roi_r1(free, 5.0).mask)

    def test_uniform_drop_cannot_extend_r1(self, rng_pair):
        free, _ = rng_pair
        blocked = _pattern(free.grid, free.values - 10.0)
        r3 = roi_r3(free, blocked, 5.0, 5.0)
        assert np.array_equal(r3.mask, roi_r1(free, 5.0).mask)

    def test_within_r2_when_blocked_peak_lower(self, rng_pair):
        free, blocked = rng_pair
        assert np.nanmax(blocked.values) <= np.nanmax(free.values)
        r2 = roi_r2(free, blocked, 5.0, 8.0)
        r3 = roi_r3(free, blocked, 5.0, 8.0)
        assert (r3.mask <= r2.mask).all()


class TestR4:
    def test_floor_below_everything_keeps_all(self, grid, rng_pair):
        free, blocked = rng_pair
        r4 = roi_r4(free, blocked, 5.0, -200.0)
        assert np.array_equal(r4.mask, grid.valid)

    def test_floor_above_everything_reduces_to_r1(self, rng_pair):
        free, blocked = rng_pair
        r4 = roi_r4(free, blocked, 5.0, 100.0)
        assert np.array_equal(r4.mask, roi_r1(free, 5.0).mask)

    def test_is_pointwise_union(self, rng_pair):
        free, blocked = rng_pair
        r4 = roi_r4(free, blocked, 5.0, -30.0)
        want = roi_r1(free, 5.0).mask | (blocked.values >= -30.0)
        assert np.array_equal(r4.mask, want & free.grid.valid)


class TestR5:
    def test_unblocked_equals_matched_baseline(self, rng_pair):
        free, _ = rng_pair
        r5 = roi_r5(free, free, -35.0)
        matched = matched_r1_for_r5(free, -35.0)
        assert np.array_equal(r5.mask, matched.mask)

    def test_low_floor_keeps_all(self, grid, rng_pair):
        free, blocked = rng_pair
        assert np.array_equal(roi_r5(free, blocked, -200.0).mask,
                              grid.valid)

    def test_reflection_extends_baseline(self, grid):
        free = _pattern(grid, np.full(grid.valid.shape, -50.0))
        vals = np.full(grid.valid.shape, -50.0)
        vals[0, 1] = -20.0
        blocked = _pattern(grid, vals)
        r5 = roi_r5(free, blocked, -35.0)
        matched = matched_r1_for_r5(free, -35.0)
        assert not matched.mask.any()
        assert r5.mask.sum() == 1 and r5.mask[0, 1]

    def test_matched_baseline_peak_floor(self, rng_pair):
        free, _ = rng_pair
        peak = np.nanmax(free.values)
        mask = matched_r1_for_r5(free, peak)
        assert mask.mask.sum() == 1

    def test_matched_baseline_empty_flagged(self, rng_pair):
        free, _ = rng_pair
        mask = matched_r1_for_r5(free, 50.0)
        assert not mask.mask.any()
        assert mask.params["empty"] is True
        assert mask.coverage(solid_angle_weights(free.grid)) == 0.0


class TestImprovement:
    def test_fixture_pair_low(self):
        imp = improvement_from_percent(29.7, 30.8)
        assert imp.abs_pct == pytest.approx(1.1, abs=1e-9)
        assert imp.rel_pct == pytest.approx(3.7, abs=0.05)

    def test_fixture_pair_high(self):
        imp = improvement_from_percent(54.7, 57.2)
        assert imp.abs_pct == pytest.approx(2.5, abs=1e-9)
        assert imp.rel_pct == pytest.approx(4.57, abs=0.05)

    def test_no_gain_is_zero(self):
        imp = improvement_from_percent(42.0, 42.0)
        assert imp.abs_pct == 0.0
        assert imp.rel_pct == 0.0

    def test_zero_base_gives_none(self):
        imp = improvement_from_percent(0.0, 3.0)
        assert imp.abs_pct == 3.0
        assert imp.rel_pct is None

    def test_from_masks(self, grid, rng_pair):
        free, blocked = rng_pair
        weights = solid_angle_weights(grid)
        base = matched_r1_for_r5(free, -30.0)
        enhanced = roi_r5(free, blocked, -30.0)
        imp = roi_improvement(base, enhanced, weights)
        want = enhanced.coverage(weights) - base.coverage(weights)
        assert imp.abs_pct == pytest.approx(want, abs=1e-9)


class TestMaskMechanics:
    def test_invalid_points_never_in_roi(self):
        grid = with_invalid_band(make_grid(5.0, 5.0, 175.0), 5.0, 10.0)
        vals = np.zeros(grid.valid.shape)
        mask = roi_r1(_pattern(grid, vals), 1000.0)
        assert not mask.mask[:2].any()
        assert mask.mask[2:].all()

    def test_grid_mismatch_rejected(self, grid, rng_pair):
        other = make_grid(90.0, 45.0, 135.0)
        stranger = _pattern(other, np.zeros(other.valid.shape))
        with pytest.raises(DataError):
            roi_r2(rng_pair[0], stranger, 5.0, 5.0)

    def test_csv_round_trip(self, tmp_path, grid, rng_pair):
        mask = roi_r1(rng_pair[0], 5.0)
        path = tmp_path / "roi_mask.csv"
        write_roi_csv(mask, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == grid.valid.size
        got = np.zeros(grid.valid.shape, dtype=bool)
        for row in rows:
            i = int(np.argmin(np.abs(grid.theta - float(row["theta"]))))
            j = int(np.argmin(np.abs(grid.phi - float(row["phi"]))))
            got[i, j] = row["in_roi"] == "1"
        assert np.array_equal(got, mask.mask)


def _csv_writer_roi(mask):
    """The per-point csv.writer dump that write_roi_csv must reproduce."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["phi", "theta", "in_roi"])
    for i, theta in enumerate(mask.grid.theta):
        for j, phi in enumerate(mask.grid.phi):
            writer.writerow([repr(float(phi)), repr(float(theta)),
                             int(mask.mask[i, j])])
    return out.getvalue()


def test_roi_csv_bytes_match_csv_writer_loop(tmp_path):
    # long axis reprs (7.2 * k) and an interior invalid band
    grid = with_invalid_band(make_grid(7.2, 3.6, 176.4), 80.0, 100.0)
    assert repr(float(grid.theta[3])) == "25.200000000000003"
    rng = np.random.default_rng(5)
    free = _pattern(grid, rng.uniform(-60.0, 0.0, size=grid.shape))
    blocked = _pattern(grid, rng.uniform(-80.0, -5.0, size=grid.shape))
    path = tmp_path / "roi_mask.csv"
    for mask in (roi_r1(free, 10.0), roi_r5(free, blocked, -20.0),
                 roi_r1(free, 0.0)):
        write_roi_csv(mask, path)
        assert path.read_bytes() == _csv_writer_roi(mask).encode()
