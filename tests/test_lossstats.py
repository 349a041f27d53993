"""Loss-field statistics, Gaussian fitting, and study summaries."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from beamblock.cli import run_cli
from beamblock.coverage import coverage_above, percentile_value, weighted_cdf
from beamblock.errors import DataError
from beamblock.grid import (FLOOR_DB, AngularGrid, Pattern, PatternSet,
                            make_grid, solid_angle_weights, uniform_weights,
                            with_invalid_band)
from beamblock.lossstats import (GaussianFit, Study, gaussian_fit,
                                 loss_field, loss_stats, study_summary)
from beamblock import lossstats, roi
from beamblock.report import write_report
from beamblock.roi import roi_r1
from beamblock.scanio import write_scan_csv
from beamblock.scenario import build_patterns, load_bundled

GENERATOR_TOL_DB = 0.5
GAUSS_TOL = 0.2


def _pattern(grid, values):
    return Pattern.from_values(grid, np.asarray(values, dtype=float))


def _full_roi(pattern):
    return roi_r1(pattern, 10000.0)


@pytest.fixture(scope="module")
def big_grid():
    # 144 x 72 = 10368 points, none at the poles
    return make_grid(2.5, 1.25, 178.75, theta_step=2.5)


class TestLossField:
    def test_constant_shift(self, tiny_grid):
        free = _pattern(tiny_grid, np.full((2, 4), -20.0))
        loss = loss_field(free, _pattern(free.grid, free.values - 30.0))
        assert (loss.values == 30.0).all()

    def test_reflection_goes_negative(self, tiny_grid):
        free = _pattern(tiny_grid, np.full((2, 4), -40.0))
        vals = np.full((2, 4), -40.0)
        vals[0, 0] = -34.0
        loss = loss_field(free, _pattern(tiny_grid, vals))
        assert loss.values[0, 0] == -6.0
        assert (loss.values.ravel()[1:] == 0.0).all()

    def test_recombination_identity(self, full_grid):
        rng = np.random.default_rng(47)
        steps_f = rng.integers(-60 * 1024, 0, size=full_grid.valid.shape)
        steps_b = rng.integers(-80 * 1024, 0, size=full_grid.valid.shape)
        free = _pattern(full_grid, steps_f / 1024.0)
        blocked = _pattern(full_grid, steps_b / 1024.0)
        loss = loss_field(free, blocked)
        assert np.array_equal(loss.values + blocked.values, free.values)

    def test_fresh_difference_cleaned_in_place(self):
        # a 1-degree grid with an invalid band; losses below the floor
        grid = with_invalid_band(make_grid(1.0, 1.0, 179.0), 80.0, 100.0)
        rng = np.random.default_rng(53)
        free = _pattern(grid, rng.uniform(-80.0, 20.0, grid.shape))
        blocked = _pattern(grid, rng.uniform(-80.0, 250.0, grid.shape))
        tracemalloc.start()
        try:
            loss = loss_field(free, blocked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = Pattern.from_values(grid, free.values - blocked.values)
        assert (loss.values == FLOOR_DB).any()
        assert loss.values.tobytes() == want.values.tobytes()
        assert not loss.values.flags.writeable
        # the difference and its boolean masks, not a copy of it besides
        assert peak < 1.5 * loss.values.nbytes

    def test_grid_mismatch_rejected(self, tiny_grid, full_grid):
        a = _pattern(tiny_grid, np.zeros((2, 4)))
        b = _pattern(full_grid, np.zeros(full_grid.valid.shape))
        with pytest.raises(DataError):
            loss_field(a, b)


@pytest.mark.parametrize("call,what", [
    (lambda a, b: loss_field(a, b), "free and blocked patterns"),
    (lambda a, b: roi.roi_r5(a, b, -35.0), "free and blocked patterns"),
    (lambda a, b: loss_stats(a, _full_roi(b), solid_angle_weights(a.grid)),
     "pattern, region and weights"),
    (lambda a, b: coverage_above(a, solid_angle_weights(b.grid), 0.0),
     "pattern and weights"),
    (lambda a, b: _full_roi(a).coverage(solid_angle_weights(b.grid)),
     "region and weights"),
    (lambda a, b: write_scan_csv(os.devnull, {
        "freespace": PatternSet(a.grid, a.values[None]),
        "true_hand": PatternSet(b.grid, b.values[None])}), "all modes"),
], ids=["loss_field", "roi_r5", "region_sample", "coverage_above",
        "RoIMask.coverage", "write_scan_csv"])
def test_fields_on_two_grids_name_what_must_agree(tiny_grid, call, what):
    """Each result refuses fields that sample two spheres, naming them;
    grid B is grid A with its theta = 45 row invalid."""
    a = _pattern(tiny_grid, np.zeros(tiny_grid.shape))
    b = _pattern(with_invalid_band(tiny_grid, 45.0, 45.0), a.values)
    with pytest.raises(DataError) as err:
        call(a, b)
    assert str(err.value) == f"{what} must share one grid"


class TestLossStats:
    def test_constant_field(self, tiny_grid):
        loss = _pattern(tiny_grid, np.full((2, 4), 30.0))
        stats = loss_stats(loss, _full_roi(loss), solid_angle_weights(
            tiny_grid))
        assert stats.mean_db == 30.0
        assert stats.median_db == 30.0
        assert stats.std_db == 0.0
        assert stats.n_points == 8

    def test_two_point_moments(self):
        grid = AngularGrid(phi=np.array([0.0, 180.0]),
                           theta=np.array([90.0]),
                           valid=np.ones((1, 2), dtype=bool))
        loss = _pattern(grid, [[10.0, 20.0]])
        stats = loss_stats(loss, _full_roi(loss), solid_angle_weights(grid))
        assert stats.mean_db == pytest.approx(15.0, abs=1e-12)
        # exactly half the weight lies at or above 20: top-p p50 is 20
        assert stats.median_db == 20.0
        assert stats.std_db == pytest.approx(5.0, abs=1e-12)

    def test_median_rule_on_random_fields(self, tiny_grid):
        """The median is the top-p p50: at least half the weight at or
        above it, less than half strictly above. Every tiny_grid draw is an
        exact-half tie (its 8 weights are equal); the 3-row grid's unequal
        weights give draws without one."""
        rng = np.random.default_rng(53)
        untied = 0
        for grid in (tiny_grid, make_grid(90.0, 30.0, 120.0, 45.0)):
            weights = solid_angle_weights(grid)
            for _ in range(50):
                loss = _pattern(grid, rng.uniform(0.0, 40.0,
                                                  size=grid.valid.shape))
                m = loss_stats(loss, _full_roi(loss), weights).median_db
                assert m == percentile_value(weighted_cdf(loss, weights),
                                             50.0)
                v = loss.values.ravel()
                w = weights.weights.ravel()
                at_or_above = w[v >= m].sum()
                assert at_or_above >= 0.5 - 1e-12 and w[v > m].sum() < 0.5
                untied += abs(at_or_above - 0.5) > 1e-9
        assert untied > 0

    def test_stabilized_variance_matches_naive(self, tiny_grid):
        rng = np.random.default_rng(59)
        weights = solid_angle_weights(tiny_grid)
        for offset in (0.0, 100.0, 1000.0):
            vals = offset + rng.uniform(0.0, 10.0, size=(2, 4))
            loss = _pattern(tiny_grid, vals)
            stats = loss_stats(loss, _full_roi(loss), weights)
            w = weights.weights.ravel()
            v = vals.ravel()
            naive = np.dot(w, v ** 2) - np.dot(w, v) ** 2
            assert stats.std_db ** 2 == pytest.approx(naive, abs=1e-9)

    def test_generator_recovery(self, big_grid):
        rng = np.random.default_rng(61)
        vals = rng.normal(13.9, 9.2, size=big_grid.valid.shape)
        loss = _pattern(big_grid, vals)
        stats = loss_stats(loss, _full_roi(loss),
                           solid_angle_weights(big_grid))
        assert stats.mean_db == pytest.approx(13.9, abs=GENERATOR_TOL_DB)
        assert stats.median_db == pytest.approx(13.9, abs=GENERATOR_TOL_DB)
        assert stats.std_db == pytest.approx(9.2, abs=GENERATOR_TOL_DB)
        assert stats.n_points == big_grid.valid.sum()

    def test_empty_region_rejected(self, tiny_grid):
        loss = _pattern(tiny_grid, np.zeros((2, 4)))
        empty = roi_r1(loss, 10000.0)
        object.__setattr__(empty, "mask",
                           np.zeros((2, 4), dtype=bool))
        with pytest.raises(DataError):
            loss_stats(loss, empty, solid_angle_weights(tiny_grid))

    def test_region_restriction(self, tiny_grid):
        vals = np.arange(8.0).reshape(2, 4)
        loss = _pattern(tiny_grid, vals)
        peak_only = roi_r1(loss, 0.0)
        stats = loss_stats(loss, peak_only, solid_angle_weights(tiny_grid))
        assert stats.mean_db == 7.0
        assert stats.n_points == 1
        assert stats.std_db == 0.0


class TestGaussianFit:
    def test_matches_loss_stats(self, tiny_grid):
        rng = np.random.default_rng(67)
        weights = solid_angle_weights(tiny_grid)
        loss = _pattern(tiny_grid, rng.uniform(0, 30, size=(2, 4)))
        stats = loss_stats(loss, _full_roi(loss), weights)
        fit = gaussian_fit(stats)
        assert fit.mu == stats.mean_db
        assert fit.sigma == stats.std_db
        assert fit.family == "gaussian"

    def test_recovers_normal_parameters(self, big_grid):
        rng = np.random.default_rng(71)
        vals = rng.normal(10.0, 5.0, size=big_grid.valid.shape)
        loss = _pattern(big_grid, vals)
        fit = gaussian_fit(loss_stats(loss, _full_roi(loss),
                                      uniform_weights(big_grid)))
        assert fit.mu == pytest.approx(10.0, abs=GAUSS_TOL)
        assert fit.sigma == pytest.approx(5.0, abs=GAUSS_TOL)

    def test_cdf_midpoint_and_tails(self):
        fit = GaussianFit(mu=10.0, sigma=5.0)
        assert fit.cdf(10.0) == pytest.approx(0.5)
        assert fit.cdf(-1e6) == pytest.approx(0.0, abs=1e-12)
        assert fit.cdf(1e6) == pytest.approx(1.0)
        x = np.array([5.0, 10.0, 15.0])
        np.testing.assert_allclose(fit.cdf(x), ndtr((x - 10.0) / 5.0))

    def test_degenerate_sigma_is_step(self):
        fit = GaussianFit(mu=7.0, sigma=0.0)
        assert fit.cdf(6.999) == 0.0
        assert fit.cdf(7.0) == 1.0

    def test_cli_import_loads_no_scipy(self):
        """scipy is a test-only dependency: the CLI never imports it."""
        src = str(Path(lossstats.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, beamblock.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "[]\n"


class TestStudySummary:
    def _sets(self, grid, free_vals, blocked_vals):
        return Study({
            "freespace": PatternSet(grid, [free_vals]),
            "true_hand": PatternSet(grid, [blocked_vals])})

    def test_unblocked_study_is_all_zero(self, full_grid):
        rng = np.random.default_rng(73)
        vals = rng.integers(-60 * 1024, 0, size=full_grid.valid.shape) \
            / 1024.0
        study = self._sets(full_grid, vals, vals)
        summary = study_summary(study, "true_hand", [-35.0, -45.0],
                                [50.0, 20.0])
        assert summary["headline"] == {"gross_loss_db": [0.0, 0.0],
                                       "rel_coverage_lost_pct": [0.0, 0.0],
                                       "roi_improvement_pct": [0.0, 0.0]}
        for row in summary["thresholds"]:
            assert row["abs_lost_pct"] == 0.0

    def test_constant_shift_study(self, full_grid):
        rng = np.random.default_rng(79)
        vals = rng.integers(-50 * 1024, 0, size=full_grid.valid.shape) \
            / 1024.0
        study = self._sets(full_grid, vals, vals - 10.0)
        summary = study_summary(study, "true_hand", [-35.0], [50.0, 20.0])
        assert summary["headline"]["gross_loss_db"] == [10.0, 10.0]
        for row in summary["percentiles"]:
            assert row["loss_db"] == 10.0

    def test_lists_deduplicated_and_sorted(self, full_grid):
        rng = np.random.default_rng(83)
        vals = rng.uniform(-60, 0, size=full_grid.valid.shape)
        study = self._sets(full_grid, vals, vals - 5.0)
        a = study_summary(study, "true_hand", [-45.0, -35.0, -45.0],
                          [20.0, 50.0, 20.0])
        b = study_summary(study, "true_hand", [-35.0, -45.0], [50.0, 20.0])
        assert a == b
        assert [r["threshold_dbm"] for r in a["thresholds"]] == [-35.0, -45.0]
        assert [r["percentile"] for r in a["percentiles"]] == [50.0, 20.0]

    def test_partial_blockage_with_reflection(self, full_grid):
        """Attenuation plus a reflection lobe: positive loss, positive gain."""
        rng = np.random.default_rng(89)
        free_vals = np.where(
            np.abs(full_grid.phi[None, :] - 180.0) < 60.0, -30.0, -60.0)
        free_vals = np.broadcast_to(free_vals,
                                    full_grid.valid.shape).copy()
        blocked_vals = free_vals - np.where(free_vals > -40.0, 20.0, 0.0)
        blocked_vals[5:10, 0:6] = -32.0  # reflection above the floor
        study = self._sets(full_grid, free_vals, blocked_vals)
        summary = study_summary(study, "true_hand", [-35.0], [50.0])
        lo, hi = summary["headline"]["rel_coverage_lost_pct"]
        assert 0.0 < lo <= hi < 100.0
        lo, hi = summary["headline"]["roi_improvement_pct"]
        assert 0.0 < lo <= hi

    def test_free_pct_is_free_coverage_above(self, full_grid):
        """The matched R1 coverage stands in for the free-space coverage.

        Invalid points hold NaN, so ``free >= t`` is already the matched R1
        mask; both sums run over the same elements in the same order.
        """
        grid = with_invalid_band(full_grid, 80.0, 100.0)
        rng = np.random.default_rng(97)
        free_vals = rng.uniform(-80.0, -20.0, size=grid.valid.shape)
        free_vals[::3, ::4] = -500.0  # clamped to the floor
        study = self._sets(grid, free_vals, free_vals - 7.5)
        thresholds = [FLOOR_DB, -75.0, -50.25, -33.0, -20.0, 0.0]
        summary = study_summary(study, "true_hand", thresholds, [50.0])
        free = study.overlay("freespace")
        rows = summary["thresholds"]
        assert len(rows) == len(thresholds)
        for row in rows:
            t = row["threshold_dbm"]
            assert row["free_pct"] == coverage_above(free, study.weights, t)
            assert row["r1_pct"] == row["free_pct"]
        assert rows[-1]["free_pct"] == pytest.approx(100.0)
        assert rows[0]["free_pct"] == 0.0


class TestStudy:
    def test_overlay_and_cdf_computed_once(self, patch_set):
        study = Study({"freespace": patch_set})
        assert study.overlay("freespace") is study.overlay("freespace")
        assert study.cdf("freespace") is study.cdf("freespace")

    def test_no_modes_is_data_error(self):
        with pytest.raises(DataError, match="input provides none of "
                           "freespace, phantom, true_hand"):
            Study({})

    def test_modes_on_two_grids_refused_when_made(self, tiny_grid):
        """The study's weights sample one sphere, so every mode must sample
        it too: a mode whose grid differs only in validity is refused."""
        other = with_invalid_band(tiny_grid, 45.0, 45.0)
        cube = np.zeros((1, *tiny_grid.shape))
        modes = {"freespace": PatternSet(tiny_grid, cube),
                 "true_hand": PatternSet(other, cube)}
        with pytest.raises(DataError) as err:
            Study(modes)
        assert str(err.value) == "all modes must share one grid"

    def test_missing_mode_is_data_error(self, patch_set):
        study = Study({"freespace": patch_set})
        with pytest.raises(DataError) as err:
            study.overlay("true_hand")
        assert "true_hand" in str(err.value)

    def test_study_keeps_no_pattern_set(self):
        modes = build_patterns(load_bundled("s5_patch_landscape_intermediate"))
        refs = [weakref.ref(pset) for pset in modes.values()]
        study = Study(modes)
        del modes
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        for mode in ("true_hand", "freespace", "phantom"):
            overlay = study.overlay(mode)
            assert study.overlay(mode) is overlay
        assert sorted(study.overlays) == ["freespace", "phantom", "true_hand"]
        with pytest.raises(DataError, match="input provides no nope mode; "
                           "have freespace, phantom, true_hand"):
            study.overlay("nope")

    def test_report_overlays_each_mode_once(self, tmp_path, monkeypatch):
        scenario = load_bundled("s5_patch_landscape_intermediate")
        assert len(build_patterns(scenario)) == 3
        calls = []
        real = lossstats.overlay_best_beam

        def counting(pset):
            calls.append(pset)
            return real(pset)

        monkeypatch.setattr(lossstats, "overlay_best_beam", counting)
        write_report(scenario, tmp_path)
        assert len(calls) == 3


class TestHandLoss:
    def test_loss_and_matched_r1_made_on_first_stats(self, monkeypatch):
        """Scoring models needs neither the loss field nor the matched R1;
        stats makes each once, for every weighting."""
        made = []
        for module, name in ((lossstats, "loss_field"),
                             (roi, "matched_r1_for_r5")):
            def counting(*args, real=getattr(module, name), name=name,
                         **kwargs):
                made.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        study = Study(build_patterns(load_bundled("s1_patch_portrait_hard")))
        assert study.score_models(-35.0, {})["candidates"][0]["name"] == (
            "true_hand")
        assert made == []
        assert (study.hand_stats(-35.0, study.weights)
                == study.hand_stats(-35.0, study.weights))
        assert sorted(made) == ["loss_field", "matched_r1_for_r5"]


def test_report_makes_the_loss_field_once(tmp_path, monkeypatch):
    # the weighted and unweighted statistics and the loss CDF share it
    made = []
    real = lossstats.loss_field

    def counting(free, blocked):
        made.append(free.grid)
        return real(free, blocked)

    monkeypatch.setattr(lossstats, "loss_field", counting)
    write_report(load_bundled("s1_patch_portrait_hard"), tmp_path)
    assert len(made) == 1


@pytest.mark.parametrize("scenario,n_r5,n_r1", [
    ("s1_patch_portrait_hard", 3, 3),
    ("s5_patch_landscape_intermediate", 6, 3)])
def test_each_region_made_once_per_report(tmp_path, monkeypatch, scenario,
                                          n_r5, n_r1):
    # Three thresholds, the scenario's delta5_dbm among them: one R5 per
    # blocked mode and threshold, one matched R1 per threshold, which the
    # hand-loss statistics and the phantom rows reuse.
    made = []
    for name in ("roi_r5", "matched_r1_for_r5"):
        def counting(*args, real=getattr(roi, name), name=name, **kwargs):
            made.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(roi, name, counting)
    s = load_bundled(scenario)
    assert len(s.thresholds_dbm) == 3 and s.delta5_dbm in s.thresholds_dbm
    write_report(s, tmp_path)
    assert (made.count("roi_r5"), made.count("matched_r1_for_r5")) == (
        n_r5, n_r1)


@pytest.mark.parametrize("command,n_moments", [("report", 4), ("stats", 2)])
def test_each_weighted_moment_computed_once(tmp_path, monkeypatch, command,
                                            n_moments):
    # report: weighted and unweighted moments of the matched R1 and of R5;
    # stats: the weighted ones. The Gaussian fit reuses R5's weighted ones.
    calls = []
    real = lossstats._weighted_moments

    def counting(v, w):
        calls.append(v.size)
        return real(v, w)

    monkeypatch.setattr(lossstats, "_weighted_moments", counting)
    out = tmp_path / ("stats.json" if command == "stats" else "bundle")
    assert run_cli([command, "--scenario", "s1_patch_portrait_hard",
                    "--out", str(out)]) == 0
    assert len(calls) == n_moments
