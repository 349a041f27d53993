"""End-to-end verification suite.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed assertion marks the criterion as failed. Runtime budgets
are asserted inside the tests themselves.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamblock.coverage import coverage_above, percentile_value, weighted_cdf
from beamblock.grid import (AngularGrid, Pattern, make_grid,
                            solid_angle_weights, uniform_weights)
from beamblock.lossstats import loss_stats
from beamblock.models import (apply_model, compare_models, constant_loss,
                              flat_region)
from beamblock.roi import (improvement_from_percent, matched_r1_for_r5,
                           roi_r1, roi_r2, roi_r3, roi_r4, roi_r5)
from beamblock.coverage import lost_percentages
from beamblock.report import write_report
from beamblock.scenario import list_bundled, load_bundled
from beamblock.synth import (ArrayConfig, BeamSpec, MaskRegion,
                             steering_weights)
from synth_oracle import eirp_at

SMALL_GRID = AngularGrid(phi=np.array([0.0, 90.0, 180.0, 270.0]),
                         theta=np.array([45.0, 90.0, 135.0]),
                         valid=np.ones((3, 4), dtype=bool))

value_arrays = arrays(np.float64, (3, 4),
                      elements=st.floats(-80.0, 0.0, allow_nan=False,
                                         allow_infinity=False))


def _pattern(grid, values):
    return Pattern.from_values(grid, np.asarray(values, dtype=float))


def _hpbw_deg(config, scan_deg):
    """Half-power beamwidth of the azimuth cut at the horizon, 0.1 deg."""
    w = steering_weights(config, BeamSpec(scan_deg=scan_deg))
    off = np.arange(-90.0, 90.001, 0.1)
    cut = eirp_at(config, w, config.boresight_phi + off, 90.0)
    above = off[cut >= cut.max() - 3.0]
    return float(above[-1] - above[0])


def test_criterion_1_summary_table_arithmetic():
    """Coverage-lost and improvement fixtures at tabulated tolerances."""
    abs_lost, rel_lost = lost_percentages(23.3, 3.4)
    assert abs_lost == pytest.approx(19.9, abs=0.2)
    assert rel_lost == pytest.approx(85.4, abs=0.5)

    abs_lost, rel_lost = lost_percentages(23.3, 13.1)
    assert abs_lost == pytest.approx(10.2, abs=0.1)
    assert rel_lost == pytest.approx(43.8, abs=0.2)

    imp = improvement_from_percent(29.7, 30.8)
    assert imp.abs_pct == pytest.approx(1.1, abs=0.05)
    assert imp.rel_pct == pytest.approx(3.7, abs=0.2)

    imp = improvement_from_percent(54.7, 57.2)
    assert imp.abs_pct == pytest.approx(2.5, abs=0.05)
    assert imp.rel_pct == pytest.approx(4.6, abs=0.2)

    print("ACCEPTANCE 1 summary table arithmetic: PASS")


def test_criterion_2_codebook_beamwidths():
    """Brute-force 0.1 deg beamwidths for both bundled codebooks."""
    start = time.monotonic()
    patch = ArrayConfig(n_elements=4, spacing=0.5, element_kind="patch",
                        phase_bits=3, tx_power_dbm=-30.0,
                        element_peak_gain_dbi=5.0, boresight_phi=180.0)
    for scan in (0.0, 30.0, -30.0):
        width = _hpbw_deg(patch, scan)
        assert 25.0 <= width <= 30.0, (scan, width)

    dipole = ArrayConfig(n_elements=2, spacing=0.5, element_kind="dipole",
                         phase_bits=3, tx_power_dbm=-30.0,
                         element_peak_gain_dbi=5.0, boresight_phi=180.0)
    width = _hpbw_deg(dipole, 0.0)
    assert 40.0 <= width <= 45.0, width

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, elapsed
    print("ACCEPTANCE 2 codebook beamwidths: PASS")


class TestCriterion3RoILaws:
    """Region laws over >= 1000 random pattern pairs on a small grid."""

    start = None

    @seed(1)
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(free_vals=value_arrays, blocked_vals=value_arrays,
           d1=st.floats(0.0, 30.0), dx=st.floats(0.0, 30.0),
           d5=st.floats(-60.0, -10.0))
    def test_laws_hold(self, free_vals, blocked_vals, d1, dx, d5):
        if TestCriterion3RoILaws.start is None:
            TestCriterion3RoILaws.start = time.monotonic()
        free = _pattern(SMALL_GRID, free_vals)
        blocked = _pattern(SMALL_GRID, blocked_vals)

        r1 = roi_r1(free, d1)
        assert (r1.mask <= roi_r1(free, d1 + 3.0).mask).all()

        r2 = roi_r2(free, blocked, d1, dx)
        r3 = roi_r3(free, blocked, d1, dx)
        r4 = roi_r4(free, blocked, d1, d5)
        assert (r1.mask <= r2.mask).all()
        assert (r1.mask <= r3.mask).all()
        assert (r1.mask <= r4.mask).all()

        # widening the blocked peak's window cannot break containment
        # once the blocked peak sits at or below the free one
        capped = _pattern(SMALL_GRID,
                          np.minimum(blocked_vals,
                                     np.nanmax(free_vals)))
        assert (roi_r3(free, capped, d1, dx).mask
                <= roi_r2(free, capped, d1, dx).mask).all()

        r5 = roi_r5(free, blocked, d5)
        matched = matched_r1_for_r5(free, d5)
        lifted = (blocked.values >= d5) & SMALL_GRID.valid
        assert np.array_equal(r5.mask, matched.mask | lifted)
        assert (matched.mask <= r5.mask).all()
        assert (roi_r5(free, blocked, d5 + 5.0).mask <= r5.mask).all()

        # no blockage: every relative law collapses onto R1
        same2 = roi_r2(free, free, d1, d1)
        same3 = roi_r3(free, free, d1, d1)
        assert np.array_equal(same2.mask, r1.mask)
        assert np.array_equal(same3.mask, r1.mask)

    def test_runtime_budget(self):
        assert TestCriterion3RoILaws.start is not None
        elapsed = time.monotonic() - TestCriterion3RoILaws.start
        assert elapsed < 30.0, elapsed
        print("ACCEPTANCE 3 region-of-interest laws: PASS")


def _oracle_percentile(values, weights, p):
    """Largest sample whose exact rational tail mass reaches p/100."""
    target = Fraction(p) / 100
    best = None
    for v in sorted(set(values)):
        tail = sum((Fraction(w) for x, w in zip(values, weights)
                    if x >= v), Fraction(0))
        total = sum((Fraction(w) for w in weights), Fraction(0))
        if tail / total >= target:
            best = v
    return best


def _oracle_coverage(values, weights, threshold):
    total = sum((Fraction(w) for w in weights), Fraction(0))
    kept = sum((Fraction(w) for v, w in zip(values, weights)
                if v >= threshold), Fraction(0))
    return float(100 * kept / total)


def test_criterion_4_percentile_oracle_and_equivariance():
    """Tiny-grid enumeration oracle plus uniform-shift equivariance."""
    start = time.monotonic()
    rng = np.random.default_rng(113)
    probe_ps = (90.0, 80.0, 75.0, 50.0, 33.5, 20.0, 10.0, 5.0)

    for n in range(1, 11):
        phi = np.arange(n) * (360.0 / n)
        grid = AngularGrid(phi=phi, theta=np.array([90.0]),
                           valid=np.ones((1, n), dtype=bool))
        for field in (uniform_weights(grid), solid_angle_weights(grid)):
            for _ in range(20):
                vals = rng.integers(-60, 0, size=(1, n)).astype(float)
                pat = _pattern(grid, vals)
                cdf = weighted_cdf(pat, field)
                flat_v = list(vals.ravel())
                flat_w = list(field.weights.ravel())
                for p in probe_ps:
                    assert percentile_value(cdf, p) == _oracle_percentile(
                        flat_v, flat_w, p), (n, p)
                for t in (-45.0, -30.0, -15.0):
                    got = coverage_above(pat, field, t)
                    want = _oracle_coverage(flat_v, flat_w, t)
                    assert got == pytest.approx(want, abs=1e-9)

    # sine-weighted column grids exercise non-uniform weights; the span
    # avoids theta <-> 180-theta mirror pairs, which would tie the p=50
    # tail mass to within one ulp of one half and make the winner a
    # coin flip between two adjacent samples
    for m in range(2, 11):
        theta = np.linspace(25.0, 140.0, m)
        grid = AngularGrid(phi=np.array([0.0]), theta=theta,
                           valid=np.ones((m, 1), dtype=bool))
        field = solid_angle_weights(grid)
        vals = rng.integers(-60, 0, size=(m, 1)).astype(float)
        cdf = weighted_cdf(_pattern(grid, vals), field)
        for p in probe_ps:
            assert percentile_value(cdf, p) == _oracle_percentile(
                list(vals.ravel()), list(field.weights.ravel()), p)

    big = make_grid(5.0, 5.0, 175.0)
    weights = solid_angle_weights(big)
    vals = rng.uniform(-70.0, 0.0, size=big.valid.shape)
    pat = _pattern(big, vals)
    base_cdf = weighted_cdf(pat, weights)
    for c in (7.25, -3.5, 12.0):
        shifted = _pattern(big, vals + c)
        s_cdf = weighted_cdf(shifted, weights)
        for p in probe_ps:
            assert percentile_value(s_cdf, p) == pytest.approx(
                percentile_value(base_cdf, p) + c, abs=1e-9)
        for t in (-60.0, -40.0, -20.0):
            assert coverage_above(shifted, weights, t + c) \
                == pytest.approx(coverage_above(pat, weights, t), abs=1e-9)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    print("ACCEPTANCE 4 percentile oracle and equivariance: PASS")


def test_criterion_5_loss_statistics_oracle():
    """Generator-controlled stats recovery and exact degenerate cases."""
    start = time.monotonic()
    grid = make_grid(2.5, 1.25, 178.75, theta_step=2.5)
    assert grid.valid.sum() >= 10 ** 4
    weights = solid_angle_weights(grid)
    full = roi_r1(_pattern(grid, np.zeros(grid.valid.shape)), 10000.0)

    rng = np.random.default_rng(127)
    for mu, sigma in ((13.9, 9.2), (15.4, 7.5)):
        loss = _pattern(grid, rng.normal(mu, sigma,
                                         size=grid.valid.shape))
        stats = loss_stats(loss, full, weights)
        assert stats.mean_db == pytest.approx(mu, abs=0.5)
        assert stats.median_db == pytest.approx(mu, abs=0.5)
        assert stats.std_db == pytest.approx(sigma, abs=0.5)

    # constant-shift scenario: dyadic values keep the field exactly flat
    steps = rng.integers(-50 * 1024, 0, size=grid.valid.shape)
    free = _pattern(grid, steps / 1024.0)
    blocked = _pattern(grid, free.values - 7.0)
    loss = _pattern(grid, free.values - blocked.values)
    stats = loss_stats(loss, full, weights)
    assert stats.mean_db == 7.0
    assert stats.median_db == 7.0
    assert stats.std_db == 0.0

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    print("ACCEPTANCE 5 loss statistics oracle: PASS")


def test_criterion_6_model_comparison_behaviors():
    """Constant shift, region mixture, and crossover detection."""
    start = time.monotonic()
    grid = make_grid(5.0, 5.0, 175.0)
    weights = solid_angle_weights(grid)
    rng = np.random.default_rng(131)

    half = rng.integers(-60 * 1024, 0,
                        size=(grid.theta.size, grid.phi.size // 2)) / 1024.0
    vals = np.tile(half, (1, 2))
    free = _pattern(grid, vals)
    full = roi_r1(free, 10000.0)

    # constant loss shifts every percentile by exactly the loss
    blocked = apply_model(free, constant_loss(12.75))
    f_cdf = weighted_cdf(free, weights)
    b_cdf = weighted_cdf(blocked, weights)
    for p in (90.0, 80.0, 50.0, 20.0):
        assert (percentile_value(f_cdf, p)
                - percentile_value(b_cdf, p)) == 12.75

    # a sharp half-weight region mixes the free CDF with its shift
    region = MaskRegion(phi_lo=357.5, phi_hi=177.5, theta_lo=5.0,
                        theta_hi=175.0, delta_db=30.0)
    mixed = apply_model(free, flat_region(region, 30.0))
    m_cdf = weighted_cdf(mixed, weights)
    for t in np.linspace(-95.0, 5.0, 41):
        want = 0.5 * (f_cdf.cdf_at(t) + f_cdf.cdf_at(t + 30.0))
        assert m_cdf.cdf_at(t) == pytest.approx(want, abs=1e-6)

    # crossover detection: crossing pair yes, parallel pair no
    low = vals < np.nanmedian(vals)
    crossing = _pattern(grid, np.where(low, vals + 6.0, vals - 25.0))
    report = compare_models(
        free, {"const": apply_model(free, constant_loss(15.0)),
               "refl": crossing}, full, weights)
    assert report.crossovers

    report = compare_models(
        free, {"deep": apply_model(free, constant_loss(30.0)),
               "shallow": apply_model(free, constant_loss(15.0))},
        full, weights)
    assert report.crossovers == ()

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    print("ACCEPTANCE 6 model comparison behaviors: PASS")


def test_criterion_7_study_reports(tmp_path):
    """Bundled studies: determinism, summary shape, improvement bands."""
    start = time.monotonic()
    names = list_bundled()
    assert len(names) == 5

    for name in names:
        scenario = load_bundled(name)
        first = tmp_path / name / "run1"
        second = tmp_path / name / "run2"
        write_report(scenario, first)
        payload = write_report(scenario, second)

        files1 = sorted(p.name for p in first.iterdir())
        files2 = sorted(p.name for p in second.iterdir())
        assert files1 == files2 and files1
        for fname in files1:
            a = (first / fname).read_bytes()
            b = (second / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between runs"

        lines = (first / "summary.csv").read_text().splitlines()
        assert lines[0] == ("study,subarray,orientation,grip,gross_loss_db,"
                            "rel_coverage_lost_pct,roi_improvement_pct")
        assert len(lines) == 2
        row = next(iter(__import__("csv").reader([lines[1]])))
        assert row[0] == name
        for cell in row[4:]:
            assert cell == "n/a" or " to " in cell or cell.replace(
                ".", "").replace("-", "").isdigit()

        lo, hi = payload["headline"]["roi_improvement_pct"]
        if scenario.grip == "hard":
            assert 0.0 <= lo <= hi <= 2.0, (name, lo, hi)
        else:
            assert 0.0 < lo <= hi, (name, lo, hi)

        lost = payload["headline"]["rel_coverage_lost_pct"]
        assert lost is not None
        assert 0.0 <= lost[0] <= lost[1] <= 100.0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    print("ACCEPTANCE 7 bundled study reports: PASS")
