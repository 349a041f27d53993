"""Grid construction, solid-angle weighting, and pattern containers."""

import numpy as np
import pytest

from beamblock.coverage import WeightedCDF
from beamblock.errors import ConfigError, DataError
from beamblock.grid import (FLOOR_DB, AngularGrid, Pattern, PatternSet,
                            WeightField, make_grid, solid_angle_weights,
                            uniform_weights, with_invalid_band)
from beamblock.roi import RoIMask
from beamblock.scanio import write_scan_csv

WEIGHT_SUM_TOL = 1e-12
FRACTION_TOL = 1e-9


class TestMakeGrid:
    def test_default_full_sphere_shape(self):
        grid = make_grid(5.0, 5.0, 175.0)
        assert grid.theta.shape == (35,)
        assert grid.phi.shape == (72,)
        assert grid.valid.shape == (35, 72)
        assert grid.valid.all()
        assert grid.phi[0] == 0.0 and grid.phi[-1] == 355.0
        assert grid.theta[0] == 5.0 and grid.theta[-1] == 175.0

    def test_coarse_grid(self):
        grid = make_grid(90.0, 45.0, 135.0)
        assert grid.theta.shape == (2,)
        assert grid.phi.shape == (4,)
        np.testing.assert_allclose(grid.theta, [45.0, 135.0])
        np.testing.assert_allclose(grid.phi, [0.0, 90.0, 180.0, 270.0])

    def test_poles_never_sampled(self):
        grid = make_grid(5.0, 5.0, 175.0)
        assert 0.0 not in grid.theta
        assert 180.0 not in grid.theta
        assert 360.0 not in grid.phi

    @pytest.mark.parametrize("phi_step", [0.0, -5.0, 91.0, 7.0])
    def test_bad_phi_step(self, phi_step):
        with pytest.raises(ConfigError):
            make_grid(phi_step, 5.0, 175.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 175.0), (5.0, 180.0),
                                       (90.0, 90.0), (100.0, 90.0),
                                       (5.0, 173.0)])
    def test_bad_theta_range(self, lo, hi):
        with pytest.raises(ConfigError):
            make_grid(5.0, lo, hi)

    def test_theta_step_defaults_to_phi_step(self):
        grid = make_grid(5.0, 2.5, 177.5)
        assert grid.theta.shape == (36,)
        assert np.isclose(grid.theta_step, 5.0)

    def test_explicit_theta_step(self):
        grid = make_grid(5.0, 2.5, 177.5, theta_step=2.5)
        assert grid.theta.shape == (71,)
        assert np.isclose(grid.theta_step, 2.5)

    @pytest.mark.parametrize("theta_step", [0.0, -2.5, np.nan, np.inf])
    def test_bad_theta_step(self, theta_step):
        with pytest.raises(ConfigError,
                           match="theta_step must be finite and positive"):
            make_grid(5.0, 2.5, 177.5, theta_step=theta_step)


class TestAngularGridValidation:
    def test_non_ascending_axes_rejected(self):
        with pytest.raises(ConfigError):
            AngularGrid(phi=np.array([0.0, 90.0, 45.0]),
                        theta=np.array([45.0, 135.0]),
                        valid=np.ones((2, 3), dtype=bool))

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(ConfigError):
            AngularGrid(phi=np.array([0.0, 360.0]),
                        theta=np.array([90.0]),
                        valid=np.ones((1, 2), dtype=bool))
        with pytest.raises(ConfigError):
            AngularGrid(phi=np.array([0.0]), theta=np.array([0.0, 90.0]),
                        valid=np.ones((2, 1), dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("name", ["phi", "theta"])
    def test_non_finite_axis_rejected(self, name, at, bad):
        axes = {"phi": np.array([0.0, 90.0, 180.0, 270.0]),
                "theta": np.array([45.0, 90.0, 135.0])}
        axes[name][at] = bad
        with pytest.raises(ConfigError, match=f"{name} axis must be finite"):
            AngularGrid(valid=np.ones((3, 4), dtype=bool), **axes)

    def test_valid_mask_shape_checked(self):
        with pytest.raises(ConfigError):
            AngularGrid(phi=np.array([0.0, 180.0]),
                        theta=np.array([90.0]),
                        valid=np.ones((2, 2), dtype=bool))

    def test_all_invalid_rejected(self):
        with pytest.raises(ConfigError):
            AngularGrid(phi=np.array([0.0]), theta=np.array([90.0]),
                        valid=np.zeros((1, 1), dtype=bool))

    def test_equality_and_hash(self):
        a = make_grid(90.0, 45.0, 135.0)
        b = make_grid(90.0, 45.0, 135.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_grid(45.0, 45.0, 135.0)

    def test_arrays_read_only(self, tiny_grid):
        with pytest.raises(ValueError):
            tiny_grid.phi[0] = 1.0
        with pytest.raises(ValueError):
            tiny_grid.valid[0, 0] = False


class TestInvalidBand:
    def test_band_rows_marked(self):
        grid = make_grid(5.0, 5.0, 175.0)
        banded = with_invalid_band(grid, 5.0, 10.0)
        assert not banded.valid[0].any()   # theta = 5
        assert not banded.valid[1].any()   # theta = 10
        assert banded.valid[2].all()       # theta = 15

    def test_band_missing_grid_is_noop(self):
        grid = make_grid(5.0, 5.0, 175.0)
        banded = with_invalid_band(grid, 0.5, 2.0)
        assert banded.valid.all()

    def test_band_weights_are_zero(self):
        grid = with_invalid_band(make_grid(5.0, 5.0, 175.0), 5.0, 10.0)
        field = solid_angle_weights(grid)
        assert (field.weights[:2] == 0.0).all()
        assert abs(field.weights.sum() - 1.0) < WEIGHT_SUM_TOL


class TestSolidAngleWeights:
    def test_weights_sum_to_one(self, full_grid):
        field = solid_angle_weights(full_grid)
        assert abs(field.weights.sum() - 1.0) < WEIGHT_SUM_TOL

    def test_two_theta_rows_split_by_sine(self):
        # one column; sin(90)=1 vs sin(30)=0.5 so the split is 2/3 vs 1/3
        grid = AngularGrid(phi=np.array([0.0]),
                          theta=np.array([30.0, 90.0]),
                          valid=np.ones((2, 1), dtype=bool))
        field = solid_angle_weights(grid)
        np.testing.assert_allclose(field.weights[:, 0], [1 / 3, 2 / 3],
                                   atol=1e-12)

    def test_single_valid_point_gets_all_weight(self):
        valid = np.zeros((2, 4), dtype=bool)
        valid[1, 2] = True
        grid = AngularGrid(phi=np.array([0.0, 90.0, 180.0, 270.0]),
                          theta=np.array([45.0, 135.0]), valid=valid)
        field = solid_angle_weights(grid)
        assert field.weights[1, 2] == 1.0
        assert field.weights.sum() == 1.0

    def test_row_weight_peaks_at_equator(self, full_grid):
        field = solid_angle_weights(full_grid)
        row = field.weights[:, 0]
        mid = np.argmin(np.abs(full_grid.theta - 90.0))
        assert np.all(np.diff(row[:mid + 1]) > 0)
        assert np.all(np.diff(row[mid:]) < 0)

    @pytest.mark.parametrize("bad,message", [
        (-0.25, ">= 0"), (0.125, "sum to 1"), (np.nan, "sum to 1")])
    def test_weight_field_refuses_bad_weights(self, bad, message):
        weights = np.array([[0.0] * 4, [0.5, bad, 0.25, 0.25]])
        with pytest.raises(ConfigError, match=message):
            WeightField(_grid(), weights)

    def test_uniform_weights_equal_at_valid(self):
        grid = with_invalid_band(make_grid(5.0, 5.0, 175.0), 5.0, 10.0)
        field = uniform_weights(grid)
        vals = field.weights[grid.valid]
        assert np.allclose(vals, vals[0])
        assert (field.weights[~grid.valid] == 0.0).all()


def _coverage(grid, mask, field):
    """A region's share of the valid sphere, as ``RoIMask.coverage``
    measures it."""
    return RoIMask(grid=grid, mask=mask, kind="R1").coverage(field)


class TestFractionOfSphere:
    def test_full_and_empty(self, full_grid):
        field = solid_angle_weights(full_grid)
        ones = np.ones(full_grid.valid.shape, dtype=bool)
        zeros = np.zeros(full_grid.valid.shape, dtype=bool)
        assert abs(_coverage(full_grid, ones, field) - 100.0) < FRACTION_TOL
        assert _coverage(full_grid, zeros, field) == 0.0

    def test_upper_half_is_fifty(self):
        # 2.5 deg rows put the equator between samples, splitting evenly
        grid = make_grid(5.0, 2.5, 177.5)
        field = solid_angle_weights(grid)
        upper = grid.theta[:, None] < 90.0
        mask = np.broadcast_to(upper, grid.valid.shape)
        assert abs(_coverage(grid, mask, field) - 50.0) < 0.5
        assert abs(_coverage(grid, mask, field) - 50.0) < FRACTION_TOL

    def test_additive_over_disjoint_masks(self, full_grid):
        rng = np.random.default_rng(7)
        field = solid_angle_weights(full_grid)
        a = rng.random(full_grid.valid.shape) < 0.3
        b = (rng.random(full_grid.valid.shape) < 0.4) & ~a
        total = _coverage(full_grid, a | b, field)
        parts = _coverage(full_grid, a, field) + _coverage(full_grid, b, field)
        assert abs(total - parts) < FRACTION_TOL

    def test_invalid_points_do_not_count(self):
        grid = with_invalid_band(make_grid(5.0, 5.0, 175.0), 5.0, 30.0)
        field = solid_angle_weights(grid)
        ones = np.ones(grid.valid.shape, dtype=bool)
        assert abs(_coverage(grid, ones, field) - 100.0) < FRACTION_TOL

    def test_shape_mismatch_rejected(self, full_grid, tiny_grid):
        field = solid_angle_weights(full_grid)
        region = RoIMask(grid=tiny_grid, kind="R1",
                         mask=np.ones(tiny_grid.valid.shape, dtype=bool))
        with pytest.raises(DataError):
            region.coverage(field)


class TestPattern:
    def test_from_values_basic(self, tiny_grid):
        values = np.arange(8.0).reshape(2, 4)
        pat = Pattern.from_values(tiny_grid, values)
        assert pat.max_value() == 7.0
        assert pat.values[tiny_grid.valid].size == 8

    def test_neg_inf_clamped_and_flagged(self, tiny_grid):
        values = np.zeros((2, 4))
        values[0, 0] = -np.inf
        pat = Pattern.from_values(tiny_grid, values)
        assert pat.values[0, 0] == FLOOR_DB

    def test_nan_at_valid_point_rejected(self, tiny_grid):
        values = np.zeros((2, 4))
        values[1, 1] = np.nan
        with pytest.raises(DataError):
            Pattern.from_values(tiny_grid, values)

    def test_pos_inf_rejected(self, tiny_grid):
        values = np.zeros((2, 4))
        values[1, 1] = np.inf
        with pytest.raises(DataError):
            Pattern.from_values(tiny_grid, values)

    def test_invalid_points_become_nan(self):
        grid = with_invalid_band(make_grid(90.0, 45.0, 135.0), 45.0, 45.0)
        pat = Pattern.from_values(grid, np.ones((2, 4)))
        assert np.isnan(pat.values[0]).all()
        assert pat.values[grid.valid].size == 4

    def test_shape_mismatch_rejected(self, tiny_grid):
        with pytest.raises(ConfigError):
            Pattern.from_values(tiny_grid, np.zeros((3, 4)))

    def test_equality_and_hash(self):
        grid = with_invalid_band(make_grid(90.0, 45.0, 135.0), 45.0, 45.0)
        values = np.arange(8.0).reshape(2, 4)
        a = Pattern.from_values(grid, values)
        b = Pattern.from_values(grid, values.copy())
        # NaN at the invalid points equals NaN, as -0.0 equals 0.0
        assert np.isnan(a.values[0]).all()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        zero, neg_zero = (Pattern(grid, np.full((2, 4), z))
                          for z in (0.0, -0.0))
        assert zero == neg_zero and hash(zero) == hash(neg_zero)
        assert a != Pattern.from_values(grid, values + 1.0)
        assert a != Pattern.from_values(make_grid(90.0, 45.0, 135.0), values)
        assert a.__eq__(values) is NotImplemented


class TestPatternSet:
    def test_values_cleaned_once_and_beams_viewed(self):
        grid = with_invalid_band(make_grid(90.0, 45.0, 135.0), 45.0, 45.0)
        values = np.zeros((2, 4, 2)).transpose(2, 0, 1)  # beam innermost
        values[1, 1, 2] = -np.inf
        pset = PatternSet(grid, values)
        values[0, 1, 0] = 5.0  # the set holds a copy
        assert pset.beam_ids == (0, 1) and len(pset) == 2
        # C order, so that a beam's points and a max over beams are
        # contiguous reads
        assert pset.values.flags.c_contiguous
        assert not pset.values.flags.writeable
        assert np.isnan(pset.values[:, 0]).all()
        assert pset.values[1, 1, 2] == FLOOR_DB and pset.values[0, 1, 0] == 0
        for pattern, beam in zip(pset, pset.values, strict=True):
            assert pattern.grid is grid
            assert np.shares_memory(pattern.values, beam)
            assert not pattern.values.flags.writeable

    def test_caller_array_stays_writable_and_unchanged(self):
        # C-ordered floats, which the producers' private _deferred cleans
        # in place: the public constructor still copies them
        grid = with_invalid_band(make_grid(90.0, 45.0, 135.0), 45.0, 45.0)
        values = np.full((2, 2, 4), -300.0)
        values[1, 1, 2] = 7.0
        before = values.copy()
        pset = PatternSet(grid, values, (4, 1))
        assert values.flags.writeable
        assert not np.shares_memory(values, pset.values)
        np.testing.assert_array_equal(values, before)
        deferred = PatternSet._deferred(grid, (4, 1), values.max(axis=0),
                                        lambda: values)
        assert deferred == pset and np.shares_memory(values, deferred.values)
        np.testing.assert_array_equal(values, pset.values)  # cleaned in place

    def test_equality_and_hash(self):
        grid = with_invalid_band(make_grid(90.0, 45.0, 135.0), 45.0, 45.0)
        values = np.arange(16.0).reshape(2, 2, 4)
        a = PatternSet(grid, values, (3, 7))
        b = PatternSet(grid, values.copy(), (3, 7))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PatternSet(grid, values)  # ids 0, 1
        assert a != PatternSet(grid, values + 1.0, (3, 7))
        assert a != PatternSet(make_grid(90.0, 45.0, 135.0), values, (3, 7))
        assert a != next(iter(a))

    def test_numpy_integer_ids_kept_as_ints(self, tiny_grid):
        pset = PatternSet(tiny_grid, np.zeros((2, 2, 4)),
                          np.array([7, 2**63 - 1], dtype=np.uint64))
        assert pset.beam_ids == (7, 2**63 - 1)
        assert all(type(b) is int for b in pset.beam_ids)

    def test_non_finite_valid_value_rejected(self, tiny_grid):
        values = np.zeros((2, 2, 4))
        values[1, 0, 3] = np.inf
        with pytest.raises(DataError, match="non-finite value"):
            PatternSet(tiny_grid, values)

    @pytest.mark.parametrize("shape", [
        pytest.param((2, 3, 4), id="wrong-shape"),
        pytest.param((2, 4), id="2-D"),
        pytest.param((1, 1, 2, 4), id="4-D")])
    def test_values_not_beams_by_grid_rejected(self, tiny_grid, shape):
        with pytest.raises(ConfigError, match="values shape must match"):
            PatternSet(tiny_grid, np.zeros(shape))

    def test_empty_rejected(self, tiny_grid):
        with pytest.raises(ConfigError, match="at least one beam"):
            PatternSet(tiny_grid, np.zeros((0, 2, 4)))

    @pytest.mark.parametrize("ids", [
        pytest.param((3,), id="fewer"), pytest.param((3, 4, 5), id="more"),
        pytest.param((1, 1), id="repeated"),
        pytest.param((0, -1), id="negative"),
        pytest.param((0, 2**63), id="too-large"),
        pytest.param((0, 1.0), id="float")])
    def test_bad_beam_ids_rejected(self, tiny_grid, tmp_path, ids):
        # refused when the set is built, so no archive can carry them
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match=r"beam_ids must be 2 distinct "
                           r"integers in \[0, 2\*\*63\)"):
            write_scan_csv(path, {"freespace": PatternSet(
                tiny_grid, np.zeros((2, 2, 4)), ids)})
        assert not path.exists()


def _grid(phi0=0.0):
    """2 x 4 lattice from fresh arrays, phi from ``phi0`` (its sign kept
    at zero) in 90-degree steps, its first theta row invalid."""
    return AngularGrid(phi=phi0 + np.array([-0.0, 90.0, 180.0, 270.0]),
                       theta=np.array([45.0, 135.0]),
                       valid=np.array([[False] * 4, [True] * 4]))


def _rows(x, top):
    """(2, 4) field: the invalid row all ``top``, the valid row holding
    ``x`` first and summing to 1."""
    return np.array([[top] * 4, [x, 0.5 - x, 0.25, 0.25]])


# Each record built from fresh arrays with ``x`` in one float slot, and an
# ``x`` that makes a different record. Pattern and PatternSet hold NaN at
# the invalid row.
RECORDS = {
    "AngularGrid": (_grid, 10.0),
    "WeightField": (lambda x: WeightField(_grid(), _rows(x, 0.0)), 0.125),
    "Pattern": (lambda x: Pattern(_grid(), _rows(x, np.nan)), 0.125),
    "PatternSet": (lambda x: PatternSet(_grid(), [_rows(x, 0.0)] * 2, (5, 9)),
                   0.125),
    "WeightedCDF": (lambda x: WeightedCDF(np.array([x, 1.0, 2.0]),
                                          np.array([0.25, 0.5, 1.0])), 0.5),
    "RoIMask": (lambda x: RoIMask(_grid(x), np.ones((2, 4), bool), "R1",
                                  {"delta1": x}), 10.0),
}


class TestArrayRecords:
    @pytest.mark.parametrize("make,other", RECORDS.values(), ids=RECORDS)
    def test_value_equality_and_matching_hash(self, make, other):
        a, b = make(0.0), make(0.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        if isinstance(a, (Pattern, PatternSet)):
            assert np.isnan(a.values).any()
        neg_zero = make(-0.0)
        assert a == neg_zero and hash(a) == hash(neg_zero)
        assert a != make(other)
        for kind, (make_kind, _) in RECORDS.items():
            assert (a == make_kind(0.0)) is (kind == type(a).__name__)

    def test_same_fields_of_another_record_type_differ(self):
        weights = WeightField(_grid(), _rows(0.0, 0.0))
        assert Pattern(weights.grid, weights.weights) != weights

    @pytest.mark.parametrize("make,arrays", [
        pytest.param(AngularGrid, lambda: [
            np.array([0.0, 90.0, 180.0, 270.0]), np.array([45.0, 135.0]),
            np.ones((2, 4), bool)], id="AngularGrid"),
        pytest.param(lambda w: WeightField(_grid(), w),
                     lambda: [_rows(0.0, 0.0)], id="WeightField"),
        pytest.param(lambda v: Pattern(_grid(), v),
                     lambda: [_rows(0.0, np.nan)], id="Pattern"),
        pytest.param(lambda v: Pattern.from_values(_grid(), v),
                     lambda: [_rows(0.0, 0.0)], id="Pattern.from_values"),
        pytest.param(lambda v: PatternSet(_grid(), v),
                     lambda: [np.stack([_rows(0.0, 0.0)] * 2)],
                     id="PatternSet"),
        pytest.param(WeightedCDF, lambda: [np.array([0.0, 1.0]),
                                           np.array([0.5, 1.0])],
                     id="WeightedCDF"),
        pytest.param(lambda m: RoIMask(_grid(), m, "R1"),
                     lambda: [np.ones((2, 4), bool)], id="RoIMask")])
    def test_caller_arrays_neither_frozen_nor_aliased(self, make, arrays):
        mine = arrays()
        record = make(*mine)
        twin = make(*(a.copy() for a in mine))
        for a in mine:
            assert a.flags.writeable
            a[...] = ~a if a.dtype == bool else a + 1.0
        assert record == twin
