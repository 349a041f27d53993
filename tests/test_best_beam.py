"""Best-beam fields straight from the array-factor table.

Synthesis and masking make each set's best-beam field without its per-beam
cube. These tests hold that field to the maximum over the built cube, bit
for bit (sign bits and NaN positions included), and hold the error of a
non-finite value to the per-beam model: a set errs when it is made exactly
when one of its per-beam values at a valid point is not finite.
"""

import json
import pickle
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamblock import grid as grid_mod
from beamblock.errors import DataError
from beamblock.grid import Pattern, PatternSet, make_grid, with_invalid_band
from beamblock.lossstats import Study
from beamblock.scanio import parse_scan_csv, write_scan_csv
from beamblock.scenario import build_patterns, load_bundled, load_scenario
from beamblock.synth import (ArrayConfig, BeamSpec, BlockageMask, MaskRegion,
                             apply_blockage_mask, steering_weights,
                             synth_pattern_set)
from cli_run import run_captured
from synth_oracle import eirp_at

BUNDLED = ("s1_patch_portrait_hard", "s2_patch_portrait_loose",
           "s3_dipole_portrait_hard", "s4_dipole_portrait_loose",
           "s5_patch_landscape_intermediate")

HUGE = [1e308, -1e308, 1.7e308, -1.7e308, 1e300, -1e300, 1e18]
_DB = st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0]))


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _modes_with_masks(config, beams, grid, masks):
    """The free set and one set per mask, each made fresh from the free."""
    free = synth_pattern_set(config, beams, grid)
    return [free] + [apply_blockage_mask(free, m) for m in masks]


def _per_beam_reference(config, beams, grid, masks):
    """Each mode's per-beam fields from the reference model, cleaned beam by
    beam; DataError if any of them has a non-finite valid value."""
    pp, tt = np.meshgrid(grid.phi, grid.theta)
    with np.errstate(all="ignore"):
        free = [Pattern.from_values(grid, eirp_at(
            config, steering_weights(config, b), pp, tt)).values
            for b in beams]
        return [np.array(free)] + [
            np.array([Pattern.from_values(grid, f - m.delta_field(grid))
                      .values for f in free]) for m in masks]


def _check_identity(config, beams, grid, masks):
    try:
        want = _per_beam_reference(config, beams, grid, masks)
    except DataError as exc:
        with pytest.raises(DataError, match=str(exc)):
            _modes_with_masks(config, beams, grid, masks)
        return
    sets = _modes_with_masks(config, beams, grid, masks)
    for pset, cube in zip(sets, want):
        assert len(pset) == len(beams)
        assert "values" not in vars(pset)  # nothing has read them yet
        best = pset.best()
        assert _bits(best) == _bits(cube.max(axis=0))
        assert _bits(pset.values) == _bits(cube)
        assert _bits(best) == _bits(pset.values.max(axis=0))


_REGION = st.builds(
    lambda phi, theta, delta, taper: MaskRegion(
        phi_lo=phi[0], phi_hi=phi[1], theta_lo=min(theta),
        theta_hi=max(theta), delta_db=delta, edge_taper_deg=taper),
    st.sampled_from([(0.0, 360.0), (150.0, 210.0), (300.0, 60.0),
                     (20.0, 95.0)]),
    st.tuples(st.floats(1.0, 179.0), st.floats(1.0, 179.0)),
    st.one_of(_DB, st.sampled_from([250.0, -250.0] + HUGE)),
    st.sampled_from([0.0, 0.0, 7.5, 30.0]))


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 8))
    config = ArrayConfig(
        n_elements=n, spacing=draw(st.sampled_from([0.25, 0.5, 0.7])),
        element_kind=draw(st.sampled_from(["patch", "dipole", "isotropic"])),
        phase_bits=draw(st.integers(0, 4)),
        tx_power_dbm=draw(st.one_of(_DB, st.sampled_from(HUGE))),
        element_peak_gain_dbi=draw(st.one_of(_DB, st.sampled_from(HUGE))),
        boresight_phi=draw(st.sampled_from([0.0, 10.0, 180.0])))
    taper = st.none() | st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                 min_size=n, max_size=n).map(tuple)
    beams = draw(st.lists(st.builds(BeamSpec, st.floats(-80.0, 80.0), taper),
                          min_size=1, max_size=16))
    grid = make_grid(draw(st.sampled_from([10.0, 15.0, 30.0])), 5.0, 175.0,
                     5.0)
    if draw(st.booleans()):
        grid = with_invalid_band(grid, 80.0, 100.0)
    masks = draw(st.lists(st.lists(_REGION, max_size=3).map(BlockageMask),
                          max_size=3))
    return config, beams, grid, masks


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_cases())
def test_best_field_is_the_cube_maximum_bit_for_bit(case):
    _check_identity(*case)


def test_floored_points_and_reflections_keep_their_bits():
    """A 16-beam patch whose back hemisphere is floored, masked by a
    reflection, a tapered loss and a loss deep enough to floor its region."""
    grid = with_invalid_band(make_grid(6.0, 3.0, 177.0), 60.0, 72.0)
    config = ArrayConfig(tx_power_dbm=-150.0)
    beams = [BeamSpec(s) for s in np.linspace(-70.0, 70.0, 16)]
    masks = [BlockageMask((MaskRegion(150.0, 210.0, 40.0, 140.0, -9.5),)),
             BlockageMask((MaskRegion(100.0, 260.0, 30.0, 150.0, 25.0,
                                      edge_taper_deg=20.0),)),
             BlockageMask((MaskRegion(0.0, 360.0, 10.0, 170.0, 80.0),))]
    free = synth_pattern_set(config, beams, grid)
    assert np.any(free.best() == -200.0)
    _check_identity(config, beams, grid, masks)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_overlays_at_one_degree_match_the_cubes(name):
    scenario = load_bundled(name)
    grid = make_grid(1.0, 1.0, 179.0)
    _check_identity(scenario.config, list(scenario.beams), grid,
                    [scenario.masks[m] for m in sorted(scenario.masks)])


def test_study_builds_no_cube():
    """Every overlay and region of a study, and the pattern sets' sizes,
    come without a per-beam cube."""
    modes = build_patterns(load_bundled("s5_patch_landscape_intermediate"))
    sets = list(modes.values())
    study = Study(modes)
    for kind in ("r1", "r2", "r3", "r4", "r5", "r1_matched"):
        study.region(kind)
    for mode in modes:
        study.overlay(mode)
    assert [len(p) for p in sets] == [3, 3, 3]
    assert not any("values" in vars(p) for p in sets)


def test_parsed_sets_hold_their_beam_maximum(tmp_path):
    """A parsed set makes its best field from its values: a synth archive of
    s5 with an invalid band, its beams renamed 7, 42 and 9000, reads back
    into sets whose best field is the read-only maximum over their values,
    bit for bit, and ``stats`` on it prints what it prints on an archive of
    those maxima alone."""
    doc = json.loads(resources.files("beamblock").joinpath(
        "scenarios/s5_patch_landscape_intermediate.json").read_text())
    doc["invalid_theta_band"] = [60.0, 80.0]
    scenario = tmp_path / "s5.json"
    scenario.write_text(json.dumps(doc))
    assert run_captured(["synth", "--scenario", str(scenario), "--out",
                         str(tmp_path / "synth")]) == (0, "", "")
    header, *rows = (tmp_path / "synth" / "scan.csv").read_text().splitlines(
        keepends=True)
    ids = {"0": "7", "1": "42", "2": "9000"}
    renamed, envelope = tmp_path / "renamed.csv", tmp_path / "envelope.csv"
    renamed.write_text(header + "".join(
        ",".join(f[:2] + [ids[f[2]]] + f[3:])
        for f in (row.split(",") for row in rows)))
    maxima = {}
    for mode, pset in parse_scan_csv(renamed).modes.items():
        assert pset.beam_ids == (7, 42, 9000)
        best = pset.best()
        assert not best.flags.writeable
        assert _bits(best) == _bits(pset.values.max(axis=0))
        maxima[mode] = PatternSet(pset.grid, best[None])
    assert sorted(maxima) == ["freespace", "phantom", "true_hand"]
    write_scan_csv(envelope, maxima)
    stats = [run_captured(["stats", "--scan", str(p)])
             for p in (renamed, envelope)]
    assert stats[0][0] == 0 and stats[0] == stats[1]


def test_masking_waits_for_a_read(monkeypatch):
    """Applying a mask makes its delta field once, for the best field; the
    per-beam values wait for their first read, which makes it once more."""
    made = []
    delta_field = BlockageMask.delta_field

    def counted(mask, grid):
        made.append(mask)
        return delta_field(mask, grid)

    monkeypatch.setattr(BlockageMask, "delta_field", counted)
    scenario = load_bundled("s1_patch_portrait_hard")
    hand = build_patterns(scenario)["true_hand"]
    assert made == [scenario.masks["true_hand"]]
    hand.best()
    assert made == [scenario.masks["true_hand"]]
    assert len(hand.values) == 3
    assert hand.values is hand.values
    assert made == [scenario.masks["true_hand"]] * 2


def _count_cubes(monkeypatch) -> list:
    """The beam count of each 3-D cube that ``grid._cleaned`` cleans from
    now on."""
    cubes = []
    cleaned = grid_mod._cleaned

    def counted(grid, values, ndim):
        if ndim == 3:
            cubes.append(values.shape[0])
        return cleaned(grid, values, ndim)

    monkeypatch.setattr(grid_mod, "_cleaned", counted)
    return cubes


def _read_twice(modes) -> None:
    for _ in range(2):
        for pset in modes.values():
            assert pset.values.shape[0] == 3
    for pset in modes.values():
        assert not any(callable(v) for v in vars(pset).values())


def test_reading_values_cleans_each_cube_once(monkeypatch):
    """Reading every mode's values, as ``write_scan_csv`` does, cleans one
    free cube and one per mask, however often they are read; each set then
    holds its values and no value maker."""
    cubes = _count_cubes(monkeypatch)
    modes = build_patterns(load_bundled("s5_patch_landscape_intermediate"))
    assert cubes == []
    _read_twice(modes)
    assert cubes == [3, 3, 3]


def test_parsing_cleans_a_cube_only_when_read(monkeypatch, tmp_path):
    """Parsing s5's synth archive and analysing it, as every ``--scan``
    command does, cleans no cube; reading every mode's values twice then
    cleans one per mode."""
    assert run_captured(["synth", "--scenario",
                         "s5_patch_landscape_intermediate", "--out",
                         str(tmp_path)]) == (0, "", "")
    cubes = _count_cubes(monkeypatch)
    scan = ["--scan", str(tmp_path / "scan.csv")]
    for argv in (["stats"], ["compare"], ["cdf", "--percentiles", "5,50"],
                 *(["roi", "--roi-kind", f"r{k}"] for k in range(1, 6))):
        assert run_captured(argv + scan)[0] == 0
    modes = parse_scan_csv(tmp_path / "scan.csv").modes
    study = Study(modes)
    study.hand_stats(-35.0, study.weights)
    assert cubes == []
    _read_twice(modes)
    assert cubes == [3, 3, 3]


def _form(kind, tmp_path):
    """A set of one form: built, parsed from a synth archive, synthesized or
    masked, the last two with their values not yet read."""
    grid = make_grid(30.0, 15.0, 165.0)
    if kind == "built":
        return PatternSet(grid, np.linspace(-80.0, 10.0, 144).reshape(
            2, 6, 12), beam_ids=(4, 9))
    if kind == "parsed":
        modes = build_patterns(load_bundled("s1_patch_portrait_hard"))
        write_scan_csv(tmp_path / "scan.csv", modes)
        return parse_scan_csv(tmp_path / "scan.csv").modes["true_hand"]
    free = synth_pattern_set(ArrayConfig(), [BeamSpec(-30.0), BeamSpec(20.0)],
                             grid)
    mask = BlockageMask((MaskRegion(150.0, 210.0, 45.0, 120.0, 12.0, 15.0),))
    return free if kind == "synthesized" else apply_blockage_mask(free, mask)


@pytest.mark.parametrize("kind", ["built", "parsed", "synthesized", "masked"])
def test_every_form_pickles_as_its_values(kind, tmp_path):
    """A set pickles as its built values, and reads back as an equal set
    whose values and best field are read-only."""
    pset = _form(kind, tmp_path)
    best = pset.best()
    back = pickle.loads(pickle.dumps(pset))
    assert type(back) is PatternSet and back == pset
    assert back.beam_ids == pset.beam_ids
    assert _bits(back.values) == _bits(pset.values)
    assert _bits(back.best()) == _bits(best)
    assert not back.values.flags.writeable
    assert not back.best().flags.writeable


def test_every_mask_errs_when_applied():
    """A mask makes its best field when it is applied, so an overflow errs
    there, as the free set's does."""
    free = synth_pattern_set(ArrayConfig(n_elements=1,
                                         element_kind="isotropic",
                                         tx_power_dbm=1.79e308),
                             [BeamSpec(0.0)], make_grid(30.0, 15.0, 165.0))
    mild = BlockageMask((MaskRegion(0.0, 360.0, 15.0, 165.0, -1e290),))
    assert _bits(apply_blockage_mask(free, mild).best()) == _bits(free.best())
    huge = BlockageMask((MaskRegion(0.0, 360.0, 15.0, 165.0, -1e307),))
    with pytest.raises(DataError, match="non-finite value at a valid grid"):
        apply_blockage_mask(free, huge)


_COMMANDS = [["stats"], ["compare"], ["cdf", "--threshold", "0"],
             ["roi", "--roi-kind", "r1"], ["roi", "--roi-kind", "r3"],
             ["overlay", "--mode", "true_hand"]]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tx=st.sampled_from([-30.0] + HUGE), peak=st.sampled_from([5.0] + HUGE),
       command=st.sampled_from(_COMMANDS))
def test_huge_array_powers_err_as_the_per_beam_values_do(tmp_path_factory,
                                                         tx, peak, command):
    """Huge finite ``tx_power_dbm`` and ``element_peak_gain_dbi``: a command
    exits 1 with the one-line non-finite error exactly when a per-beam value
    of the scenario is not finite, and never prints more than one line."""
    doc = json.loads(resources.files("beamblock").joinpath(
        "scenarios/s3_dipole_portrait_hard.json").read_text())
    doc["grid"] = {"phi_step": 15.0, "theta_min": 15.0, "theta_max": 165.0}
    doc["array"].update(tx_power_dbm=tx, element_peak_gain_dbi=peak)
    tmp = tmp_path_factory.mktemp("huge")
    path = tmp / "huge.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(path)
    try:
        _per_beam_reference(sc.config, list(sc.beams), sc.grid,
                            [sc.masks[m] for m in sorted(sc.masks)])
        non_finite = False
    except DataError:
        non_finite = True
    extra = ["--out", str(tmp / "o.svg")] if command[0] == "overlay" else []
    code, _, err = run_captured([command[0], "--scenario", str(path),
                                 *command[1:], *extra])
    nonfinite_err = "error: non-finite value at a valid grid point\n"
    if non_finite:
        assert (code, err) == (1, nonfinite_err)
    else:
        assert err != nonfinite_err
        assert (code, err) == (0, "") or (
            code == 1 and err.startswith("error:") and err.count("\n") == 1)
