"""How far each bundled study's numbers sit from the fine-grid limit.

Every bundled study is built at its own 5 degree grid, at 1 degree and at
0.5 degree, theta kept at 5-175 degrees, and analysed at its own
``delta5_dbm``, thresholds and percentiles. The means, standard
deviations and region shares of the hand loss over R5 and the matched R1
converge, and so does every coverage row; the bounds below hold the gap
of each grid to 0.5 degree. The weighted median does not converge where a
region's median lies on the ramp of a 10 degree mask taper, which a 5
degree grid samples at two or three points: those medians are pinned by
value, so that a change in them is seen.
"""

import json
from importlib import resources

import pytest

from beamblock.lossstats import Study, study_summary
from beamblock.scenario import build_patterns, scenario_from_dict

BUNDLED = ("s1_patch_portrait_hard", "s2_patch_portrait_loose",
           "s3_dipole_portrait_hard", "s4_dipole_portrait_loose",
           "s5_patch_landscape_intermediate")
STEPS = (5.0, 1.0, 0.5)

# The largest gap to 0.5 degree allowed at 5 and at 1 degree: dB for the
# loss means and standard deviations, percentage points for the rest.
BOUNDS = {
    "mean_db": (0.1, 0.03),
    "std_db": (0.05, 0.005),
    "sphere_pct": (0.4, 0.05),
    "rel_lost_pct": (2.0, 0.3),
    "row": (1.0, 0.15),  # every other coverage row
}

# The medians that do not converge, in dB at 5, 1 and 0.5 degree; every
# other median is the same on all three grids.
MOVING_MEDIANS = {
    ("s2_patch_portrait_loose", "r1_matched"): (13.00, 17.02, 17.02),
    ("s5_patch_landscape_intermediate", "r5"): (0.00, 3.82, 4.61),
    ("s5_patch_landscape_intermediate", "r1_matched"): (10.00, 8.24, 8.19),
}


def _analysed(name: str, step: float) -> tuple[dict, list]:
    """The R5 and matched-R1 loss statistics and the coverage rows of
    bundled ``name`` on a grid of ``step`` degrees."""
    doc = json.loads((resources.files("beamblock") / "scenarios"
                      / f"{name}.json").read_text())
    assert doc["grid"] == {"phi_step": 5.0, "theta_min": 5.0,
                           "theta_max": 175.0}
    doc["grid"]["phi_step"] = step
    scenario = scenario_from_dict(doc)
    study = Study(build_patterns(scenario))
    stats = study.hand_stats(scenario.delta5_dbm, study.weights)
    rows = study_summary(study, "true_hand", scenario.thresholds_dbm,
                         scenario.percentiles)["thresholds"]
    return stats, rows


@pytest.fixture(scope="module")
def analysed():
    return {(name, step): _analysed(name, step)
            for name in BUNDLED for step in STEPS}


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("column,step", [(0, 5.0), (1, 1.0)])
def test_converged_statistics_lie_near_the_fine_grid(analysed, name,
                                                     column, step):
    stats, rows = analysed[name, step]
    fine_stats, fine_rows = analysed[name, 0.5]
    for label in ("r5", "r1_matched"):
        assert stats[label] is not None and fine_stats[label] is not None
        for field in ("mean_db", "std_db", "sphere_pct"):
            gap = abs(getattr(stats[label], field)
                      - getattr(fine_stats[label], field))
            assert gap <= BOUNDS[field][column], (label, field, gap)
    assert [r["threshold_dbm"] for r in rows] == [
        r["threshold_dbm"] for r in fine_rows]
    for row, fine in zip(rows, fine_rows):
        for key in set(row) - {"threshold_dbm"}:
            gap = abs(row[key] - fine[key])
            assert gap <= BOUNDS.get(key, BOUNDS["row"])[column], (
                row["threshold_dbm"], key, gap)


@pytest.mark.parametrize("name", BUNDLED)
def test_medians_that_do_not_converge_are_named(analysed, name):
    for label in ("r5", "r1_matched"):
        medians = [analysed[name, step][0][label].median_db
                   for step in STEPS]
        expected = MOVING_MEDIANS.get((name, label))
        if expected is None:
            assert medians == [medians[0]] * len(STEPS), label
        else:
            assert medians == pytest.approx(expected, abs=0.005), label
