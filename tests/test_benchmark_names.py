"""The package still offers what the benchmark harness uses of it.

``perfbench/tracer.py`` names the traced functions in ``SPECS`` and its
``Tracer.install`` refuses to run when one is missing; a traced run exits
3 when a span that ``worker.expected_calls`` names records no call.
``perfbench/`` also iterates pattern sets and takes their ``grid`` and
``len``. These tests make a refactor that deletes or moves a traced
function, stops calling one, or changes how a pattern set is read, fail
here first rather than in a benchmark run.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from beamblock import cli
from beamblock.scanio import parse_scan_csv
from beamblock.scenario import build_patterns, load_bundled

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A fresh copy of perfbench's module ``name``, registered in
    sys.modules only while it runs (see conftest.py)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _specs():
    return _load("tracer").SPECS


@pytest.mark.parametrize("modname,fname",
                         sorted({(s[1], s[2]) for s in _specs()}))
def test_traced_function_exists(modname, fname):
    module = importlib.import_module(modname)
    assert callable(getattr(module, fname, None)), f"{modname}.{fname}"


def test_harness_archive_reads_back_the_patterns(tmp_path):
    modes = build_patterns(load_bundled("s1_patch_portrait_hard"))
    path = tmp_path / "archive.csv"
    _load("workloads").write_archive(path, modes, seed=0)
    back = parse_scan_csv(path).modes
    assert list(back) == sorted(modes)
    for mode, pset in modes.items():
        assert back[mode].grid == pset.grid
        assert back[mode].beam_ids == pset.beam_ids
        np.testing.assert_allclose(back[mode].values, pset.values, rtol=0,
                                   atol=5e-7)


def test_tracer_counts_beams_times_valid_points():
    modes = build_patterns(load_bundled("s1_patch_portrait_hard"))
    counts = [_load("tracer")._n_samples(p) for p in modes.values()]
    assert not any("values" in vars(p) for p in modes.values())  # no cube
    assert counts == [len(p.values) * int(p.grid.valid.sum())
                      for p in modes.values()]


# What every query of the queries workload must reach: a query that takes
# its overlays some other way leaves these spans silent.
_SYNTHESIS_SPANS = ("scenario.build_patterns", "synth.synth_pattern_set",
                    "synth.apply_blockage_mask", "coverage.overlay_best_beam")
_QUERIES = (["cdf", "--threshold", "-40", "--percentiles", "50,95"],
            ["roi", "--roi-kind", "r1"], ["roi", "--roi-kind", "r4"],
            ["stats"], ["compare"])


def test_traced_queries_record_every_expected_call():
    """Each query on a cold kept entry reaches synthesis."""
    tracer = _load("tracer").Tracer()
    recorded = set()
    for unit, argv in enumerate(_QUERIES):
        cli._kept_patterns.cache_clear()
        tracer.unit = unit
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_cli([argv[0], "--scenario",
                                    "s5_patch_landscape_intermediate",
                                    *argv[1:]])
        finally:
            tracer.uninstall()
        assert code == 0, argv
        calls = {name for name, n in tracer.unit_metrics(unit).items()
                 if name.endswith(".calls") and n}
        assert {f"{s}.calls" for s in _SYNTHESIS_SPANS} <= calls, argv
        recorded |= calls
    expected = _load("worker").expected_calls("queries")
    assert set(_SYNTHESIS_SPANS) <= set(expected)
    assert {f"{s}.calls" for s in expected} <= recorded


def test_traced_two_study_unit_records_every_expected_call(tmp_path):
    """A unit of two studies in the queries workload's call order, where
    each study's later calls take the kept sets, records a call in every
    span worker.expected_calls names, and synthesizes once per study."""
    workload = _load("workloads").Queries(PERFBENCH.parent, tmp_path, 0)
    calls = workload.calls(0)
    per_study = len(calls) // len(workload.studies)
    tracer = _load("tracer").Tracer()
    cli._kept_patterns.cache_clear()
    tracer.unit = 0
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run_cli(call.argv) for call in calls[:2 * per_study]]
    finally:
        tracer.uninstall()
    assert codes == [0] * (2 * per_study)
    metrics = tracer.unit_metrics(0)
    assert all(metrics[f"{s}.calls"] > 0
               for s in _load("worker").expected_calls("queries"))
    assert metrics["scenario.build_patterns.calls"] == 2
    # s1 and s2 have two modes each, and every call overlays both
    assert metrics["coverage.overlay_best_beam.calls"] == 2 * len(codes)
