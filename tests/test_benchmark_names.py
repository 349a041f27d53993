"""The package still offers what the benchmark harness uses of it.

``perfbench/tracer.py`` names the traced functions in ``SPECS`` and its
``Tracer.install`` refuses to run when one is missing; ``perfbench/``
also iterates pattern sets and takes their ``grid`` and ``len``. These
tests make a refactor that deletes or moves a traced function, or changes
how a pattern set is read, fail here first rather than in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from beamblock.scanio import parse_scan_csv
from beamblock.scenario import build_patterns, load_bundled

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
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
    pset = build_patterns(load_bundled("s1_patch_portrait_hard"))["freespace"]
    assert _load("tracer")._n_samples(pset) == (
        len(pset.values) * int(pset.grid.valid.sum()))
