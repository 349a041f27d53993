"""Every function the benchmark tracer wraps exists in the package.

``perfbench/tracer.py`` names the traced functions in ``SPECS`` and its
``Tracer.install`` refuses to run when one is missing; this test makes a
refactor that deletes or moves a traced function fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _specs():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


@pytest.mark.parametrize("modname,fname",
                         sorted({(s[1], s[2]) for s in _specs()}))
def test_traced_function_exists(modname, fname):
    module = importlib.import_module(modname)
    assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
