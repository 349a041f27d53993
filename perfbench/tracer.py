"""Outside-in span tracer for the beamblock benchmark.

The program is not instrumented. Instead, each public function named in
``SPECS`` is replaced, at every ``beamblock.*`` module-global binding of the
function object, by a wrapper that records a span. Modules import each other
with ``from .x import f``, so a function has one binding per importing
module; all of them are wrapped, and calls from ``report``, ``lossstats`` or
``cli`` are captured like calls from outside.

Spans live in memory with a parent link and are written out at the end. A
span's self time is its duration minus the durations of its child spans.
Time the tracer spends measuring sizes is subtracted from the span and from
all open ancestors, so it shows only in ``trace_overhead_pct``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _n_samples(pset) -> int:
    """Valid points times beams of one pattern set."""
    return len(pset) * int(pset.grid.valid.sum())


def _synth_sizes(args, kwargs, result):
    return {"samples": _n_samples(result)}


def _overlay_sizes(args, kwargs, result):
    return {"samples": _n_samples(_arg(args, kwargs, 0, "pset"))}


def _cdf_sizes(args, kwargs, result):
    return {"samples": int(result.values.size)}


def _compare_sizes(args, kwargs, result):
    import numpy as np

    cands = result.candidates
    merged = sum(np.union1d(a.cdf.values, b.cdf.values).size
                 for i, a in enumerate(cands) for b in cands[i + 1:])
    return {"merged_points": int(merged)}


def _write_scan_sizes(args, kwargs, result):
    data = _arg(args, kwargs, 1, "data")
    modes = getattr(data, "modes", data)
    return {"rows": sum(_n_samples(p) for p in modes.values()),
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _parse_scan_sizes(args, kwargs, result):
    return {"rows": sum(_n_samples(p) for p in result.modes.values()),
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _heatmap_sizes(args, kwargs, result):
    return {"cells": int(_arg(args, kwargs, 0, "pattern").grid.valid.size),
            "bytes": len(result.encode())}


def _cdf_svg_sizes(args, kwargs, result):
    curves = _arg(args, kwargs, 0, "curves")
    return {"points": sum(int(cdf.values.size) for _, cdf in curves)}


def _bundle_sizes(args, kwargs, result):
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    return {"bundle_bytes": sum(p.stat().st_size for p in out.iterdir()
                                if p.is_file())}


# (span name, module, function, size extractor, size names). Several
# functions may share one span name; they are then counted as one layer.
SPECS = (
    ("cli.run_cli", "beamblock.cli", "run_cli", None, ()),
    ("scenario.load", "beamblock.scenario", "load_scenario", None, ()),
    ("scenario.load", "beamblock.scenario", "load_bundled", None, ()),
    ("scenario.build_patterns", "beamblock.scenario", "build_patterns",
     None, ()),
    ("synth.synth_pattern_set", "beamblock.synth", "synth_pattern_set",
     _synth_sizes, ("samples",)),
    ("synth.apply_blockage_mask", "beamblock.synth", "apply_blockage_mask",
     None, ()),
    ("grid.solid_angle_weights", "beamblock.grid", "solid_angle_weights",
     None, ()),
    ("coverage.overlay_best_beam", "beamblock.coverage", "overlay_best_beam",
     _overlay_sizes, ("samples",)),
    ("coverage.weighted_cdf", "beamblock.coverage", "weighted_cdf",
     _cdf_sizes, ("samples",)),
    ("coverage.percentile_value", "beamblock.coverage", "percentile_value",
     None, ()),
    ("coverage.coverage_above", "beamblock.coverage", "coverage_above",
     None, ()),
    ("roi.masks", "beamblock.roi", "roi_r1", None, ()),
    ("roi.masks", "beamblock.roi", "roi_r2", None, ()),
    ("roi.masks", "beamblock.roi", "roi_r3", None, ()),
    ("roi.masks", "beamblock.roi", "roi_r4", None, ()),
    ("roi.masks", "beamblock.roi", "roi_r5", None, ()),
    ("roi.masks", "beamblock.roi", "matched_r1_for_r5", None, ()),
    ("roi.roi_improvement", "beamblock.roi", "roi_improvement", None, ()),
    ("lossstats.study_summary", "beamblock.lossstats", "study_summary",
     None, ()),
    ("lossstats.loss_stats", "beamblock.lossstats", "loss_stats", None, ()),
    ("lossstats.gaussian_fit", "beamblock.lossstats", "gaussian_fit",
     None, ()),
    ("models.compare_models", "beamblock.models", "compare_models",
     _compare_sizes, ("merged_points",)),
    ("models.apply_model", "beamblock.models", "apply_model", None, ()),
    ("scanio.write_scan_csv", "beamblock.scanio", "write_scan_csv",
     _write_scan_sizes, ("rows", "bytes")),
    ("scanio.parse_scan_csv", "beamblock.scanio", "parse_scan_csv",
     _parse_scan_sizes, ("rows", "bytes")),
    ("svgplot.heatmap_svg", "beamblock.svgplot", "heatmap_svg",
     _heatmap_sizes, ("cells", "bytes")),
    ("svgplot.cdf_svg", "beamblock.svgplot", "cdf_svg",
     _cdf_svg_sizes, ("points",)),
    ("report.write_report", "beamblock.report", "write_report",
     _bundle_sizes, ("bundle_bytes",)),
)


def span_names() -> list[str]:
    return list(dict.fromkeys(spec[0] for spec in SPECS))


def metric_names() -> list[str]:
    """Every per-unit metric ``Tracer.unit_metrics`` returns."""
    names = []
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_s"]
        for spec in SPECS:
            if spec[0] == name:
                names += [f"{name}.{s}" for s in spec[4]
                          if f"{name}.{s}" not in names]
    return names


class Span:
    __slots__ = ("name", "parent", "unit", "call", "start", "dur",
                 "child_s", "sizes")

    def __init__(self, name, parent, unit, call):
        self.name, self.parent, self.unit, self.call = name, parent, unit, call
        self.start = self.dur = self.child_s = 0.0
        self.sizes = {}


class Tracer:
    """Wraps the functions in ``SPECS`` while installed; keeps spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._paused = 0.0
        self._saved = []
        self.unit = self.call = -1

    def _wrap(self, name, fn, size_fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None, tracer.unit,
                        tracer.call)
            tracer.spans.append(span)
            stack.append(span)
            paused0 = tracer._paused
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span.dur = end - span.start - (tracer._paused - paused0)
                if span.parent is not None:
                    span.parent.child_s += span.dur
            if size_fn is not None:
                t0 = clock()
                span.sizes = size_fn(args, kwargs, result)
                tracer._paused += clock() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every binding; raise if a named function no longer exists."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "beamblock"
                                         or n.startswith("beamblock."))]
        for name, modname, fname, size_fn, _ in SPECS:
            home = sys.modules.get(modname)
            fn = getattr(home, fname, None) if home else None
            if not callable(fn):
                raise LookupError(f"traced function {modname}.{fname} "
                                  "not found")
            wrapper = self._wrap(name, fn, size_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def unit_metrics(self, unit: int) -> dict:
        """Calls, self seconds and summed sizes per span name for one unit."""
        out = {m: 0 for m in metric_names()}
        for s in self.spans:
            if s.unit != unit:
                continue
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += s.dur - s.child_s
            for k, v in s.sizes.items():
                out[f"{s.name}.{k}"] += v
        return out

    def dump(self, path) -> None:
        """Write one JSON line per span; ``parent`` is a span index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": (index[id(s.parent)]
                                        if s.parent is not None else None),
                    "name": s.name, "unit": s.unit, "call": s.call,
                    "start_s": round(s.start, 9), "dur_s": round(s.dur, 9),
                    "self_s": round(s.dur - s.child_s, 9), **s.sizes}) + "\n")
