"""Study scenario files: JSON schema, loading, and pattern synthesis.

A scenario bundles everything one blockage study needs: the sampling grid,
the array and its codebook, per-mode blockage masks, the threshold and
percentile families to report, the absolute floor for the either-pattern
region, and the comparison models. Bundled scenarios live as package data
and are addressable by name from the CLI.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, fields
from importlib import resources

from .errors import ConfigError
from .grid import AngularGrid, make_grid, with_invalid_band
from .models import _on_grid, model_preset
from .synth import (ArrayConfig, BeamSpec, BlockageMask, MaskRegion,
                    apply_blockage_mask, synth_pattern_set)

_REQUIRED_KEYS = {"name", "subarray", "orientation", "grip", "grid", "array",
                  "beams", "masks", "thresholds_dbm", "percentiles",
                  "delta5_dbm", "models"}
_OPTIONAL_KEYS = {"title", "invalid_theta_band"}

# What no output file can hold: a lone surrogate, which UTF-8 cannot encode,
# and the characters XML 1.0 forbids, which would spoil an SVG's text.
_UNWRITABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f"
                         "\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class Scenario:
    """One study's full configuration; ``models`` maps each comparison
    preset name, in file order, to its BlockageModel, and ``model_region``
    is the region those presets were built with (None if there is none).
    Scenarios compare by every field and hash by what synthesis reads."""

    name: str
    title: str
    subarray: str
    orientation: str
    grip: str
    grid: AngularGrid
    config: ArrayConfig
    beams: tuple[BeamSpec, ...]
    masks: dict
    thresholds_dbm: tuple[float, ...]
    percentiles: tuple[float, ...]
    delta5_dbm: float
    models: dict
    model_region: MaskRegion | None

    def __hash__(self):  # of what synthesis reads; masks in any key order
        return hash((self.grid, self.config, self.beams,
                     tuple(sorted(self.masks.items()))))


def _list(value, n=None):
    """``value`` if it is a list (of ``n`` items, if given), not a string."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    if n is not None and len(value) != n:
        raise ValueError(f"expected {n} items, got {len(value)}")
    return value


def _object(value, keys) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    if unknown := set(value) - set(keys):
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return value


def _number(value) -> float:
    """``value``, a JSON number (not a boolean or a string), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _finite(value) -> float:
    """``value`` as a float that is neither NaN nor infinite."""
    if not math.isfinite(x := _number(value)):
        raise ValueError(f"must be finite, got {x}")
    return x


def _integer(value) -> int:
    """``value`` as an int; a boolean or a fractional number is refused."""
    if isinstance(value, bool) or _number(value) != int(value):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _region_from_dict(d: dict, mask: bool) -> MaskRegion:
    """A mask region, or a sharp model region whose preset sets delta_db."""
    _object(d, ("phi", "theta") + ("delta_db", "edge_taper_deg") * mask)
    phi, theta = _list(d["phi"], 2), _list(d["theta"], 2)
    delta = d["delta_db"] if mask else 0.0
    return MaskRegion(phi_lo=_number(phi[0]), phi_hi=_number(phi[1]),
                      theta_lo=_number(theta[0]), theta_hi=_number(theta[1]),
                      delta_db=_number(delta),
                      edge_taper_deg=_number(d.get("edge_taper_deg", 0.0)))


def scenario_from_dict(d: dict) -> Scenario:
    """Validate and build a Scenario from parsed JSON, in one pass.

    A malformed value is a ConfigError ``bad <block>: <reason>``; the
    ConfigErrors of the grid, array, beam, region and model constructors
    pass through unchanged.
    """
    if not isinstance(d, dict):
        raise ConfigError("scenario must be a JSON object")
    keys = set(d)
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise ConfigError(f"scenario missing keys: {sorted(missing)}")
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"scenario has unknown keys: {sorted(unknown)}")

    try:
        labels = {}
        for block in ("name", "title", "subarray", "orientation", "grip"):
            labels[block] = d.get(block, d["name"])
            if not isinstance(labels[block], str):
                raise TypeError(f"must be a string, got {labels[block]!r}")
            if bad := _UNWRITABLE.search(labels[block]):
                raise ValueError(f"cannot write character {bad.group()!r}")

        block = "grid"
        g = _object(d["grid"], ("phi_step", "theta_min", "theta_max",
                                "theta_step"))
        grid = make_grid(_number(g["phi_step"]), _number(g["theta_min"]),
                         _number(g["theta_max"]),
                         theta_step=(_finite(g["theta_step"])
                                     if "theta_step" in g else None))
        block = "invalid_theta_band"
        band = d.get("invalid_theta_band")
        if band is not None:
            lo, hi = map(_number, _list(band, 2))
            if not lo <= hi:
                raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
            grid = with_invalid_band(grid, lo, hi)

        block = "array"
        a = _object(d["array"], [f.name for f in fields(ArrayConfig)])
        config = ArrayConfig(**{k: (str(v) if k == "element_kind" else
                                    _integer(v)
                                    if k in ("n_elements", "phase_bits")
                                    else _finite(v))
                                for k, v in a.items()})

        block = "beams"
        beams = []
        for b in _list(d["beams"]):
            _object(b, ("scan_deg", "amplitude_taper"))
            taper = b.get("amplitude_taper")
            if taper is not None:
                taper = tuple(map(_number, _list(taper, config.n_elements)))
            beams.append(BeamSpec(scan_deg=_number(b["scan_deg"]),
                                  amplitude_taper=taper))
        if not beams:
            raise ValueError("need at least one beam")

        block = "masks"
        if not isinstance(d["masks"], dict) or "true_hand" not in d["masks"]:
            raise ValueError("must define at least 'true_hand'")
        masks = {}
        for mode, regions in d["masks"].items():
            if mode not in ("true_hand", "phantom"):
                raise ValueError(f"unknown mask mode {mode!r}")
            masks[mode] = BlockageMask(regions=tuple(
                _region_from_dict(r, mask=True)
                for r in _list(regions)))

        block = "models"
        m = _object(d["models"], ("names", "region"))
        region = (_region_from_dict(m["region"], mask=False)
                  if m.get("region") is not None else None)
        if region is not None and not _on_grid(region, grid):
            raise ValueError("region lies outside the grid")
        models = {}
        for name in map(str, _list(m["names"])):
            if name in models:
                raise ValueError(f"model {name!r} is listed twice")
            models[name] = model_preset(name, region=region)

        block = "thresholds_dbm"
        thresholds = tuple(map(_finite, _list(d["thresholds_dbm"])))
        if not thresholds:
            raise ValueError("need at least one threshold")
        block = "percentiles"
        percentiles = tuple(map(_number, _list(d["percentiles"])))
        if not percentiles or not all(0.0 <= p <= 100.0 for p in percentiles):
            raise ValueError("need at least one percentile, each in [0, 100]")
        block = "delta5_dbm"
        delta5 = _finite(d["delta5_dbm"])
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {block}: {reason}") from exc

    return Scenario(
        **labels, grid=grid, config=config, beams=tuple(beams), masks=masks,
        thresholds_dbm=thresholds, percentiles=percentiles, delta5_dbm=delta5,
        models=models, model_region=region)


def load_scenario(path) -> Scenario:
    """Load a scenario JSON file, UTF-8 encoded, with or without a BOM."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def list_bundled() -> tuple[str, ...]:
    """Names of the scenarios shipped as package data."""
    root = resources.files(__package__) / "scenarios"
    return tuple(sorted(p.name[:-5] for p in root.iterdir()
                        if p.name.endswith(".json")))


def load_bundled(name: str) -> Scenario:
    """Load a bundled scenario by name."""
    root = resources.files(__package__) / "scenarios"
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}; "
                          f"available: {', '.join(list_bundled())}")
    text = candidate.read_text(encoding="utf-8")
    return scenario_from_dict(json.loads(text))


def build_patterns(scenario: Scenario) -> dict:
    """Synthesize the per-mode pattern sets for a scenario."""
    free = synth_pattern_set(scenario.config, list(scenario.beams),
                             scenario.grid)
    out = {"freespace": free}
    for mode, mask in sorted(scenario.masks.items()):
        out[mode] = apply_blockage_mask(free, mask)
    return out


def scenario_metadata(scenario: Scenario) -> dict:
    """JSON-serializable echo of the full scenario parameter set."""
    grid = scenario.grid
    return {
        "name": scenario.name,
        "title": scenario.title,
        "subarray": scenario.subarray,
        "orientation": scenario.orientation,
        "grip": scenario.grip,
        "grid": {
            "phi_step": grid.phi_step,
            "theta_step": grid.theta_step,
            "theta_min": float(grid.theta[0]),
            "theta_max": float(grid.theta[-1]),
            "n_points": int(grid.valid.size),
            "n_valid": int(grid.valid.sum()),
        },
        "array": asdict(scenario.config),
        "beams": [asdict(b) for b in scenario.beams],
        "mask_modes": sorted(scenario.masks),
        "thresholds_dbm": list(scenario.thresholds_dbm),
        "percentiles": list(scenario.percentiles),
        "delta5_dbm": scenario.delta5_dbm,
        "models": list(scenario.models),
    }
