"""Study scenario files: JSON schema, loading, and pattern synthesis.

A scenario bundles everything one blockage study needs: the sampling grid,
the array and its codebook, per-mode blockage masks, the threshold and
percentile families to report, the absolute floor for the either-pattern
region, and the comparison models. Bundled scenarios live as package data
and are addressable by name from the CLI.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

from .errors import ConfigError
from .grid import AngularGrid, make_grid, with_invalid_band
from .models import BlockageModel, model_preset
from .synth import (ArrayConfig, BeamSpec, BlockageMask, MaskRegion,
                    apply_blockage_mask, synth_pattern_set)

_REQUIRED_KEYS = {"name", "subarray", "orientation", "grip", "grid", "array",
                  "beams", "masks", "thresholds_dbm", "percentiles",
                  "delta5_dbm", "models"}
_OPTIONAL_KEYS = {"title", "invalid_theta_band"}


@dataclass(frozen=True)
class Scenario:
    """One study's full configuration."""

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
    model_names: tuple[str, ...]
    model_region: MaskRegion | None


def _region_from_dict(d: dict, where: str, delta_required: bool) -> MaskRegion:
    try:
        phi = d["phi"]
        theta = d["theta"]
        delta = float(d["delta_db"]) if delta_required else float(
            d.get("delta_db", 0.0))
        taper = float(d.get("edge_taper_deg", 0.0))
        return MaskRegion(phi_lo=float(phi[0]), phi_hi=float(phi[1]),
                          theta_lo=float(theta[0]), theta_hi=float(theta[1]),
                          delta_db=delta, edge_taper_deg=taper)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad region in {where}: {exc}") from exc


def scenario_from_dict(d: dict) -> Scenario:
    """Validate and build a Scenario from parsed JSON."""
    if not isinstance(d, dict):
        raise ConfigError("scenario must be a JSON object")
    keys = set(d)
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise ConfigError(f"scenario missing keys: {sorted(missing)}")
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"scenario has unknown keys: {sorted(unknown)}")

    g = d["grid"]
    try:
        grid = make_grid(float(g["phi_step"]), float(g["theta_min"]),
                         float(g["theta_max"]),
                         theta_step=(float(g["theta_step"])
                                     if "theta_step" in g else None))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid block: {exc}") from exc
    band = d.get("invalid_theta_band")
    if band is not None:
        grid = with_invalid_band(grid, float(band[0]), float(band[1]))

    try:
        config = ArrayConfig(**{k: (str(v) if k == "element_kind" else
                                    int(v) if k in ("n_elements", "phase_bits")
                                    else float(v))
                                for k, v in d["array"].items()})
    except TypeError as exc:
        raise ConfigError(f"bad array block: {exc}") from exc

    beams = []
    for i, b in enumerate(d["beams"]):
        try:
            taper = b.get("amplitude_taper")
            beams.append(BeamSpec(scan_deg=float(b["scan_deg"]),
                                  amplitude_taper=(tuple(taper) if taper
                                                   else None)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad beam {i}: {exc}") from exc
    if not beams:
        raise ConfigError("scenario needs at least one beam")

    masks = {}
    if not isinstance(d["masks"], dict) or "true_hand" not in d["masks"]:
        raise ConfigError("masks block must define at least 'true_hand'")
    for mode, regions in d["masks"].items():
        if mode not in ("true_hand", "phantom"):
            raise ConfigError(f"unknown mask mode {mode!r}")
        masks[mode] = BlockageMask(regions=tuple(
            _region_from_dict(r, f"masks.{mode}", delta_required=True)
            for r in regions))

    m = d["models"]
    try:
        names = tuple(str(n) for n in m["names"])
        region = (_region_from_dict(m["region"], "models.region",
                                    delta_required=False)
                  if m.get("region") else None)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad models block: {exc}") from exc
    for n in names:
        model_preset(n, region=region)  # validates name/region pairing

    return Scenario(
        name=str(d["name"]), title=str(d.get("title", d["name"])),
        subarray=str(d["subarray"]), orientation=str(d["orientation"]),
        grip=str(d["grip"]), grid=grid, config=config, beams=tuple(beams),
        masks=masks,
        thresholds_dbm=tuple(float(t) for t in d["thresholds_dbm"]),
        percentiles=tuple(float(p) for p in d["percentiles"]),
        delta5_dbm=float(d["delta5_dbm"]), model_names=names,
        model_region=region)


def load_scenario(path) -> Scenario:
    """Load a scenario JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    return scenario_from_dict(json.loads(candidate.read_text()))


def build_patterns(scenario: Scenario) -> dict:
    """Synthesize the per-mode pattern sets for a scenario."""
    free = synth_pattern_set(scenario.config, list(scenario.beams),
                             scenario.grid)
    out = {"freespace": free}
    for mode, mask in sorted(scenario.masks.items()):
        out[mode] = apply_blockage_mask(free, mask)
    return out


def scenario_models(scenario: Scenario) -> dict:
    """Instantiate the scenario's comparison models by preset name."""
    return {name: model_preset(name, region=scenario.model_region)
            for name in scenario.model_names}


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
        "models": list(scenario.model_names),
    }
