"""Scenario loading, bundled studies, and the command-line interface."""

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamblock import (cli, report as report_mod, scenario as scenario_mod,
                       synth)
from beamblock.cli import run_cli
from beamblock.coverage import WeightedCDF, overlay_best_beam
from beamblock.errors import ConfigError
from beamblock.grid import solid_angle_weights
from beamblock.lossstats import Study
from beamblock.models import BlockageModel
from beamblock.roi import (matched_r1_for_r5, roi_improvement, roi_r1, roi_r2,
                           roi_r3, roi_r4, roi_r5)
from beamblock.scanio import parse_scan_csv
from beamblock.scenario import (build_patterns, list_bundled, load_bundled,
                                load_scenario, scenario_from_dict,
                                scenario_metadata)
from beamblock.svgplot import cdf_svg
from beamblock.synth import BeamSpec
from cli_run import check_exit, run_captured as _run, strict_json

BUNDLED = ("s1_patch_portrait_hard", "s2_patch_portrait_loose",
           "s3_dipole_portrait_hard", "s4_dipole_portrait_loose",
           "s5_patch_landscape_intermediate")

SVG_NS = "http://www.w3.org/2000/svg"

MINIMAL = {
    "name": "unit",
    "subarray": "4x1 patch",
    "orientation": "portrait",
    "grip": "hard",
    "grid": {"phi_step": 15.0, "theta_min": 15.0, "theta_max": 165.0},
    "array": {"n_elements": 4, "spacing": 0.5, "element_kind": "patch",
              "phase_bits": 3, "tx_power_dbm": -30.0,
              "element_peak_gain_dbi": 5.0, "boresight_phi": 180.0},
    "beams": [{"scan_deg": 0.0}],
    "masks": {"true_hand": [{"phi": [150.0, 210.0],
                             "theta": [60.0, 150.0], "delta_db": 20.0}]},
    "thresholds_dbm": [-35.0, -45.0],
    "percentiles": [50.0, 20.0],
    "delta5_dbm": -35.0,
    "models": {"names": ["prior-hand-15.3"]},
}


def _variant(**updates):
    d = copy.deepcopy(MINIMAL)
    d.update(updates)
    return d


def _bundled_json(name):
    return json.loads((resources.files("beamblock") / "scenarios"
                       / f"{name}.json").read_text())


def _replaced(doc, path, value):
    """Deep copy of ``doc`` with the value at JSON ``path`` replaced."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestScenarioValidation:
    def test_minimal_accepted(self):
        s = scenario_from_dict(MINIMAL)
        assert s.name == "unit"
        assert s.title == "unit"  # defaults to the name
        assert len(s.beams) == 1
        assert s.models["prior-hand-15.3"].region is None

    def test_missing_key_rejected(self):
        d = copy.deepcopy(MINIMAL)
        del d["grip"]
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert "grip" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(_variant(extra_knob=1))
        assert "extra_knob" in str(err.value)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(_variant(grid={"phi_step": 15.0}))

    def test_empty_beams_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(_variant(beams=[]))

    def test_masks_need_true_hand(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(_variant(masks={}))

    def test_unknown_mask_mode_rejected(self):
        masks = {"true_hand": MINIMAL["masks"]["true_hand"],
                 "absorber": []}
        with pytest.raises(ConfigError):
            scenario_from_dict(_variant(masks=masks))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(_variant(models={"names": ["magic-0"]}))

    def test_region_model_needs_region(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(_variant(models={"names": ["3gpp-flat-30"]}))

    def test_invalid_band_applies(self):
        s = scenario_from_dict(_variant(invalid_theta_band=[15.0, 30.0]))
        assert not s.grid.valid[0].any()
        assert s.grid.valid[2].all()

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict([1, 2, 3])


class TestBundled:
    def test_names(self):
        assert list_bundled() == BUNDLED

    @pytest.mark.parametrize("name", BUNDLED)
    def test_each_loads_and_builds(self, name):
        scenario = load_bundled(name)
        modes = build_patterns(scenario)
        assert "freespace" in modes and "true_hand" in modes
        for pset in modes.values():
            assert len(pset) == len(scenario.beams)
        names = _bundled_json(name)["models"]["names"]
        assert list(scenario.models) == names
        assert all(isinstance(m, BlockageModel)
                   for m in scenario.models.values())

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            load_bundled("s9_missing")

    def test_phantom_only_in_study_five(self):
        for name in BUNDLED:
            modes = build_patterns(load_bundled(name))
            assert ("phantom" in modes) == name.startswith("s5")

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_scenario(path).name == "unit"

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_scenario_file_may_start_with_a_bom(self, tmp_path):
        """RFC 8259 lets a parser ignore a byte order mark, as the scan
        reader does: the file reads as it would without one."""
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(json.dumps(MINIMAL), encoding="utf-8")
        bom.write_text("\ufeff" + json.dumps(MINIMAL), encoding="utf-8")
        argv = ["cdf", "--threshold", "-40", "--scenario"]
        got = _run(argv + [str(bom)])
        assert got[0] == 0 and got == _run(argv + [str(plain)])

    def test_load_scenario_undecodable(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


class TestMetadata:
    def test_round_trip_keys(self):
        meta = scenario_metadata(load_bundled(BUNDLED[0]))
        assert meta["name"] == BUNDLED[0]
        assert meta["grid"]["phi_step"] == 5.0
        assert meta["array"]["n_elements"] == 4
        assert [b["scan_deg"] for b in meta["beams"]] == [0.0, 30.0, -30.0]
        assert meta["mask_modes"] == ["true_hand"]
        json.dumps(meta)  # must be serializable as-is


class TestCli:
    def test_scenarios_lists_bundles(self, capsys):
        assert run_cli(["scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert tuple(out) == BUNDLED

    def test_synth_writes_archive(self, tmp_path):
        out = tmp_path / "study"
        code = run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                        "--out", str(out)])
        assert code == 0
        data = parse_scan_csv(out / "scan.csv")
        assert set(data.modes) == {"freespace", "true_hand"}
        meta = json.loads((out / "scan_meta.json").read_text())
        assert meta["name"] == "s1_patch_portrait_hard"
        assert "conventions" in meta

    def test_overlay_from_scan(self, tmp_path):
        study = tmp_path / "study"
        run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                 "--out", str(study)])
        svg = tmp_path / "overlay.svg"
        code = run_cli(["overlay", "--scan", str(study / "scan.csv"),
                        "--mode", "true_hand", "--out", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_cdf_prints_threshold_and_percentiles(self, capsys):
        code = run_cli(["cdf", "--scenario", "s1_patch_portrait_hard",
                        "--threshold", "-35", "--percentiles", "50,20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "freespace" in out and "true_hand" in out
        assert "p50" in out and "p20" in out
        assert "-35 dBm" in out

    def test_cdf_out_draws_the_modes_in_sorted_order(self, tmp_path):
        name = "s5_patch_landscape_intermediate"
        svg = tmp_path / "cdf.svg"
        assert run_cli(["cdf", "--scenario", name, "--out", str(svg)]) == 0
        study = Study(build_patterns(load_bundled(name)))
        assert svg.read_bytes() == cdf_svg(
            [(mode, study.cdf(mode)) for mode in sorted(study.overlays)],
            "sphere coverage CDF", "best-beam EIRP (dBm)").encode()
        ET.parse(svg)

    def test_roi_stdout_payload(self, capsys):
        code = run_cli(["roi", "--scenario", "s1_patch_portrait_hard",
                        "--roi-kind", "r5", "--delta5", "-35"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "R5"
        assert 0.0 <= payload["coverage_pct"] <= 100.0
        assert payload["improvement_abs_pct"] >= 0.0
        assert "conventions" in payload

    def test_roi_directory_output(self, tmp_path):
        out = tmp_path / "roi"
        code = run_cli(["roi", "--scenario", "s1_patch_portrait_hard",
                        "--roi-kind", "r1", "--delta1", "5",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "roi.json").read_text())
        assert payload["kind"] == "R1"
        with open(out / "roi_mask.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"phi", "theta", "in_roi"}

    def test_roi_negative_delta_is_usage_error(self, capsys):
        code = run_cli(["roi", "--scenario", "s1_patch_portrait_hard",
                        "--roi-kind", "r1", "--delta1", "-3"])
        assert code == 2
        assert "delta1" in capsys.readouterr().err

    def test_stats_payload(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run_cli(["stats", "--scenario", "s2_patch_portrait_loose",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"r1_matched", "r5", "gaussian_fit"} <= set(payload)
        assert payload["gaussian_fit"]["family"] == "gaussian"
        assert payload["r5"]["n_points"] >= payload["r1_matched"]["n_points"]

    def test_compare_payload(self, tmp_path):
        out = tmp_path / "compare.json"
        code = run_cli(["compare", "--scenario", "s1_patch_portrait_hard",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        names = {c["name"] for c in payload["candidates"]}
        assert {"true_hand", "3gpp-flat-30", "prior-hand-15.3"} <= names
        for c in payload["candidates"]:
            assert set(c["deltas_db"]) == {"90", "80", "50", "20"}
            for v in c["deltas_db"].values():
                assert isinstance(v, float)
            if c["name"] == "prior-hand-15.3":
                # constant-loss prediction shifts every percentile equally
                for v in c["deltas_db"].values():
                    assert v == pytest.approx(15.3, abs=1e-9)

    def test_compare_models_flag_uses_scenario_region(self, tmp_path):
        """The README quick-start: region presets named with --models take
        the scenario's models.region."""
        argv = ["compare", "--scenario", "s2_patch_portrait_loose"]
        code, out, err = _run(argv + ["--models",
                                      "prior-hand-15.3,3gpp-flat-30"])
        assert code == 0, err
        payload = json.loads(out)
        assert [c["name"] for c in payload["candidates"]] == [
            "true_hand", "prior-hand-15.3", "3gpp-flat-30"]
        default = json.loads(_run(argv)[1])

        def flat(p):
            return next(c["deltas_db"] for c in p["candidates"]
                        if c["name"] == "3gpp-flat-30")
        assert flat(payload) == flat(default)

    @pytest.mark.parametrize("models", ["prior-hand-15.3,prior-hand-15.3",
                                        " , ", ""])
    def test_compare_models_flag_rejects_repeat_and_blank(self, models):
        assert _run(["compare", "--scenario", "s1_patch_portrait_hard",
                     "--models", models]) == (
            2, "", "error: --models must name each preset once, none blank\n")

    def test_compare_region_preset_on_scan_needs_region(self, tmp_path):
        assert run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                        "--out", str(tmp_path)]) == 0
        code, out, err = _run(["compare", "--scan", str(tmp_path / "scan.csv"),
                               "--models", "3gpp-flat-30"])
        assert (code, out) == (2, "")
        assert err == "error: preset '3gpp-flat-30' needs a region\n"

    def test_report_bundle_files(self, tmp_path):
        out = tmp_path / "report"
        code = run_cli(["report", "--scenario", "s1_patch_portrait_hard",
                        "--out", str(out)])
        assert code == 0
        expected = {"summary.csv", "coverage.csv", "percentiles.csv",
                    "summary.json", "scan.csv", "overlay_freespace.svg",
                    "overlay_true_hand.svg", "eirp_cdf.svg", "loss_cdf.svg"}
        assert expected <= {p.name for p in out.iterdir()}
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["study", "subarray", "orientation", "grip",
                           "gross_loss_db", "rel_coverage_lost_pct",
                           "roi_improvement_pct"]
        assert len(rows) == 2

    def test_reused_report_directory_holds_only_the_new_bundle(self,
                                                                tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for name, out in (("s5_patch_landscape_intermediate", reused),
                          ("s1_patch_portrait_hard", reused),
                          ("s1_patch_portrait_hard", fresh)):
            assert run_cli(["report", "--scenario", name,
                            "--out", str(out)]) == 0
        assert ({p.name: p.read_bytes() for p in reused.iterdir()}
                == {p.name: p.read_bytes() for p in fresh.iterdir()})

    def test_overlay_mode_outside_modes_is_usage_error(self, tmp_path):
        code, _, err = _run(["overlay", "--scenario", "s1_patch_portrait_hard",
                             "--mode", "absorber",
                             "--out", str(tmp_path / "o.svg")])
        assert code == 2 and "invalid choice: 'absorber'" in err

    def test_overlay_mode_the_input_lacks_is_data_error(self, tmp_path):
        code, _, err = _run(["overlay", "--scenario", "s1_patch_portrait_hard",
                             "--mode", "phantom",
                             "--out", str(tmp_path / "o.svg")])
        assert (code, err) == (1, "error: input provides no phantom mode; "
                                  "have freespace, true_hand\n")
        assert not (tmp_path / "o.svg").exists()

    def test_exit_code_usage_errors(self):
        assert run_cli([]) == 2
        assert run_cli(["no-such-command"]) == 2
        assert run_cli(["synth", "--scenario", "s1_patch_portrait_hard"]) \
            == 2

    def test_exit_code_unknown_scenario(self, capsys):
        code = run_cli(["report", "--scenario", "does_not_exist",
                        "--out", "/tmp/x"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("ref", ["./nope/my_study.json",
                                     "my_study.json", "nope/my_study"])
    def test_scenario_path_that_names_no_file(self, tmp_path, monkeypatch,
                                              ref):
        """A reference with a directory part or a .json suffix is a path,
        so a missing file is named as one, not as a missing bundle."""
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(["stats", "--scenario", ref])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read scenario: [Errno 2] ")
        assert err.count("\n") == 1

    def test_unknown_bare_name_is_a_missing_bundle(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(["stats", "--scenario", "s9_missing"])
        assert (code, out) == (2, "")
        assert err == ("error: no bundled scenario named 's9_missing'; "
                       f"available: {', '.join(BUNDLED)}\n")

    def test_exit_code_bad_scan_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("phi,theta,beam_id,mode,value_dbm\n"
                       "0.0,45.0,0,freespace,-50.0\n"
                       "0.0,45.0,0,freespace,-51.0\n")
        code = run_cli(["cdf", "--scan", str(bad)])
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    def test_stats_scan_without_true_hand(self, tmp_path, capsys):
        run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                 "--out", str(tmp_path)])
        scan = tmp_path / "scan.csv"
        lines = scan.read_text().splitlines(keepends=True)
        scan.write_text("".join(ln for ln in lines if ",true_hand," not in ln))
        code = run_cli(["stats", "--scan", str(scan)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_roi_r1_needs_only_the_freespace_mode(self, tmp_path):
        """R1 reads the free overlay alone: an archive of only the freespace
        rows gives the full archive's R1, and R2 still names what is
        missing."""
        run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                 "--out", str(tmp_path)])
        full = tmp_path / "scan.csv"
        lines = full.read_text().splitlines(keepends=True)
        free = tmp_path / "free.csv"
        free.write_text(lines[0] + "".join(
            ln for ln in lines if ",freespace," in ln))
        want = _run(["roi", "--roi-kind", "r1", "--scan", str(full)])
        assert want[0] == 0
        assert _run(["roi", "--roi-kind", "r1", "--scan", str(free)]) == want
        assert _run(["roi", "--roi-kind", "r2", "--scan", str(free)]) == (
            1, "", "error: input provides no true_hand mode; have "
                   "freespace\n")

    def test_report_svg_text_is_escaped(self, tmp_path):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps(_variant(title="A & B <hand>")))
        out = tmp_path / "report"
        assert run_cli(["report", "--scenario", str(path),
                        "--out", str(out)]) == 0
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 4
        for svg in svgs:
            root = ET.parse(svg).getroot()
            texts = [t.text for t in root.iter(f"{{{SVG_NS}}}text")]
            assert any(t.startswith("A & B <hand>") for t in texts)

    def test_exit_code_missing_scan_file(self, tmp_path):
        assert run_cli(["cdf", "--scan", str(tmp_path / "nope.csv")]) == 1

    def test_missing_input_is_usage_error(self, capsys):
        code = run_cli(["cdf"])
        assert code == 2

    def test_scan_and_scenario_are_exclusive(self, tmp_path):
        run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                 "--out", str(tmp_path)])
        code, out, err = _run(["compare", "--scan", str(tmp_path / "scan.csv"),
                               "--scenario",
                               "s5_patch_landscape_intermediate"])
        assert code == 2 and out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("percentiles,message", [
        ("50,150", "percentiles must be a non-empty list in [0, 100]: "
                   "'50,150'"),
        ("x", "bad percentiles list: 'x'"),
        ("", "percentiles must be a non-empty list in [0, 100]: ''"),
        (",", "percentiles must be a non-empty list in [0, 100]: ','")])
    def test_cdf_percentile_range_checked_before_output(self, percentiles,
                                                        message):
        code, out, err = _run(["cdf", "--scenario", "s1_patch_portrait_hard",
                               "--threshold", "-35",
                               "--percentiles", percentiles])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_one_load_and_one_model_build_per_call(self, tmp_path,
                                                   monkeypatch, command):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_bundled",
                            counted("load", cli.load_bundled))
        monkeypatch.setattr(scenario_mod, "model_preset",
                            counted("model", scenario_mod.model_preset))
        argv = [command, "--scenario", "s1_patch_portrait_hard",
                "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 0
        n_models = len(_bundled_json("s1_patch_portrait_hard")
                       ["models"]["names"])
        assert sorted(calls) == ["load"] + ["model"] * n_models

    def test_compare_makes_no_scalar_cdf_lookups(self, monkeypatch):
        """Cross-overs look up each CDF once over the merged samples, not
        once per sample."""
        ndims = []
        cdf_at = WeightedCDF.cdf_at

        def counted(self, x):
            ndims.append(np.ndim(x))
            return cdf_at(self, x)

        monkeypatch.setattr(WeightedCDF, "cdf_at", counted)
        code, _, _ = _run(["compare", "--scenario", "s1_patch_portrait_hard"])
        assert code == 0
        assert ndims and 0 not in ndims

    def test_beam_independent_terms_once_per_synthesis(self, monkeypatch):
        """Synthesis evaluates the direction cosines and the element gain
        once per call, whatever the number of beams, and the direction
        cosines once more only for a u lattice it does not hold yet."""
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("_direction_cosines", "_element_gain_db"):
            monkeypatch.setattr(synth, name,
                                counted(name, getattr(synth, name)))
        sc = load_bundled("s1_patch_portrait_hard")
        synth._u_lattice.cache_clear()
        for n_beams in (1, 3, 16):
            beams = [BeamSpec(scan_deg=s)
                     for s in np.linspace(-60.0, 60.0, n_beams)]
            calls.clear()
            synth.synth_pattern_set(sc.config, beams, sc.grid)
            lattice = ["_direction_cosines"] if n_beams == 1 else []
            assert sorted(calls) == (["_direction_cosines"] + lattice
                                     + ["_element_gain_db"])

    def test_steering_phasors_once_per_distinct_u(self, monkeypatch):
        """Synthesis builds the steering phasors once per call, on the
        distinct direction cosines of the lattice only."""
        sizes = []
        phasors = synth._steering_phasors

        def counted(config, u):
            sizes.append(np.size(u))
            return phasors(config, u)

        sc = load_bundled("s1_patch_portrait_hard")
        _, u = synth._direction_cosines(sc.config.boresight_phi, sc.grid.phi,
                                        sc.grid.theta[:, None])
        n_distinct = np.unique(u).size
        assert n_distinct < u.size
        monkeypatch.setattr(synth, "_steering_phasors", counted)
        for n_beams in (1, 3, 16):
            beams = [BeamSpec(scan_deg=s)
                     for s in np.linspace(-60.0, 60.0, n_beams)]
            sizes.clear()
            synth.synth_pattern_set(sc.config, beams, sc.grid)
            assert sizes == [n_distinct]


HELP_ARGVS = [["-h"]] + [[command, "-h"] for command in
                         ("synth", "overlay", "cdf", "roi", "stats",
                          "compare", "report", "scenarios")]


class TestParserReuse:
    """run_cli parses with one parser per process; no call leaks into the
    next."""

    @pytest.fixture(autouse=True)
    def _fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_many_calls_build_the_parser_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        for argv in [["scenarios"], ["stats"], ["-h"], ["cdf", "-h"]] * 5:
            _run(argv)
        # the top-level parser and its eight subcommands, once each
        assert len(built) == 9

    def test_flags_fall_back_to_defaults(self):
        plain = ["roi", "--scenario", "s1_patch_portrait_hard"]
        first = _run(plain)
        assert first[0] == 0
        assert _run(plain + ["--roi-kind", "r4", "--delta1", "3",
                             "--delta4", "-50"])[0] == 0
        assert _run(plain) == first

    def test_usage_error_then_valid_call(self):
        code, out, err = _run(["compare", "--scan", "a.csv",
                               "--scenario", "s1_patch_portrait_hard"])
        assert code == 2 and out == ""
        assert "not allowed with argument" in err
        code, out, err = _run(["compare", "--scenario",
                               "s1_patch_portrait_hard"])
        assert code == 0 and err == ""
        assert json.loads(out)["delta5_dbm"] == -35.0

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_bytes_repeat_and_follow_columns(self, monkeypatch, argv,
                                                  columns):
        monkeypatch.setenv("COLUMNS", columns)
        first = _run(argv)
        assert first[0] == 0 and first[1].startswith("usage: beamblock")
        assert _run(argv) == first
        # the same bytes as a parser built just now, at this width
        fresh = cli.build_parser.__wrapped__()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert first[1] == out.getvalue()

    def test_usage_error_follows_stderr_and_columns(self, monkeypatch):
        texts = set()
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = _run(["stats", "--delta5", "x"])
            assert code == 2 and out == ""
            assert err.startswith("usage: beamblock stats")
            assert err.endswith("error: argument --delta5: invalid "
                                "finite_float value: 'x'\n")
            texts.add(err)
        assert len(texts) == 2


# The analysis commands, each with every output it can make: the argv after
# --scenario, "{out}" standing for a fresh output directory.
_ANALYSES = [["overlay", "--mode", "true_hand", "--out", "{out}/overlay.svg"],
             ["cdf", "--threshold", "-40", "--percentiles", "50,10",
              "--out", "{out}/cdf.svg"],
             *(["roi", "--roi-kind", f"r{k}", "--out", "{out}"]
               for k in range(1, 6)),
             ["stats"], ["compare"],
             ["compare", "--models", "prior-hand-15.3,prior-body-8.5"]]


class TestKeptPatterns:
    """The analysis commands take their pattern sets from
    ``cli._kept_patterns``, which keeps the last scenario's: a warm entry
    gives the bytes of a cold one."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        cli._kept_patterns.cache_clear()
        yield
        cli._kept_patterns.cache_clear()

    @staticmethod
    def _outputs(tmp_path, ref, command):
        """(code, stdout, stderr, {file name: bytes}) of one command."""
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        argv = [a.replace("{out}", str(out)) for a in command]
        code, stdout, err = _run([argv[0], "--scenario", ref, *argv[1:]])
        return code, stdout, err, {p.name: p.read_bytes()
                                   for p in sorted(out.iterdir())}

    @staticmethod
    def _kept(ref):
        """The kept sets of the scenario ``ref`` names, which must be held."""
        misses = cli._kept_patterns.cache_info().misses
        kept = cli._kept_patterns(cli._resolve_scenario(ref))
        assert cli._kept_patterns.cache_info().misses == misses
        return kept

    @pytest.mark.parametrize("step", [5.0, 1.0])
    def test_warm_entry_gives_the_cold_bytes(self, tmp_path, step):
        refs = list(BUNDLED)
        if step != 5.0:
            for i, name in enumerate(BUNDLED):
                doc = _bundled_json(name)
                doc["grid"] = {"phi_step": step, "theta_min": step,
                               "theta_max": 180.0 - step}
                refs[i] = str(tmp_path / f"{name}.json")
                Path(refs[i]).write_text(json.dumps(doc))
        cold = {}
        for ref in refs:
            for i, command in enumerate(_ANALYSES):
                cli._kept_patterns.cache_clear()
                cold[ref, i] = self._outputs(tmp_path, ref, command)
                assert cold[ref, i][0] == 0 and cold[ref, i][2] == ""
        info = cli._kept_patterns.cache_info()
        for ref in refs:  # each after a call on the same study, but the first
            for i, command in enumerate(_ANALYSES):
                assert self._outputs(tmp_path, ref, command) == cold[ref, i]
                assert not any("values" in vars(p)
                               for _, p in self._kept(ref))
        for i, command in enumerate(_ANALYSES):  # each after another study
            for ref in refs:
                assert self._outputs(tmp_path, ref, command) == cold[ref, i]
        after, n_calls = cli._kept_patterns.cache_info(), len(cold)
        assert after.misses - info.misses == len(refs) + n_calls
        # the same-study calls but each study's first hit, as each _kept does
        assert after.hits - info.hits == 2 * n_calls - len(refs)

    @pytest.mark.parametrize("colliding", [False, True])
    def test_an_edited_scenario_file_is_read_again(self, tmp_path,
                                                   monkeypatch, colliding):
        """Also when every scenario hashes alike: a hit needs equality."""
        if colliding:
            monkeypatch.setattr(scenario_mod.Scenario, "__hash__",
                                lambda self: 0)
        path = tmp_path / "s1.json"
        doc = _bundled_json("s1_patch_portrait_hard")
        path.write_text(json.dumps(doc))
        argv = ["stats", "--scenario", str(path)]
        first = _run(argv)
        doc["masks"]["true_hand"][0]["delta_db"] = 12.0
        path.write_text(json.dumps(doc))
        edited = _run(argv)
        assert first[0] == edited[0] == 0 and edited != first
        cli._kept_patterns.cache_clear()
        assert _run(argv) == edited

    def test_negative_zero_reads_as_zero(self, tmp_path):
        """Scenarios that differ only by -0.0 against 0.0 are equal, so one
        may take the other's kept sets: both give one set of bytes."""
        paths = []  # not a dict: its keys 0.0 and -0.0 would be one
        for z in (0.0, -0.0):
            doc = _bundled_json("s1_patch_portrait_hard")
            doc["beams"][0]["scan_deg"] = z
            doc["array"]["tx_power_dbm"] = z
            doc["masks"]["true_hand"].append(
                {"phi": [0.0, 30.0], "theta": [60.0, 90.0], "delta_db": z})
            paths.append(tmp_path / f"{z!r}.json")
            paths[-1].write_text(json.dumps(doc))
        assert "-0.0" in paths[1].read_text()
        a, b = map(load_scenario, paths)
        assert a == b and hash(a) == hash(b)
        for command in _ANALYSES:
            cold = []
            for path in paths:
                cli._kept_patterns.cache_clear()
                cold.append(self._outputs(tmp_path, str(path), command))
            assert cold[0][0] == 0 and cold[0] == cold[1]
            for first, second in (paths, paths[::-1]):
                cli._kept_patterns.cache_clear()
                self._outputs(tmp_path, str(first), command)
                assert self._outputs(tmp_path, str(second), command) == cold[0]
                assert cli._kept_patterns.cache_info().hits == 1

    def test_mask_order_changes_neither_equality_nor_hash(self):
        doc = _bundled_json("s5_patch_landscape_intermediate")
        flipped = dict(doc, masks=dict(reversed(doc["masks"].items())))
        a, b = scenario_from_dict(doc), scenario_from_dict(flipped)
        assert list(a.masks) != list(b.masks)
        assert a == b and hash(a) == hash(b)

    def test_a_miss_that_raises_keeps_nothing(self, tmp_path, monkeypatch):
        doc = _bundled_json("s1_patch_portrait_hard")
        doc["array"].update(tx_power_dbm=1.79e308, element_peak_gain_dbi=1e307)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for _ in range(2):
            assert _run(["stats", "--scenario", str(path)]) == (
                1, "", "error: non-finite value at a valid grid point\n")
            assert cli._kept_patterns.cache_info().currsize == 0
        tried = []

        def unallocatable(scenario):
            tried.append(scenario)
            raise MemoryError("no room")

        monkeypatch.setattr(cli, "build_patterns", unallocatable)
        for _ in range(2):
            assert _run(["stats", "--scenario", "s1_patch_portrait_hard"]) == (
                1, "", "error: out of memory: no room\n")
            assert cli._kept_patterns.cache_info().currsize == 0
        assert len(tried) == 2

    def test_report_and_synth_leave_the_entry(self, tmp_path):
        name = "s1_patch_portrait_hard"
        assert _run(["stats", "--scenario", name])[0] == 0
        kept = self._kept(name)
        info = cli._kept_patterns.cache_info()
        for command in ("report", "synth"):
            for other in (name, "s5_patch_landscape_intermediate"):
                out = tmp_path / command / other
                assert run_cli([command, "--scenario", other,
                                "--out", str(out)]) == 0
        assert cli._kept_patterns.cache_info() == info
        assert self._kept(name) is kept
        assert not any("values" in vars(p) for _, p in kept)


# Each malformed value, applied to s1, is a one-line exit-2 error naming its
# scenario block, raised at load (before any synthesis or output).
S1_MALFORMED = [
    (("array",), [1], "array"),
    (("array", "n_elements"), "four", "array"),
    (("array", "n_elements"), math.inf, "array"),
    (("array", "n_elements"), 1e300, "array"),
    (("array", "n_elements"), 65537, "array"),
    (("invalid_theta_band",), 5, "invalid_theta_band"),
    (("thresholds_dbm",), ["x"], "thresholds_dbm"),
    (("beams",), [0.0], "beams"),
    (("masks",), {"true_hand": 3}, "masks"),
    (("thresholds_dbm",), [], "thresholds_dbm"),
    (("percentiles",), [150], "percentiles"),
    (("models", "names"), ["prior-hand-15.3", "prior-hand-15.3"], "models"),
    # a JSON string in a list slot is not read one character at a time
    (("percentiles",), "50", "percentiles"),
    (("thresholds_dbm",), "-35", "thresholds_dbm"),
    (("invalid_theta_band",), "12", "invalid_theta_band"),
    (("beams",), "ab", "beams"),
    (("beams", 0, "amplitude_taper"), "1111", "beams"),
    (("masks", "true_hand"), "ab", "masks"),
    (("masks", "true_hand", 0, "phi"), "12", "masks"),
    (("models", "names"), "3gpp-flat-30", "models"),
    (("models", "region", "theta"), "69", "models"),
    # NaN and Infinity would reach summary.json, which must be valid JSON
    (("thresholds_dbm",), [math.nan, -40], "thresholds_dbm"),
    (("thresholds_dbm",), [math.inf], "thresholds_dbm"),
    (("delta5_dbm",), -math.inf, "delta5_dbm"),
    (("array", "tx_power_dbm"), math.nan, "array"),
    (("array", "element_peak_gain_dbi"), math.inf, "array"),
    # integer fields take no fraction and no boolean
    (("array", "n_elements"), 4.7, "array"),
    (("array", "phase_bits"), 2.5, "array"),
    (("array", "n_elements"), True, "array"),
    # a band needs lo <= hi, which NaN fails
    (("invalid_theta_band",), [math.nan, 100], "invalid_theta_band"),
    (("invalid_theta_band",), [100, 80], "invalid_theta_band"),
    # a non-finite step would build a NaN theta axis
    (("grid", "theta_step"), math.nan, "grid"),
    (("grid", "theta_step"), math.inf, "grid"),
    # the steering phases would overflow to inf, then NaN
    (("array", "spacing"), 1e308, "array"),
    # a present region is read, however falsy
    (("models", "region"), 0, "models"),
    (("models", "region"), False, "models"),
    (("models", "region"), "", "models"),
    (("models", "region"), [], "models"),
    # a taper has one entry per element; an empty one is not "no taper"
    (("beams", 0, "amplitude_taper"), [], "beams"),
    (("beams", 0, "amplitude_taper"), [1.0, 1.0, 1.0], "beams"),
]
# A fixed pair takes exactly two items: no item is dropped or made up.
S1_BAD_PAIRS = [
    (("invalid_theta_band",), [80, 100, 120], "invalid_theta_band"),
    (("invalid_theta_band",), [80], "invalid_theta_band"),
    (("masks", "true_hand", 0, "phi"), [150, 210, 999], "masks"),
    (("masks", "true_hand", 0, "theta"), [], "masks"),
    (("models", "region", "phi"), [150, 210, 0], "models"),
    (("models", "region", "theta"), [60, 120, 150, 170], "models"),
]
# A misspelt key in a nested block is refused, not read as a default.
S1_UNKNOWN_KEYS = [
    (("grid", "theta_stp"), 10.0, "grid"),
    (("array", "spacingg"), 0.5, "array"),
    (("beams", 0, "amplitude_tapper"), [1.0, 0.5, 0.5, 1.0], "beams"),
    (("masks", "true_hand", 0, "edge_tapper_deg"), 10.0, "masks"),
    (("models", "region", "edge_tapper_deg"), 10.0, "models"),
    (("models", "regoin"), {}, "models"),
]
S1_MALFORMED += S1_BAD_PAIRS + S1_UNKNOWN_KEYS


@pytest.mark.parametrize("command", ["report", "stats"])
@pytest.mark.parametrize("path,value,block", S1_MALFORMED,
                         ids=lambda x: (".".join(map(str, x))
                                        if isinstance(x, tuple) else None))
def test_malformed_scenario_is_one_line_error(tmp_path, command, path, value,
                                              block):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_replaced(
        _bundled_json("s1_patch_portrait_hard"), path, value)))
    out_dir = tmp_path / "out"
    argv = [command, "--scenario", str(scenario)]
    if command == "report":
        argv += ["--out", str(out_dir)]
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad {block}: ") and err.count("\n") == 1
    assert not out_dir.exists()


# Every place the schema reads a number, "<X>" marking the slot. A JSON
# boolean or string there is refused, not read as the number it spells.
S1_NUMBER_SLOTS = [
    (("grid", "phi_step"), "<X>", "grid"),
    (("grid", "theta_min"), "<X>", "grid"),
    (("grid", "theta_max"), "<X>", "grid"),
    (("grid", "theta_step"), "<X>", "grid"),
    (("invalid_theta_band",), ["<X>", 100.0], "invalid_theta_band"),
    (("invalid_theta_band",), [0.5, "<X>"], "invalid_theta_band"),
    (("array", "n_elements"), "<X>", "array"),
    (("array", "phase_bits"), "<X>", "array"),
    (("array", "spacing"), "<X>", "array"),
    (("array", "tx_power_dbm"), "<X>", "array"),
    (("array", "element_peak_gain_dbi"), "<X>", "array"),
    (("array", "boresight_phi"), "<X>", "array"),
    (("beams", 0, "scan_deg"), "<X>", "beams"),
    (("beams", 0, "amplitude_taper"), [1.0, "<X>", 1.0, 1.0], "beams"),
    (("masks", "true_hand", 0, "phi"), ["<X>", 210.0], "masks"),
    (("masks", "true_hand", 0, "theta"), [60.0, "<X>"], "masks"),
    (("masks", "true_hand", 0, "delta_db"), "<X>", "masks"),
    (("masks", "true_hand", 0, "edge_taper_deg"), "<X>", "masks"),
    (("models", "region", "phi"), [150.0, "<X>"], "models"),
    (("models", "region", "theta"), ["<X>", 150.0], "models"),
    (("models", "region", "delta_db"), "<X>", "models"),
    (("models", "region", "edge_taper_deg"), "<X>", "models"),
    (("thresholds_dbm",), [-35.0, "<X>"], "thresholds_dbm"),
    (("percentiles",), ["<X>"], "percentiles"),
    (("delta5_dbm",), "<X>", "delta5_dbm"),
]


@pytest.mark.parametrize("bad", [True, "1"], ids=["true", "string"])
@pytest.mark.parametrize("path,slot,block", [
    pytest.param(*case, id=".".join(map(str, case[0])))
    for case in S1_NUMBER_SLOTS])
def test_scenario_numbers_are_json_numbers(tmp_path, path, slot, block, bad):
    value = json.loads(json.dumps(slot).replace('"<X>"', json.dumps(bad)))
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_replaced(
        _bundled_json("s1_patch_portrait_hard"), path, value)))
    out_dir = tmp_path / "out"
    code, out, err = _run(["report", "--scenario", str(scenario),
                           "--out", str(out_dir)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad {block}: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("value", [None, ["x"], 7], ids=repr)
@pytest.mark.parametrize("key", ["name", "title", "subarray", "orientation",
                                 "grip"])
def test_label_must_be_a_string(tmp_path, key, value):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_variant(**{key: value})))
    out_dir = tmp_path / "out"
    code, out, err = _run(["report", "--scenario", str(scenario),
                           "--out", str(out_dir)])
    assert (code, out) == (2, "")
    assert err == f"error: bad {key}: must be a string, got {value!r}\n"
    assert not out_dir.exists()


# A lone surrogate, which UTF-8 cannot encode, and each end of the ranges
# of characters XML 1.0 forbids.
UNWRITABLE = ["\ud800", "\udfff", "\x00", "\x08", "\x0b", "\x0c", "\x0e",
              "\x1f", "\ufffe", "\uffff"]


@pytest.mark.parametrize("command", ["report", "synth"])
@pytest.mark.parametrize("char", UNWRITABLE, ids=ascii)
@pytest.mark.parametrize("key", ["name", "title", "subarray", "orientation",
                                 "grip"])
def test_unwritable_label_is_one_line_error(tmp_path, command, char, key):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_variant(**{key: f"t{char}"})))
    out_dir = tmp_path / "out"
    code, out, err = _run([command, "--scenario", str(scenario),
                           "--out", str(out_dir)])
    assert (code, out) == (2, "")
    assert err == f"error: bad {key}: cannot write character {char!r}\n"
    assert not out_dir.exists()


def test_labels_keep_every_writable_character():
    # the characters just inside each forbidden range, and a non-BMP one
    text = "\t\n\r \x7f\ud7ff\ue000\ufffd\U00010000\U0010ffff"
    scenario = scenario_from_dict(_variant(
        **{key: text for key in ("name", "title", "subarray", "orientation",
                                 "grip")}))
    assert {scenario.name, scenario.title, scenario.subarray,
            scenario.orientation, scenario.grip} == {text}


@pytest.mark.parametrize("command", ["report", "stats"])
def test_deeply_nested_scenario_is_one_line_error(tmp_path, command):
    # deeper than the JSON decoder's recursion limit
    scenario = tmp_path / "deep.json"
    scenario.write_text("[" * 100000)
    out_dir = tmp_path / "out"
    argv = [command, "--scenario", str(scenario)]
    if command == "report":
        argv += ["--out", str(out_dir)]
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: scenario is not valid JSON: ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["report", "stats"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_edge_taper_is_config_error(tmp_path, command, value):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_replaced(
        _bundled_json("s1_patch_portrait_hard"),
        ("masks", "true_hand", 0, "edge_taper_deg"), value)))
    out_dir = tmp_path / "out"
    argv = [command, "--scenario", str(scenario)]
    if command == "report":
        argv += ["--out", str(out_dir)]
    assert _run(argv) == (2, "",
                          "error: edge_taper_deg must be finite and >= 0\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["report", "stats"])
def test_out_of_memory_is_one_line_error(tmp_path, monkeypatch, command):
    """A grid too large to allocate ends in one line and exit 1. The failure
    is simulated: no test allocates a huge grid."""
    reason = ("Unable to allocate 57.0 GiB for an array with shape "
              "(170001, 360000) and data type bool")

    def unallocatable(scenario):
        raise MemoryError(reason)

    cli._kept_patterns.cache_clear()  # a held entry would skip the patch
    monkeypatch.setattr(cli, "build_patterns", unallocatable)
    monkeypatch.setattr(report_mod, "build_patterns", unallocatable)
    out_dir = tmp_path / "out"
    argv = [command, "--scenario", "s1_patch_portrait_hard"]
    if command == "report":
        argv += ["--out", str(out_dir)]
    assert _run(argv) == (1, "", f"error: out of memory: {reason}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("path,value,block", S1_BAD_PAIRS)
def test_bad_pair_names_its_length(path, value, block):
    doc = _replaced(_bundled_json("s1_patch_portrait_hard"), path, value)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == (f"bad {block}: expected 2 items, "
                              f"got {len(value)}")


@pytest.mark.parametrize("path,value,block", S1_UNKNOWN_KEYS)
def test_unknown_key_is_named(path, value, block):
    doc = _replaced(_bundled_json("s1_patch_portrait_hard"), path, value)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"bad {block}: unknown keys ['{path[-1]}']"


@pytest.mark.parametrize("path,value,kind", [
    (("array",), [1], "list"),
    (("models", "region"), 0, "int"),
    (("models", "region"), False, "bool"),
    (("models", "region"), "", "str"),
    (("models", "region"), [], "list"),
])
def test_non_object_block_is_named(path, value, kind):
    doc = _replaced(_bundled_json("s1_patch_portrait_hard"), path, value)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"bad {path[0]}: expected an object, got {kind}"


def test_null_region_is_no_region():
    doc = _replaced(_bundled_json("s1_patch_portrait_hard"),
                    ("models", "region"), None)
    doc["models"]["names"] = ["prior-hand-15.3"]
    assert scenario_from_dict(doc).model_region is None


# Every dB flag and the commands that take it.
DB_FLAGS = [("cdf", "--threshold"), ("roi", "--delta1"), ("roi", "--delta2"),
            ("roi", "--delta3"), ("roi", "--delta4"), ("roi", "--delta5"),
            ("stats", "--delta5"), ("compare", "--delta5")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", DB_FLAGS)
def test_non_finite_flag_is_usage_error(tmp_path, command, flag, value):
    out = tmp_path / "out"
    code, stdout, err = _run([command, "--scenario", "s1_patch_portrait_hard",
                              f"{flag}={value}", "--out", str(out)])
    assert code == 2 and stdout == ""
    assert f"error: argument {flag}: must be finite, got '{value}'" in err
    assert not out.exists()


def _tree(root) -> dict:
    """Every path under ``root``, with a file's bytes or None for a folder."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("command", ["synth", "overlay", "cdf", "roi",
                                     "stats", "compare", "report"])
def test_empty_out_is_usage_error(tmp_path, monkeypatch, command):
    """An empty --out names no file: it is refused before any work, and the
    working directory, which ``Path("")`` would name, is left as it was."""
    for name in ("overlay_phantom.svg", "scan.csv", "summary.json"):
        (tmp_path / name).write_text("a user's file\n")
    (tmp_path / "roi").mkdir()
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    code, stdout, err = _run([command, "--scenario", "s1_patch_portrait_hard",
                              "--out="])
    assert code == 2 and stdout == ""
    assert "error: argument --out: must not be empty" in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("names", [["3gpp-flat-30"], ["prior-hand-15.3"]],
                         ids=["flat", "constant"])
@pytest.mark.parametrize("region,reason", [
    ({"phi": [150.0, 210.0], "theta": [1.0, 2.0]},
     "region lies outside the grid"),
    ({"phi": [150.0, 210.0], "theta": [60.0, 150.0], "delta_db": 99},
     "unknown keys ['delta_db']"),
    ({"phi": [150.0, 210.0], "theta": [60.0, 150.0], "edge_taper_deg": 10},
     "unknown keys ['edge_taper_deg']"),
], ids=["outside-grid", "delta_db", "edge_taper_deg"])
@pytest.mark.parametrize("command", ["synth", "overlay", "cdf", "roi",
                                     "stats", "compare", "report"])
def test_bad_model_region_refused_at_load(tmp_path, monkeypatch, command,
                                          region, reason, names):
    """A model region off the grid's theta span, or with a delta_db or an
    edge_taper_deg, which a constant preset would ignore and a flat one
    refuse only after synthesis, is a usage error at load, before any
    work, whichever presets the scenario names."""
    doc = _bundled_json("s1_patch_portrait_hard")
    doc["models"] = {"names": names, "region": region}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    assert _run([command, "--scenario", "bad.json", "--out", "out"]) == (
        2, "", f"error: bad models: {reason}\n")
    assert _tree(tmp_path) == before


# roi's region and baseline per --roi-kind, by direct law calls on the
# free and blocked overlays and the deltas d (d1 to d5).
ROI_BY_KIND = {
    "r1": lambda f, b, d: (roi_r1(f, d[1]), None),
    "r2": lambda f, b, d: (roi_r2(f, b, d[1], d[2]), roi_r1(f, d[1])),
    "r3": lambda f, b, d: (roi_r3(f, b, d[1], d[3]), roi_r1(f, d[1])),
    "r4": lambda f, b, d: (roi_r4(f, b, d[1], d[4]), roi_r1(f, d[1])),
    "r5": lambda f, b, d: (roi_r5(f, b, d[5]), matched_r1_for_r5(f, d[5])),
}


@pytest.fixture(scope="module")
def s3_overlays():
    """s3's free and blocked overlays and weights; its delta5_dbm is -40."""
    modes = build_patterns(load_bundled("s3_dipole_portrait_hard"))
    return (overlay_best_beam(modes["freespace"]),
            overlay_best_beam(modes["true_hand"]),
            solid_angle_weights(modes["freespace"].grid))


@pytest.mark.parametrize("kind", sorted(ROI_BY_KIND))
@pytest.mark.parametrize("flags,deltas", [
    ([], (None, 5.0, 5.0, 10.0, -35.0, -40.0)),
    (["--delta1", "3", "--delta2=7.5", "--delta3", "12", "--delta4", "-50",
      "--delta5", "-30"], (None, 3.0, 7.5, 12.0, -50.0, -30.0)),
    (["--delta1=-0.0", "--delta2=-0.0", "--delta3=-0.0", "--delta4=-0.0",
      "--delta5=-0.0"], (None, -0.0, -0.0, -0.0, -0.0, -0.0)),
], ids=["defaults", "explicit", "negative-zero"])
def test_roi_payload_is_the_law_at_its_deltas(s3_overlays, kind, flags,
                                              deltas):
    free, blocked, weights = s3_overlays
    region, base = ROI_BY_KIND[kind](free, blocked, deltas)
    want = {"kind": region.kind, "params": region.params,
            "coverage_pct": region.coverage(weights)}
    if base is not None:
        imp = roi_improvement(base, region, weights)
        want.update(baseline_pct=imp.base_pct,
                    improvement_abs_pct=imp.abs_pct,
                    improvement_rel_pct=imp.rel_pct)
    code, out, err = _run(["roi", "--scenario", "s3_dipole_portrait_hard",
                           "--roi-kind", kind, *flags])
    assert code == 0 and err == ""
    got = strict_json(out)
    del got["conventions"]
    # compared as text, so -0.0 must print as -0.0
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("kind,named", [("r1", "delta1"), ("r2", "delta2"),
                                        ("r3", "delta3"), ("r4", "delta1")])
def test_roi_names_the_first_bad_delta_its_law_reads(kind, named):
    code, out, err = _run(["roi", "--scenario", "s3_dipole_portrait_hard",
                           "--roi-kind", kind, "--delta1=-1", "--delta2=-1",
                           "--delta3=-1"])
    assert (code, out, err) == (2, "", f"error: {named} must be >= 0 dB\n")


def _loose_grip(tmp_path):
    """s2 with a hand reflection that lifts the blocked overlay above the
    free-space peak, and an R5 floor only the reflection clears: the matched
    R1 is empty, R5 is not."""
    d = _bundled_json("s2_patch_portrait_loose")
    d["masks"]["true_hand"].append({"phi": [170, 190], "theta": [80, 100],
                                    "delta_db": -6.0})
    d["delta5_dbm"] = -10.0
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(d))
    return path


def _empty_r5(tmp_path):
    """s1 with an R5 floor of 40 dBm, above both overlays."""
    d = _bundled_json("s1_patch_portrait_hard")
    d["delta5_dbm"] = 40
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(d))
    return path


class TestEmptyMatchedR1:
    def test_stats_writes_null(self, tmp_path):
        out = tmp_path / "stats.json"
        assert run_cli(["stats", "--scenario", str(_loose_grip(tmp_path)),
                        "--delta5", "-10", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["r1_matched"] is None
        assert payload["r5"]["n_points"] > 0

    def test_report_writes_null(self, tmp_path):
        out = tmp_path / "report"
        assert run_cli(["report", "--scenario", str(_loose_grip(tmp_path)),
                        "--out", str(out)]) == 0
        stats = json.loads((out / "summary.json").read_text())[
            "roi_loss_stats"]
        assert stats["r1_matched"] is None
        assert stats["r5"]["weighted"]["n_points"] > 0

    @pytest.mark.parametrize("command", ["stats", "compare", "report"])
    def test_empty_r5_is_still_a_data_error(self, tmp_path, command):
        """The scenario's floor, the default of stats and compare, lies
        above both overlays: every command that reads R5 refuses it with
        one line."""
        argv = [command, "--scenario", str(_empty_r5(tmp_path))]
        if command == "report":
            argv += ["--out", str(tmp_path / "rep")]
        assert _run(argv) == (
            1, "", "error: region contains no weighted valid points\n")

    def test_report_data_error_leaves_no_directory(self, tmp_path):
        out = tmp_path / "rep"
        code, _, err = _run(["report", "--scenario", str(_empty_r5(tmp_path)),
                             "--out", str(out)])
        assert code == 1
        assert err == "error: region contains no weighted valid points\n"
        assert not out.exists()


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_paths(value, path + (i,))


_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1, 0, 0.5, 7.5, math.nan, math.inf, -math.inf,
                     1e18, -1e18, 1e300, -1e300, 1e308]))
_TEXTS = st.text(max_size=3)
_LEAVES = st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXTS)
_VALUES = st.one_of(_LEAVES, st.lists(_LEAVES, max_size=2),
                    st.dictionaries(_TEXTS, _LEAVES, max_size=2))


def _same_typed(node):
    """Values of ``node``'s JSON type: a string for a string, a number (one
    of ``_NUMBERS``, or half, twice, one less or one more than ``node``) for
    a number, and for an object or a list, a copy with one entry replaced
    by a value of that entry's type, so that its keys or length stay."""
    if isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        return st.sampled_from(keys).flatmap(lambda key: _same_typed(
            node[key]).map(lambda value: _replaced(node, (key,), value)))
    if isinstance(node, (int, float)):
        return st.one_of(_NUMBERS, st.sampled_from(
            [node / 2, node * 2, node - 1, node + 1]))
    return _TEXTS if isinstance(node, str) else _VALUES


def _finer_than_minimal(doc) -> bool:
    """Whether make_grid would read ``doc``'s phi_step as a step below 15."""
    try:
        return float(doc["grid"]["phi_step"]) < 15
    except (KeyError, TypeError, ValueError):
        return False


@st.composite
def _mutated_minimal(draw):
    """MINIMAL with one value replaced, by one of its JSON type half the
    time (an object or a list then keeps its shape), so that many drawn
    scenarios load and reach the output checks. No draw refines the
    lattice: only phi_step sets its size, and any value that reads as a
    number below 15 (text such as '.01' included) is skipped."""
    path = draw(st.sampled_from(list(_json_paths(MINIMAL))))
    node = MINIMAL
    for key in path:
        node = node[key]
    value = draw(_same_typed(node) if draw(st.booleans()) else _VALUES)
    doc = _replaced(MINIMAL, path, value)
    assume(not _finer_than_minimal(doc))
    return doc


# Non-finite thresholds and delta5_dbm, huge finite values where they once
# overflowed synthesis, the loss moments or the CDF plot's ticks, and labels
# that once spoiled an SVG or ended in a traceback: the derandomized draws
# miss them all.
_EXAMPLES = [_replaced(MINIMAL, path, value)
             for path in (("thresholds_dbm", 0), ("delta5_dbm",))
             for value in (math.nan, math.inf, -math.inf)] + [
    _replaced(MINIMAL, path, value) for path, value in (
        (("array", "spacing"), 1e308),
        (("array", "tx_power_dbm"), 1e308),
        (("array", "element_peak_gain_dbi"), 1e18),
        (("masks", "true_hand", 0, "delta_db"), -1e300),
        (("name",), "\x01"), (("name",), "\ud800"), (("grip",), "\ud800"))]


def _with_examples(test):
    for doc in reversed(_EXAMPLES):
        test = example(doc)(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None)
@_with_examples
@given(_mutated_minimal())
def test_fuzz_stats_on_mutated_scenario(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(["stats", "--scenario", str(path)])
    check_exit(code, err)
    if code == 0:
        strict_json(out)


@settings(max_examples=60, derandomize=True, deadline=None)
@_with_examples
@given(_mutated_minimal())
def test_fuzz_report_on_mutated_scenario(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "report"
        code, _, err = _run(["report", "--scenario", str(path),
                             "--out", str(out)])
        check_exit(code, err)
        if code == 0:
            strict_json((out / "summary.json").read_text())
        else:
            assert not out.exists()
        for svg in out.glob("*.svg"):
            ET.parse(svg)


# Every other command on the same mutated scenarios: its arguments, with
# {out} for a path in the run's temporary directory.
_FUZZ_COMMANDS = {
    "cdf": ["cdf", "--threshold", "-40", "--percentiles", "50,20", "--out",
            "{out}.svg"],
    "overlay": ["overlay", "--mode", "true_hand", "--out", "{out}.svg"],
    **{f"roi-r{k}": ["roi", "--roi-kind", f"r{k}", "--out", "{out}"]
       for k in range(1, 6)},
    "compare": ["compare"],
    "compare-models": ["compare", "--models", "prior-hand-15.3,3gpp-flat-30"],
    "synth": ["synth", "--out", "{out}"],
}


def _with_model_region(doc):
    """``doc`` with the hand box as its model region, where its models
    block is an object without one, so that '3gpp-flat-30' can apply."""
    models = doc.get("models") if isinstance(doc, dict) else None
    if isinstance(models, dict) and "region" not in models:
        doc = _replaced(doc, ("models", "region"),
                        {"phi": [150.0, 210.0], "theta": [60.0, 150.0]})
    return doc


def _check_fuzz_output(command, out, stdout, scenario):
    """What a command that exited 0 wrote is well formed; only ``cdf`` and
    ``compare`` print."""
    if command == "compare":
        strict_json(stdout)
    elif command != "cdf":
        assert stdout == ""
    if command in ("cdf", "overlay"):
        ET.parse(f"{out}.svg")
    elif command == "roi":
        strict_json((out / "roi.json").read_text())
        with open(out / "roi_mask.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + load_scenario(scenario).grid.valid.size
    elif command == "synth":
        strict_json((out / "scan_meta.json").read_text())
        parse_scan_csv(out / "scan.csv")


@pytest.mark.parametrize("case", list(_FUZZ_COMMANDS))
@settings(max_examples=200, derandomize=True, deadline=None)
@_with_examples
@given(_mutated_minimal())
def test_fuzz_command_on_mutated_scenario(case, doc):
    """Every other command keeps the contract on the scenarios the ``stats``
    fuzzer draws: exit 0, 1 or 2, one ``error:`` line on failure, and a
    well-formed output on success."""
    if case == "compare-models":
        doc = _with_model_region(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        command, *flags = (arg.replace("{out}", str(out))
                           for arg in _FUZZ_COMMANDS[case])
        code, stdout, err = _run([command, "--scenario", str(path), *flags])
        check_exit(code, err)
        if code == 0:
            _check_fuzz_output(command, out, stdout, path)


# The documents the mutated-scenario strategy draws first, derandomized, in
# a fresh process: alone, or after importing every test module and loading
# perfbench's modules as the tests do (``before``).
_FIRST_DRAWS = """
import json, sys
sys.path[:0] = {paths!r}
import conftest, test_scenario_cli
{before}
from hypothesis import given, settings
docs = []
@settings(max_examples=150, derandomize=True, deadline=None)
@given(test_scenario_cli._mutated_minimal())
def draw(doc):
    docs.append(doc)
draw()
print(json.dumps(docs))
"""
_IMPORT_EVERY_TEST = """
import importlib, pathlib
for path in sorted(pathlib.Path({tests!r}).glob("test_*.py")):
    importlib.import_module(path.stem)
for name in ("tracer", "workloads", "worker"):
    importlib.import_module("test_benchmark_names")._load(name)
"""


def test_fuzzers_draw_the_same_whatever_ran_before():
    """Hypothesis draws some values from the constants of the local modules
    in sys.modules; conftest.py keeps that pool the same in every run."""
    tests = str(Path(__file__).resolve().parent)
    paths = [tests, str(Path(cli.__file__).resolve().parents[1])]
    draws = [subprocess.run(
        [sys.executable, "-c", _FIRST_DRAWS.format(paths=paths,
                                                   before=before)],
        capture_output=True, text=True, timeout=120, check=True).stdout
        for before in ("", _IMPORT_EVERY_TEST.format(tests=tests))]
    assert len(json.loads(draws[0])) == 150
    assert draws[0] == draws[1]


def _beamblock(*args):
    """The beamblock command in a fresh process, with a time limit, so that
    a hang fails and warnings print as a user sees them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "beamblock.cli", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _huge_value_archive(path):
    """A valid 24-row archive (4 phi x 3 theta x 2 modes, one beam) whose
    one free-space value at (0, 45) is 1e300 dBm."""
    rows = ["phi,theta,beam_id,mode,value_dbm"]
    for mode, drop in (("freespace", 0.0), ("true_hand", 10.0)):
        for theta in (45.0, 90.0, 135.0):
            for phi in (0.0, 90.0, 180.0, 270.0):
                value = 1e300 if rows[1:] == [] else -15.0 - drop - phi / 90
                rows.append(f"{phi!r},{theta!r},0,{mode},{value!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestHugeFiniteValues:
    """Huge finite dB values end in one error line or in valid files, fast,
    with nothing else on stderr."""

    def test_cdf_plot_refuses_the_range(self, tmp_path):
        svg = tmp_path / "x.svg"
        assert _beamblock("cdf", "--scan",
                          str(_huge_value_archive(tmp_path / "a.csv")),
                          "--out", str(svg)) == (
            1, "", "error: cannot plot a CDF from -30 to 1e+300 in 10 dB "
                   "ticks\n")
        assert not svg.exists()

    def test_stats_writes_finite_moments(self, tmp_path):
        code, out, err = _beamblock(
            "stats", "--scan", str(_huge_value_archive(tmp_path / "a.csv")))
        assert (code, err) == (0, "")
        payload = strict_json(out)
        for label in ("r1_matched", "r5"):
            assert payload[label]["n_points"] == 12
            assert 1e299 < payload[label]["std_db"] < 1e300
        assert payload["gaussian_fit"]["sigma"] == payload["r5"]["std_db"]

    def test_report_refuses_an_unplottable_range(self, tmp_path):
        # every EIRP rounds to 1e308, so the CDF range is empty
        path = tmp_path / "s1.json"
        path.write_text(json.dumps(_replaced(
            _bundled_json("s1_patch_portrait_hard"),
            ("array", "tx_power_dbm"), 1e308)))
        out = tmp_path / "rep"
        assert _beamblock("report", "--scenario", str(path),
                          "--out", str(out)) == (
            1, "", "error: cannot plot a CDF from 1e+308 to 1e+308 in 5 dB "
                   "ticks\n")
        assert not out.exists()

    def test_report_with_huge_gain_is_well_formed(self, tmp_path):
        path = tmp_path / "s1.json"
        path.write_text(json.dumps(_replaced(
            _bundled_json("s1_patch_portrait_hard"),
            ("array", "element_peak_gain_dbi"), 1e18)))
        out = tmp_path / "rep"
        assert _beamblock("report", "--scenario", str(path),
                          "--out", str(out)) == (
            0, f"report written to {out}\n", "")
        strict_json((out / "summary.json").read_text())
        for svg in out.glob("*.svg"):
            ET.parse(svg)


def _invalid_band(tmp_path):
    """s3 with no measurement between theta 80 and 100 degrees."""
    d = _bundled_json("s3_dipole_portrait_hard")
    d["invalid_theta_band"] = [80.0, 100.0]
    path = tmp_path / "band.json"
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("name", BUNDLED + ("loose_grip", "invalid_band"))
def test_cli_agrees_with_report(tmp_path, name):
    """stats and compare, at the scenario's delta5 by default, print what
    the report's summary.json holds for the same study; an explicit
    --delta5 still sets the floor."""
    scenario = str({"loose_grip": _loose_grip, "invalid_band": _invalid_band}
                   .get(name, lambda _: name)(tmp_path))
    assert run_cli(["report", "--scenario", scenario,
                    "--out", str(tmp_path / "rep")]) == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    delta5 = summary["scenario"]["delta5_dbm"]

    code, out, err = _run(["stats", "--scenario", scenario])
    assert code == 0, err
    stats = json.loads(out)
    assert stats["delta5_dbm"] == delta5
    for label, block in summary["roi_loss_stats"].items():
        assert stats[label] == (block and block["weighted"])
    assert stats["gaussian_fit"] == summary["gaussian_fit"]

    code, out, err = _run(["compare", "--scenario", scenario])
    assert code == 0, err
    compare = json.loads(out)
    assert compare.pop("delta5_dbm") == delta5
    del compare["conventions"]
    assert compare == summary["models"]

    code, out, err = _run(["stats", "--scenario", scenario,
                           f"--delta5={delta5 - 5}"])
    assert code == 0, err
    lower = json.loads(out)
    assert lower["delta5_dbm"] == delta5 - 5
    assert lower["r5"]["n_points"] > stats["r5"]["n_points"]


def test_scan_delta5_defaults_to_minus_35(tmp_path):
    """A scan archive carries no floor, so --delta5 falls back to -35 dBm,
    whatever the scenario that wrote the archive set."""
    assert run_cli(["synth", "--scenario", "s5_patch_landscape_intermediate",
                    "--out", str(tmp_path)]) == 0
    scan = str(tmp_path / "scan.csv")
    stats, compare, roi = (strict_json(_run([command, "--scan", scan])[1])
                           for command in ("stats", "compare", "roi"))
    assert (stats["delta5_dbm"] == compare["delta5_dbm"]
            == roi["params"]["delta5"] == -35.0)


def test_summary_csv_writes_n_a_for_an_undefined_range(tmp_path):
    """No threshold reaches 50 dBm, so no row defines the coverage-lost or
    improvement range."""
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(_replaced(
        _bundled_json("s1_patch_portrait_hard"), ("thresholds_dbm",), [50])))
    out = tmp_path / "rep"
    assert run_cli(["report", "--scenario", str(path), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes().split(b"\n")[1] == (
        b"s1_patch_portrait_hard,4x1 patch,portrait,hard,3.8 to 8.9,n/a,n/a")


@pytest.mark.parametrize("value", ["-3.5e1", "-.35E+2"])
@pytest.mark.parametrize("command,flag", DB_FLAGS)
def test_negative_flag_value_reads_after_a_space(command, flag, value):
    """A negative dB value in any float form reads the same after a space
    as after '=': a value, never a flag, on every command that takes it."""
    argv = [command, "--scenario", "s1_patch_portrait_hard"]
    if command == "roi":  # the law that reads the flag
        argv += ["--roi-kind", f"r{flag[-1]}"]
    joined = _run(argv + [f"{flag}={value}"])
    assert _run(argv + [flag, value]) == joined
    # --delta1 to --delta3 are dB below a peak, and must be >= 0
    assert joined[0] == (2 if flag in ("--delta1", "--delta2", "--delta3")
                         else 0)
    if command == "cdf":
        assert "% of sphere >= -35 dBm\n" in joined[1]
    elif command == "roi" and joined[0] == 0:
        assert strict_json(joined[1])["params"][flag[2:]] == -35.0
    elif command in ("stats", "compare"):
        assert strict_json(joined[1])["delta5_dbm"] == -35.0


def test_non_ascii_title_under_c_locale(tmp_path):
    """Outputs are written, and scenario JSON read, as UTF-8 whatever the
    locale: a C-locale run matches a UTF-8-mode run byte for byte."""
    doc = _bundled_json("s1_patch_portrait_hard")
    doc["title"] = "s1 \u2014 hand grip"
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    bundles = {}
    for label, extra in (("c", {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                                "LC_ALL": "C"}),
                         ("utf8", {"PYTHONUTF8": "1"})):
        env = dict(os.environ, PYTHONPATH=src, **extra)
        out = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "beamblock.cli", "report", "--scenario",
             str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bundles[label] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(bundles["c"]) == 9
    assert bundles["c"] == bundles["utf8"]
    assert "s1 \u2014 hand grip".encode() in bundles["c"]["eirp_cdf.svg"]
