"""Scan archive parsing and writing."""

import codecs
import csv
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamblock import scanio
from beamblock.cli import run_cli
from beamblock.errors import DataError
from beamblock.grid import PatternSet, make_grid, with_invalid_band
from beamblock.scanio import (CSV_HEADER, MODES, ScanData, parse_scan_csv,
                              write_scan_csv)
from beamblock.scenario import build_patterns, scenario_from_dict
from cli_run import check_exit, run_captured, strict_json

SMALL_CSV = """phi,theta,beam_id,mode,value_dbm
0.0,45.0,0,freespace,-50.000000
180.0,45.0,0,freespace,-51.000000
0.0,135.0,0,freespace,-52.000000
180.0,135.0,0,freespace,-53.000000
0.0,45.0,1,freespace,-40.000000
180.0,45.0,1,freespace,-41.000000
0.0,135.0,1,freespace,-42.000000
180.0,135.0,1,freespace,-43.000000
"""


def _write(tmp_path, text, name="scan.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_small_archive(self, tmp_path):
        data = parse_scan_csv(_write(tmp_path, SMALL_CSV))
        assert isinstance(data, ScanData)
        assert list(data.modes) == ["freespace"]
        pset = data.modes["freespace"]
        assert pset.beam_ids == (0, 1) and len(pset) == 2
        np.testing.assert_allclose(pset.values[0],
                                   [[-50.0, -51.0], [-52.0, -53.0]])
        np.testing.assert_allclose(pset.grid.phi, [0.0, 180.0])
        np.testing.assert_allclose(pset.grid.theta, [45.0, 135.0])

    def test_duplicate_row_cites_lines(self, tmp_path):
        text = SMALL_CSV + "0.0,45.0,0,freespace,-50.000000\n"
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert "line 10" in str(err.value)
        assert "line 2" in str(err.value)

    def test_partial_presence_cites_point(self, tmp_path):
        text = SMALL_CSV + "90.0,45.0,0,freespace,-49.000000\n"
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert "phi=90" in str(err.value)

    def test_absent_point_becomes_invalid(self, tmp_path):
        # drop (180, 135) from every series: the point goes invalid
        lines = [l for l in SMALL_CSV.splitlines()
                 if not l.startswith("180.0,135.0")]
        data = parse_scan_csv(_write(tmp_path, "\n".join(lines) + "\n"))
        pset = data.modes["freespace"]
        assert not pset.grid.valid[1, 1]
        assert pset.grid.valid.sum() == 3
        assert np.isnan(pset.values[0, 1, 1])

    def test_unknown_mode_rejected(self, tmp_path):
        text = SMALL_CSV.replace("freespace", "absorber")
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert "absorber" in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        text = SMALL_CSV.replace("value_dbm", "power")
        with pytest.raises(DataError):
            parse_scan_csv(_write(tmp_path, text))

    def test_wrong_field_count(self, tmp_path):
        text = SMALL_CSV + "0.0,45.0,2,freespace\n"
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert "5 fields" in str(err.value)

    def test_non_numeric_value(self, tmp_path):
        text = SMALL_CSV.replace("-50.000000", "n/a")
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("field", ["phi", "theta"])
    def test_non_finite_angle_cites_line(self, tmp_path, field):
        bad = "nan,45.0," if field == "phi" else "0.0,nan,"
        text = SMALL_CSV.replace("0.0,45.0,", bad, 1)
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert "line 2" in str(err.value)

    def test_negative_beam_id(self, tmp_path):
        text = SMALL_CSV.replace("180.0,45.0,1,", "180.0,45.0,-1,")
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text))
        assert str(err.value) == "line 7: beam_id must be >= 0"

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_scan_csv(_write(tmp_path, ",".join(CSV_HEADER) + "\n"))

    def test_non_uniform_grid_rejected(self, tmp_path):
        text = SMALL_CSV.replace("180.0,", "175.0,")
        extra = ("90.0,45.0,0,freespace,-48.0\n"
                 "90.0,135.0,0,freespace,-48.0\n"
                 "90.0,45.0,1,freespace,-48.0\n"
                 "90.0,135.0,1,freespace,-48.0\n")
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, text + extra))
        assert "inferred grid" in str(err.value)

    def test_interior_invalid_band_reads_back(self, tmp_path):
        d = json.loads((resources.files("beamblock") / "scenarios"
                        / "s5_patch_landscape_intermediate.json").read_text())
        d["invalid_theta_band"] = [80.0, 100.0]
        path = tmp_path / "banded.json"
        path.write_text(json.dumps(d))
        assert run_cli(["synth", "--scenario", str(path),
                        "--out", str(tmp_path)]) == 0
        data = parse_scan_csv(tmp_path / "scan.csv")
        grid = data.modes["freespace"].grid
        assert grid == scenario_from_dict(d).grid
        assert not grid.valid[grid.theta == 90.0].any()

    def test_off_lattice_axis_rejected(self, tmp_path):
        # the smallest gap (10) makes a 15..55 lattice that 30 is off
        rows = "".join(f"0.0,{theta},{beam},freespace,-48.0\n"
                       for theta in (15.0, 30.0, 40.0, 55.0)
                       for beam in (0, 1))
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, ",".join(CSV_HEADER) + "\n"
                                  + rows))
        assert "inferred grid" in str(err.value)

    def test_one_corrupted_digit_rejected_before_allocating(self, tmp_path):
        # one theta of 2.0 read as 2.01 puts every value on a 0.01-degree
        # lattice, 100 times the 2-degree grid the file fills
        d = json.loads((resources.files("beamblock") / "scenarios"
                        / "s5_patch_landscape_intermediate.json").read_text())
        d["grid"] = {"phi_step": 2.0, "theta_min": 2.0, "theta_max": 178.0}
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(d))
        assert run_cli(["synth", "--scenario", str(path),
                        "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines(True)
        row = next(i for i, line in enumerate(lines)
                   if line.split(",")[1] == "2.0")
        lines[row] = lines[row].replace(",2.0,", ",2.01,", 1)
        with pytest.raises(DataError, match="inferred grid is invalid"):
            parse_scan_csv(_write(tmp_path, "".join(lines), "bad.csv"))

    def test_sparse_series_rejected_before_allocating(self, tmp_path):
        # one row per beam: each series would need the whole 1 x 100 grid
        rows = "".join(f"{phi}.0,90.0,{phi},freespace,-48.0\n"
                       for phi in range(100))
        with pytest.raises(DataError, match="inferred grid is invalid"):
            parse_scan_csv(_write(tmp_path, ",".join(CSV_HEADER) + "\n"
                                  + rows))

    def test_duplicate_in_sparse_file_found_before_grid(self, tmp_path):
        # too sparse for any lattice: the duplicate is still reported first
        rows = [f"{phi}.0,90.0,{phi},freespace,-48.0" for phi in range(100)]
        rows.insert(60, rows[30])
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, "\n".join(
                [",".join(CSV_HEADER)] + rows) + "\n"))
        assert str(err.value) == "line 62: duplicate point, first at line 32"

    @pytest.mark.parametrize("blank", ["", "   \t"])
    def test_bad_row_after_blank_line_cites_physical_line(self, tmp_path,
                                                          blank):
        lines = SMALL_CSV.splitlines()
        lines.insert(3, blank)  # the fourth physical line
        lines[4] = lines[4].replace("-52.000000", "n/a")
        with pytest.raises(DataError, match=r"^line 5: "):
            parse_scan_csv(_write(tmp_path, "\n".join(lines) + "\n"))

    def test_blank_lines_are_skipped(self, tmp_path):
        lines = SMALL_CSV.splitlines()
        lines[3:3] = ["", " ", "\t"]
        data = parse_scan_csv(_write(tmp_path, "\n".join(lines) + "\n\n"))
        np.testing.assert_array_equal(
            data.modes["freespace"].values[1],
            [[-40.0, -41.0], [-42.0, -43.0]])

    def test_duplicate_in_shuffled_file_cites_physical_lines(self, tmp_path):
        rows = SMALL_CSV.splitlines()[1:]
        order = [5, 2, 7, 0, 3, 6, 1, 4]
        lines = [",".join(CSV_HEADER)] + [rows[i] for i in order]
        lines.insert(4, "")
        lines.insert(7, rows[3])  # rows[3] is also on physical line 7
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, "\n".join(lines) + "\n"))
        assert str(err.value) == "line 8: duplicate point, first at line 7"

    def test_padded_mode_and_header_accepted(self, tmp_path):
        text = SMALL_CSV.replace(",freespace,", ", freespace  ,")
        text = text.replace("phi,theta,", " phi , theta,", 1)
        data = parse_scan_csv(_write(tmp_path, text))
        assert data.modes["freespace"].beam_ids == (0, 1)

    def test_non_contiguous_beam_ids_kept(self, tmp_path):
        text = SMALL_CSV.replace(",1,freespace,", ",5,freespace,")
        data = parse_scan_csv(_write(tmp_path, text))
        assert data.modes["freespace"].beam_ids == (0, 5)
        assert data.modes["freespace"].values[1, 0, 0] == -40.0

    def test_infinite_values(self, tmp_path):
        # -inf is floored like any value below the floor; +inf is refused
        data = parse_scan_csv(_write(tmp_path, SMALL_CSV.replace(
            "-51.000000", "-inf")))
        assert data.modes["freespace"].values[0, 0, 1] == -200.0
        with pytest.raises(DataError, match="non-finite value"):
            parse_scan_csv(_write(tmp_path, SMALL_CSV.replace(
                "-51.000000", "inf")))

    @pytest.mark.parametrize("first,second,message", [
        ((3, "0.0,45.0,0,absorber,-50.0"), (5, "0.0,45.0,0,freespace,x"),
         "line 3: unknown mode 'absorber'"),
        ((3, "0.0,45.0,0,freespace,x"), (5, "0.0,45.0,0,absorber,-50.0"),
         "line 3: could not convert string to float: 'x'"),
        ((4, "0.0,45.0,0,freespace,-1.0"), (6, "0.0,45.0,-2,freespace,0"),
         "line 4: duplicate point, first at line 2"),
        ((4, "0.0,45.0,-2,freespace,0"), (6, "0.0,45.0,0,freespace,-1.0"),
         "line 4: beam_id must be >= 0"),
        ((4, "nan,45.0,-2,absorber,0"), (6, "0.0,45.0,0,freespace"),
         "line 4: non-finite angle"),
        ((4, "0.0,45.0,-2,absorber,0"), (6, "0.0,45.0,0,freespace"),
         "line 4: unknown mode 'absorber'"),
        ((4, "0.0,45.0,0,freespace"), (6, "nan,45.0,0,freespace,0"),
         "line 4: expected 5 fields"),
        ((4, "0.0,45.0,x,freespace,y"), (6, "0.0,45.0,0,freespace"),
         "line 4: invalid literal for int() with base 10: 'x'"),
    ])
    def test_first_faulty_line_wins(self, tmp_path, first, second, message):
        lines = SMALL_CSV.splitlines()
        for number, text in (first, second):
            lines[number - 1] = text
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, "\n".join(lines) + "\n"))
        assert str(err.value) == message

    @pytest.mark.parametrize("old,new,reason", [
        # forms float() and int() read but the columnar reader refuses
        ("180.0,45.0,1,", "18_0.0,45.0,1,", "rows must be ASCII"),
        ("180.0,45.0,1,", "180.0,45.0,\u0661,", "rows must be ASCII"),
        ("180.0,45.0,1,", "180.0,45.0,1\U000b8050,", "invalid literal"),
        ("180.0,45.0,1,", "180.0,45.0,99999999999999999999,",
         "rows must be ASCII"),
        ("-41.000000", "-41.000000\u3000", "rows must be ASCII"),
        (",1,freespace,-41", ",1,\x1cfreespace,-41", "rows must be ASCII"),
        ("180.0,45.0,1,", '"180.0",45.0,1,',
         "could not convert string to float: '\"180.0\"'"),
        (",1,freespace,-41", ",1,   freespace    ,-41",
         "mode field is 16 characters or wider"),
        # mode fields are compared as two 8-byte words
        (",1,freespace,-41", ",1,freespacex,-41", "unknown mode 'freespacex'"),
        ("180.0,45.0,1,", "\ufeff180.0,45.0,1,",
         "could not convert string to float: '\\ufeff180.0'"),
    ])
    def test_refused_forms_cite_line(self, tmp_path, old, new, reason):
        lines = SMALL_CSV.splitlines()
        lines[6] = lines[6].replace(old, new)
        assert lines[6] != SMALL_CSV.splitlines()[6]
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, "\n".join(lines) + "\n"))
        assert str(err.value).startswith(f"line 7: {reason}")

    def test_byte_order_mark_before_header_skipped(self, tmp_path):
        # as spreadsheet "CSV UTF-8" exports begin
        assert run_cli(["synth", "--scenario", "s1_patch_portrait_hard",
                        "--out", str(tmp_path)]) == 0
        plain = tmp_path / "scan.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        _same_scan(parse_scan_csv(marked).modes, parse_scan_csv(plain).modes)
        lines = marked.read_bytes().split(b"\n")
        lines[6] = codecs.BOM_UTF8 + lines[6]  # a mark elsewhere is refused
        marked.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=r"^line 7: could not convert"):
            parse_scan_csv(marked)

    def test_undecodable_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_bytes(SMALL_CSV.replace("freespace", "free\xffspace", 1)
                         .encode("latin-1"))
        with pytest.raises(DataError, match="not text"):
            parse_scan_csv(path)

    @pytest.mark.parametrize("phis", [("-1e308", "1e308"),
                                      ("1e-9", "1e300")])
    def test_overflowing_lattice_rejected(self, tmp_path, phis):
        # the span or the step count of the phi lattice overflows a float
        rows = "".join(f"{phi},90.0,{beam},freespace,-48.0\n"
                       for phi in ("0.0",) + phis for beam in (0, 1))
        with pytest.raises(DataError, match="inferred grid is invalid"):
            parse_scan_csv(_write(tmp_path, ",".join(CSV_HEADER) + "\n"
                                  + rows))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_zero_angle_takes_first_rows_sign(self, tmp_path, sign):
        # 0.0 and -0.0 are one point; the axis keeps the sign of the first
        # row, which a sort of hundreds of angles need not put first
        rows = [f"{p:.1f},{t:.1f},{b},freespace,-48.0"
                for p in range(0, 360, 5) for t in (45, 135) for b in (0, 1)]
        rows = [rows[i] for i in np.random.default_rng(3).permutation(
            len(rows))]
        zeros = [i for i, r in enumerate(rows) if r.startswith("0.0,")]
        for i in zeros[1:] if sign > 0 else zeros[:1]:
            rows[i] = "-" + rows[i]
        data = parse_scan_csv(_write(tmp_path, "\n".join(
            [",".join(CSV_HEADER)] + rows) + "\n"))
        assert math.copysign(1.0, data.modes["freespace"].grid.phi[0]) == sign

    def test_lattice_larger_than_file_rejected(self, tmp_path):
        # 45, 45.5 and 135 lie on one 0.5-degree lattice of 181 points, more
        # than the file's 12 rows: refused rather than filled in
        extra = "".join(f"{phi},45.5,{beam},freespace,-48.0\n"
                        for phi in ("0.0", "180.0") for beam in (0, 1))
        with pytest.raises(DataError) as err:
            parse_scan_csv(_write(tmp_path, SMALL_CSV + extra))
        assert "inferred grid" in str(err.value)


@pytest.mark.parametrize("old,new,axis", [
    ("180.0,", "360.0,", "phi"), ("45.0,", "0.0,", "theta"),
    ("135.0,", "180.0,", "theta")])
def test_lattice_outside_the_angle_range_is_data_error(tmp_path, old, new,
                                                       axis):
    path = _write(tmp_path, SMALL_CSV.replace(old, new))
    assert run_captured(["stats", "--scan", str(path)]) == (
        1, "", f"error: inferred grid is invalid: {axis} axis must lie in "
               "the valid angle range\n")


class TestParseSmallBlocks(TestParse):
    """TestParse with rows keyed three at a time, so that block edges fall
    inside each file."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(scanio, "_BLOCK", 3)


def _same_scan(a, b):
    """``a`` and ``b`` map the same modes, in the same order, to sets on
    equal grids with equal beam ids and values."""
    assert list(a) == list(b)
    for mode in a:
        assert a[mode].grid == b[mode].grid
        assert a[mode].beam_ids == b[mode].beam_ids
        np.testing.assert_array_equal(a[mode].values, b[mode].values)


@pytest.fixture(scope="module")
def stress_archives(tmp_path_factory):
    """s5 on a 2-degree grid with 4 beams: 192,240 rows in write_scan_csv's
    order, and the same rows in a seeded shuffle."""
    d = json.loads((resources.files("beamblock") / "scenarios"
                    / "s5_patch_landscape_intermediate.json").read_text())
    d["grid"] = {"phi_step": 2.0, "theta_min": 2.0, "theta_max": 178.0}
    d["beams"] = [{"scan_deg": s} for s in (-45.0, -15.0, 15.0, 45.0)]
    root = tmp_path_factory.mktemp("stress")
    ordered = root / "ordered.csv"
    write_scan_csv(ordered, build_patterns(scenario_from_dict(d)))
    header, *rows = ordered.read_text().splitlines(True)
    rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    shuffled = _write(root, header + "".join(rows), "shuffled.csv")
    return ordered, shuffled


def _traced_peak(parse):
    """What ``parse()`` returns or raises, and its peak traced memory."""
    tracemalloc.start()
    try:
        try:
            out = parse()
        except DataError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParseScale:
    def test_memory_is_bounded_by_the_rows(self, stress_archives, tmp_path):
        # the rows take 48 bytes each, about 1.4 times their text; a copy of
        # the whole text (4 bytes per character) would exceed the bound, on
        # the error path too
        path = stress_archives[1]
        data, peak = _traced_peak(lambda: parse_scan_csv(path))
        assert sum(map(len, data.modes.values())) == 12
        assert peak <= 5 * path.stat().st_size
        bad = _write(tmp_path, path.read_text() + "0.0,1.0,0,freespace,n/a\n")
        err, peak = _traced_peak(lambda: parse_scan_csv(bad))
        assert str(err) == ("line 192242: could not convert string to "
                            "float: 'n/a'")
        assert peak <= 5 * bad.stat().st_size

    def test_blank_lines_do_not_size_the_rows(self, tmp_path):
        # 8 rows after 2,000,000 empty lines: the row array is sized by the
        # commas, four per row, not at 48 bytes per line break
        header, rows = SMALL_CSV.split("\n", 1)
        path = _write(tmp_path, header + "\n" * 2_000_001 + rows)
        data, peak = _traced_peak(lambda: parse_scan_csv(path))
        _same_scan(data.modes, parse_scan_csv(_write(tmp_path, SMALL_CSV,
                                                     "small.csv")).modes)
        assert peak <= 5 * path.stat().st_size

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_line_numbers_across_batches(self, stress_archives, tmp_path,
                                         newline):
        # rows are read about 256 KB at a time: a blank line in the first
        # batch, a batch of empty lines only, and a fault many batches on
        header, *rows = stress_archives[1].read_text().splitlines(True)
        rows[998:998] = [" \t\n"]  # physical line 1000
        rows[100_000:100_000] = ["\n"] * 300_000
        faults = [
            ("0.0,90.0,0,freespace,n/a\n",
             "line 450003: could not convert string to float: 'n/a'"),
            (rows[70_000],
             "line 450003: duplicate point, first at line 70002"),
        ]
        path = tmp_path / "scan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path.write_bytes((header + "".join(rows)).replace(
                "\n", newline).encode())
            _same_scan(parse_scan_csv(path).modes,
                       parse_scan_csv(stress_archives[0]).modes)
            for row, message in faults:
                path.write_bytes((header + "".join(
                    rows[:450_001] + [row] + rows[450_001:])).replace(
                        "\n", newline).encode())
                with pytest.raises(DataError) as err:
                    parse_scan_csv(path)
                assert str(err.value) == message

    def test_row_order_does_not_matter(self, stress_archives):
        ordered, shuffled = (parse_scan_csv(p).modes for p in stress_archives)
        _same_scan(ordered, shuffled)

    def test_duplicate_cites_same_lines_in_either_order(self, stress_archives,
                                                        tmp_path):
        # one faulty row of each kind on physical line 150002
        faults = [
            (None, "duplicate point, first at line 70002"),
            ("0.0,90.0,0,absorber,-50.0", "unknown mode 'absorber'"),
            ("0.0,90.0,0,freespace       ,-50.0",
             "mode field is 16 characters or wider"),
            ("0.0,90.0,-1,freespace,-50.0", "beam_id must be >= 0"),
            ("0.0,nan,0,freespace,-50.0", "non-finite angle"),
            ("0.0,90.0,0,freespace,n/a",
             "could not convert string to float: 'n/a'"),
        ]
        for path in stress_archives:
            header, *rows = path.read_text().splitlines(True)
            for row, message in faults:
                bad = rows[70_000] if row is None else row + "\n"
                text = header + "".join(rows[:150_000] + [bad]
                                        + rows[150_000:])
                with pytest.raises(DataError) as err:
                    parse_scan_csv(_write(tmp_path, text))
                assert str(err.value) == f"line 150002: {message}", path

    def test_many_beams_with_large_ids_read_back(self, tmp_path):
        # 3 modes x 300 beams overflows an 8-bit series code, and ids near
        # 2**62 overflow any key built from the ids themselves
        grid = make_grid(90.0, 45.0, 135.0)
        rng = np.random.default_rng(62)
        ids = tuple(2**62 + 2**40 * k + 7 for k in range(300))
        modes = {mode: PatternSet(grid, rng.integers(-90, 0, (len(ids),)
                                                     + grid.shape) / 4, ids)
                 for mode in MODES}
        path = tmp_path / "beams.csv"
        write_scan_csv(path, modes)
        _same_scan(parse_scan_csv(path).modes, modes)


class TestWrite:
    def _data(self):
        grid = make_grid(90.0, 45.0, 135.0)
        rng = np.random.default_rng(107)
        steps = rng.integers(-60 * 10 ** 6, 0, size=(2, 2, 4))
        return grid, PatternSet(grid, steps / 10 ** 6)

    def test_round_trip(self, tmp_path):
        grid, pset = self._data()
        path = tmp_path / "out.csv"
        write_scan_csv(path, {"freespace": pset})
        got = parse_scan_csv(path).modes["freespace"]
        assert got.grid == grid
        np.testing.assert_allclose(got.values, pset.values, atol=5e-7)

    def test_byte_identical_rewrites(self, tmp_path):
        _, pset = self._data()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scan_csv(p1, {"freespace": pset})
        write_scan_csv(p2, {"freespace": pset})
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_ordering(self, tmp_path):
        _, pset = self._data()
        path = tmp_path / "out.csv"
        write_scan_csv(path, {"true_hand": pset, "freespace": pset})
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        modes = [l.split(",")[3] for l in lines[1:]]
        assert modes == sorted(modes)
        first = [l for l in lines[1:] if l.split(",")[3] == "freespace"
                 and l.split(",")[2] == "0"]
        keys = [(float(l.split(",")[1]), float(l.split(",")[0]))
                for l in first]
        assert keys == sorted(keys)

    def test_only_valid_points_written(self, tmp_path):
        grid = with_invalid_band(make_grid(90.0, 45.0, 135.0), 45.0, 45.0)
        path = tmp_path / "out.csv"
        write_scan_csv(path, {"freespace": PatternSet(grid, np.zeros((1, 2,
                                                                      4)))})
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + one valid theta row

    def test_unknown_mode_rejected_before_opening(self, tmp_path):
        _, pset = self._data()
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match="unknown mode 'absorber'"):
            write_scan_csv(path, {"freespace": pset, "absorber": pset})
        assert not path.exists()

    def _refused(self, tmp_path, data, message):
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match=message):
            write_scan_csv(path, data)
        assert not path.exists()

    def test_modes_on_different_grids_rejected_before_opening(self,
                                                             tmp_path):
        grid, pset = self._data()
        banded = with_invalid_band(grid, 45.0, 45.0)
        other = PatternSet(banded, pset.values)
        self._refused(tmp_path, {"freespace": pset, "phantom": other},
                      "all modes must share one grid")

    def test_no_mode_rejected_before_opening(self, tmp_path):
        self._refused(tmp_path, {}, "no mode to write")

    def test_modes_tuple_is_closed(self):
        assert MODES == ("freespace", "phantom", "true_hand")


def _csv_writer_archive(modes):
    """The archive as the row-by-row csv.writer loop wrote it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for mode in sorted(modes):
        grid = modes[mode].grid
        for beam, pattern in zip(modes[mode].beam_ids, modes[mode]):
            for it, theta in enumerate(grid.theta):
                for ip, phi in enumerate(grid.phi):
                    if grid.valid[it, ip]:
                        writer.writerow([repr(float(phi)), repr(float(theta)),
                                         beam, mode,
                                         f"{pattern.values[it, ip]:.6f}"])
    return out.getvalue()


# Signed zeros, the floor, below it, and values that round at the sixth
# decimal.
SPECIAL_VALUES = [-0.0, 0.0, -200.0, -250.0, 5e-7, -5e-7, 4.9999995e-7,
                  -4e-7, 1.0000005, -2.5000005, 12.3456785, -0.0000015]


def test_writer_bytes_match_csv_writer_loop(tmp_path):
    # long axis reprs (7.2 * k), an interior invalid band, SPECIAL_VALUES
    grid = with_invalid_band(make_grid(7.2, 3.6, 176.4), 80.0, 100.0)
    assert repr(float(grid.theta[3])) == "25.200000000000003"
    rng = np.random.default_rng(11)
    values = {}
    for mode in ("true_hand", "freespace", "phantom"):
        values[mode] = rng.uniform(-80.0, 20.0, (2,) + grid.shape)
        for beam in values[mode]:
            beam.flat[rng.choice(beam.size, len(SPECIAL_VALUES),
                                 replace=False)] = SPECIAL_VALUES
    for ids in ({}, {"freespace": (0, 5), "phantom": (2, 3),
                     "true_hand": (0, 1)}):
        modes = {mode: PatternSet(grid, v, ids.get(mode))
                 for mode, v in values.items()}
        path = tmp_path / "out.csv"
        write_scan_csv(path, modes)
        assert path.read_bytes() == _csv_writer_archive(modes).encode()


def _value_lines(values):
    """Each row of the writer's value text, without its NUL padding."""
    rows = scanio._value_text(np.array(values, dtype=float))
    return [row[row != 0].tobytes().decode() for row in rows]


# Negative zero, values whose product with 1e6 rounds onto a half-integer
# (5e-7 gives 0.5), an exact tie that rounds to even (0.0078125 * 1e6 is
# 7812.5), the edges of the 1000 limit, the largest and smallest magnitudes,
# and one ulp either side of k / 2e6, whose decimal ends in a 5.
PINNED_VALUES = [-0.0, 5e-7, 0.0078125, 999.9995, 1000.0, 1e308, -1e308,
                 5e-324, -5e-324] + [
    float(np.nextafter(k / 2e6, toward)) for k in (1, -3, 15625, 1999999999)
    for toward in (-np.inf, np.inf)]


@pytest.mark.parametrize("value", PINNED_VALUES)
def test_value_text_pinned(value):
    assert _value_lines([value]) == ["%.6f\n" % value]


def test_value_text_signs_and_ties():
    assert _value_lines([-0.0, 0.0, 0.0078125, 5e-7, -1e-9]) == [
        "-0.000000\n", "0.000000\n", "0.007812\n", "0.000000\n",
        "-0.000000\n"]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(-1000.0, 1000.0)
                | st.integers(-2 * 10**9, 2 * 10**9).map(lambda k: k / 2e6),
                max_size=40))
@example(PINNED_VALUES)
def test_value_text_is_cpython_format(values):
    # any finite float: negative, huge, subnormal, near a tie
    assert _value_lines(values) == ["%.6f\n" % x for x in values]


def test_writer_bytes_match_csv_writer_loop_on_cpython_path(tmp_path):
    # every value is at least 1000, or an odd multiple of 1/128, whose
    # product with 1e6 is a half-integer: each is formatted by '%.6f'
    # itself, in rows widened to hold values up to 1e308
    grid = with_invalid_band(make_grid(7.2, 3.6, 176.4), 80.0, 100.0)
    rng = np.random.default_rng(19)
    shape = (2,) + grid.shape
    big = 10.0 ** rng.uniform(3.0, 308.0, shape)
    ties = (2 * rng.integers(-12_800, 64_000, shape) + 1) / 128
    values = np.where(rng.random(shape) < 0.5, big, ties)
    values[0, 0, :3] = (1000.0, 1e308, -199.9921875)
    assert np.all(values[values < 1000] * 128 % 2 == 1)
    modes = {"freespace": PatternSet(grid, values),
             "phantom": PatternSet(grid, values[::-1], (9, 4))}
    path = tmp_path / "out.csv"
    write_scan_csv(path, modes)
    assert path.read_bytes() == _csv_writer_archive(modes).encode()


@pytest.mark.parametrize("step,ids", [
    # 93.60000000000001 is on the 7.2-degree lattice; its 9-decimal key
    # is 93.6
    pytest.param(7.2, None, id="long-repr-angles"),
    pytest.param(22.5, (3, 7, 12), id="beam-ids-3-7-12")])
def test_parse_then_write_is_byte_identical(tmp_path, step, ids):
    grid = make_grid(step, step / 2, 180.0 - step / 2)
    values = np.random.default_rng(7).uniform(-80.0, 20.0,
                                              (3,) + grid.shape)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_scan_csv(first, {"freespace": PatternSet(grid, values, ids),
                           "true_hand": PatternSet(grid, values - 9.0, ids)})
    back = parse_scan_csv(first).modes
    assert all(pset.grid == grid for pset in back.values())
    assert back["true_hand"].beam_ids == (ids or (0, 1, 2))
    write_scan_csv(second, back)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def _archive(draw):
    """A mapping mode -> PatternSet on a drawn grid, each set with drawn
    beam ids or the default 0..n-1.

    Steps include long-repr ones (7.2 * 13 is 93.60000000000001). A band
    leaves valid the first and last theta rows, two adjacent rows and at
    least half of the rows: parse_scan_csv needs them to infer the lattice.
    """
    phi_step = draw(st.sampled_from([7.2, 12.0, 22.5, 40.0, 90.0]))
    theta_step = draw(st.sampled_from([3.6, 7.2, 10.0, 22.5]))
    top = int((180.0 - 1e-6) / theta_step)  # theta_step * top < 180
    n_theta = draw(st.integers(2, min(8, top)))
    theta_min = theta_step * draw(st.integers(1, top - n_theta + 1))
    grid = make_grid(phi_step, theta_min,
                     theta_min + theta_step * (n_theta - 1), theta_step)
    if n_theta >= 5 and draw(st.booleans()):
        lo = draw(st.integers(1, n_theta - 2))
        hi = draw(st.integers(lo, min(n_theta - 2, lo + n_theta // 2 - 1)))
        grid = with_invalid_band(grid, grid.theta[lo], grid.theta[hi])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = {}
    for mode in draw(st.permutations(MODES))[:draw(st.integers(1, 3))]:
        n_beams = draw(st.integers(1, 3))
        values = rng.uniform(-80.0, 20.0, (n_beams,) + grid.shape)
        special = rng.random(values.shape) < 0.3
        values[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
        ids = draw(st.lists(
            st.integers(0, 2**63 - 1) | st.integers(2**63 - 9, 2**63 - 1),
            min_size=n_beams, max_size=n_beams, unique=True)
            | st.none())
        modes[mode] = PatternSet(grid, values, ids)
    return modes


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_archive())
def test_fuzz_writer_bytes_and_read_back(modes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        write_scan_csv(path, modes)
        wrote = path.read_bytes()
        back = parse_scan_csv(path).modes
        write_scan_csv(path, back)
        rewrote = path.read_bytes()
    assert wrote == _csv_writer_archive(modes).encode()
    assert list(back) == sorted(modes)
    for mode, pset in back.items():
        grid, want = pset.grid, modes[mode].grid
        np.testing.assert_array_equal(grid.valid, want.valid)
        # an angle some row names reads back exactly; one filled across an
        # interior band is a lattice value within 1e-9
        for got, axis, named in ((grid.phi, want.phi, want.valid.any(0)),
                                 (grid.theta, want.theta, want.valid.any(1))):
            np.testing.assert_array_equal(got[named], axis[named])
            np.testing.assert_allclose(got, axis, rtol=0, atol=1e-9)
        # beams read back in ascending id order, each with its own values
        ids = modes[mode].beam_ids
        order = sorted(range(len(ids)), key=ids.__getitem__)
        assert pset.beam_ids == tuple(ids[i] for i in order)
        np.testing.assert_allclose(pset.values, modes[mode].values[order],
                                   rtol=0, atol=5e-7 + 1e-12)
    if all(list(p.beam_ids) == sorted(p.beam_ids) for p in modes.values()):
        assert rewrote == wrote


# SMALL_CSV plus a true_hand copy 100 dB down, which `stats` accepts
FUZZ_ROWS = SMALL_CSV.splitlines()[1:] + [
    row.replace(",freespace,-", ",true_hand,-1")
    for row in SMALL_CSV.splitlines()[1:]]
_FIELD_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1_0", "-1",
                     " freespace ", "true_hand", "phantom", "", '"0.0"',
                     "99999999999999999999", "90.0", "1e308", "-1e308",
                     "1e18", "-1e18", "1e300", "-1e300", "\x00", "\x1c1"]))


@st.composite
def _corrupted_scan(draw):
    """FUZZ_ROWS with one field replaced by drawn text, one row dropped or
    duplicated, or one blank line inserted."""
    lines = [",".join(CSV_HEADER)] + FUZZ_ROWS
    i = draw(st.integers(1, len(lines) - 1))
    op = draw(st.sampled_from(["field", "drop", "duplicate", "blank"]))
    if op == "field":
        fields = lines[i].split(",")
        fields[draw(st.integers(0, 4))] = draw(_FIELD_TEXT)
        lines[i] = ",".join(fields)
    elif op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(draw(st.integers(1, len(lines))), lines[i])
    else:
        lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + "\n"


def _stats_on(text):
    """Exit code, stdout and stderr of ``stats --scan`` on an archive
    ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        path.write_text(text, encoding="utf-8")
        return run_captured(["stats", "--scan", str(path), "--delta5", "-60"])


def test_stats_on_fuzz_base_succeeds():
    code, out, err = _stats_on("\n".join([",".join(CSV_HEADER)] + FUZZ_ROWS))
    assert (code, err) == (0, "")
    strict_json(out)


# a huge finite free-space value once overflowed the loss moments
HUGE_FREE_SCAN = "\n".join([",".join(CSV_HEADER), "0.0,45.0,0,freespace,1e300"]
                           + FUZZ_ROWS[1:]) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_corrupted_scan())
@example(HUGE_FREE_SCAN)
def test_fuzz_stats_on_corrupted_scan(text):
    code, out, err = _stats_on(text)
    check_exit(code, err)
    if code == 0:
        strict_json(out)


# Every other command that takes --scan, on the same corrupted archives: its
# arguments, with {out} for a path in the run's temporary directory. The R5
# floor sits below the fuzz base's values, as in the stats fuzzer.
_SCAN_FUZZ_COMMANDS = {
    "cdf": ["cdf", "--threshold", "-45", "--percentiles", "50,20"],
    "overlay": ["overlay", "--mode", "true_hand", "--out", "{out}.svg"],
    "roi-r1": ["roi", "--roi-kind", "r1"],
    "roi-r5": ["roi", "--roi-kind", "r5", "--delta5", "-60", "--out",
               "{out}"],
    "compare": ["compare", "--delta5", "-60"],
    "compare-models": ["compare", "--delta5", "-60", "--models",
                       "prior-hand-15.3,prior-body-8.5"],
}


@pytest.mark.parametrize("case", list(_SCAN_FUZZ_COMMANDS))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(_corrupted_scan())
@example(HUGE_FREE_SCAN)
def test_fuzz_command_on_corrupted_scan(case, text):
    """Every other --scan command keeps the contract on the archives the
    ``stats`` fuzzer draws: exit 0, 1 or 2, one ``error:`` line on failure,
    and on success strict JSON or a parseable SVG, or for ``cdf`` finite
    values in its line format."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scan.csv", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        command, *flags = (arg.replace("{out}", str(out))
                           for arg in _SCAN_FUZZ_COMMANDS[case])
        code, stdout, err = run_captured([command, "--scan", str(path),
                                          *flags])
        check_exit(code, err)
        if code:
            return
        if command == "overlay":
            assert stdout == ""
            ET.parse(f"{out}.svg")
        elif command == "cdf":
            assert re.fullmatch(r"(\w+: (\d+\.\d\d% of sphere >= -45|"
                                r"p(50|20) = -?\d+\.\d\d) dBm\n)+", stdout)
        elif case == "roi-r5":
            assert stdout == ""
            strict_json((out / "roi.json").read_text())
            assert (out / "roi_mask.csv").is_file()
        else:
            strict_json(stdout)
