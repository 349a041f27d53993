"""Workload inputs, CLI calls and output checks for the beamblock benchmark.

Each workload generates its inputs from the seed in ``__init__`` (part of
the timed set-up), lists the CLI calls of one unit in ``calls`` and checks
their outputs in ``check``, outside the timed region. ``check`` returns,
per call, a list of errors and a map of sha256 digests keyed
``<call key>/<output name>``; the worker compares those against
``golden.json`` and against the run's first unit. With ``full`` false (every
unit after the first) the report and queries oracles and the XML checks are
skipped: byte-identical outputs to a fully checked unit pass them too, and
no oracle state stays resident to inflate later units' peak memory.

The oracles are independent numpy re-derivations of the published
definitions: sin(theta)-weighted best-beam coverage, the top-p percentile
and the R1-R5 region laws.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import xml.parsers.expat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STUDIES = ("s1_patch_portrait_hard", "s2_patch_portrait_loose",
           "s3_dipole_portrait_hard", "s4_dipole_portrait_loose",
           "s5_patch_landscape_intermediate")
STRESS_BASE = "s5_patch_landscape_intermediate"
STRESS_BEAMS = 4
FINE_GRID = {"phi_step": 1.0, "theta_min": 1.0, "theta_max": 179.0}
# The stress study's grid: 89 x 180 = 16,020 points. Coarser than the
# 1 degree grid so that one stress call takes about two seconds and a run
# holds several of them (see README.md, "Why relative times").
STRESS_GRID = {"phi_step": 2.0, "theta_min": 2.0, "theta_max": 178.0}
QUERY_PERCENTILES = "40,30,20,10"

# Printed values carry 2 (CLI) or 4 (CSV) decimals.
TOL_2DP = 0.005 + 1e-9
TOL_4DP = 5e-5 + 1e-9
# Unrounded floats recomputed with a different summation order.
TOL_EXACT = 1e-9
# Archive values carry 6 decimals, so a point within this distance of a
# threshold may fall on either side of it in the read-back.
ARCHIVE_EPS_DB = 1e-6
# The read-back of a %.6f archive must reproduce model deltas this closely.
READBACK_TOL_DB = 1e-5


@dataclass(frozen=True)
class Call:
    key: str
    argv: list


@dataclass
class CallResult:
    rc: int | None
    error: str | None
    wall_s: float
    cpu_s: float
    stdout: str
    stderr: str


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def load_study_json(root: Path, name: str) -> dict:
    path = root / "src" / "beamblock" / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


def fine_study(d: dict) -> dict:
    """The study on the 1 degree grid, theta 1..179 (179 x 360 points)."""
    return dict(d, grid=dict(FINE_GRID))


def stress_study(root: Path, seed: int) -> dict:
    """Bundled s5 at 2 degrees with 4 beams scanned to seeded angles."""
    rng = random.Random(seed)
    d = dict(load_study_json(root, STRESS_BASE), grid=dict(STRESS_GRID))
    d["name"] = "s5_stress_2deg_4beam"
    d["title"] = "4x1 patch, landscape, intermediate grip, 2 deg, 4 beams"
    d["beams"] = [{"scan_deg": round(rng.uniform(-60.0, 60.0), 2)}
                  for _ in range(STRESS_BEAMS)]
    return d


def n_samples(d: dict) -> int:
    """Valid points x beams x modes a study's inputs hold."""
    g = d["grid"]
    step = g.get("theta_step", g["phi_step"])
    n_phi = round(360.0 / g["phi_step"])
    n_theta = round((g["theta_max"] - g["theta_min"]) / step) + 1
    theta = g["theta_min"] + step * np.arange(n_theta)
    band = d.get("invalid_theta_band")
    if band:
        theta = theta[(theta < band[0]) | (theta > band[1])]
    return theta.size * n_phi * len(d["beams"]) * (1 + len(d["masks"]))


def write_json(path: Path, d: dict) -> Path:
    path.write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------- oracles


def sin_weights(theta_deg) -> np.ndarray:
    return np.sin(np.deg2rad(theta_deg))


def coverage_pct(best, w, threshold: float, eps: float = 0.0) -> float:
    """Percent of the weight with best-beam value >= threshold + eps."""
    return 100.0 * float(w[best >= threshold + eps].sum() / w.sum())


def top_percentile(best, w, p: float) -> float:
    """Largest value v whose weighted mass(value >= v) reaches p percent."""
    levels, inverse = np.unique(best, return_inverse=True)
    mass = np.bincount(inverse, weights=w) / w.sum()
    tail = np.cumsum(mass[::-1])[::-1]
    ok = np.nonzero(tail >= p / 100.0 - 1e-12)[0]
    return float(levels[ok[-1]])


def scan_overlays(path, chunk_rows: int = 1 << 16) -> tuple[dict, int]:
    """Per-mode best-beam value and sin(theta) weight of each scan point.

    Reads the scan CSV with numpy alone, in chunks so that the check stays
    well below the program's own peak memory. Returns
    ({mode: (best, w)}, rows).
    """
    parts, rows = {}, 0
    with open(path) as fh:
        next(fh)
        while lines := list(itertools.islice(fh, chunk_rows)):
            rows += len(lines)
            phi, theta, value = np.loadtxt(lines, delimiter=",",
                                           usecols=(0, 1, 4), ndmin=2).T
            modes = np.loadtxt(lines, delimiter=",", usecols=(3,),
                               dtype=str, ndmin=1)
            key = (np.rint(theta * 1e4).astype(np.int64) * 10_000_000
                   + np.rint(phi * 1e4).astype(np.int64))
            for mode in map(str, np.unique(modes)):
                sel = modes == mode
                k, v = parts.get(mode, ((), ()))
                parts[mode] = _max_by_key(np.concatenate([k, key[sel]]),
                                          np.concatenate([v, value[sel]]))
    return {mode: (best, sin_weights((points // 10_000_000) / 1e4))
            for mode, (points, best) in parts.items()}, rows


def _max_by_key(key, value):
    points, inverse = np.unique(key, return_inverse=True)
    best = np.full(points.size, -np.inf)
    np.maximum.at(best, inverse, value)
    return points, best


def well_formed_xml(path) -> str | None:
    """None if the file parses as XML, else the parser's message."""
    parser = xml.parsers.expat.ParserCreate()
    try:
        with open(path, "rb") as fh:
            parser.ParseFile(fh)
    except xml.parsers.expat.ExpatError as exc:
        return str(exc)
    return None


def _within_band(reported: float, best, w, threshold: float,
                 tol: float) -> bool:
    lo = coverage_pct(best, w, threshold, ARCHIVE_EPS_DB)
    hi = coverage_pct(best, w, threshold, -ARCHIVE_EPS_DB)
    return lo - tol <= reported <= hi + tol


def check_bundle(out: Path, expected_rows: int,
                 full: bool) -> tuple[list, dict]:
    """Digest every file; if ``full``, also parse every SVG and re-derive
    coverage from scan.csv."""
    errors, digests = [], {}
    for path in sorted(out.iterdir()):
        digests[path.name] = sha256_file(path)
        if full and path.suffix == ".svg" and (bad := well_formed_xml(path)):
            errors.append(f"{path.name} is not well-formed XML: {bad}")
    if not full:
        return errors, digests
    overlays, rows = scan_overlays(out / "scan.csv")
    if rows != expected_rows:
        errors.append(f"scan.csv has {rows} rows, expected {expected_rows}")
    with open(out / "coverage.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            t = float(row["threshold_dbm"])
            for col, mode in (("free_pct", "freespace"),
                              ("blocked_pct", "true_hand")):
                if not _within_band(float(row[col]), *overlays[mode], t,
                                    TOL_4DP):
                    errors.append(f"coverage.csv {col} at {t:g} dBm is "
                                  f"{row[col]}, oracle disagrees")
    payload = json.loads((out / "summary.json").read_text())
    for row in (payload.get("phantom") or {}).get("thresholds", []):
        t = row["threshold_dbm"]
        if not _within_band(row["blocked_pct"], *overlays["phantom"], t,
                            TOL_EXACT):
            errors.append(f"phantom blocked_pct at {t:g} dBm is "
                          f"{row['blocked_pct']}, oracle disagrees")
    return errors, digests


# -------------------------------------------------------------- workloads


class Bundled:
    """``report`` on each of the five bundled studies, order shuffled."""

    digests_any_seed = True  # the inputs do not depend on the seed

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.rows = {n: n_samples(load_study_json(root, n)) for n in STUDIES}
        self.samples_per_unit = sum(self.rows.values())

    def calls(self, unit: int) -> list:
        order = list(STUDIES)
        self.rng.shuffle(order)
        return [Call(n, ["report", "--scenario", n, "--out",
                         str(self.work / "out" / n)]) for n in order]

    def check(self, calls, results, full: bool) -> list:
        out = []
        for call in calls:
            out.append(check_bundle(self.work / "out" / call.key,
                                    self.rows[call.key], full))
        shutil.rmtree(self.work / "out")
        return out


class StressReport:
    """``report`` on the stress study (192,240 scan rows)."""

    digests_any_seed = False

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        study = stress_study(root, seed)
        self.scenario = write_json(work / "stress_study.json", study)
        self.samples_per_unit = n_samples(study)

    def calls(self, unit: int) -> list:
        return [Call("report", ["report", "--scenario", str(self.scenario),
                                "--out", str(self.work / "out")])]

    def check(self, calls, results, full: bool) -> list:
        out = [check_bundle(self.work / "out", self.samples_per_unit, full)]
        shutil.rmtree(self.work / "out")
        return out


def write_archive(path: Path, modes: dict, seed: int) -> None:
    """Scan CSV in seeded row order: repr angles, %.6f values.

    Written here rather than by the program, so that a change to the
    program's writer moves neither the archive bytes nor set-up time.
    """
    names = sorted(modes)
    grid = modes[names[0]].grid
    it, ip = np.nonzero(grid.valid)
    phis = [repr(float(x)) for x in grid.phi]
    thetas = [repr(float(x)) for x in grid.theta]
    points = [f"{phis[j]},{thetas[i]}," for i, j in zip(it.tolist(),
                                                        ip.tolist())]
    values = np.stack([np.stack([p.values[grid.valid] for p in modes[m]])
                       for m in names])  # (mode, beam, point)
    _, n_beams, n_points = values.shape
    series = [f"{b},{m}," for m in names for b in range(n_beams)]
    flat = values.reshape(-1)
    order = np.random.default_rng(seed).permutation(flat.size)
    with open(path, "w") as fh:
        fh.write("phi,theta,beam_id,mode,value_dbm\n")
        for start in range(0, flat.size, 1 << 18):
            idx = order[start:start + (1 << 18)]
            s_idx, p_idx = np.divmod(idx, n_points)
            fh.write("".join([
                f"{points[p]}{series[s]}{v:.6f}\n"
                for p, s, v in zip(p_idx.tolist(), s_idx.tolist(),
                                   flat[idx].tolist())]))


def true_hand_deltas(payload: dict) -> dict:
    for c in payload["candidates"]:
        if c["name"] == "true_hand":
            return c["deltas_db"]
    raise KeyError("no true_hand candidate")


class StressScan:
    """``compare --scan`` on the stress study's shuffled archive."""

    digests_any_seed = False

    def __init__(self, root: Path, work: Path, seed: int):
        from beamblock.scenario import build_patterns, load_scenario

        self.work = work
        study = stress_study(root, seed)
        self.scenario = write_json(work / "stress_study.json", study)
        self.delta5 = str(study["delta5_dbm"])
        self.archive = work / "archive.csv"
        write_archive(self.archive,
                      build_patterns(load_scenario(self.scenario)), seed)
        self.archive_sha256 = sha256_file(self.archive)
        self.samples_per_unit = n_samples(study)
        self._reference = None

    def calls(self, unit: int) -> list:
        return [Call("compare", ["compare", "--scan", str(self.archive),
                                 "--delta5", self.delta5, "--out",
                                 str(self.work / "compare.json")])]

    def reference(self) -> dict:
        """true_hand deltas of the same comparison run via --scenario."""
        if self._reference is None:
            import beamblock.cli as cli

            ref = self.work / "reference.json"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.run_cli(["compare", "--scenario", str(self.scenario),
                                  "--delta5", self.delta5, "--out", str(ref)])
            if rc != 0:
                raise RuntimeError(f"reference compare exited {rc}")
            self._reference = true_hand_deltas(json.loads(ref.read_text()))
        return self._reference

    def check(self, calls, results, full: bool) -> list:
        path = self.work / "compare.json"
        errors = []
        deltas = true_hand_deltas(json.loads(path.read_text()))
        for p, want in self.reference().items():
            if abs(deltas.get(p, math.inf) - want) > READBACK_TOL_DB:
                errors.append(f"true_hand delta at p{p} is {deltas.get(p)}, "
                              f"--scenario gives {want}")
        digests = {"archive.csv": self.archive_sha256,
                   "compare.json": sha256_file(path)}
        path.unlink()
        return [(errors, digests)]


class Queries:
    """40 analysis calls on the five studies at 1 degree, seeded arguments."""

    digests_any_seed = False

    def __init__(self, root: Path, work: Path, seed: int):
        rng = random.Random(seed)
        self.studies = {}
        self.calls_per_unit = []
        self.samples_per_unit = 0
        for name in STUDIES:
            study = fine_study(load_study_json(root, name))
            path = write_json(work / f"{name}_1deg.json", study)
            a = {k: round(rng.uniform(lo, hi), 2) for k, (lo, hi) in (
                ("threshold", (-45.0, -25.0)), ("delta1", (3.0, 10.0)),
                ("delta2", (3.0, 10.0)), ("delta3", (5.0, 15.0)),
                ("delta4", (-45.0, -30.0)), ("delta5", (-50.0, -30.0)))}
            self.studies[name] = (path, a)
            s = str(path)
            d1 = ["--delta1", str(a["delta1"])]
            d5 = ["--delta5", str(a["delta5"])]
            argvs = {
                "cdf": ["cdf", "--scenario", s, "--threshold",
                        str(a["threshold"]), "--percentiles",
                        QUERY_PERCENTILES],
                "roi-r1": ["roi", "--scenario", s, "--roi-kind", "r1"] + d1,
                "roi-r2": ["roi", "--scenario", s, "--roi-kind", "r2"] + d1
                + ["--delta2", str(a["delta2"])],
                "roi-r3": ["roi", "--scenario", s, "--roi-kind", "r3"] + d1
                + ["--delta3", str(a["delta3"])],
                "roi-r4": ["roi", "--scenario", s, "--roi-kind", "r4"] + d1
                + ["--delta4", str(a["delta4"])],
                "roi-r5": ["roi", "--scenario", s, "--roi-kind", "r5"] + d5,
                "stats": ["stats", "--scenario", s] + d5,
                "compare": ["compare", "--scenario", s] + d5,
            }
            self.calls_per_unit += [Call(f"{name}/{label}", argv)
                                    for label, argv in argvs.items()]
            self.samples_per_unit += n_samples(study) * len(argvs)

    def calls(self, unit: int) -> list:
        return self.calls_per_unit

    def oracle(self, name: str) -> dict:
        """Per-mode best-beam fields, validity and sin weights of a study.

        The patterns come from the program's synthesis; everything derived
        from them here is recomputed with numpy.
        """
        from beamblock.scenario import build_patterns, load_scenario

        modes = build_patterns(load_scenario(self.studies[name][0]))
        grid = modes["freespace"].grid
        w = np.where(grid.valid, sin_weights(grid.theta)[:, None], 0.0)
        return {"valid": grid.valid, "w": w / w.sum(),
                "best": {m: np.max(np.stack([p.values for p in s]), axis=0)
                         for m, s in modes.items()}}

    def _check_cdf(self, o, a, text) -> list:
        errors = []
        lines = text.splitlines()
        w = o["w"][o["valid"]]
        for mode in sorted(o["best"]):
            best = o["best"][mode][o["valid"]]
            expected = [(f"{mode}: ", coverage_pct(best, w, a["threshold"]),
                         "% of sphere")]
            expected += [(f"{mode}: p{float(p):g} = ",
                          top_percentile(best, w, float(p)), " dBm")
                         for p in QUERY_PERCENTILES.split(",")]
            for prefix, value, suffix in expected:
                found = [ln for ln in lines if ln.startswith(prefix)
                         and suffix in ln]
                try:
                    got = float(found[0][len(prefix):].split(suffix)[0])
                except (IndexError, ValueError):
                    errors.append(f"cdf: no line {prefix!r}...{suffix!r}")
                    continue
                if abs(got - value) > TOL_2DP:
                    errors.append(f"cdf: {found[0]!r}, oracle {value:.4f}")
        return errors

    def _regions(self, o, a) -> dict:
        g, gb = o["best"]["freespace"], o["best"]["true_hand"]
        peak, peak_b = np.nanmax(g[o["valid"]]), np.nanmax(gb[o["valid"]])
        r1 = g >= peak - a["delta1"]
        d5 = a["delta5"]
        return {"R1": r1,
                "R2": r1 | (gb >= peak_b - a["delta2"]),
                "R3": r1 | (gb >= peak - a["delta3"]),
                "R4": r1 | (gb >= a["delta4"]),
                "R5": (g >= d5) | (gb >= d5),
                "R5_base": g >= d5}

    def _check_json(self, o, a, label, payload) -> list:
        """roi and stats percentages against the oracle's region laws."""
        pct = {k: 100.0 * float(o["w"][m & o["valid"]].sum())
               for k, m in self._regions(o, a).items()}
        if label.startswith("roi-"):
            kind = label[4:].upper()
            got = [("coverage_pct", payload["coverage_pct"], pct[kind])]
            if kind != "R1":
                base = "R5_base" if kind == "R5" else "R1"
                got.append(("baseline_pct", payload["baseline_pct"],
                            pct[base]))
        elif label == "stats":
            got = [("r5.sphere_pct", payload["r5"]["sphere_pct"], pct["R5"]),
                   ("r1_matched.sphere_pct",
                    payload["r1_matched"]["sphere_pct"], pct["R5_base"])]
        else:
            true_hand_deltas(payload)
            got = []
        return [f"{label}: {field} {value}, oracle {want}"
                for field, value, want in got
                if abs(value - want) > TOL_EXACT]

    def check(self, calls, results, full: bool) -> list:
        """Digest every stdout; if ``full``, also check it against the
        oracle. One study's oracle is held at a time and none is kept
        after the check, so later units' peak memory is the program's."""
        out, o, o_name = [], None, None
        for call, res in zip(calls, results):
            name, label = call.key.split("/")
            errors = []
            if full:
                if name != o_name:
                    o = None  # free the last study's oracle first
                    o, o_name = self.oracle(name), name
                a = self.studies[name][1]
                if label == "cdf":
                    errors = self._check_cdf(o, a, res.stdout)
                else:
                    errors = self._check_json(o, a, label,
                                              json.loads(res.stdout))
            out.append((errors, {"stdout": sha256_bytes(res.stdout.encode())}))
        return out


WORKLOADS = {"bundled": Bundled, "stress_report": StressReport,
             "stress_scan": StressScan, "queries": Queries}
