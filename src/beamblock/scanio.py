"""Scan archive CSV schema.

One CSV row per (grid point, beam, mode) with header

    phi,theta,beam_id,mode,value_dbm

and modes freespace / phantom / true_hand. Values are EIRP in dBm.

Grid points absent from every (mode, beam) series become invalid points;
points absent from only some series are an error.
"""

from __future__ import annotations

import codecs
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import AngularGrid, PatternSet, _one_grid, point_prefixes

MODES = ("freespace", "phantom", "true_hand")

CSV_HEADER = ("phi", "theta", "beam_id", "mode", "value_dbm")

@dataclass(frozen=True)
class ScanData:
    """Parsed archive: a mapping mode -> PatternSet, all on one grid."""

    modes: dict


# A mode field longer than 15 characters, padding included, fills the
# "S16" column and is refused, since it may have been cut short.
_ROW = np.dtype([("phi", "f8"), ("theta", "f8"), ("beam_id", "i8"),
                 ("mode", "S16"), ("value_dbm", "f8")])

# Characters loadtxt would misread: NUL is cut from the end of a mode, and
# \x1c-\x1f are white space around a number to loadtxt, not to float().
_REFUSED = "\0\x1c\x1d\x1e\x1f"

# Each mode name as the two 8-byte words of its NUL-padded "S16" field, and
# the rows keyed at a time: few enough to sort in cache, enough to amortize.
_MODE_WORDS = np.array([m.encode() for m in MODES], "S16").view("(2,)u8")
_BLOCK = 1 << 16


def _max_rows(path) -> int:
    """A bound on the rows: one plus the line breaks, or plus a quarter of
    the commas, as every row read has four, whichever is less; a file that
    is not UTF-8 is a DataError here, before any line is checked."""
    breaks, commas = 0, 0
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                decode(chunk)
                byte = np.frombuffer(chunk, np.uint8)
                breaks += np.count_nonzero(byte == ord("\n"))
                commas += np.count_nonzero(byte == ord(","))
                if b"\r" in chunk:  # CR LF once, unless a chunk splits it
                    breaks += chunk.count(b"\r") - chunk.count(b"\r\n")
        decode(b"", True)
    except UnicodeDecodeError as exc:
        raise DataError(f"scan file is not text: {exc}") from exc
    return min(breaks, commas // 4) + 1


def _check_header(line: str) -> None:
    if tuple(h.strip() for h in line.split(",")) != CSV_HEADER:
        raise DataError(f"expected header {','.join(CSV_HEADER)}")


_LOADTXT = dict(delimiter=",", comments=None, dtype=_ROW, ndmin=1)


def _loadtxt(lines: list) -> np.ndarray:
    """Rows of the CSV ``lines``; ValueError for a line loadtxt refuses or
    would misread: non-ASCII (numpy 2.4 crashes on some of it in an integer
    field) or one of ``_REFUSED``."""
    text = "".join(lines)
    if not text.isascii() or any(c in text for c in _REFUSED):
        raise ValueError("unsupported character")
    if not text or text.isspace():  # which loadtxt would warn of
        return np.zeros(0, _ROW)
    return np.loadtxt(lines, **_LOADTXT)


def _first_refused(lines: list) -> int:
    """Index of the first line ``_loadtxt`` refuses, or len(lines)."""
    lo, hi = 0, len(lines)
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _loadtxt(lines[lo:mid + 1])
            lo = mid + 1
        except ValueError:
            hi = mid
    return lo


def _line(path, k: int):
    """The physical number and text of data line ``k``, counted from 0 over
    the lines that are not blank."""
    with open(path, encoding="utf-8-sig") as fh:
        data = (x for x in enumerate(fh, 1) if not x[1].isspace())
        number, line = next(itertools.islice(data, k + 1, None))
    return number, line.removesuffix("\n")


def _fault(line: str, kind: int) -> str:
    """What is wrong with ``line``: a non-finite angle, an unknown mode or a
    negative beam_id (kind 0, 1, 2), or why ``_loadtxt`` refused it (3)."""
    fields = line.split(",")
    if kind < 3:
        mode = fields[3].strip()
        return ("non-finite angle", f"unknown mode {mode!r}" if mode not in
                MODES else "mode field is 16 characters or wider",
                "beam_id must be >= 0")[kind]
    if len(fields) != 5:
        return "expected 5 fields"
    try:
        float(fields[0]), float(fields[1]), int(fields[2]), float(fields[4])
    except ValueError as exc:
        return str(exc)
    return ("rows must be ASCII without NUL or \\x1c-\\x1f, numbers without "
            "'_', and beam_id below 2**63")


def _read_rows(path):
    """The rows read, about 256 KB of lines at a time, and the number of
    data lines read: a refused line, if any, is the last, after the rows.
    loadtxt skips empty lines; other blank lines make it refuse a batch."""
    rows, n, refused = np.empty(_max_rows(path), _ROW), 0, False
    with open(path, encoding="utf-8-sig") as fh:
        _check_header(fh.readline())
        while not refused and (batch := fh.readlines(1 << 18)):
            try:
                read = _loadtxt(batch)
            except ValueError:  # a refused line, or one of white space only
                lines = [line for line in batch if not line.isspace()]
                bad = _first_refused(lines)
                read, refused = _loadtxt(lines[:bad]), bad < len(lines)
            rows[n:n + len(read)] = read
            n += len(read)
    if not (n or refused):
        raise DataError("scan file contains no data rows")
    return rows[:n], n + refused


def _index(x: np.ndarray, keyed=np.asarray):
    """Sorted distinct ``keyed`` values of ``x`` and each row's index among
    them, found one block of rows at a time so any row order costs alike."""
    blocks = []
    for i in range(0, len(x), _BLOCK):
        d, at = np.unique(x[i:i + _BLOCK], return_inverse=True)
        blocks.append((keyed(d), at))
    keys = np.unique(np.concatenate([k for k, _ in blocks] or [x[:0]]))
    of = np.empty(len(x), dtype=np.intp)
    for i, (k, at) in zip(range(0, len(x), _BLOCK), blocks):
        of[i:i + _BLOCK] = np.searchsorted(keys, k)[at]
    return keys, of


def _angle_keys(x: np.ndarray):
    """Sorted distinct round(v, 9) of ``x``, the angle the first row of each
    wrote, and each value's index among them; ``round`` runs on each
    block's distinct values only."""
    keys, of = _index(x, lambda d: np.array([round(v, 9)
                                             for v in d.tolist()]))
    first = np.full(len(keys), len(x))
    for i in range(0, len(x), _BLOCK):
        block = of[i:i + _BLOCK]
        np.minimum.at(first, block, np.arange(i, i + len(block)))
    return keys.tolist(), x[first].tolist(), of


def _lattice_axis(keys: list, angles: list, name: str, max_points: int):
    """Axis over the sorted ``keys`` stepped by their smallest gap, holding
    each key's ``angles`` entry with unnamed lattice values filling the
    gaps, and each key's index on it."""
    if len(keys) < 2:
        return np.array(angles), np.zeros(len(keys), dtype=int)
    lo, hi = keys[0], keys[-1]
    n = (hi - lo) / float(np.diff(keys).min())  # not finite if hi - lo is
    if np.isfinite(n) and round(n) < max_points:
        n = round(n)
        pos = (np.array(keys) - lo) * (n / (hi - lo))
        idx = np.rint(pos).astype(int)
        if np.all(np.abs(pos - idx) <= 1e-6):
            axis = lo + (hi - lo) / n * np.arange(n + 1)
            axis[idx] = angles
            return axis, idx
    raise DataError(f"inferred grid is invalid: {name} values fit no "
                    f"uniform lattice of at most {max_points} points")


def parse_scan_csv(path) -> ScanData:
    """Read a scan archive, inferring the grid and validity mask.

    One pass counts the line breaks and commas, which bound the rows, and
    refuses a file that is not UTF-8. Then whole lines are read in batches
    of about 256 KB, each parsed by one ``np.loadtxt`` call into the one
    row array, so memory grows with the 48-byte rows and not with the
    text. A batch that is refused is bisected, and the rows before its
    first refused line are checked first. An error cites the physical line
    of the first faulty row, blank lines counted, found by one more
    streaming pass. A UTF-8 byte-order mark before the header is skipped.
    Keys are computed one block of rows at a time, whatever the row order;
    each axis holds, per 9-decimal angle key, the angle the first row with
    that key wrote. Each mode present becomes one PatternSet (beams in
    ascending id order): best field at once, cleaned values on first read.
    """
    rows, n_lines = _read_rows(path)
    phi, theta, beam, mode, value = (rows[f] for f in _ROW.names)
    code = np.full(len(rows), -1, dtype=np.int8)
    words = mode.view("(2,)u8")  # -1, plus m where MODES[m - 1] matches
    for i in range(0, len(rows), _BLOCK):
        lo, hi = words[i:i + _BLOCK].T
        for m, w in enumerate(_MODE_WORDS, 1):
            code[i:i + _BLOCK] += ((lo == w[0]) & (hi == w[1])) * np.int8(m)
    odd = np.flatnonzero(code < 0)  # padded or unknown: strip the distinct
    names, name_of = np.unique(mode[odd], return_inverse=True)
    code[odd] = np.array([MODES.index(n.strip()) if n.strip() in MODES
                          and len(n) < 16 else -1
                          for n in names.astype(str).tolist()],
                         dtype=np.int8)[name_of]

    # The first faulty row of each kind of _fault; a refused line comes
    # after the rows read. Duplicates are sought before the first of them.
    first = [int(np.argmin(ok)) if not ok.all() else n_lines for ok in
             (np.isfinite(phi) & np.isfinite(theta), code >= 0, beam >= 0)]
    first.append(len(rows))
    end = min(first)
    phi_keys, phi_angles, point = _angle_keys(phi[:end])
    theta_keys, theta_angles, theta_of = _angle_keys(theta[:end])
    n_points = len(theta_keys) * len(phi_keys)
    point += theta_of * len(phi_keys)
    del theta_of
    beams, series_of = _index(beam[:end])
    # the int8 code is widened before it can wrap
    series_of += np.multiply(code[:end], len(beams), dtype=np.int64)
    present = np.bincount(series_of) > 0
    series = np.flatnonzero(present)
    series_of = (np.cumsum(present) - 1)[series_of]

    # One series-major key per row, ascending in write_scan_csv's row
    # order. Where no lattice can fit (see below), the points are numbered
    # first, so the key stays below len(rows)**2 and cannot wrap.
    if len(series) * n_points > 2 * len(rows):
        points, point = _index(point)
        n_points = len(points)
    key = series_of * n_points
    key += point
    del point, series_of
    ranked = np.sort(key) if np.any(key[1:] <= key[:-1]) else key
    repeat = bool(np.any(ranked[1:] == ranked[:-1]))
    del ranked
    if repeat:  # the earliest second row of a point, and its first
        order = np.argsort(key, kind="stable")
        same = np.flatnonzero(np.diff(key[order]) == 0)
        j = same[np.argmin(order[same + 1])]
        raise DataError(f"line {_line(path, order[j + 1])[0]}: duplicate "
                        f"point, first at line {_line(path, order[j])[0]}")
    if end < n_lines:
        number, line = _line(path, end)
        raise DataError(f"line {number}: {_fault(line, first.index(end))}")

    # Each series must fill at least half of the lattice grid, so the
    # array below holds at most two values per row of the file.
    cells = 2 * len(rows) // len(series)
    phis, phi_idx = _lattice_axis(phi_keys, phi_angles, "phi", cells)
    thetas, theta_idx = _lattice_axis(theta_keys, theta_angles, "theta",
                                      cells // len(phis))
    # A lattice fits, so the points were not renumbered: the key is the
    # flat index of its (series, theta key, phi key) cell.
    flat = np.full(len(series) * n_points, np.nan)
    flat[key] = value
    del key
    cube = np.full((len(series), len(thetas), len(phis)), np.nan)
    cube[:, theta_idx[:, None], phi_idx] = flat.reshape(
        len(series), len(theta_keys), len(phi_keys))
    del flat
    count = (~np.isnan(cube)).sum(axis=0)
    valid = count == len(series)
    partial = (count > 0) & ~valid
    if partial.any():
        it, ip = np.argwhere(partial)[0]
        raise DataError(f"point phi={phis[ip]:g} theta={thetas[it]:g} is "
                        f"present in only {count[it, ip]} of {len(series)} "
                        "(mode, beam) series")
    try:
        grid = AngularGrid(phi=phis, theta=thetas, valid=valid)
    except ConfigError as exc:
        raise DataError(f"inferred grid is invalid: {exc}") from exc

    # series are mode-major: one slice of the cube per mode
    parts = np.flatnonzero(np.diff(series // len(beams))) + 1
    return ScanData(modes={
        MODES[s[0] // len(beams)]: PatternSet._deferred(
            grid, tuple(beams[s % len(beams)].tolist()), v.max(axis=0),
            lambda v=v: v)
        for s, v in zip(np.split(series, parts), np.split(cube, parts))})


def _bytes(texts, width: int = 0) -> np.ndarray:
    """The ASCII ``texts`` as rows of at least ``width`` NUL-padded bytes."""
    a = np.array(texts, f"S{max([width, *map(len, texts)])}")
    return a.view(np.uint8).reshape(len(a), a.itemsize)


# '%.6f\n' of |x| < 1000 as three 4-byte words, each NUL-padded: the signed
# integer part, then ".ddd" and "ddd\n" of the six decimals
_INT, _HI, _LO = (np.array(words, "S4").view(np.uint32) for words in (
    [f"{sign}{i}" for sign in ("", "-") for i in range(1000)],
    [f".{i:03d}" for i in range(1000)], [f"{i:03d}\n" for i in range(1000)]))


def _value_text(v: np.ndarray) -> np.ndarray:
    """``'%.6f\\n' % x`` of each x in ``v``, as rows of NUL-padded bytes.

    '%.6f' rounds the exact |x| * 10**6 to an integer, ties to even. The
    float product p = |x| * 1e6 is that value rounded to nearest, so the two
    lie on one side of every half-integer (floats below 2**52 hold each):
    unless |p - rint(p)|, an exact difference, is 0.5, rint(p) is the
    integer. Those p, and |x| >= 1000, go through '%.6f' itself, widening
    the rows to the longest text. -0.0 gives "-0.000000", as '%.6f' does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.abs(v) * 1e6
        r = np.rint(p)
        fast = (np.abs(p - r) < 0.5) & (r < 1e9)
    units, frac = np.divmod(np.where(fast, r, 0).astype(np.uint32), 10**6)
    hi, lo = np.divmod(frac, 1000)
    words = np.stack([_INT[units + 1000 * np.signbit(v)], _HI[hi], _LO[lo]], 1)
    slow = np.flatnonzero(~fast)
    texts = _bytes(["%.6f\n" % y for y in v[slow].tolist()], 12)
    rows = np.pad(words.view(np.uint8), [(0, 0), (0, texts.shape[1] - 12)])
    rows[slow] = texts
    return rows


def write_scan_csv(path, modes) -> None:
    """Write a scan archive deterministically.

    ``modes`` maps mode -> PatternSet, and each row names its beam by the
    set's ``beam_ids``. Rows are ordered by mode, beam in the set's order,
    then theta and phi ascending; only valid points are written; angles
    carry ``repr(float)`` and values exactly ``'%.6f'``. An archive that
    would not read back as given is refused with DataError before the file
    is opened: no mode, an unknown mode, or modes on different grids.
    """
    if not set(modes) <= set(MODES):
        raise DataError(f"unknown mode {min(set(modes) - set(MODES))!r}")
    if not modes:
        raise DataError("no mode to write")
    grid = _one_grid("all modes", *modes.values())
    # Every cube first: one built between the per-beam text buffers left
    # the heap about 1 MB higher on a 2-degree, 4-beam report.
    sets = [(mode, pset.beam_ids, pset.values)
            for mode, pset in sorted(modes.items())]
    points = _bytes(point_prefixes(grid, grid.valid))
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_HEADER) + "\n").encode())
        for mode, beam_ids, cube in sets:
            for beam, values in zip(beam_ids, cube):
                tag = _bytes([f"{beam:d},{mode},"])
                rows = np.hstack([points, tag.repeat(len(points), 0),
                                  _value_text(values[grid.valid])])
                fh.write(rows[rows != 0])


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends untranslated, so
    a file reads ``\\n`` on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
