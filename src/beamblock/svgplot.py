"""Minimal deterministic SVG renderers for patterns and CDFs.

Hand-rolled on purpose: report bundles must be byte-identical across runs,
so every coordinate and color is formatted with fixed precision and no
timestamps, random ids, or library version strings are emitted.
"""

from __future__ import annotations

import html

import numpy as np

from .coverage import WeightedCDF
from .errors import DataError
from .grid import FLOOR_DB, Pattern

# Anchor colors approximating the familiar dark-blue-to-yellow ramp.
_RAMP = (
    (0.267, 0.005, 0.329), (0.275, 0.195, 0.496), (0.230, 0.322, 0.546),
    (0.173, 0.438, 0.558), (0.128, 0.567, 0.551), (0.158, 0.684, 0.502),
    (0.369, 0.789, 0.383), (0.678, 0.864, 0.190), (0.993, 0.906, 0.144),
)

_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                 "#8c564b")

# Segment i of the ramp runs from _LO[i] to _HI[i].
_LO, _HI = np.array(_RAMP[:-1]), np.array(_RAMP[1:])
_HEX = np.array([f"{k:02x}" for k in range(256)])

_INVALID_FILL = "#d9d9d9"
_FONT = 'font-family="DejaVu Sans, sans-serif"'
_SPAN_DB = 40.0  # depth of the heatmap color scale below its peak
_MAX_TICKS = 1000  # x ticks of a CDF plot, so a huge finite range is refused


def _f(x: float) -> str:
    return f"{x:.2f}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(
        np.column_stack([xs, ys]).ravel().tolist())


def _ramp_colors(t: np.ndarray) -> np.ndarray:
    """``#rrggbb`` of each ``t`` on the ramp, ``t`` clipped to [0, 1]."""
    pos = np.clip(t, 0.0, 1.0) * (len(_RAMP) - 1)
    i = np.minimum(pos.astype(int), len(_RAMP) - 2)
    frac = (pos - i)[:, None]
    # np.rint rounds half to even, like round()
    hexes = _HEX[np.rint(255 * ((1 - frac) * _LO[i] + frac * _HI[i]))
                 .astype(int)]
    # np.char.add, not "+": numpy < 2 has no add loop for str arrays
    add = np.char.add
    return add(add(add("#", hexes[:, 0]), hexes[:, 1]), hexes[:, 2])


def _svg_open(width: float, height: float, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" '
        'fill="#ffffff"/>',
        f'<text x="{_f(width / 2)}" y="20" {_FONT} font-size="14" '
        f'text-anchor="middle">{html.escape(title, quote=False)}</text>',
    ]


def _bottom_tick(x: float, y: float, label: str) -> list[str]:
    """A tick down from (x, y) on the plot's lower edge, labeled below."""
    return [f'<line x1="{_f(x)}" y1="{_f(y)}" x2="{_f(x)}" y2="{_f(y + 5)}" '
            'stroke="#000000"/>',
            f'<text x="{_f(x)}" y="{_f(y + 18)}" {_FONT} font-size="11" '
            f'text-anchor="middle">{label}</text>']


def _axis_titles(ml: float, mt: float, plot_w: float, plot_h: float,
                 height: float, xlabel: str, ylabel: str) -> list[str]:
    """``xlabel`` centred under the plot, ``ylabel`` turned up its left."""
    ym = _f(mt + plot_h / 2)
    return [f'<text x="{_f(ml + plot_w / 2)}" y="{_f(height - 12)}" {_FONT} '
            'font-size="12" text-anchor="middle">'
            f'{html.escape(xlabel, quote=False)}</text>',
            f'<text x="14" y="{ym}" {_FONT} font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 14 {ym})">'
            f'{html.escape(ylabel, quote=False)}</text>']


def _ticks(axis: np.ndarray, step: float, every: int, stop: int,
           start: float, length: float) -> list[tuple[int, float]]:
    """Each multiple of ``every`` in [0, stop] within the ``step``-wide cells
    of ``axis``, and its place on a side from ``start`` for ``length``."""
    lo, span = axis[0] - step / 2.0, len(axis) * step
    return [(tick, start + (tick - lo) / span * length)
            for tick in range(0, stop + 1, every) if lo <= tick <= lo + span]


def heatmap_svg(pattern: Pattern, title: str) -> str:
    """Azimuth-elevation heatmap of a pattern, invalid points in gray."""
    grid = pattern.grid
    n_t, n_p = grid.shape
    cell = max(720.0 / n_p, 4.0)
    ml, mt, mr, mb = 60.0, 36.0, 86.0, 48.0
    plot_w, plot_h = n_p * cell, n_t * cell
    width, height = ml + plot_w + mr, mt + plot_h + mb
    vmax = pattern.max_value()
    finite = pattern.values[grid.valid]
    vmin = max(float(np.nanmin(finite)), vmax - _SPAN_DB)
    out = _svg_open(width, height, title)
    fills = np.full(grid.shape, _INVALID_FILL)
    t = ((finite - vmin) / (vmax - vmin) if vmax > vmin
         else np.ones(finite.size))
    fills[grid.valid] = _ramp_colors(t)
    # one join per row of cells: each cell's x and end are fixed, its y
    # and fill are set per row
    parts = [""] * (4 * n_p)
    parts[0::4] = [f'<rect x="{_f(ml + ip * cell)}" y="' for ip in range(n_p)]
    parts[3::4] = ['"/>\n'] * (n_p - 1) + ['"/>']
    size = f'" width="{_f(cell)}" height="{_f(cell)}" fill="'
    for it, row in enumerate(fills.tolist()):
        parts[1::4] = [_f(mt + it * cell) + size] * n_p
        parts[2::4] = row
        out.append("".join(parts))
    out.append(f'<rect x="{_f(ml)}" y="{_f(mt)}" width="{_f(plot_w)}" '
               f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>')
    # axis ticks: phi every 60 deg, theta every 30 deg
    for tick, x in _ticks(grid.phi, grid.phi_step, 60, 360, ml, plot_w):
        out += _bottom_tick(x, mt + plot_h, f"{tick}")
    for tick, y in _ticks(grid.theta, grid.theta_step, 30, 180, mt, plot_h):
        out.append(f'<line x1="{_f(ml - 5)}" y1="{_f(y)}" x2="{_f(ml)}" '
                   f'y2="{_f(y)}" stroke="#000000"/>')
        out.append(f'<text x="{_f(ml - 8)}" y="{_f(y + 4)}" {_FONT} '
                   f'font-size="11" text-anchor="end">{tick}</text>')
    out += _axis_titles(ml, mt, plot_w, plot_h, height, "azimuth phi (deg)",
                        "elevation theta (deg)")
    # colorbar
    cb_x, cb_w, n_seg = ml + plot_w + 18, 14.0, 64
    seg_h = plot_h / n_seg
    colors = _ramp_colors(1.0 - (np.arange(n_seg) + 0.5) / n_seg)
    for s, fill in enumerate(colors.tolist()):
        y = mt + s * seg_h
        out.append(f'<rect x="{_f(cb_x)}" y="{_f(y)}" width="{_f(cb_w)}" '
                   f'height="{_f(seg_h + 0.5)}" fill="{fill}"/>')
    out.append(f'<rect x="{_f(cb_x)}" y="{_f(mt)}" width="{_f(cb_w)}" '
               f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>')
    for frac, val in ((0.0, vmax), (0.5, (vmax + vmin) / 2), (1.0, vmin)):
        y = mt + frac * plot_h
        out.append(f'<text x="{_f(cb_x + cb_w + 4)}" y="{_f(y + 4)}" {_FONT} '
                   f'font-size="11">{val:.1f}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _first_reach(a: np.ndarray, step: float) -> np.ndarray:
    """For each i, the first j with ``a[j] - a[i] >= step`` in floats, or
    len(a). ``a`` is ascending and finite, so that difference never falls
    as j grows: the first j with ``a[j] >= a[i] + step`` is moved past or
    back over whole runs of equal values until the test holds at j and
    fails before it."""
    n = len(a)
    with np.errstate(over="ignore"):
        j = np.searchsorted(a, a + step)
        while (low := (j < n) & (a[np.minimum(j, n - 1)] - a < step)).any():
            j[low] = np.searchsorted(a, a[j[low]], side="right")
        # j > i now, as a[i] - a[i] < step
        while (high := a[j - 1] - a >= step).any():
            j[high] = np.searchsorted(a, a[j[high] - 1])
    return j


def _kept(cdf: WeightedCDF) -> list[int]:
    """Indices of the step-curve samples drawn: the first, the last, and
    each sample at least 0.05 in value or 0.002 in mass past the last kept
    one, so the plot stays small but deterministic."""
    last = len(cdf.values) - 1
    nxt = np.minimum(np.minimum(_first_reach(cdf.values, 0.05),
                                _first_reach(cdf.cum_weights, 0.002)),
                     last).tolist()
    kept, k = [0], 0
    while k < last:
        k = nxt[k]
        kept.append(k)
    return kept


def _x_range(curves) -> tuple[float, float]:
    los, his = [], []
    for _, cdf in curves:
        vis = cdf.values[cdf.values > FLOOR_DB + 1.0]
        los.append(float(vis.min()) if vis.size else float(cdf.values.min()))
        his.append(float(cdf.values.max()))
    lo, hi = min(los), max(his)
    lo = 5.0 * np.floor(lo / 5.0)
    hi = 5.0 * np.ceil(hi / 5.0)
    return (lo, hi if hi > lo else lo + 5.0)


def _x_ticks(xlo: float, xhi: float) -> list[float]:
    """Tick values every 5 dB (10 dB past a 60 dB range) from ``xlo`` to
    ``xhi``; DataError when the range is empty or needs over _MAX_TICKS."""
    x_step = 5.0 if xhi - xlo <= 60 else 10.0
    n = (xhi - xlo) / x_step  # NaN or inf fails the check too
    if not 0 < n <= _MAX_TICKS:
        raise DataError(f"cannot plot a CDF from {xlo:g} to {xhi:g} in "
                        f"{x_step:g} dB ticks")
    return [xlo + k * x_step for k in range(int(n) + 1)]


def cdf_svg(curves, title: str, xlabel: str, gaussian=None) -> str:
    """Weighted CDF step curves; optionally one dashed Gaussian overlay.

    ``curves`` is a list of (label, WeightedCDF). The Gaussian, if given,
    is labeled with its mu and sigma.
    """
    ml, mt, mr, mb = 62.0, 36.0, 20.0, 50.0
    plot_w, plot_h = 560.0, 340.0
    width, height = ml + plot_w + mr, mt + plot_h + mb
    xlo, xhi = _x_range(curves)

    def sx(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * plot_w

    def sy(y: float) -> float:
        return mt + (1.0 - y) * plot_h

    out = _svg_open(width, height, title)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        out.append(f'<line x1="{_f(ml)}" y1="{_f(y)}" x2="{_f(ml + plot_w)}" '
                   f'y2="{_f(y)}" stroke="#cccccc"/>')
        out.append(f'<text x="{_f(ml - 6)}" y="{_f(y + 4)}" {_FONT} '
                   f'font-size="11" text-anchor="end">{frac:g}</text>')
    for tick in _x_ticks(xlo, xhi):
        out += _bottom_tick(sx(tick), mt + plot_h, f"{tick:g}")

    def entry(path: str, stroke: str, idx: int, label: str) -> list[str]:
        ly = mt + 16 + 16 * idx
        return [f'<polyline points="{path}" fill="none" {stroke}/>',
                f'<line x1="{_f(ml + 10)}" y1="{_f(ly - 4)}" '
                f'x2="{_f(ml + 34)}" y2="{_f(ly - 4)}" {stroke}/>',
                f'<text x="{_f(ml + 40)}" y="{_f(ly)}" {_FONT} '
                f'font-size="11">{html.escape(label, quote=False)}</text>']

    for idx, (label, cdf) in enumerate(curves):
        color = _CURVE_COLORS[idx % len(_CURVE_COLORS)]
        kept = _kept(cdf)
        m = len(kept)
        xs = sx(np.clip(cdf.values[kept], xlo, xhi))
        ys = sy(np.concatenate(([0.0], cdf.cum_weights[kept])))
        # vertices x_k,y_(k-1) x_k,y_k: each coordinate formatted once
        text = ("%.2f " * (2 * m + 1) % tuple(xs.tolist() + ys.tolist())
                ).split()
        args = [""] * (4 * m)
        args[0::4] = args[2::4] = text[:m]
        args[1::4], args[3::4] = text[m:-1], text[m + 1:]
        path = " ".join(["%s,%s %s,%s"] * m) % tuple(args)
        out += entry(path, f'stroke="{color}" stroke-width="1.5"', idx, label)
    if gaussian is not None:
        xs = np.linspace(xlo, xhi, 201)
        out += entry(_points(sx(xs), sy(gaussian.cdf(xs))),
                     'stroke="#000000" stroke-width="1.2" '
                     'stroke-dasharray="6 3"', len(curves),
                     f"gaussian fit (mu={gaussian.mu:.1f}, "
                     f"sigma={gaussian.sigma:.1f})")
    out.append(f'<rect x="{_f(ml)}" y="{_f(mt)}" width="{_f(plot_w)}" '
               f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>')
    out += _axis_titles(ml, mt, plot_w, plot_h, height, xlabel,
                        "cumulative probability")
    out.append("</svg>")
    return "\n".join(out) + "\n"
