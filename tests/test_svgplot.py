"""Figure bytes against scalar renderers: the heatmap per cell, the CDF
step curve per sample."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamblock import svgplot
from beamblock.coverage import WeightedCDF
from beamblock.errors import DataError
from beamblock.grid import FLOOR_DB, Pattern, make_grid, with_invalid_band
from beamblock.svgplot import (_FONT, _INVALID_FILL, _RAMP, _f, _svg_open,
                               cdf_svg, heatmap_svg)


def _ramp_color(t: float) -> str:
    """One color of the ramp, computed in Python floats."""
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    rgb = [(1 - frac) * a + frac * b for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)


def _scalar_heatmap(pattern, title):
    """heatmap_svg with one _ramp_color call and one f-string per cell."""
    grid = pattern.grid
    n_t, n_p = grid.shape
    cell = max(720.0 / n_p, 4.0)
    ml, mt, mr, mb = 60.0, 36.0, 86.0, 48.0
    plot_w, plot_h = n_p * cell, n_t * cell
    width, height = ml + plot_w + mr, mt + plot_h + mb
    vmax = pattern.max_value()
    finite = pattern.values[grid.valid]
    vmin = max(float(np.nanmin(finite)), vmax - 40.0)
    out = _svg_open(width, height, title)
    for it in range(n_t):
        for ip in range(n_p):
            x, y = ml + ip * cell, mt + it * cell
            if not grid.valid[it, ip]:
                fill = _INVALID_FILL
            else:
                v = pattern.values[it, ip]
                t = (v - vmin) / (vmax - vmin) if vmax > vmin else 1.0
                fill = _ramp_color(t)
            out.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(cell)}" '
                       f'height="{_f(cell)}" fill="{fill}"/>')
    out.append(f'<rect x="{_f(ml)}" y="{_f(mt)}" width="{_f(plot_w)}" '
               f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>')
    phi0 = grid.phi[0] - grid.phi_step / 2.0
    phi_span = n_p * grid.phi_step
    for tick in range(0, 361, 60):
        if not phi0 <= tick <= phi0 + phi_span:
            continue
        x = ml + (tick - phi0) / phi_span * plot_w
        out.append(f'<line x1="{_f(x)}" y1="{_f(mt + plot_h)}" x2="{_f(x)}" '
                   f'y2="{_f(mt + plot_h + 5)}" stroke="#000000"/>')
        out.append(f'<text x="{_f(x)}" y="{_f(mt + plot_h + 18)}" {_FONT} '
                   f'font-size="11" text-anchor="middle">{tick}</text>')
    th0 = grid.theta[0] - grid.theta_step / 2.0
    th_span = n_t * grid.theta_step
    for tick in range(0, 181, 30):
        if not th0 <= tick <= th0 + th_span:
            continue
        y = mt + (tick - th0) / th_span * plot_h
        out.append(f'<line x1="{_f(ml - 5)}" y1="{_f(y)}" x2="{_f(ml)}" '
                   f'y2="{_f(y)}" stroke="#000000"/>')
        out.append(f'<text x="{_f(ml - 8)}" y="{_f(y + 4)}" {_FONT} '
                   f'font-size="11" text-anchor="end">{tick}</text>')
    out.append(f'<text x="{_f(ml + plot_w / 2)}" y="{_f(height - 12)}" '
               f'{_FONT} font-size="12" text-anchor="middle">'
               'azimuth phi (deg)</text>')
    out.append(f'<text x="14" y="{_f(mt + plot_h / 2)}" {_FONT} '
               f'font-size="12" text-anchor="middle" transform="rotate(-90 '
               f'14 {_f(mt + plot_h / 2)})">elevation theta (deg)</text>')
    cb_x, cb_w, n_seg = ml + plot_w + 18, 14.0, 64
    seg_h = plot_h / n_seg
    for s in range(n_seg):
        t = 1.0 - (s + 0.5) / n_seg
        y = mt + s * seg_h
        out.append(f'<rect x="{_f(cb_x)}" y="{_f(y)}" width="{_f(cb_w)}" '
                   f'height="{_f(seg_h + 0.5)}" fill="{_ramp_color(t)}"/>')
    out.append(f'<rect x="{_f(cb_x)}" y="{_f(mt)}" width="{_f(cb_w)}" '
               f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>')
    for frac, val in ((0.0, vmax), (0.5, (vmax + vmin) / 2), (1.0, vmin)):
        y = mt + frac * plot_h
        out.append(f'<text x="{_f(cb_x + cb_w + 4)}" y="{_f(y + 4)}" {_FONT} '
                   f'font-size="11">{val:.1f}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def test_ramp_colors_match_scalar_ramp():
    knots = np.arange(len(_RAMP)) / (len(_RAMP) - 1)
    t = np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        1.0 - (np.arange(64) + 0.5) / 64,  # the colorbar segment centers
        [-1e300, -1.0, -1e-300, -0.0, 1.5, 1e300],
        np.linspace(-0.25, 1.25, 100_001)])
    got = svgplot._ramp_colors(t)
    want = np.array([_ramp_color(x) for x in t.tolist()])
    bad = np.flatnonzero(got != want)[:5]  # a short report, not a diff
    assert not bad.size, list(zip(t[bad], got[bad], want[bad]))


def _band_grid():
    # long axis reprs (7.2 * k) and an interior invalid band
    return with_invalid_band(make_grid(7.2, 3.6, 176.4), 80.0, 100.0)


def _random_db(grid, lo, hi, seed):
    return np.random.default_rng(seed).uniform(lo, hi, grid.shape)


def _floored(lo, hi):
    def values(grid):
        out = _random_db(grid, lo, hi, 3)
        out.flat[::7] = -300.0  # below FLOOR_DB: stored as the floor
        return out
    return values


@pytest.mark.parametrize("values", [
    lambda g: _random_db(g, -90.0, 10.0, 1),  # t clipped below 0
    lambda g: np.full(g.shape, -20.0),  # vmax == vmin
    _floored(-30.0, -10.0),
    _floored(-195.0, -170.0),  # within the 40 dB span: vmin is FLOOR_DB
], ids=["clipped", "constant", "floored", "floored-wide-span"])
def test_heatmap_bytes_match_scalar_renderer(values):
    grid = _band_grid()
    pattern = Pattern.from_values(grid, values(grid))
    got = heatmap_svg(pattern, "t <&>").split("\n")
    want = _scalar_heatmap(pattern, "t <&>").split("\n")
    for k, (line, expected) in enumerate(zip(got, want)):
        assert line == expected, f"line {k}"  # a short report, not a diff
    assert len(got) == len(want)


def _thin_steps(cdf):
    """Step-curve vertices of the kept samples, one sample at a time: the
    first and last, and each at least 0.05 in value or 0.002 in mass past
    the last kept one."""
    pts = []
    last_x, last_y = None, 0.0
    values = cdf.values.tolist()
    for i, (x, y) in enumerate(zip(values, cdf.cum_weights.tolist())):
        if last_x is not None and x - last_x < 0.05 and y - last_y < 0.002 \
                and i < len(values) - 1:
            continue
        pts.append((x, last_y))
        pts.append((x, y))
        last_x, last_y = x, y
    return pts


def _scalar_polyline(cdf, xlo, xhi):
    """The points of cdf_svg's curve for ``cdf``, two floats per vertex."""
    return " ".join(
        f"{62.0 + (min(max(x, xlo), xhi) - xlo) / (xhi - xlo) * 560.0:.2f},"
        f"{36.0 + (1.0 - y) * 340.0:.2f}" for x, y in _thin_steps(cdf))


@st.composite
def _cdfs(draw):
    """Ascending values on a grid of 0.05 or 0.01 dB, some across 0, so
    differences land on and around 0.05 in floats, with ties, an optional
    FLOOR_DB run and +-1e300 ends; integer weights with zero runs over a
    total that is often 500, so mass steps land on and around 0.002."""
    n = draw(st.integers(1, 120))
    unit = draw(st.sampled_from([0.05, 0.01, 0.15, 1.0]))
    base = draw(st.sampled_from([0.0, -17.3, 41.05, FLOOR_DB])
                | st.floats(-0.1, 0.1))
    ks = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    values = np.sort(base + unit * np.array(ks, dtype=float))
    values[:draw(st.integers(0, n // 2))] = FLOOR_DB
    values.sort()
    if draw(st.booleans()):
        values[0] = -1e300
    if n > 1 and draw(st.integers(0, 3)) == 0:
        values[-1] = 1e300
    w = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 5]),
                               min_size=n, max_size=n)), dtype=float)
    if w.sum() == 0:
        w[-1] = 1.0
    if draw(st.booleans()):  # mass in units of 1/500
        w = np.floor(w / w.sum() * 500.0)
        w[-1] += 500.0 - w.sum()
    c = np.cumsum(w)
    return WeightedCDF(values, c / c[-1])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cdfs())
@example(WeightedCDF(np.array([3.0]), np.array([1.0])))
@example(WeightedCDF(np.array([0.1, 0.15, 0.2, 0.25]),  # steps of 0.05-
                     np.array([0.25, 0.5, 0.75, 1.0])))
@example(WeightedCDF(np.array([1.0, 1.0, 1.0]),  # 0.002 in floats
                     np.cumsum([0.998, 0.001, 0.001])))
@example(WeightedCDF(np.array([-0.03, 0.02, 0.021]),  # 0.02 - -0.03 is
                     np.array([0.5, 0.5005, 1.0])))  # 0.05, -0.03 + 0.05 more
def test_cdf_curve_matches_scalar_decimation(cdf):
    kept = svgplot._kept(cdf)
    assert _thin_steps(cdf)[1::2] == list(zip(
        cdf.values[kept].tolist(), cdf.cum_weights[kept].tolist()))
    xlo, xhi = svgplot._x_range([("a", cdf)])
    try:
        svg = cdf_svg([("a", cdf)], "t", "x")
    except DataError:  # an empty x range, or one of over 1,000 ticks
        assert not 0 < xhi - xlo <= 10.0 * svgplot._MAX_TICKS
        return
    line = next(x for x in svg.split("\n") if x.startswith("<polyline"))
    assert line.split('"')[1] == _scalar_polyline(cdf, xlo, xhi)
