"""Standalone SVG heatmaps for density grids.

Hand-rolled on purpose: no rendering dependency, deterministic output (fixed
float formatting, fixed attribute order), so emitted files are byte-stable
and diffable in review.  The singular line component, when present, is drawn
as an overlay on top of the continuous heat cells.
"""

from __future__ import annotations

import numpy as np

from .densities import DensityGrid
from .harness import write_text

# coarse viridis anchors, interpolated linearly in RGB
_VIRIDIS = np.array([
    (68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142), (33, 144, 141),
    (39, 173, 129), (92, 200, 99), (170, 220, 50), (253, 231, 37),
], dtype=float)


_RECT = '<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" fill="#%06x"/>'


def _colors(v: np.ndarray) -> np.ndarray:
    """Viridis colour of each value, clipped to [0, 1], packed as 0xRRGGBB.

    Channels round half to even (np.rint), as Python's round does.
    """
    x = np.clip(v, 0.0, 1.0) * (len(_VIRIDIS) - 1)
    i = np.minimum(x.astype(np.intp), len(_VIRIDIS) - 2)
    f = (x - i)[..., None]
    rgb = np.rint((1.0 - f) * _VIRIDIS[i] + f * _VIRIDIS[i + 1]).astype(np.int64)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def _rects(x, y, w, h, rgb) -> str:
    """One filled <rect> line per element of the equal-length arrays."""
    fields = [None] * (5 * len(rgb))
    for k, col in enumerate((x, y, w, h, rgb)):
        fields[k::5] = col.tolist()
    return (_RECT + "\n") * len(rgb) % tuple(fields)


def _fmt(x: float) -> str:
    return "%.6g" % x


def _svg_parts(grid: DensityGrid, title: str):
    """The lines of the heatmap document, yielded a line or, for the heat
    cells, one xi1 column of <rect>s at a time; each part ends in "\\n"."""
    width, height = 640, 480
    x0, y0, x1p, y1p = 70.0, 30.0, 540.0, 440.0
    bar_x0, bar_x1 = 565.0, 590.0
    xi1, xi2, vals = grid.xi1, grid.xi2, grid.values
    vmax = float(vals.max()) if vals.size else 1.0
    if vmax <= 0:
        vmax = 1.0

    def sx(u):  # xi1 on the horizontal axis
        return x0 + (u - xi1[0]) / (xi1[-1] - xi1[0]) * (x1p - x0)

    def sy(u):  # xi2 on the vertical axis, increasing upward
        return y1p - (u - xi2[0]) / (xi2[-1] - xi2[0]) * (y1p - y0)

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n'
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    if title:
        yield (f'<text x="{_fmt((x0 + x1p) / 2)}" y="20" font-size="14" '
               f'text-anchor="middle" font-family="monospace">{title}</text>\n')
    # cell centers own [midpoint, midpoint] rectangles
    xe = np.concatenate([[xi1[0]], (xi1[1:] + xi1[:-1]) / 2.0, [xi1[-1]]])
    ye = np.concatenate([[xi2[0]], (xi2[1:] + xi2[:-1]) / 2.0, [xi2[-1]]])
    xa, xb = sx(xe[:-1]), sx(xe[1:])
    ya, yb = sy(ye[1:]), sy(ye[:-1])
    rgb = _colors(vals / vmax)
    n2 = len(xi2)
    for i in range(len(xi1)):  # one block of n2 cells per xi1 column
        yield _rects(np.full(n2, xa[i]), ya, np.full(n2, xb[i] - xa[i]), yb - ya, rgb[i])
    # axes frame and min/max labels
    yield (f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1p - x0)}" '
           f'height="{_fmt(y1p - y0)}" fill="none" stroke="#000000"/>\n'
           f'<text x="{_fmt(x0)}" y="{_fmt(y1p + 16)}" font-size="11" '
           f'font-family="monospace">{_fmt(xi1[0])}</text>\n'
           f'<text x="{_fmt(x1p)}" y="{_fmt(y1p + 16)}" font-size="11" '
           f'text-anchor="end" font-family="monospace">{_fmt(xi1[-1])}</text>\n'
           f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y1p)}" font-size="11" '
           f'text-anchor="end" font-family="monospace">{_fmt(xi2[0])}</text>\n'
           f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y0 + 10)}" font-size="11" '
           f'text-anchor="end" font-family="monospace">{_fmt(xi2[-1])}</text>\n')
    # vertical colorbar
    n_seg = 32
    k = np.arange(n_seg)
    ya = y1p - (k + 1) / n_seg * (y1p - y0)
    yb = y1p - k / n_seg * (y1p - y0)
    yield _rects(np.full(n_seg, bar_x0), ya, np.full(n_seg, bar_x1 - bar_x0), yb - ya,
                 _colors((k + 0.5) / n_seg))
    yield (f'<rect x="{_fmt(bar_x0)}" y="{_fmt(y0)}" width="{_fmt(bar_x1 - bar_x0)}" '
           f'height="{_fmt(y1p - y0)}" fill="none" stroke="#000000"/>\n'
           f'<text x="{_fmt(bar_x1)}" y="{_fmt(y1p + 16)}" font-size="11" '
           f'text-anchor="end" font-family="monospace">0</text>\n'
           f'<text x="{_fmt(bar_x1 + 4)}" y="{_fmt(y0 + 10)}" font-size="11" '
           f'font-family="monospace" text-anchor="end">{_fmt(vmax)}</text>\n')
    # singular line overlay
    if grid.atom is not None and grid.atom.mass > 0:
        a = grid.atom
        if a.axis == "x2" and xi2[0] <= a.location <= xi2[-1]:
            yy = sy(a.location)
            yield (f'<line x1="{_fmt(x0)}" y1="{_fmt(yy)}" x2="{_fmt(x1p)}" y2="{_fmt(yy)}" '
                   f'stroke="#ff2222" stroke-width="2" stroke-dasharray="6,3"/>\n'
                   f'<text x="{_fmt(x1p - 4)}" y="{_fmt(yy - 5)}" font-size="11" fill="#ff2222" '
                   f'text-anchor="end" font-family="monospace">atom mass {_fmt(a.mass)}</text>\n')
        elif a.axis == "x1" and xi1[0] <= a.location <= xi1[-1]:
            xx = sx(a.location)
            yield (f'<line x1="{_fmt(xx)}" y1="{_fmt(y0)}" x2="{_fmt(xx)}" y2="{_fmt(y1p)}" '
                   f'stroke="#ff2222" stroke-width="2" stroke-dasharray="6,3"/>\n'
                   f'<text x="{_fmt(xx + 5)}" y="{_fmt(y0 + 12)}" font-size="11" fill="#ff2222" '
                   f'font-family="monospace">atom mass {_fmt(a.mass)}</text>\n')
    yield "</svg>\n"


def emit_svg_heatmap(grid: DensityGrid, path: str, title: str = "") -> str:
    """Write the heatmap SVG to `path`, a column of cells at a time; returns
    the document, byte-stable for fixed input."""
    try:
        return write_text(path, _svg_parts(grid, title))
    except OSError as exc:
        raise OSError(f"failed to write SVG heatmap to {path!r}: {exc}") from exc
