"""Minimal static SVG plot emitter.

Good enough for the scan-contour and trend figures: one axes box, tick
labels, a polyline (optionally with markers) per series, and a legend.  A
plot writes only its SVG; the numbers behind a study's figures are in its
tables (``points.txt``, ``trends.txt``) and point records.
"""

from dataclasses import dataclass
import math
from pathlib import Path

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# figure size in pixels
_WIDTH, _HEIGHT = 640, 420


@dataclass(frozen=True)
class Series:
    """One named curve, drawn in the next colour of the palette."""

    name: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False
    markers: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError(f"series {self.name!r}: x and y must be matching 1-d arrays")
        if self.x.size == 0:
            raise ValueError(f"series {self.name!r}: empty series")


def _ticks(lo, hi):
    """Round tick values on [lo, hi], lo < hi: the distinct i * step within 1e-12 of the span for
    the n + 2 = 7 integers i from ceil(lo / step); the step is a power of ten times 1, 2, 5 or 10
    and fits at most n + 1 = 6 times in the span."""
    n = 5
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n + 1:
            step *= mult
            break
    first = math.ceil(lo / step)
    ticks = (i * step for i in range(first, first + n + 2))
    return sorted({v for v in ticks if max(lo - v, v - hi) <= 1e-12 * span})


def _fmt(v):
    return f"{v:.6g}"


def emit_plot(series, path, title: str = "", xlabel: str = "", ylabel: str = "") -> Path:
    """Write a 640 x 420 SVG figure of the series; returns its path.

    Raises ValueError, naming the axis and the path, when the finite values
    on an axis (the y axis padded by 6% at each end) span more than the
    largest float."""
    if not series:
        raise ValueError("no series to plot")
    path = Path(path)
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not np.any(finite):
        raise ValueError("all series values are non-finite")
    xlo, xhi = float(xs[finite].min()), float(xs[finite].max())
    ylo, yhi = float(ys[finite].min()), float(ys[finite].max())
    if xlo == xhi:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if ylo == yhi:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad_y = 0.06 * (yhi - ylo)
    ylo, yhi = ylo - pad_y, yhi + pad_y
    for axis, label, lo, hi in (("x", xlabel, xlo, xhi), ("y", ylabel, ylo, yhi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"{path}: the {axis} axis ({label or 'unlabelled'}) spans "
                             f"{lo!r} to {hi!r}, which is not a finite float span")
    ml, mr, mt, mb = 64, 16, 28, 46
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return mt + (yhi - y) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
           'stroke="black" stroke-width="1"/>']
    if title:
        out.append(f'<text x="{_WIDTH / 2}" y="{mt - 10}" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    for tx in _ticks(xlo, xhi):
        out.append(f'<line x1="{px(tx):.1f}" y1="{mt + ph}" x2="{px(tx):.1f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(tx):.1f}" y="{mt + ph + 18}" '
                   f'text-anchor="middle" font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        out.append(f'<line x1="{ml - 5}" y1="{py(ty):.1f}" x2="{ml}" '
                   f'y2="{py(ty):.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py(ty) + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{_fmt(ty)}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2}" y="{_HEIGHT - 8}" '
                   f'text-anchor="middle" font-size="12">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{mt + ph / 2}" text-anchor="middle" '
                   f'font-size="12" transform="rotate(-90 14 {mt + ph / 2})">'
                   f'{ylabel}</text>')
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        ok = np.isfinite(s.x) & np.isfinite(s.y)
        xy = list(zip(px(s.x[ok]).tolist(), py(s.y[ok]).tolist()))
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in xy)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        if s.markers:
            out.extend(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>'
                       for a, b in xy)
        out.append(f'<text x="{ml + pw - 6}" y="{mt + 16 + 14 * i}" '
                   f'text-anchor="end" font-size="11" fill="{color}">{s.name}</text>')
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n")
    return path
