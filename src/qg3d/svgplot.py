"""Minimal self-contained SVG line plots: axes, ticks, legend, polylines.

No rendering dependencies; output is deterministic for fixed input, which
lets tests assert on the markup directly.
"""

from __future__ import annotations

import math
from typing import Sequence
from html import escape

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_W, _H = 960, 600
_ML, _MR, _MT, _MB = 70, 170, 46, 56  # margins: left, right, top, bottom


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        pad = abs(lo) * 0.1 + 1.0
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 0.5 * step:
        ticks.append(round(value / step) * step)
        value += step
    return ticks or [lo, hi]


def render_line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
) -> str:
    """Return an SVG document plotting (label, xs, ys) triples as polylines."""
    xs_all = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi <= y_lo:
        pad = abs(y_hi) * 0.1 + 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="26" text-anchor="middle" '
            f'font-family="sans-serif" font-size="17">{escape(title, quote=False)}</text>'
        )

    for tick in _nice_ticks(x_lo, x_hi):
        if tick < x_lo - 1e-12 or tick > x_hi + 1e-12:
            continue
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick:.6g}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        if tick < y_lo - 1e-12 or tick > y_hi + 1e-12:
            continue
        y = py(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:.6g}</text>'
        )

    frame = (
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(frame)
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(xlabel, quote=False)}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">'
            f'{escape(ylabel, quote=False)}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        )
        parts.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.6" points="{points}"/>'
        )
        ly = _MT + 14 + idx * 18
        lx = _ML + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
