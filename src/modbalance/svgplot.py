"""The sweep's trade-off plot as a self-contained SVG document.

One plot: two series over a shared log10 x-axis, the first on the left
y-axis and the second on the right. Each is drawn as a line over a shaded
band and labelled on its axis and in the legend. Every x must be positive.

Kept deliberately small so experiment outputs depend on nothing but this
package; rendering is a pure function of the data (no timestamps), which
makes plot files byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "render_plot"]


@dataclass(frozen=True)
class Series:
    """One curve ``ys`` over ``xs`` with its shaded band from ``lo`` to ``hi``."""

    label: str
    xs: tuple
    ys: tuple
    lo: tuple
    hi: tuple
    color: str


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _axis_range(values):
    lo, hi = min(values), max(values)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_plot(left: Series, right: Series, title: str, xlabel: str) -> str:
    """Render ``left`` on the left axis and ``right`` on the right axis to an
    SVG 1.1 document string."""
    width, height = 720, 440
    margin_l, margin_r, margin_t, margin_b = 64.0, 64.0, 36.0, 48.0
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    series = (left, right)

    x_lo, x_hi = _axis_range([math.log10(x) for s in series for x in s.xs])
    ranges = [_axis_range([*s.ys, *s.lo, *s.hi]) for s in series]

    def px(x: float) -> float:
        return margin_l + (math.log10(x) - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float, side: int) -> float:
        lo, hi = ranges[side]
        return margin_t + (1.0 - (y - lo) / (hi - lo)) * plot_h

    def points(xs, ys, side: int) -> list[str]:
        return [f"{_fmt(px(x))},{_fmt(py(y, side))}" for x, y in zip(xs, ys)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_fmt(margin_l)}" y="{_fmt(margin_t)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    for tick in _ticks(x_lo, x_hi):
        x_px = margin_l + (tick - x_lo) / (x_hi - x_lo) * plot_w
        parts.append(
            f'<line x1="{_fmt(x_px)}" y1="{_fmt(margin_t + plot_h)}" '
            f'x2="{_fmt(x_px)}" y2="{_fmt(margin_t + plot_h + 5)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x_px)}" y="{_fmt(margin_t + plot_h + 18)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{10 ** tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(margin_l + plot_w / 2)}" y="{_fmt(height - 10)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
    )

    for side, s in enumerate(series):
        lo, hi = ranges[side]
        edge = margin_l if side == 0 else margin_l + plot_w
        sign = -1.0 if side == 0 else 1.0
        anchor = "end" if side == 0 else "start"
        for tick in _ticks(lo, hi):
            y_px = py(tick, side)
            parts.append(
                f'<line x1="{_fmt(edge)}" y1="{_fmt(y_px)}" '
                f'x2="{_fmt(edge + sign * 5)}" y2="{_fmt(y_px)}" stroke="#333333"/>'
            )
            parts.append(
                f'<text x="{_fmt(edge + sign * 8)}" y="{_fmt(y_px + 4)}" '
                f'text-anchor="{anchor}" font-family="sans-serif" '
                f'font-size="11">{tick:.3g}</text>'
            )
        x_lab = edge + sign * 50
        parts.append(
            f'<text x="{_fmt(x_lab)}" y="{_fmt(margin_t + plot_h / 2)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'transform="rotate({int(sign * 90)} {_fmt(x_lab)} '
            f'{_fmt(margin_t + plot_h / 2)})">{s.label}</text>'
        )

    for side, s in enumerate(series):
        band = points(s.xs, s.hi, side) + points(s.xs[::-1], s.lo[::-1], side)
        parts.append(
            f'<polygon points="{" ".join(band)}" '
            f'fill="{s.color}" fill-opacity="0.18" stroke="none"/>'
        )
    for side, s in enumerate(series):
        parts.append(
            f'<polyline points="{" ".join(points(s.xs, s.ys, side))}" fill="none" '
            f'stroke="{s.color}" stroke-width="2"/>'
        )

    legend_y = margin_t + 14
    for i, s in enumerate(series):
        y = legend_y + 16 * i
        parts.append(
            f'<line x1="{_fmt(margin_l + 8)}" y1="{_fmt(y - 4)}" '
            f'x2="{_fmt(margin_l + 28)}" y2="{_fmt(y - 4)}" '
            f'stroke="{s.color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l + 34)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
