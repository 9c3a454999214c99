"""The sweep's trade-off plot as a self-contained SVG document.

One plot: distortion mitigation on the left y-axis and the fraction of
content retained on the right, over the penalty strength on a shared log10
x-axis. Each is drawn as a line over a shaded band and labelled on its axis
and in the legend. Every x must be positive.

Kept deliberately small so experiment outputs depend on nothing but this
package; rendering is a pure function of the data (no timestamps), which
makes plot files byte-reproducible.
"""

from __future__ import annotations

import math

__all__ = ["render_plot"]

TITLE = "mitigation / retained-content trade-off"
XLABEL = "penalty strength"
# (label, colour) of the left-axis series, then of the right-axis one
SERIES = (("distortion mitigation", "#1f77b4"), ("fraction retained", "#e6a817"))


def _fmt(v) -> str:
    """A coordinate: a float at two decimals, an int as written."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _text(x, y, size: int, body: str, anchor: str | None = "middle",
          rotate: int | None = None) -> str:
    """A sans-serif <text> at (x, y), turned ``rotate`` degrees about it;
    ``anchor`` None leaves the text-anchor attribute out."""
    anchor_attr = "" if anchor is None else f' text-anchor="{anchor}"'
    turn = "" if rotate is None else f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"'
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} font-family="sans-serif" '
            f'font-size="{size}"{turn}>{body}</text>')


def _line(x1, y1, x2, y2, stroke: str = 'stroke="#333333"') -> str:
    """A <line> from (x1, y1) to (x2, y2) with the given stroke attributes."""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {stroke}/>')


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _axis_range(values):
    lo, hi = min(values), max(values)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_plot(xs, left, right) -> str:
    """Render the trade-off plot over ``xs`` to an SVG 1.1 document string.

    ``left`` and ``right`` are each ``(ys, lo, hi)``: a curve over ``xs`` and
    its shaded band, drawn on the left and the right axis.
    """
    width, height = 720, 440
    margin_l, margin_r, margin_t, margin_b = 64.0, 64.0, 36.0, 48.0
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    series = [(label, color, *band) for (label, color), band in zip(SERIES, (left, right))]

    x_lo, x_hi = _axis_range([math.log10(x) for x in xs])
    ranges = [_axis_range([*ys, *lo, *hi]) for _, _, ys, lo, hi in series]

    def px(log_x: float) -> float:
        return margin_l + (log_x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float, side: int) -> float:
        lo, hi = ranges[side]
        return margin_t + (1.0 - (y - lo) / (hi - lo)) * plot_h

    def points(xs, ys, side: int) -> list[str]:
        return [f"{_fmt(px(math.log10(x)))},{_fmt(py(y, side))}" for x, y in zip(xs, ys)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_fmt(margin_l)}" y="{_fmt(margin_t)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333" stroke-width="1"/>',
        _text(width / 2, 20, 14, TITLE),
    ]

    for tick in _ticks(x_lo, x_hi):
        parts.append(_line(px(tick), margin_t + plot_h, px(tick), margin_t + plot_h + 5))
        parts.append(_text(px(tick), margin_t + plot_h + 18, 11, f"{10 ** tick:.3g}"))
    parts.append(_text(margin_l + plot_w / 2, height - 10.0, 12, XLABEL))

    for side, (label, *_) in enumerate(series):
        lo, hi = ranges[side]
        edge = margin_l if side == 0 else margin_l + plot_w
        sign = -1.0 if side == 0 else 1.0
        anchor = "end" if side == 0 else "start"
        for tick in _ticks(lo, hi):
            y_px = py(tick, side)
            parts.append(_line(edge, y_px, edge + sign * 5, y_px))
            parts.append(_text(edge + sign * 8, y_px + 4, 11, f"{tick:.3g}", anchor))
        parts.append(_text(edge + sign * 50, margin_t + plot_h / 2, 12, label,
                           rotate=int(sign * 90)))

    for side, (_, color, _, lo, hi) in enumerate(series):
        band = points(xs, hi, side) + points(xs[::-1], lo[::-1], side)
        parts.append(f'<polygon points="{" ".join(band)}" '
                     f'fill="{color}" fill-opacity="0.18" stroke="none"/>')
    for side, (_, color, ys, _, _) in enumerate(series):
        parts.append(f'<polyline points="{" ".join(points(xs, ys, side))}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')

    for i, (label, color, *_) in enumerate(series):
        y = margin_t + 14 + 16 * i
        parts.append(_line(margin_l + 8, y - 4, margin_l + 28, y - 4,
                           f'stroke="{color}" stroke-width="2"'))
        parts.append(_text(margin_l + 34, y, 11, label, anchor=None))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
