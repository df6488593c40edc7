"""Hand-emitted SVG scatter/line plots for the three figure archetypes.

No plotting dependency: fixed 800x600 viewBox, polylines, circles and
text only. Output is a pure function of the input records (no
timestamps, no environment lookups), so identical runs produce identical
bytes.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Sequence

WIDTH = 800.0
HEIGHT = 600.0
MARGIN_LEFT = 72.0
MARGIN_RIGHT = 24.0
MARGIN_TOP = 24.0
MARGIN_BOTTOM = 56.0


def _num(value: float) -> str:
    return format(value, ".2f")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Canvas:
    """Linear data-to-pixel mapping plus an element buffer.

    The ticks come from the data ranges as given; an empty range is
    widened by one for the mapping only, and gets a single tick.
    """

    def __init__(self, x_min, x_max, y_min, y_max):
        self.x_ticks = _ticks(x_min, x_max)
        self.y_ticks = _ticks(y_min, y_max)
        if x_max <= x_min:
            x_max = x_min + 1.0
        if y_max <= y_min:
            y_max = y_min + 1.0
        self.x_min, self.x_max = float(x_min), float(x_max)
        self.y_min, self.y_max = float(y_min), float(y_max)
        self.parts: list[str] = []

    def x(self, v: float) -> float:
        span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        return MARGIN_LEFT + (v - self.x_min) / (self.x_max - self.x_min) * span

    def y(self, v: float) -> float:
        span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return HEIGHT - MARGIN_BOTTOM - (v - self.y_min) / (self.y_max - self.y_min) * span

    def polyline(self, points, stroke, width=1.5, dash=None):
        if len(points) < 2:
            return
        coords = " ".join(
            "%s,%s" % (_num(self.x(px)), _num(self.y(py))) for px, py in points
        )
        dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
        self.parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="%s"%s points="%s"/>'
            % (stroke, _num(width), dash_attr, coords)
        )

    def circle(self, px, py, r, fill):
        self.parts.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s"/>'
            % (_num(self.x(px)), _num(self.y(py)), _num(r), fill)
        )

    def text(self, x_px, y_px, content, size=13, anchor="middle"):
        self.parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="%d" '
            'text-anchor="%s">%s</text>' % (_num(x_px), _num(y_px), size, anchor, content)
        )

    def axes(self, x_label: str, y_label: str):
        x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
        y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
        self.parts.append(
            '<path fill="none" stroke="black" stroke-width="1" d="M %s %s L %s %s L %s %s"/>'
            % (_num(x0), _num(y1), _num(x0), _num(y0), _num(x1), _num(y0))
        )
        for tick in self.x_ticks:
            px = self.x(tick)
            self.parts.append(
                '<line stroke="black" stroke-width="1" x1="%s" y1="%s" x2="%s" y2="%s"/>'
                % (_num(px), _num(y0), _num(px), _num(y0 + 5))
            )
            self.text(px, y0 + 20, format(tick, ".4g"), size=11)
        for tick in self.y_ticks:
            py = self.y(tick)
            self.parts.append(
                '<line stroke="black" stroke-width="1" x1="%s" y1="%s" x2="%s" y2="%s"/>'
                % (_num(x0 - 5), _num(py), _num(x0), _num(py))
            )
            self.text(x0 - 9, py + 4, format(tick, ".4g"), size=11, anchor="end")
        self.text((x0 + x1) / 2, HEIGHT - 14, x_label)
        self.parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="13" '
            'text-anchor="middle" transform="rotate(-90 %s %s)">%s</text>'
            % (_num(18.0), _num((y0 + y1) / 2), _num(18.0), _num((y0 + y1) / 2), y_label)
        )

    def render(self, fh: IO[str]) -> None:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" '
            'width="%d" height="%d">\n' % (WIDTH, HEIGHT, WIDTH, HEIGHT)
        )
        fh.write('<rect width="%d" height="%d" fill="white"/>\n' % (WIDTH, HEIGHT))
        for part in self.parts:
            fh.write(part)
            fh.write("\n")
        fh.write("</svg>\n")


def render_scan_svg(records: Iterable, fh: IO[str]) -> None:
    """Sup-norm sweep: data points, the two envelope curves, and the
    trivial lower bound, with the short-period moduli highlighted."""
    rows = [r for r in records if r.error is None and r.max_supnorm is not None]
    if not rows:
        raise ValueError("no plottable scan records")
    xs = [r.N for r in rows]
    finite = [
        v
        for r in rows
        for v in (r.max_supnorm, r.lower_env, r.upper_env, r.trivial_lb)
        if v is not None and math.isfinite(v)
    ]
    canvas = _Canvas(min(xs), max(xs), 0.0, 1.05 * max(finite))
    for attr, stroke, dash in (
        ("trivial_lb", "blue", "4 4"),
        ("lower_env", "red", None),
        ("upper_env", "red", None),
    ):
        points = [
            (r.N, getattr(r, attr)) for r in rows if math.isfinite(getattr(r, attr))
        ]
        canvas.polyline(points, stroke=stroke, dash=dash)
    for r in rows:
        canvas.circle(r.N, r.max_supnorm, 2.0, "black")
    for r in rows:
        if r.is_bdb:
            canvas.circle(r.N, r.max_supnorm, 4.5, "red")
    canvas.axes("N", "max sup norm")
    canvas.render(fh)


def render_dispersive_svg(records: Iterable, fh: IO[str]) -> None:
    """Power-norm decay curve of one N with the dispersive bound overlay."""
    rows = sorted(
        (r for r in records if r.error is None and r.norm_1_inf is not None),
        key=lambda r: r.j,
    )
    if not rows:
        raise ValueError("no plottable dispersive records")
    bound_points = [
        (r.j, r.bound) for r in rows if r.bound is not None and math.isfinite(r.bound)
    ]
    top = 1.05 * max([r.norm_1_inf for r in rows] + [bound for _, bound in bound_points])
    canvas = _Canvas(rows[0].j, rows[-1].j, 0.0, top)
    canvas.polyline([(r.j, r.norm_1_inf) for r in rows], stroke="black")
    for r in rows:
        canvas.circle(r.j, r.norm_1_inf, 2.0, "black")
    canvas.polyline(bound_points, stroke="red", dash="6 3")
    canvas.axes("j", "power norm (max entry)")
    canvas.render(fh)


def render_profile_svg(profile: Sequence[float], fh: IO[str]) -> None:
    """Eigenfunction coordinate profile: |u_i| against i."""
    values = [float(v) for v in profile]
    if not values:
        raise ValueError("empty profile")
    top = 1.05 * max(values)
    canvas = _Canvas(0, max(len(values) - 1, 1), 0.0, top if top > 0 else 1.0)
    for i, v in enumerate(values):
        canvas.circle(i, v, 1.8, "black")
    canvas.axes("coordinate", "|u_i|")
    canvas.render(fh)
