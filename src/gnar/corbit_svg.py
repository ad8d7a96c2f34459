"""Radial SVG plots of autocorrelation grids.

Each lag occupies one angular position (lag 1 at twelve o'clock, increasing
clockwise) and each stage one ring, innermost ring for stage 1.  Point
colour comes from a diverging scale anchored at -1/0/+1 and point radius
grows with the absolute value; degenerate cells render hollow.  The
community variant surrounds each cell's across-community mean with a small
circle of per-community points.  Every data point carries machine-readable
``data-*`` attributes, and output is byte deterministic for identical
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .autocorr import CorbitGrid
from .errors import GnarError

_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


@dataclass(frozen=True)
class RenderOptions:
    """Canvas size; the layout and the colour scale are fixed.

    The diverging scale interpolates ``colour_neg`` -> ``colour_zero`` ->
    ``colour_pos`` linearly in RGB over [-1, 0] and [0, 1].
    """

    size: int = 640
    inner_radius: ClassVar[float] = 70.0
    ring_gap: ClassVar[float] = 46.0
    point_radius_min: ClassVar[float] = 2.5
    point_radius_max: ClassVar[float] = 9.0
    cluster_radius: ClassVar[float] = 11.0
    label_offset: ClassVar[float] = 30.0
    label_font_size: ClassVar[float] = 13.0
    colour_neg: ClassVar[str] = "#2166ac"
    colour_zero: ClassVar[str] = "#f7f7f7"
    colour_pos: ClassVar[str] = "#b2182b"

    def __post_init__(self):
        if self.size <= 0:
            raise GnarError("render dimensions must be positive")


def _hex_rgb(colour: str) -> tuple[int, int, int]:
    colour = colour.lstrip("#")
    return int(colour[0:2], 16), int(colour[2:4], 16), int(colour[4:6], 16)


def value_colour(v: float, opts: RenderOptions) -> str:
    """Diverging colour for a value clipped to [-1, 1]."""
    v = max(-1.0, min(1.0, v))
    if v < 0:
        a, b, t = _hex_rgb(opts.colour_zero), _hex_rgb(opts.colour_neg), -v
    else:
        a, b, t = _hex_rgb(opts.colour_zero), _hex_rgb(opts.colour_pos), v
    rgb = tuple(round(x + (y - x) * t) for x, y in zip(a, b))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _fmt(x: float) -> str:
    return format(x, ".3f")


def _angle(h: int, H: int) -> float:
    """Angle in radians for lag h; twelve o'clock start, clockwise."""
    return math.radians(-90.0 + (h - 1) * 360.0 / H)


def _point(cls: str, x: float, y: float, v: float, degenerate: bool,
           opts: RenderOptions, extra: str) -> str:
    v, degenerate = float(v), bool(degenerate)
    radius = opts.point_radius_min + (opts.point_radius_max - opts.point_radius_min) \
        * min(abs(v), 1.0)
    if degenerate:
        fill, stroke = "none", "#888888"
    else:
        fill, stroke = value_colour(v, opts), "#555555"
    return (f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="0.8"{extra} '
            f'data-value="{v!r}" data-degenerate="{int(degenerate)}"/>')


def _render(grid: CorbitGrid, opts: RenderOptions, name: str,
            labels: tuple[str, ...]) -> str:
    """Rings and one centre point per cell: the value, or with ``labels`` the community mean."""
    H, R, C = grid.max_lag, grid.max_stage, len(labels)
    if labels:
        centre, centre_deg, centre_cls = grid.mean_values, grid.mean_degenerate, "rcorbit-mean"
    else:
        centre, centre_deg, centre_cls = grid.values, grid.degenerate, f"{name}-point"
    radii = [opts.inner_radius + (r - 1) * opts.ring_gap for r in range(1, R + 1)]
    outer = opts.inner_radius + (R - 1) * opts.ring_gap + (opts.cluster_radius if labels else 0.0)
    label_radius = outer + opts.label_offset
    s = opts.size
    cx = s / 2.0
    if label_radius + opts.label_font_size > cx - 2.0:
        raise GnarError(f"layout radius {label_radius:.0f} overflows a {s}px canvas; "
                        "increase size or reduce ring spacing")
    font = _fmt(opts.label_font_size)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{s}" height="{s}" viewBox="0 0 {s} {s}">',
        f"<title>{name} {grid.kind}</title>",
        f'<rect class="background" x="0" y="0" width="{s}" height="{s}" fill="#ffffff"/>',
    ]
    labels = [label.translate(_XML_ESCAPES) for label in labels]
    parts += [f'<text class="legend-label" x="10" '
              f'y="{_fmt(18.0 + ci * (opts.label_font_size + 4.0))}" '
              f'font-size="{font}">{label}</text>' for ci, label in enumerate(labels)]
    parts += [f'<circle class="ring-guide" cx="{_fmt(cx)}" cy="{_fmt(cx)}" r="{_fmt(radius)}" '
              f'fill="none" stroke="#cccccc" stroke-width="1"/>' for radius in radii]
    for h in range(1, H + 1):
        ang = _angle(h, H)
        x = cx + label_radius * math.cos(ang)
        y = cx + label_radius * math.sin(ang)
        parts.append(f'<text class="lag-label" x="{_fmt(x)}" y="{_fmt(y)}" '
                     f'text-anchor="middle" dominant-baseline="middle" '
                     f'font-size="{font}">{h}</text>')
    parts.append(f'<circle class="zero-marker" cx="{_fmt(cx)}" cy="{_fmt(cx)}" r="3.0" '
                 f'fill="{value_colour(0.0, opts)}" stroke="#888888" stroke-width="1"/>')
    for h in range(1, H + 1):
        ang = _angle(h, H)
        for r, radius in enumerate(radii, start=1):
            x = cx + radius * math.cos(ang)
            y = cx + radius * math.sin(ang)
            cell = f' data-lag="{h}" data-stage="{r}"'
            parts.append(_point(centre_cls, x, y, centre[h - 1, r - 1],
                                centre_deg[h - 1, r - 1], opts, cell))
            for ci, label in enumerate(labels):
                cang = math.radians(-90.0 + ci * 360.0 / C)
                parts.append(_point("rcorbit-point", x + opts.cluster_radius * math.cos(cang),
                                    y + opts.cluster_radius * math.sin(cang),
                                    grid.values[ci, h - 1, r - 1],
                                    grid.degenerate[ci, h - 1, r - 1], opts,
                                    f'{cell} data-community="{label}"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_corbit(grid: CorbitGrid, opts: RenderOptions = RenderOptions()) -> str:
    """SVG text for a plain (no-community) autocorrelation grid."""
    if grid.has_communities:
        raise GnarError("grid carries communities; use render_rcorbit")
    return _render(grid, opts, "corbit", ())


def render_rcorbit(grid: CorbitGrid, opts: RenderOptions = RenderOptions()) -> str:
    """SVG text for a community grid: per-cell community circles plus means."""
    if not grid.has_communities:
        raise GnarError("grid has no communities; use render_corbit")
    if len(grid.communities) < 2:
        raise GnarError("community plots need at least two communities")
    return _render(grid, opts, "rcorbit", grid.communities)
