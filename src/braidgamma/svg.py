"""Deterministic SVG frames of planar choreographies.

Exact positions are evaluated at a rational time and converted to floats for
display only; for a fixed input the byte output is identical across runs (no
ids, no timestamps, fixed formatting).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .geom2d import Choreography, circumcenter

_W = 640
_H = 480
_MARGIN = 0.06


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_frame(ch: Choreography, t, circle: tuple[int, int, int] | None = None) -> bytes:
    """One frame at global rational time t, optionally with a circumcircle."""
    if not isinstance(ch, Choreography) or ch.dim != 2:
        raise ValidationError("rendering is only defined for planar choreographies")
    pts = ch.position(Fraction(t))
    xs = [float(p.x) for p in pts]
    ys = [float(p.y) for p in pts]

    overlay = None
    if circle is not None:
        j, p, q = circle
        for k in (j, p, q):
            if not 1 <= k <= ch.n:
                raise ValidationError(f"circle index {k} outside 1..{ch.n}")
        center = circumcenter(pts[j - 1], pts[p - 1], pts[q - 1])
        r2 = (pts[j - 1].x - center.x) ** 2 + (pts[j - 1].y - center.y) ** 2
        overlay = (float(center.x), float(center.y), math.sqrt(float(r2)))
        xs += [overlay[0] - overlay[2], overlay[0] + overlay[2]]
        ys += [overlay[1] - overlay[2], overlay[1] + overlay[2]]

    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    scale = min(_W * (1 - 2 * _MARGIN) / span_x, _H * (1 - 2 * _MARGIN) / span_y)

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = _W * _MARGIN + (x - min_x) * scale
        py = _H - (_H * _MARGIN + (y - min_y) * scale)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if overlay is not None:
        cx, cy = to_px(overlay[0], overlay[1])
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(overlay[2] * scale)}" '
            f'fill="none" stroke="#cc3333" stroke-width="1.5"/>'
        )
    for k, p in enumerate(pts, start=1):
        px, py = to_px(float(p.x), float(p.y))
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#222266"/>')
        parts.append(
            f'<text x="{_fmt(px + 6)}" y="{_fmt(py - 6)}" font-size="12" '
            f'font-family="monospace">{k}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
