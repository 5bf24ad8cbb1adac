"""Minimal SVG rendering of the rectangle decomposition.

Source rectangles are solid fills colored by level; tilde rectangles are
drawn with a diagonal hatch. Grid coordinates grow rightward and upward
(x = p1-exponent), so y is flipped for SVG.
"""

from __future__ import annotations

from .tiling import Rectangle

_CELL = 12  # pixels per grid cell
_PALETTE = [
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
]


def _color(level: int) -> str:
    return _PALETTE[level % len(_PALETTE)]


def render_tiling_svg(rects: list[Rectangle], W: int, H: int) -> str:
    """SVG 1.1 document showing the rectangles clipped to [0, W) x [0, H)."""
    width_px = W * _CELL
    height_px = H * _CELL
    levels = sorted({r.level for r in rects if r.family.endswith("~")})
    defs = []
    for lvl in levels:
        defs.append(
            f'<pattern id="hatch{lvl}" width="6" height="6" '
            f'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
            f'<rect width="6" height="6" fill="white"/>'
            f'<line x1="0" y1="0" x2="0" y2="6" stroke="{_color(lvl)}" stroke-width="3"/>'
            f"</pattern>"
        )
    body = []
    for r in rects:
        x0, x1 = max(r.x_min, 0), min(r.x_max, W - 1)
        y0, y1 = max(r.y_min, 0), min(r.y_max, H - 1)
        if x0 > x1 or y0 > y1:
            continue
        px = x0 * _CELL
        py = (H - 1 - y1) * _CELL
        pw = (x1 - x0 + 1) * _CELL
        ph = (y1 - y0 + 1) * _CELL
        if r.family.endswith("~"):
            fill = f"url(#hatch{r.level})"
        else:
            fill = _color(r.level)
        body.append(
            f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="{fill}" '
            f'fill-opacity="0.75" stroke="black" stroke-width="1">'
            f"<title>{r.family} level={r.level} band={r.band}</title></rect>"
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        "<defs>" + "".join(defs) + "</defs>",
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="white"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
