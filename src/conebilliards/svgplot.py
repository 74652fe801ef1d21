"""Dependency-free SVG emission for the curve and trajectory figures."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    """Accumulates shapes in user coordinates and maps them to a viewport."""

    def __init__(self, width: int, height: int,
                 xlim: Tuple[float, float], ylim: Tuple[float, float]):
        self.width = width
        self.height = height
        self.xlim = xlim
        self.ylim = ylim
        self.elements: List[str] = []

    def _map(self, x: float, y: float) -> Tuple[float, float]:
        sx = self.width * (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        sy = self.height * (1.0 - (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0]))
        return sx, sy

    def polyline(self, points: Iterable[Sequence[float]], stroke: str = "#1f77b4",
                 width: float = 1.0, dashed: bool = False) -> None:
        mapped = [self._map(p[0], p[1]) for p in points]
        d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in mapped)
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        self.elements.append(
            f'<path d="{d}" fill="none" stroke="{stroke}" stroke-width="{width}"{dash}/>'
        )

    def text(self, x: float, y: float, s: str, size: int = 12) -> None:
        sx, sy = self._map(x, y)
        self.elements.append(
            f'<text x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="{size}" '
            f'font-family="monospace">{s}</text>'
        )

    def group(self, offset: Tuple[float, float] = (0.0, 0.0)) -> str:
        body = "\n".join(self.elements)
        if offset == (0.0, 0.0):
            return body
        return f'<g transform="translate({_fmt(offset[0])},{_fmt(offset[1])})">\n{body}\n</g>'


def document(panels: Sequence[Tuple[SvgCanvas, Tuple[float, float]]],
             width: int, height: int) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for canvas, offset in panels:
        parts.append(canvas.group(offset))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
