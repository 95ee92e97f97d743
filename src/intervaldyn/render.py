"""Self-contained SVG rendering of cobweb diagrams.

Documents are SVG 1.1 with viewBox 0 0 1000 1000 and no external
references. A cobweb figure carries the axes, the y = x diagonal, the
map's graph sampled at 1000 points (less those where the map raises or
overflows), and the cobweb polyline itself; the polyline has exactly
2*steps + 1 points. Output is generated with fixed formatting so
identical inputs give byte-identical documents; cobweb_svg returns a
document as a list of string pieces.
"""

from __future__ import annotations

import math

from .analysis import CobwebPath
from .errors import DomainError
from .interval import linspace
from .maps import MapDescriptor, eval_map

VIEW = 1000.0
GRAPH_SAMPLES = 1000
# points per formatted block of a polyline: one string per point is held
# for one block at a time, never for a whole path
BLOCK = 4096


def _window(m: MapDescriptor, path: CobwebPath) -> tuple[float, float]:
    data = [c for p in path.points for c in p]
    dom = m.domain()
    if dom.bounded:
        lo, hi = min(dom.lo, min(data)), max(dom.hi, max(data))
    else:
        lo, hi = min(data), max(data)
    if not math.isfinite(hi - lo):  # an orbit reaching an infinity, or overflowing spread
        raise DomainError(f"cannot draw the cobweb window [{lo!r}, {hi!r}]: it is not finite")
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def cobweb_svg(m: MapDescriptor, path: CobwebPath) -> list[str]:
    """Render a cobweb path over the map's graph as an SVG document, in
    pieces: "".join(cobweb_svg(m, path)) is the document."""
    lo, hi = _window(m, path)
    span = hi - lo
    graph_pts = []
    for x in linspace(lo, hi, GRAPH_SAMPLES):
        try:
            y = eval_map(m, x)
        except DomainError:
            continue
        # an overflowing value is left out like a raising one
        if math.isfinite(VIEW - (y - lo) / span * VIEW):
            graph_pts.append((x, y))

    def polyline(points, stroke: str, width: str, cls: str) -> list[str]:
        pieces = [f'<polyline class="{cls}" fill="none" stroke="{stroke}" '
                  f'stroke-width="{width}" points="']
        for start in range(0, len(points), BLOCK):
            if start:
                pieces.append(" ")
            # view coordinates (x - lo) / span * VIEW and VIEW - (y - lo) / span * VIEW;
            # precomputing VIEW / span would change last bits, and so .4f digits
            pieces.append(" ".join([f"{(x - lo) / span * VIEW:.4f},"
                                    f"{VIEW - (y - lo) / span * VIEW:.4f}"
                                    for x, y in points[start:start + BLOCK]]))
        pieces.append('"/>\n')
        return pieces

    head = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000" width="1000" height="1000">',
        '<rect x="0" y="0" width="1000" height="1000" fill="#ffffff"/>',
        # axes along the left and bottom edges
        '<line class="axis" x1="0" y1="1000" x2="1000" y2="1000" stroke="#000000" stroke-width="2"/>',
        '<line class="axis" x1="0" y1="0" x2="0" y2="1000" stroke="#000000" stroke-width="2"/>',
        # the diagonal y = x
        '<line class="diagonal" x1="0" y1="1000" x2="1000" y2="0" stroke="#888888" stroke-width="1"/>',
        "",
    ])
    return [head, *polyline(graph_pts, "#1f77b4", "2", "graph"),
            *polyline(path.points, "#d62728", "1", "cobweb"), "</svg>\n"]
