"""Self-contained SVG rendering of cobweb diagrams.

Documents are SVG 1.1 with viewBox 0 0 1000 1000 and no external
references. A cobweb figure carries the axes, the y = x diagonal, the
map's graph sampled at 1000 points (less those where the map raises or
overflows), and the cobweb polyline itself; the polyline has exactly
2*steps + 1 points. Output is generated with fixed formatting so
identical inputs give byte-identical documents. cobweb_svg draws from
the orbit itself and returns the document as an iterator of string
pieces, formatted as they are read.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, Sequence

from .errors import DomainError
from .interval import linspace
from .maps import MapDescriptor, eval_map

VIEW = 1000.0
GRAPH_SAMPLES = 1000
# points per formatted block of the cobweb polyline: one string per point
# is held for one block at a time, never for a whole path
BLOCK = 4096


def _window(m: MapDescriptor, orbit: Sequence[float]) -> tuple[float, float]:
    dom = m.domain()
    if dom.bounded:
        lo, hi = min(dom.lo, min(orbit)), max(dom.hi, max(orbit))
    else:
        lo, hi = min(orbit), max(orbit)
    if not math.isfinite(hi - lo):  # an orbit reaching an infinity, or overflowing spread
        raise DomainError(f"cannot draw the cobweb window [{lo!r}, {hi!r}]: it is not finite")
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def cobweb_svg(m: MapDescriptor, orbit: Sequence[float]) -> Iterator[str]:
    """Render the cobweb of an orbit x0, f(x0), ... over the map's graph as
    an SVG document, in pieces: "".join(cobweb_svg(m, orbit)) is the
    document. The window is checked and the graph sampled at the call;
    the cobweb polyline is formatted a block at a time as it is read."""
    lo, hi = _window(m, orbit)
    span = hi - lo
    # view coordinates (x - lo) / span * VIEW and VIEW - (y - lo) / span * VIEW;
    # precomputing VIEW / span would change last bits, and so .4f digits
    graph = []
    for x in linspace(lo, hi, GRAPH_SAMPLES):
        try:
            y = eval_map(m, x)
        except DomainError:
            continue
        ty = VIEW - (y - lo) / span * VIEW
        if math.isfinite(ty):  # an overflowing value is left out like a raising one
            graph.append(f"{(x - lo) / span * VIEW:.4f},{ty:.4f}")

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
        '<polyline class="graph" fill="none" stroke="#1f77b4" stroke-width="2" points="',
    ])
    return chain([head, " ".join(graph), '"/>\n<polyline class="cobweb" fill="none" '
                  'stroke="#d62728" stroke-width="1" points="'],
                 _zigzag(orbit, lo, span), ['"/>\n</svg>\n'])


def _zigzag(orbit: Sequence[float], lo: float, span: float) -> Iterator[str]:
    """The cobweb points (c0, c0) (c0, c1) (c1, c1) (c1, c2) ... in pieces of
    BLOCK points. Each value c is mapped to the view once, as t, and t and
    VIEW - t are formatted once each; the point (c, c') is "t,VIEW - t'"."""
    t = (orbit[0] - lo) / span * VIEW
    prev = format(t, ".4f")
    yield f"{prev},{VIEW - t:.4f}"
    for start in range(1, len(orbit), BLOCK // 2):
        ts = [(c - lo) / span * VIEW for c in orbit[start:start + BLOCK // 2]]
        xs = [format(t, ".4f") for t in ts]
        ys = [format(VIEW - t, ".4f") for t in ts]
        yield "".join([f" {p},{y} {x},{y}" for p, x, y in zip([prev, *xs], xs, ys)])
        prev = xs[-1]
