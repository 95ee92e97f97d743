"""Cobweb paths and zero-preimage density.

A cobweb path traces an orbit against the diagonal: from (x, x) go
vertically to the graph point (x, f(x)), then horizontally back to the
diagonal at (f(x), f(x)), and repeat.

The zero-preimage set of a tent-shaped map g collects every point that
lands on 0 after finitely many steps. Whether that set fills [0, 1]
densely is the operative criterion for g being conjugate to the tent
map itself; here only the finite-depth gap statistic is computed, and
the density verdict is a caller-thresholded heuristic, not a theorem.
The tent map's preimages are computed exactly (t/2 and 1 - t/2); every
other map's branches are inverted by monotone bisection, a
piecewise-linear map's by the knot-window bisection homeos._bisect_pl,
which returns the same bits.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from typing import Callable, Optional, Sequence

from .errors import ParameterError, check_count, check_positive
from .frozen import Frozen
from .interval import _dedup_sorted, linspace
from .maps import MapDescriptor, PiecewiseLinear, Tent, Unimodal, eval_map, trajectory
from .homeos import _bisect_monotone, _bisect_pl

_CONVERGENCE_TOL = 1e-12
_MAX_COBWEB_STEPS = 10**6
_MAX_PREIMAGE_DEPTH = 20  # the set grows like 2^depth
_DEDUP_TOL = 1e-12


class CobwebPath(Frozen):
    """Alternating vertical/horizontal polyline between graph and diagonal.

    points[0] is (seed, seed); every second point lies on the map's
    graph; consecutive points always share one coordinate.
    """

    points: tuple[tuple[float, float], ...]
    seed: float
    converged: bool
    limit: Optional[float]

    def orbit_values(self) -> list[float]:
        """The orbit x0, f(x0), ... read off the diagonal points."""
        return [self.points[0][0]] + [p[1] for p in self.points[1::2]]


def _cobweb_orbit(m: MapDescriptor, x0: float,
                  steps: int) -> tuple[Sequence[float], bool, Optional[float]]:
    """The orbit x0, f(x0), ... of a cobweb of steps steps, as one
    array('d'), with whether two successive values differ by less than
    1e-12 and, if so, the later value of the first such pair."""
    from array import array
    values = array("d", trajectory(m, x0, check_count(steps, "steps", cap=_MAX_COBWEB_STEPS)))
    limit = next((nxt for cur, nxt in zip(values, islice(values, 1, None))
                  if abs(nxt - cur) < _CONVERGENCE_TOL), None)
    return values, limit is not None, limit


def cobweb_path(m: MapDescriptor, x0: float, steps: int) -> CobwebPath:
    """Cobweb with 2*steps + 1 points; convergence is flagged when two
    successive orbit values differ by less than 1e-12 (the full path is
    still produced)."""
    values, converged, limit = _cobweb_orbit(m, x0, steps)
    walk = iter(values)
    cur = next(walk)
    points = [(cur, cur)]
    for nxt in walk:
        points.append((cur, nxt))
        points.append((nxt, nxt))
        cur = nxt
    return CobwebPath(points=tuple(points), seed=points[0][0], converged=converged, limit=limit)


class PreimageSet(Frozen):
    """Sorted points of [0, 1] that reach 0 within `depth` steps.

    levels holds (k, count, largest_gap) for every depth k = 1..depth;
    its last entry describes points itself.
    """

    depth: int
    points: tuple[float, ...]
    largest_gap: float
    levels: tuple[tuple[int, int, float], ...] = ()


class DensityReport(Frozen):
    largest_gap: float
    count: int
    dense_estimate: bool


def _branch_structure(m: MapDescriptor) -> float:
    """Locate the turning point of a tent-shaped map on [0, 1].

    Builtin cases are exact; anything else is grid-scanned for the
    maximum and refined by golden-section search, then validated:
    the map must vanish at both endpoints and be non-decreasing left of
    the turning point, non-increasing right of it.
    """
    if isinstance(m, Tent):
        return 0.5
    if isinstance(m, Unimodal):
        return m.v
    dom = m.domain()
    if not (dom.lo == 0.0 and dom.hi == 1.0):
        raise ParameterError(f"zero-preimage analysis needs a map of [0, 1], got domain {dom}")
    if abs(eval_map(m, 0.0)) > 1e-9 or abs(eval_map(m, 1.0)) > 1e-9:
        raise ParameterError("map must vanish at both endpoints of [0, 1]")
    n = 1000
    grid = linspace(0.0, 1.0, n + 1)
    vals = [eval_map(m, x) for x in grid]
    k = max(range(n + 1), key=lambda i: vals[i])
    if k == 0 or k == n:
        raise ParameterError("no interior maximum; map is not tent-shaped")
    if any(vals[i + 1] < vals[i] - 1e-9 for i in range(k)):
        raise ParameterError("map is not non-decreasing left of its maximum")
    if any(vals[i + 1] > vals[i] + 1e-9 for i in range(k, n)):
        raise ParameterError("map is not non-increasing right of its maximum")
    lo, hi = grid[k - 1], grid[k + 1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = eval_map(m, c), eval_map(m, d)
    while b - a > 1e-14:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = eval_map(m, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = eval_map(m, d)
    return 0.5 * (a + b)


def _pullback(g2: MapDescriptor) -> Callable[[float], list[float]]:
    """The preimages of a target t under g2's two branches.

    The tent's branches invert exactly: t/2 and 1 - t/2, which are the
    values bisection reaches for the dyadic targets a pullback of 0
    produces. Any other map is located by _branch_structure and each
    branch is inverted by monotone bisection whenever t lies in its
    range. A piecewise-linear map's branches are solved by
    homeos._bisect_pl, which returns what _bisect_monotone returns on
    eval_map bit for bit: the brackets lie within the knots' abscissae
    [0, 1], where eval_map snaps nothing and only interpolates.
    """
    if isinstance(g2, Tent):
        return lambda t: [0.5 * t, 1.0 - 0.5 * t]
    v = _branch_structure(g2)
    if isinstance(g2, PiecewiseLinear):
        solve = partial(_bisect_pl, g2.knots)
    else:
        solve = partial(_bisect_monotone, partial(eval_map, g2))
    branches = []
    for lo, hi in ((0.0, v), (v, 1.0)):
        flo, fhi = eval_map(g2, lo), eval_map(g2, hi)
        branches.append((lo, hi, min(flo, fhi), max(flo, fhi)))

    def pullback(t: float) -> list[float]:
        # each branch's range, with a roundoff allowance at the rim
        return [solve(min(max(t, rlo), rhi), lo, hi) for lo, hi, rlo, rhi in branches
                if not (t < rlo - _DEDUP_TOL or t > rhi + _DEDUP_TOL)]

    return pullback


def zero_preimage_set(g2: MapDescriptor, depth: int) -> PreimageSet:
    """All points of [0, 1] mapped to 0 within `depth` applications of g2.

    Each level is the previous one pulled back through g2's increasing
    branch on [0, v] and its decreasing branch on [v, 1] (see
    _pullback). Since g2(0) = 0 the preimage levels are nested, so the
    depth-k set is just the k-th pullback of {0}, and one pass records
    every level's count and largest gap.
    """
    depth = check_count(depth, "depth", cap=_MAX_PREIMAGE_DEPTH)
    pullback = _pullback(g2)
    level = [0.0]
    points: list[float] = []
    gap = 1.0
    levels = []
    for k in range(1, depth + 1):
        if level:  # once a level is empty every deeper one is too
            level = _dedup_sorted([p for t in level for p in pullback(t)], _DEDUP_TOL)
            points = [p for p in level if p >= 0.0 and p <= 1.0]  # UNIT.contains(p)
            gap = max([points[0] - 0.0] + [b - a for a, b in zip(points, points[1:])]
                      + [1.0 - points[-1]]) if points else 1.0
        levels.append((k, len(points), gap))
    return PreimageSet(depth=depth, points=tuple(points), largest_gap=gap,
                       levels=tuple(levels))


def density_report(pset: PreimageSet, threshold: float) -> DensityReport:
    """Gap statistic with a caller-thresholded density estimate.

    Purely a finite-depth estimator: a small largest gap suggests (but
    does not prove) that the full preimage set is dense.
    """
    check_positive(threshold, "threshold")
    return DensityReport(
        largest_gap=pset.largest_gap,
        count=len(pset.points),
        dense_estimate=pset.largest_gap < threshold,
    )
