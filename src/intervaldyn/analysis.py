"""Cobweb paths and zero-preimage density.

A cobweb path traces an orbit against the diagonal: from (x, x) go
vertically to the graph point (x, f(x)), then horizontally back to the
diagonal at (f(x), f(x)), and repeat. The orbit is walked once and
held; the path's points are read from it.

The zero-preimage set of a tent-shaped map g collects every point that
lands on 0 after finitely many steps. Whether that set fills [0, 1]
densely is the operative criterion for g being conjugate to the tent
map itself; here only the finite-depth gap statistic is computed, and
the density verdict is a caller-thresholded heuristic, not a theorem.
The tent map's levels are written down in closed form, j / 2^(k-1);
every other map's branches are inverted by monotone bisection, a
piecewise-linear map's by the knot-window bisection homeos._bisect_pl,
which returns the same bits, and each distinct target is pulled back
once, however many levels it belongs to.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import chain, islice
from operator import sub
from typing import Callable, Iterator, Optional, Sequence

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
    """Alternating vertical/horizontal polyline between graph and diagonal,
    held as its orbit values = (x0, f(x0), ...): points starts at (seed,
    seed), every second point lies on the map's graph, and consecutive
    points always share one coordinate."""

    values: Sequence[float]
    converged: bool
    limit: Optional[float]

    @property
    def seed(self) -> float:
        return self.values[0]

    @property
    def points(self) -> Iterator[tuple[float, float]]:
        """(c0, c0) (c0, c1) (c1, c1) (c1, c2) ..., a fresh iterator on each read."""
        cur = self.values[0]
        yield cur, cur
        for nxt in islice(self.values, 1, None):
            yield cur, nxt
            yield nxt, nxt
            cur = nxt


def cobweb_path(m: MapDescriptor, x0: float, steps: int) -> CobwebPath:
    """Cobweb of steps steps, its orbit held as one array('d'); limit is the later
    of the first two successive values less than 1e-12 apart, if any."""
    values = array("d", trajectory(m, x0, check_count(steps, "steps", cap=_MAX_COBWEB_STEPS)))
    limit = next((nxt for cur, nxt in zip(values, islice(values, 1, None))
                  if abs(nxt - cur) < _CONVERGENCE_TOL), None)
    return CobwebPath(values=values, converged=limit is not None, limit=limit)


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
    """The preimages of a target t under g2's two branches, for any map
    but the tent, whose levels zero_preimage_set writes down.

    The map is located by _branch_structure, and each branch is inverted
    by monotone bisection whenever t lies in its range. A piecewise-linear
    map's branches are solved by homeos._bisect_pl, which returns what
    _bisect_monotone returns on eval_map bit for bit: the brackets lie
    within the knots' abscissae [0, 1], where eval_map snaps nothing and
    only interpolates. Each solve is a function of t alone, so a target
    pulled back twice gets the same preimages twice.
    """
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
    every level's count and largest gap. Nesting also puts the previous
    level's targets among each level's: their preimages are copied from
    the previous level's results, found by a merge of the two sorted
    target lists, so each distinct target is solved once. A solve depends
    on its target alone, so every point, and the first DomainError, is
    what solving every target afresh gives. The tent's levels are
    written down: t/2 and 1 - t/2 are exact, so level k is {j / 2^(k-1)}.
    """
    depth = check_count(depth, "depth", cap=_MAX_PREIMAGE_DEPTH)
    if isinstance(g2, Tent):
        step = 0.5 ** (depth - 1)
        return PreimageSet(depth=depth, points=tuple(j * step for j in range(2 ** (depth - 1) + 1)),
                           largest_gap=step, levels=tuple((k, 2 ** (k - 1) + 1, 0.5 ** (k - 1))
                                                          for k in range(1, depth + 1)))
    pullback = _pullback(g2)
    level = [0.0]
    # the previous level's targets, and their preimages in target order:
    # those of done[i] are found[ends[i]:ends[i + 1]]
    done, found, ends = [], [], array("q", [0])
    gap = 1.0
    levels = []
    for k in range(1, depth + 1):
        if level:  # once a level is empty every deeper one is too
            out: list[float] = []
            out_ends = array("q", [0])
            i, n = 0, len(done)
            for t in level:
                while i < n and done[i] < t:
                    i += 1
                if i < n and done[i] == t:
                    out += found[ends[i]:ends[i + 1]]
                else:
                    out += pullback(t)
                out_ends.append(len(out))
            done, found, ends = level, out, out_ends
            # every solve lies in its branch's bracket, so within [0, 1]
            level = _dedup_sorted(out[:], _DEDUP_TOL)
            gap = max(chain((level[0],), map(sub, islice(level, 1, None), level),
                            (1.0 - level[-1],))) if level else 1.0
        levels.append((k, len(level), gap))
    return PreimageSet(depth=depth, points=tuple(level), largest_gap=gap,
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
