"""Real intervals with optional open endpoints.

Every map and coordinate change declares its domain as an Interval.
Membership checks snap points that sit within ENDPOINT_TOL of a closed
endpoint onto that endpoint, which absorbs the roundoff produced by
composed evaluations.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError, check_interval, check_samples
from .frozen import Frozen

# Absolute snap tolerance at closed endpoints.
ENDPOINT_TOL = 1e-12


class Interval(Frozen):
    lo: float = -math.inf
    hi: float = math.inf
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo >= self.hi:
            raise DomainError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        if math.isnan(x):
            return False
        if math.isfinite(self.lo):
            if x < self.lo or (x == self.lo and not self.lo_closed):
                return False
        if math.isfinite(self.hi):
            if x > self.hi or (x == self.hi and not self.hi_closed):
                return False
        return True

    def snap(self, x: float) -> float:
        """Return x, clamping points that fall at most ENDPOINT_TOL outside
        a closed endpoint back onto it.

        Only out-of-domain points are moved: clamping interior points
        onto an endpoint would collapse orbits passing near an absorbing
        boundary fixed point. Raises DomainError when x lies further
        outside. Unbounded sides admit the corresponding infinity so
        that diverging orbits on all of R propagate rather than abort.
        """
        if self.lo < x < self.hi:  # interior: NaN and infinities fail this
            return x
        if math.isnan(x):
            raise DomainError(f"NaN is not a point of {self}")
        if math.isfinite(self.lo) and self.lo_closed and self.lo - ENDPOINT_TOL <= x < self.lo:
            return self.lo
        if math.isfinite(self.hi) and self.hi_closed and self.hi < x <= self.hi + ENDPOINT_TOL:
            return self.hi
        if not self.contains(x):
            raise DomainError(f"{x!r} lies outside {self}")
        return x

    def interior_grid(self, samples: int) -> Sequence[float]:
        """Equispaced points offset half a step from both endpoints, as one
        array('d')."""
        from array import array
        samples = check_samples(samples)
        check_interval(self.lo, self.hi)
        step = (self.hi - self.lo) / samples
        return array("d", (self.lo + (i + 0.5) * step for i in range(samples)))

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def linspace(lo: float, hi: float, samples: int) -> Sequence[float]:
    """The inclusive grid, as one array('d'): lo + (hi - lo) * i / (samples - 1)
    for i < samples, from lo to hi (the last point is hi up to rounding), or
    lo + step * i where (hi - lo) * (samples - 1) overflows, step = (hi - lo) /
    (samples - 1). Only the sample count is checked, so lo == hi gives that
    point samples times."""
    from array import array
    samples = check_samples(samples)
    width, last = hi - lo, samples - 1
    if math.isfinite(width * last):  # an infinite width gives the same points either way
        return array("d", (lo + width * i / last for i in range(samples)))
    return array("d", (lo + width / last * i for i in range(samples)))


def _dedup_sorted(points: list[float], tol: float) -> list[float]:
    """points sorted in place, less each one within tol above the last one kept."""
    points.sort()
    out: list[float] = []
    for p in points:
        if not out or p - out[-1] > tol:
            out.append(p)
    return out


REALS = Interval()
UNIT = Interval(0.0, 1.0)
UNIT_HALF_OPEN = Interval(0.0, 1.0, hi_closed=False)
