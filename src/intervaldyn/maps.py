"""Evaluatable descriptors of one-dimensional interval self-maps.

Descriptors are immutable values carrying an explicit domain; evaluation
outside the domain raises DomainError rather than extrapolating. All
arithmetic is binary64, so repeated calls are bit-for-bit reproducible.

Piecewise branch boundaries follow the half-open convention: the tent
map uses [0, 0.5] / (0.5, 1], its half-scale version [0, 0.25] /
(0.25, 0.5]; both branches agree at the shared endpoint.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import (DomainError, ParameterError, UsageError, check_count, check_interval,
                     check_positive)
from .frozen import Frozen
from .homeos import (Homeomorphism, _bisect_monotone, _checked_knots, _describe, _interpolate,
                     _parse_family, apply_homeo, invert_homeo, parse_homeo_spec)
from .interval import REALS, UNIT, UNIT_HALF_OPEN, Interval, _dedup_sorted, linspace


class MapDescriptor:
    """Base class for interval self-maps. A subclass holds its domain in
    _domain, built once (a class attribute, or set at construction), or
    overrides domain()."""

    def domain(self) -> Interval:
        return self._domain

    def _raw(self, x: float) -> float:
        """Evaluate at a point already inside the domain."""
        raise NotImplementedError

    describe = _describe

    def __str__(self) -> str:
        return self.describe()


def eval_map(m: MapDescriptor, x: float) -> float:
    """Single application of the map, with domain snapping.

    The result is not required to lie in the domain (a descriptor may
    legitimately describe a non-self-map, say the doubling leg of a
    semiconjugacy); orbit and iterate do enforce self-mapping, snapping
    each computed value back into the domain.
    """
    return m._raw(m.domain().snap(x))


def trajectory(m: MapDescriptor, x: float, n: int) -> Iterator[float]:
    """Yield x snapped into the domain, then its first n iterates, each
    snapped back into the domain. This is the one orbit loop: everything
    that walks an orbit (iterate, orbit, sensitivities, cobweb paths,
    propagate, and the closed-form and orbit-consistency checks) walks
    it here."""
    dom = m.domain()
    raw, snap, lo, hi = m._raw, dom.snap, dom.lo, dom.hi
    cur = snap(x)
    yield cur
    for k in range(1, n + 1):
        try:
            cur = raw(cur)
            if not lo < cur < hi:  # snap returns interior points as they are
                cur = snap(cur)
        except DomainError as exc:
            raise DomainError(f"iterate {k} escaped the domain: {exc}") from exc
        yield cur


def iterate(m: MapDescriptor, x: float, n: int) -> float:
    """n-fold application; iterate(m, x, 0) returns x (snapped into the domain)."""
    for cur in trajectory(m, x, check_count(n, "iteration count", 0)):
        pass
    return cur


class Orbit(Frozen):
    """A finite iterate sequence: values[0] is the seed, values[k] = f(values[k-1])."""

    values: tuple[float, ...]

    @property
    def seed(self) -> float:
        return self.values[0]


def orbit(m: MapDescriptor, x0: float, n: int) -> Orbit:
    """Orbit of length n+1 starting at x0."""
    values = tuple(trajectory(m, x0, check_count(n, "orbit length")))
    return Orbit(values=values)


def fixed_points(m: MapDescriptor, lo: float, hi: float, tol: float) -> list[float]:
    """Roots of f(x) = x in [lo, hi], found by sign-change scanning.

    A 10^4-point grid is scanned for sign changes of f(x) - x, each
    refined by homeos._bisect_monotone to width tol, or to adjacent
    doubles when tol is below their spacing; roots closer than tol are
    merged. Tangential fixed points (where f - x touches zero without
    changing sign) are not guaranteed found.
    """
    check_positive(tol, "tolerance")
    dom = m.domain()
    lo, hi = dom.snap(lo), dom.snap(hi)
    check_interval(lo, hi)

    def g(x: float) -> float:
        return eval_map(m, x) - x

    xs = linspace(lo, hi, 10**4)
    roots: list[float] = []
    prev_x, prev_g = xs[0], g(xs[0])
    if prev_g == 0.0:
        roots.append(prev_x)
    for x in xs[1:]:
        cur_g = g(x)
        if cur_g == 0.0:
            roots.append(x)
        elif prev_g < 0.0 < cur_g or cur_g < 0.0 < prev_g:  # NaN is neither
            roots.append(_bisect_monotone(g, 0.0, prev_x, x, tol))
        prev_x, prev_g = x, cur_g
    return _dedup_sorted(roots, tol)


def sensitivity_report(m: MapDescriptor, x0: float, delta: float, n: int) -> list[float]:
    """Separations |f^k(x0) - f^k(x0 + delta)| for k = 0..n. Equal values
    are 0 apart, so two orbits at the same infinity do not separate by NaN."""
    n = check_count(n, "step count")
    return [0.0 if a == b else abs(a - b) for a, b in zip(trajectory(m, x0, n),
                                                          trajectory(m, x0 + delta, n))]


# --- builtin families ------------------------------------------------------


class Logistic(MapDescriptor, Frozen):
    """x -> 4x(1-x) on [0, 1]."""

    _domain = UNIT
    _spec = ("logistic", ())

    def _raw(self, x: float) -> float:
        return 4.0 * x * (1.0 - x)


class Tent(MapDescriptor, Frozen):
    """x -> 1 - |1 - 2x| on [0, 1]: 2x below the peak, 2 - 2x above."""

    _domain = UNIT
    _spec = ("tent", ())

    def _raw(self, x: float) -> float:
        return 2.0 * x if x <= 0.5 else 2.0 - 2.0 * x


class HalfTent(MapDescriptor, Frozen):
    """The tent shape on [0, 0.5]: 2x on [0, 0.25], 1 - 2x on (0.25, 0.5]."""

    _domain = Interval(0.0, 0.5)
    _spec = ("halftent", ())

    def _raw(self, x: float) -> float:
        return 2.0 * x if x <= 0.25 else 1.0 - 2.0 * x


class Quadratic(MapDescriptor, Frozen):
    """x -> 2x^2 - 1 on all of R (restricts to a self-map of [-1, 1])."""

    _domain = REALS
    _spec = ("quadratic", ())

    def _raw(self, x: float) -> float:
        return 2.0 * x * x - 1.0


class Doubling(MapDescriptor, Frozen):
    """x -> 2x mod 1 on [0, 1); a left shift on binary digits."""

    _domain = UNIT_HALF_OPEN
    _spec = ("doubling", ())

    def _raw(self, x: float) -> float:
        y = 2.0 * x
        return y - 1.0 if y >= 1.0 else y


class Cosine(MapDescriptor, Frozen):
    """x -> cos x on R."""

    _domain = REALS
    _spec = ("cosine", ())

    def _raw(self, x: float) -> float:
        try:
            return math.cos(x)
        except ValueError:  # x is infinite
            raise DomainError(f"cos is undefined at {x!r}") from None


class SineSquared(MapDescriptor, Frozen):
    """x -> sin^2(pi x) on [0, 1]; the non-invertible factor map carrying
    the doubling map onto the logistic map."""

    _domain = UNIT
    _spec = ("sinsq", ())

    def _raw(self, x: float) -> float:
        s = math.sin(math.pi * x)
        return s * s


def _hyperbola_e2(e: float, a: float) -> float:
    """e^2 for valid hyperbola parameters, the one rule shared by the map
    and its closed-form iterates: e^2 and a finite, a positive, and e^2
    away from 1 and 2, where the iterate formula degenerates."""
    e2 = e * e
    if not (math.isfinite(e2) and math.isfinite(a)):
        raise ParameterError(f"hyperbola needs finite e^2 and a, got e={e!r}, a={a!r}")
    if abs(e2 - 1.0) <= 1e-9 or abs(e2 - 2.0) <= 1e-9:
        raise ParameterError(f"e^2 = {e2!r} too close to 1 or 2; the iterate formula degenerates")
    check_positive(a, "scale a")  # a is finite here, so this is a > 0
    return e2


class Hyperbola(MapDescriptor, Frozen):
    """x -> sqrt((1 - e^2)(a^2 - x^2)).

    The declared domain is R; points where the radicand is negative
    raise DomainError at evaluation (no complex values here).
    """

    e: float
    a: float
    _domain = REALS
    _spec = ("hyperbola", ("e", "a"))

    def __post_init__(self) -> None:
        _hyperbola_e2(self.e, self.a)

    def _raw(self, x: float) -> float:
        rad = (1.0 - self.e * self.e) * (self.a * self.a - x * x)
        if rad < 0.0:
            raise DomainError(f"hyperbola radicand {rad!r} negative at x={x!r}")
        return math.sqrt(rad)


class Verhulst(MapDescriptor, Frozen):
    """Population recurrence p -> p(m - n p) on all of R.

    With m = n = 4 this coincides with the logistic map on [0, 1].
    """

    m: float
    n: float
    _domain = REALS
    _spec = ("verhulst", ("m", "n"))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.n)):
            raise ParameterError("growth and crowding coefficients must be finite")

    def _raw(self, x: float) -> float:
        return x * (self.m - self.n * x)


class PiecewiseLinear(MapDescriptor, Frozen):
    """Linear interpolation between knots with strictly increasing abscissae."""

    knots: tuple[tuple[float, float], ...]
    _spec = ("pwl", "knots")

    def __init__(self, knots) -> None:
        object.__setattr__(self, "knots", _checked_knots(knots))
        # built once, outside the fields, so eq/hash/repr see knots only
        object.__setattr__(self, "_domain", Interval(self.knots[0][0], self.knots[-1][0]))

    def _raw(self, x: float) -> float:
        return _interpolate(self.knots, x)


_GRID_CHECK_POINTS = 1000


class Unimodal(MapDescriptor, Frozen):
    """Tent-shaped map on [0, 1]: an increasing branch l on [0, v] with
    l(0) = 0, then a decreasing branch r on (v, 1] with r(1) = 0."""

    v: float
    left: MapDescriptor
    right: MapDescriptor
    _domain = UNIT

    def __post_init__(self) -> None:
        if not (0.0 < self.v < 1.0):
            raise ParameterError(f"turning point must lie in (0, 1), got {self.v!r}")
        if abs(eval_map(self.left, 0.0)) > 1e-12:
            raise ParameterError("left branch must vanish at 0")
        if abs(eval_map(self.right, 1.0)) > 1e-12:
            raise ParameterError("right branch must vanish at 1")
        # sign -1 turns "cur > prev + 1e-12" into this test exactly: negation is exact
        for branch, lo, hi, sign, shape in (
                (self.left, 0.0, self.v, 1.0, "left branch is not non-decreasing on [0, v]"),
                (self.right, self.v, 1.0, -1.0, "right branch is not non-increasing on (v, 1]")):
            grid = linspace(lo, hi, _GRID_CHECK_POINTS)
            prev = sign * eval_map(branch, grid[0])
            for x in grid[1:]:
                cur = sign * eval_map(branch, x)
                if cur < prev - 1e-12:
                    raise ParameterError(shape)
                prev = cur

    def _raw(self, x: float) -> float:
        return eval_map(self.left, x) if x <= self.v else eval_map(self.right, x)

    def describe(self) -> str:
        return f"unimodal(v={self.v!r};l={self.left.describe()};r={self.right.describe()})"


class Conjugated(MapDescriptor, Frozen):
    """The base map rewritten in h-coordinates: x -> h(f(h^{-1}(x))). A
    change whose inverse leaves the base map's domain raises DomainError
    when the map is evaluated there."""

    base: MapDescriptor
    change: Homeomorphism

    def domain(self) -> Interval:
        return self.change.range()

    def _raw(self, x: float) -> float:
        return apply_homeo(self.change, eval_map(self.base, invert_homeo(self.change, x)))

    def describe(self) -> str:
        return f"conj:{self.base.describe()}|{self.change.describe()}"


_FAMILIES = {cls._spec[0]: cls for cls in MapDescriptor.__subclasses__()
             if hasattr(cls, "_spec")}


def parse_map_spec(spec: str) -> MapDescriptor:
    """Read a map spec: a builtin family, or conj:<base>|<homeo>. It splits
    at the last "|", which no homeo spec contains, so nested conj: reads
    back."""
    s = spec.strip()
    if s.lower().startswith("conj:"):
        base, sep, change = s[5:].rpartition("|")
        if not sep:
            raise UsageError(f"'{spec}' needs the form conj:<base>|<homeo>")
        return Conjugated(parse_map_spec(base), parse_homeo_spec(change))
    return _parse_family(s, _FAMILIES, "map")

