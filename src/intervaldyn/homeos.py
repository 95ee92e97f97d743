"""Invertible coordinate changes on real intervals.

A Homeomorphism evaluates forward and backward exactly where a closed
form exists; otherwise the inverse falls back to monotone bisection to
a 1e-14 bracket or adjacent floats, with no iteration cap: on a finite
bracket that takes at most about 1070 halvings. A piecewise-linear change
(pwlh) bisects in _bisect_pl, which takes the same steps and returns
the same bits as _bisect_monotone on _interpolate, but searches each
midpoint's knot segment only between the segments of the bracket ends.
On [0, 1] a pwlh goes straight to the loop's last dyadic cell, found by
a linear solve and then checked (PiecewiseLinearHomeo).
The two arcsine changes fix both endpoints of [0, 1]:

    ulam(x)  = (2/pi) * arcsin(sqrt(x))      [0,1] -> [0,1]
    alpha(x) = (1/pi) * arcsin(sqrt(x))      [0,1] -> [0,0.5]

ulam is implemented as exactly 2 * alpha so the two agree bit-for-bit
under doubling.

Monotone bisection is also how zero-preimage sets pull targets back
through the branches of a tent-shaped map (analysis.zero_preimage_set),
by _bisect_pl for a piecewise-linear map, except for the tent map
itself, whose branches invert exactly.

Each builtin family of maps and coordinate changes declares its spec
text once, as _spec = (name, keys). _describe writes that text and
_parse_family reads it back, so every describe() string parses.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right

from .errors import DomainError, ParameterError, UsageError
from .frozen import Frozen
from .interval import REALS, UNIT, Interval

_BISECT_TOL = 1e-14
_CELLS = 2 ** 47  # bisection of [0, 1] ends in a cell 2^-47 wide: 2^-46 > _BISECT_TOL >= 2^-47


def _describe(self) -> str:
    """The spec text of a builtin family, from its _spec = (name, keys):
    the bare name when keys is (), name:k=v,... with the keys naming the
    leading fields in order, or name:x0,y0;x1,y1;... when keys
    is "knots"."""
    name, keys = self._spec
    if keys == "knots":
        return f"{name}:" + ";".join(f"{x!r},{y!r}" for x, y in self.knots)
    if not keys:
        return name
    return f"{name}:" + ",".join(f"{k}={getattr(self, field)!r}"
                                 for k, field in zip(keys, self._fields))


def _parse_family(text: str, families: dict, kind: str):
    """Read the spec text _describe writes, for the class that families
    (name -> class) holds under its name; kind names the family in errors."""
    name, _, args = text.strip().partition(":")
    cls = families.get(name.strip().lower())
    if cls is None:
        raise UsageError(f"unknown {kind} '{text}'")
    name, keys = cls._spec
    if keys == "knots":
        knots = []
        for piece in args.split(";"):
            try:
                x, y = map(float, piece.split(","))
            except ValueError:
                raise UsageError(f"bad knot '{piece}' in '{text}'") from None
            knots.append((x, y))
        return cls(knots)
    if not keys:
        if args:
            raise UsageError(f"{kind} '{name}' takes no parameters")
        return cls()
    if not args:
        raise UsageError(f"'{text}' needs parameters {','.join(keys)}")
    values: dict[str, float] = {}
    for part in args.split(","):
        k, sep, v = part.partition("=")
        if not sep or k not in keys:
            raise UsageError(f"bad parameter '{part}' in '{text}'")
        if k in values:
            raise UsageError(f"repeated parameter '{k}' in '{text}'")
        try:
            values[k] = float(v)
        except ValueError:
            raise UsageError(f"bad number '{v}' in '{text}'") from None
    missing = [k for k in keys if k not in values]
    if missing:
        raise UsageError(f"'{text}' is missing parameters {','.join(missing)}")
    return cls(*(values[k] for k in keys))


class Homeomorphism:
    """Base class: a strictly monotone invertible change of coordinates.
    A subclass holds its domain and range in _domain and _range, built
    once (class attributes, or set at construction), or overrides
    domain() and range()."""

    def domain(self) -> Interval:
        return self._domain

    def range(self) -> Interval:
        return self._range

    def _fwd(self, x: float) -> float:
        raise NotImplementedError

    def _inv(self, y: float) -> float:
        raise NotImplementedError

    describe = _describe

    def __str__(self) -> str:
        return self.describe()


def apply_homeo(h: Homeomorphism, x: float) -> float:
    """Forward evaluation with domain snapping."""
    return h._fwd(h.domain().snap(x))


def invert_homeo(h: Homeomorphism, y: float) -> float:
    """Inverse evaluation with range snapping."""
    return h._inv(h.range().snap(y))


def _bisect_monotone(f, target: float, lo: float, hi: float, tol: float = _BISECT_TOL) -> float:
    """Solve f(x) = target for monotone f on [lo, hi] by bisection: halve
    the bracket while it is wider than tol and a float lies inside it, and
    return its midpoint. Each halving halves the width, so with no cap this
    ends within about 2100 halvings on a finite bracket, 1070 at tol = 1e-14.
    Exact hits (including at the endpoints) are returned verbatim, which
    keeps dyadic preimages of dyadic targets exact.
    """
    flo, fhi = f(lo), f(hi)
    if flo == target:
        return lo
    if fhi == target:
        return hi
    increasing = fhi > flo
    a, b = (flo, fhi) if increasing else (fhi, flo)
    if not (a <= target <= b):
        raise DomainError(f"target {target!r} outside branch range [{a}, {b}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo + hi overflowed, or lo and hi are adjacent floats
            mid = 0.5 * lo + 0.5 * hi  # their halves cannot overflow
            if not lo < mid < hi:
                break
        fm = f(mid)
        if fm == target:
            return mid
        if (fm < target) == increasing:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def _checked_knots(knots) -> tuple[tuple[float, float], ...]:
    """Knots as float pairs: at least two, finite, abscissae strictly
    increasing, and each segment's (x1 - x0) * (y1 - y0) finite, so that
    no step of the interpolation formula overflows."""
    out = tuple((float(x), float(y)) for x, y in knots)
    if len(out) < 2:
        raise ParameterError("need at least two knots")
    if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in out):
        raise ParameterError("knots must be finite")
    if any(b[0] <= a[0] for a, b in zip(out, out[1:])):
        raise ParameterError("knot abscissae must be strictly increasing")
    for a, b in zip(out, out[1:]):
        if not math.isfinite((b[0] - a[0]) * (b[1] - a[1])):
            raise ParameterError(f"knot segment from {a!r} to {b!r} overflows: "
                                 "(x1 - x0) * (y1 - y0) is not finite")
    return out


def _segment(knots: tuple[tuple[float, float], ...], x: float, lo: int, hi: int) -> int:
    """The index i, lo <= i < hi, of the knot segment from knots[i] to
    knots[i + 1] that holds x, by binary search over knots[lo..hi].
    Over all the knots (lo = 0, hi = len(knots) - 1) this is the segment
    the interpolation uses. If a <= b have the segments i <= j, the
    search over knots[i..j + 1] finds that same segment for every x in
    [a, b]."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x < knots[mid][0]:
            hi = mid
        else:
            lo = mid
    return lo


def _interpolate(knots: tuple[tuple[float, float], ...], x: float) -> float:
    """Linear interpolation between the knots bracketing x; x must lie
    within the knots' abscissae."""
    i = _segment(knots, x, 0, len(knots) - 1)
    (x0, y0), (x1, y1) = knots[i], knots[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def _bisect_pl(knots: tuple[tuple[float, float], ...], target: float,
               lo: float, hi: float) -> float:
    """_bisect_monotone(partial(_interpolate, knots), target, lo, hi),
    step for step and bit for bit, errors included, for lo <= hi within
    the knots' abscissae: the same loop, with no cap (see there).

    It keeps the segments i of lo and j of hi. Each midpoint lies in
    [lo, hi], so its segment is searched in knots[i..j + 1] only, and
    once i == j it costs the interpolation formula alone. The formula
    is _interpolate's in its operation order:
    keeping a segment's y1 - y0 and x1 - x0 changes no bit, a
    precomputed slope would.
    """
    last = len(knots) - 1
    i, j = _segment(knots, lo, 0, last), _segment(knots, hi, 0, last)
    (x0, y0), (x1, y1) = knots[i], knots[i + 1]
    flo = y0 + (lo - x0) * (y1 - y0) / (x1 - x0)
    (x0, y0), (x1, y1) = knots[j], knots[j + 1]
    dy, dx = y1 - y0, x1 - x0
    fhi = y0 + (hi - x0) * dy / dx
    if flo == target:
        return lo
    if fhi == target:
        return hi
    increasing = fhi > flo
    a, b = (flo, fhi) if increasing else (fhi, flo)
    if not (a <= target <= b):
        raise DomainError(f"target {target!r} outside branch range [{a}, {b}]")
    k = j  # once i == j, k == i == j and the segment's knots stay loaded
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo + hi overflowed, or lo and hi are adjacent floats
            mid = 0.5 * lo + 0.5 * hi  # their halves cannot overflow
            if not lo < mid < hi:
                break
        if i != j:
            k = _segment(knots, mid, i, j + 1)
            (x0, y0), (x1, y1) = knots[k], knots[k + 1]
            dy, dx = y1 - y0, x1 - x0
        fm = y0 + (mid - x0) * dy / dx
        if fm == target:
            return mid
        if (fm < target) == increasing:
            lo, i = mid, k
        else:
            hi, j = mid, k
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


class UlamArcsin(Homeomorphism, Frozen):
    """x -> (2/pi) arcsin sqrt(x), conjugating the logistic map to the tent map."""

    _domain = _range = UNIT
    _spec = ("ulam", ())

    def _fwd(self, x: float) -> float:
        return 2.0 * (math.asin(math.sqrt(x)) / math.pi)

    def _inv(self, y: float) -> float:
        s = math.sin(math.pi * y / 2.0)
        return s * s


class AlphaArcsin(Homeomorphism, Frozen):
    """x -> (1/pi) arcsin sqrt(x), bijection [0,1] -> [0,0.5]."""

    _domain, _range = UNIT, Interval(0.0, 0.5)
    _spec = ("alpha", ())

    def _fwd(self, x: float) -> float:
        return math.asin(math.sqrt(x)) / math.pi

    def _inv(self, y: float) -> float:
        s = math.sin(math.pi * y)
        return s * s


class Affine(Homeomorphism, Frozen):
    p: float
    q: float
    _domain = _range = REALS
    _spec = ("affine", ("p", "q"))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)) or self.p == 0.0:
            raise ParameterError(f"affine change needs a finite nonzero slope, got p={self.p}")

    def _fwd(self, x: float) -> float:
        return self.p * x + self.q

    def _inv(self, y: float) -> float:
        return (y - self.q) / self.p


class Power(Homeomorphism, Frozen):
    """x -> x**gamma on [0, 1], gamma > 0. Fixes both endpoints."""

    gamma: float
    _domain = _range = UNIT
    _spec = ("power", ("g",))

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ParameterError(f"power change needs gamma > 0, got {self.gamma}")

    def _fwd(self, x: float) -> float:
        return x ** self.gamma

    def _inv(self, y: float) -> float:
        return y ** (1.0 / self.gamma)


class Mobius(Homeomorphism, Frozen):
    """x -> -(a + x)/(1 + b*x) on the reals, for finite a and b, its own
    inverse whenever a*b != 1; evaluation at the pole -1/b raises DomainError."""

    a: float
    b: float
    _domain = _range = REALS
    _spec = ("mobius", ("a", "b"))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ParameterError(f"mobius change needs finite a and b, got a={self.a}, b={self.b}")
        if abs(self.a * self.b - 1.0) <= 1e-9:
            raise ParameterError(f"a*b = {self.a * self.b!r} too close to 1; map degenerates")

    def _fwd(self, x: float) -> float:
        den = 1.0 + self.b * x
        if abs(den) < 1e-300:
            raise DomainError(f"{x!r} is at the pole of {self.describe()}")
        return -(self.a + x) / den

    def _inv(self, y: float) -> float:
        return self._fwd(y)


class PiecewiseLinearHomeo(Homeomorphism, Frozen):
    """Strictly monotone piecewise-linear change given by knots.

    Knot abscissae must be strictly increasing and ordinates strictly
    monotone. The inverse is bit for bit what bisection on _fwd returns.
    On [0, 1], unless a dyadic midpoint hits y, that loop returns the
    middle of the cell [a, a + 1] / 2^47 whose ends bracket y. _inv finds a
    by a linear solve and returns at once if the cell's ends bracket y and
    y is beyond the slack of every ordinate, which _interpolate overshoots
    by less: no midpoint the loop visits can then hit y or turn the other
    way. Every other y, and any other domain, goes to _bisect_pl.
    """

    knots: tuple[tuple[float, float], ...]
    _spec = ("pwlh", "knots")

    def __init__(self, knots) -> None:
        object.__setattr__(self, "knots", _checked_knots(knots))
        ys = [k[1] for k in self.knots]
        inc = all(b > a for a, b in zip(ys, ys[1:]))
        dec = all(b < a for a, b in zip(ys, ys[1:]))
        if not (inc or dec):
            raise ParameterError("knot ordinates must be strictly monotone")
        # built once, outside the fields, so eq/hash/repr see knots only
        object.__setattr__(self, "_domain", Interval(self.knots[0][0], self.knots[-1][0]))
        object.__setattr__(self, "_range", Interval(min(ys), max(ys)))
        # for _inv on [0, 1]: the ordinates oriented to increase, and twice the bound
        # 7u max|y| + 2 * 2^-1075 / min(x1 - x0), u = 2^-53, on _interpolate's overshoot
        sign = 1.0 if inc else -1.0
        dx = min(b[0] - a[0] for a, b in zip(self.knots, self.knots[1:]))
        slack = 2.0 ** -49 * max(map(abs, ys)) + 2.0 ** -1073 / dx
        oriented = [sign * y for y in ys] if self._domain == UNIT else None
        object.__setattr__(self, "_cell", (sign, oriented, slack))

    def _fwd(self, x: float) -> float:
        return _interpolate(self.knots, x)

    def _inv(self, y: float) -> float:
        knots, (sign, ys, slack) = self.knots, self._cell
        t = sign * y
        if ys is not None and ys[0] < t < ys[-1]:  # not NaN, not an end, not beyond
            i = bisect_right(ys, t) - 1
            if t - ys[i] > slack and ys[i + 1] - t > slack:
                (x0, y0), (x1, y1) = knots[i], knots[i + 1]
                a = min(int((x0 + (y - y0) * (x1 - x0) / (y1 - y0)) * _CELLS), _CELLS - 1)
                lo, hi = a / _CELLS, (a + 1) / _CELLS
                if sign * _interpolate(knots, lo) < t < sign * _interpolate(knots, hi):
                    return 0.5 * (lo + hi)
        return _bisect_pl(knots, y, knots[0][0], knots[-1][0])


class Reflect(Homeomorphism, Frozen):
    """x -> 1 - x on [0, 1]; an involution."""

    _domain = _range = UNIT
    _spec = ("reflect", ())

    def _fwd(self, x: float) -> float:
        return 1.0 - x

    def _inv(self, y: float) -> float:
        return 1.0 - y


class CompositionH(Homeomorphism, Frozen):
    outer: Homeomorphism
    inner: Homeomorphism

    def domain(self) -> Interval:
        return self.inner.domain()

    def range(self) -> Interval:
        inner_range = self.inner.range()
        if not inner_range.bounded:
            return REALS
        a = apply_homeo(self.outer, inner_range.lo)
        b = apply_homeo(self.outer, inner_range.hi)
        return Interval(min(a, b), max(a, b))

    def _fwd(self, x: float) -> float:
        return apply_homeo(self.outer, self.inner._fwd(x))

    def _inv(self, y: float) -> float:
        return invert_homeo(self.inner, self.outer._inv(self.outer.range().snap(y)))

    def describe(self) -> str:
        return f"({self.outer.describe()} o {self.inner.describe()})"


_FAMILIES = {cls._spec[0]: cls for cls in Homeomorphism.__subclasses__()
             if hasattr(cls, "_spec")}
_COMPOSE_OR_PAREN = re.compile(r"\s+o\s+|[()]")


def parse_homeo_spec(spec: str) -> Homeomorphism:
    """Read a homeo spec: a builtin family, or "outer o inner". The first
    " o " outside parentheses splits, so "a o b o c" is (a o (b o c));
    one enclosing pair of parentheses is stripped, so every describe()
    of a composition reads back with its grouping."""
    s = spec.strip()
    depth = 0
    for token in _COMPOSE_OR_PAREN.finditer(s):
        if token.group() == "(":
            depth += 1
        elif token.group() == ")":
            depth -= 1
        elif depth == 0:
            return CompositionH(outer=parse_homeo_spec(s[:token.start()]),
                                inner=parse_homeo_spec(s[token.end():]))
    if s.startswith("(") and s.endswith(")"):
        return parse_homeo_spec(s[1:-1])
    return _parse_family(s, _FAMILIES, "coordinate change")
