"""Numerical verification of (semi-)conjugacy relations.

Maps f and g are topologically conjugate under an invertible h when
h(f(x)) = g(h(x)) everywhere; dropping invertibility of h gives a
semiconjugacy f(h(x)) = h(g(x)). Both relations are checked on sample
grids, reporting the residual profile and its maximum.

Verification grids exclude the domain endpoints (samples are offset by
half a grid step): the arcsine coordinate changes have infinite
derivative at 0 and 1, where pure roundoff would otherwise inflate the
residuals.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

from .errors import DomainError, check_count, check_interval, check_positive, check_samples
from .frozen import Frozen
from .homeos import Homeomorphism, apply_homeo
from .interval import Interval, linspace
from .maps import MapDescriptor, trajectory


class ConjugacyReport(Frozen):
    """Residuals |h(f(x)) - g(h(x))| over a sample grid."""

    grid: Sequence[float]
    residuals: Sequence[float]
    max_residual: float
    argmax: float


def _residual_report(grid: Sequence[float], residual: Callable[[float], float],
                     what: str) -> ConjugacyReport:
    """Every residual on the grid, as one array('d'), their maximum and the
    first point that attains it, in one pass; the report holds the grid it
    was given. A DomainError, or a NaN residual (which no maximum can rank),
    fails the check and names the point."""
    from array import array
    residuals = array("d")
    worst, arg = -math.inf, None
    for x in grid:
        try:
            r = residual(x)
        except DomainError as exc:
            raise DomainError(f"{what} check failed at x={x!r}: {exc}") from exc
        if r != r:
            raise DomainError(f"{what} check failed at x={x!r}: the residual is NaN")
        if r > worst:
            worst, arg = r, x
        residuals.append(r)
    return ConjugacyReport(grid, residuals, worst, arg)


def _snapped(raw: Callable[[float], float],
             domain: Callable[[], Interval]) -> Callable[[float], float]:
    """raw behind its domain's snap, as eval_map and apply_homeo evaluate
    it, with the domain built once: raw(x if lo < x < hi else snap(x)) has
    their bits, because snap returns interior points as they are. A domain
    that cannot be built raises its DomainError at the first evaluation,
    where building it on every call would have raised it."""
    try:
        dom = domain()
    except DomainError as exc:
        error = exc  # the except clause unbinds exc when it ends

        def fail(x: float) -> float:
            raise error
        return fail
    lo, hi, snap = dom.lo, dom.hi, dom.snap
    return lambda x: raw(x if lo < x < hi else snap(x))


class Conflict(Frozen):
    """Evidence that no single-valued change of coordinates fits the data:
    two f-orbit values, left <= right, that collide while the values paired
    with them stand image_gap apart; step, when known, is the first step at
    which an orbit reaches left."""

    left: float
    right: float
    image_gap: float
    step: Optional[int] = None

    def __str__(self) -> str:
        where = f" at step {self.step}" if self.step is not None else ""
        return (f"conflict{where}: values {self.left!r} and {self.right!r} "
                f"collide while images differ by {self.image_gap!r}")


def _first_collision(entries: list[tuple[float, float]], tol: float) -> Optional[Conflict]:
    """The one obstruction rule. Sort the (x, y) entries in place and return
    the first two, in that order, whose x values lie within tol while their
    y values stand more than 10*tol apart, as a Conflict between the two x
    values; None when no two entries do."""
    entries.sort()
    for i in range(len(entries)):
        j = i + 1
        while j < len(entries) and entries[j][0] - entries[i][0] < tol:
            gap = abs(entries[j][1] - entries[i][1])
            if gap > 10.0 * tol:
                return Conflict(left=entries[i][0], right=entries[j][0], image_gap=gap)
            j += 1
    return None


def verify_conjugacy(
    f: MapDescriptor,
    g: MapDescriptor,
    h: Homeomorphism,
    samples: int,
) -> ConjugacyReport:
    """Residuals of h(f(x)) = g(h(x)) on an interior grid of f's domain."""
    grid = f.domain().interior_grid(samples)
    f_at, g_at = _snapped(f._raw, f.domain), _snapped(g._raw, g.domain)
    h_at = _snapped(h._fwd, h.domain)
    return _residual_report(grid, lambda x: abs(h_at(f_at(x)) - g_at(h_at(x))), "conjugacy")


def verify_semiconjugacy(
    f: MapDescriptor,
    g: MapDescriptor,
    h: MapDescriptor,
    lo: float,
    hi: float,
    samples: int,
) -> ConjugacyReport:
    """Residuals of f(h(x)) = h(g(x)) on [lo, hi); h need not be invertible.

    The grid is half-open so that maps defined on [0, 1) can be checked
    up to (but excluding) the right endpoint.
    """
    samples = check_samples(samples)  # linspace sees samples + 1 points, so it would pass 1
    check_interval(lo, hi)
    grid = linspace(lo, hi, samples + 1)[:-1]
    f_at, g_at, h_at = (_snapped(m._raw, m.domain) for m in (f, g, h))
    return _residual_report(grid, lambda x: abs(f_at(h_at(x)) - h_at(g_at(x))), "semiconjugacy")


def periodicity_order(
    m: MapDescriptor,
    p_max: int,
    samples: int,
    tol: float = 1e-10,
) -> Optional[int]:
    """Smallest p <= p_max with f^p = identity on an interior sample grid
    (sup norm below tol), or None when no such p exists.

    The map must send its domain into itself for the iterates to make
    sense; a map of order p under composition satisfies psi^2 = identity
    whenever it is continuous, so orders above 2 indicate a defect.
    """
    p_max = check_count(p_max, "p_max")
    grid = m.domain().interior_grid(samples)
    check_positive(tol, "tolerance")

    def returns(x: float, p: int) -> bool:
        for y in trajectory(m, x, p):  # iterate(m, x, p), less its check of p
            pass
        return abs(y - x) < tol  # trajectory never yields NaN

    for p in range(1, p_max + 1):
        if all(returns(x, p) for x in grid):  # stops at the first point that fails p
            return p
    return None


def herschel_relation_residual(
    f_outer: Callable[[float], float],
    phi: Homeomorphism,
    lo: float,
    hi: float,
    samples: int,
) -> float:
    """Max residual of the functional relation x + phi(x) + f(x*phi(x)) = 0
    over an inclusive grid of [lo, hi]."""
    grid = linspace(lo, hi, samples)  # first, so its sample-count error wins
    check_interval(lo, hi)
    phi_at = _snapped(phi._fwd, phi.domain)

    def residual(x: float) -> float:
        px = phi_at(x)
        return abs(x + px + f_outer(x * px))

    return _residual_report(grid, residual, "Herschel relation").max_residual


def orbit_consistency(
    f: MapDescriptor,
    g: MapDescriptor,
    pairs: list[tuple[float, float]],
    n: int,
    tol: float,
) -> Optional[Conflict]:
    """Test whether a putative pairing a -> b between f-values and g-values
    can extend to a function intertwining the two maps.

    The entries (f^k(a), g^k(b)), k = 0..n, of every pair go through
    _first_collision, so a collision of two orbits or within one, at one
    step or at two, counts. The Conflict's step is the first step at which
    an f-orbit, pairs taken in argument order, reaches left. Returns None
    when no obstruction shows up.
    """
    n = check_count(n, "step count", 0)
    check_positive(tol, "tolerance")
    entries: list[tuple[float, float]] = []
    for a, b in pairs:
        entries.extend(zip(trajectory(f, a, n), trajectory(g, b, n)))
    conflict = _first_collision(entries, tol)
    if conflict is None:
        return None
    step = next(k for a, _ in pairs for k, x in enumerate(trajectory(f, a, n))
                if x == conflict.left)
    return Conflict(conflict.left, conflict.right, conflict.image_gap, step)


def propagate_partial_conjugacy(
    f: MapDescriptor,
    g: MapDescriptor,
    seed_lo: float,
    seed_hi: float,
    h_seed: Homeomorphism,
    depth: int,
    grid: int,
    tol: float,
) -> Union[list[tuple[float, float]], Conflict]:
    """Extend a coordinate change known on a seed interval along orbits.

    A value h(x) = y forces h(f^k(x)) = g^k(y), so seeding h on
    [seed_lo, seed_hi] determines it on every forward image of the seed.
    The table {(f^k(x), g^k(h_seed(x)))} is returned sorted by first
    coordinate, unless _first_collision finds two entries that contradict
    each other, in which case the propagation is self-contradictory and
    that Conflict, with no step, is returned instead. An orbit that leaves
    its domain raises DomainError.
    """
    depth = check_count(depth, "depth")
    grid = check_samples(grid, "seed points")
    check_positive(tol, "tolerance")
    check_interval(seed_lo, seed_hi)
    entries: list[tuple[float, float]] = []
    for x in linspace(seed_lo, seed_hi, grid):
        entries.extend(zip(trajectory(f, x, depth), trajectory(g, apply_homeo(h_seed, x), depth)))
    conflict = _first_collision(entries, tol)
    return entries if conflict is None else conflict
