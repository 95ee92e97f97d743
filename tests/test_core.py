"""The numerical core against reference loops, and properties of snap.

The references are the straightforward loops that the core replaces:
iterate recomputed from the seed for every n, one hand-written orbit
loop per caller, one hand-written sample grid per caller, the list
grids and list residual loop that array('d') replaced, monotone
bisection on eval_map through the branches of the tent map and of
piecewise-linear maps, monotone bisection on _interpolate for the
knot-window solver (_bisect_pl) that inverts pwlh and pulls back pwl
maps, that solver again for the one-step inverse of a pwlh on [0, 1],
the 100-halving bisection loops that the uncapped kernels keep
bit for bit wherever those loops ended before their cap, the per-point
calls (apply_homeo, the JSON writer per element, the SVG coordinate
functions) that the orbit-stream fast paths inline, the CSV table row
by row, which the writers join a block at a time, the residual checks
with every domain looked up at every evaluation, herschel_iterate
computed from scratch for each n, and periodicity_order through iterate
at every point. The core must reproduce each of them exactly, errors
included: results are compared by repr, which is bitwise for floats and
treats NaN as equal to itself.
"""

import math
import random
import re
from array import array
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervaldyn import (CompositionH, Conjugated, DistributionSpec, DomainError, Hyperbola,
                         IntervalDynError, Logistic, ParameterError, PiecewiseLinear, Quadratic,
                         Reflect, Tent, UlamArcsin, Unimodal, apply_homeo, boole_iterate,
                         cobweb_path, crosscheck_closed_form, eval_map, fixed_points,
                         herschel_iterate, herschel_relation_residual, hyperbola_iterate,
                         iterate, mobius_involution, orbit, orbit_consistency, periodicity_order,
                         sensitivity_report, verify_conjugacy, verify_semiconjugacy,
                         zero_preimage_set)
from intervaldyn import analysis, closed_form, homeos, render
from intervaldyn.chaos_rng import arcsine_cdf, uniformize
from intervaldyn.cli import BLOCK, _csv_cell, parse_map_spec, to_csv, to_json
from intervaldyn.closed_form import (MAX_ITERATIONS, CrosscheckReport, _herschel_values,
                                     _scaled_deviation)
from intervaldyn.conjugacy import Conflict, ConjugacyReport
from intervaldyn.errors import check_count, check_interval, check_positive, check_samples
from intervaldyn.homeos import (PiecewiseLinearHomeo, _bisect_monotone, _bisect_pl, _interpolate,
                                invert_homeo, parse_homeo_spec)
from intervaldyn.interval import ENDPOINT_TOL, UNIT, Interval, _dedup_sorted, linspace
from intervaldyn.maps import MapDescriptor, Orbit
from intervaldyn.render import VIEW, _window, cobweb_svg

# every map family the CLI grammar reaches, plus a map that leaves its domain
MAP_SPECS = ["logistic", "tent", "halftent", "quadratic", "doubling", "cosine", "sinsq",
             "hyperbola:e=2,a=1", "hyperbola:e=0.5,a=1", "verhulst:m=4,n=4",
             "verhulst:m=3.2,n=1", "pwl:0,0;0.4,1;1,0", "pwl:0,0.5;1,1.5",
             "conj:logistic|alpha", "conj:tent|pwlh:0,0;0.3,0.6;1,1"]
SEEDS = [0.123456789, 0.3, 0.7, 0.999, 1.0 + 1e-13, 1.5, -0.5, 3.0,
         math.inf, -math.inf, math.nan]
# seeds on the domain ends, or whose orbits reach them later: tent and
# logistic send 0.5 to 1.0 and then to 0.0
END_SEEDS = [0.0, -0.0, 1.0, 0.25, 0.5, 0.75, 5e-324]


def outcome(fn, *args):
    """("ok", repr of the result) or ("error", the DomainError message)."""
    try:
        return "ok", repr(fn(*args))
    except DomainError as exc:
        return "error", str(exc)


# --- reference loops -----------------------------------------------------------


def ref_linspace(lo, hi, samples):
    """The inclusive grid as a list, both formulas written out."""
    samples = check_samples(samples)
    width, last = hi - lo, samples - 1
    if math.isfinite(width * last):
        return [lo + width * i / last for i in range(samples)]
    return [lo + width / last * i for i in range(samples)]


def ref_interior_grid(dom, samples):
    """Interval.interior_grid as a list."""
    samples = check_samples(samples)
    check_interval(dom.lo, dom.hi)
    step = (dom.hi - dom.lo) / samples
    return [dom.lo + (i + 0.5) * step for i in range(samples)]


def ref_iterate(m, x, n):
    dom = m.domain()
    cur = dom.snap(x)
    for k in range(n):
        try:
            cur = dom.snap(m._raw(cur))
        except DomainError as exc:
            raise DomainError(f"iterate {k + 1} escaped the domain: {exc}") from exc
    return cur


def ref_orbit(m, x0, n):
    dom = m.domain()
    cur = dom.snap(x0)
    values = [cur]
    for k in range(n):
        try:
            cur = dom.snap(m._raw(cur))
        except DomainError as exc:
            raise DomainError(f"iterate {k + 1} escaped the domain: {exc}") from exc
        values.append(cur)
    return tuple(values)


def ref_polylines(m, orbit):
    """The points attributes of the graph and cobweb polylines: the cobweb
    path's point pairs built from the orbit, and each coordinate mapped
    to the view by its own function and printed by .4f."""
    lo, hi = _window(m, orbit)
    span = hi - lo
    points = [(orbit[0], orbit[0])]
    for cur, nxt in zip(orbit, orbit[1:]):
        points += [(cur, nxt), (nxt, nxt)]

    def px(x):
        return (x - lo) / span * VIEW

    def py(y):
        return VIEW - (y - lo) / span * VIEW

    graph = []
    for x in ref_linspace(lo, hi, 1000):
        try:
            y = eval_map(m, x)
        except DomainError:
            continue
        if math.isfinite(py(y)):
            graph.append((x, y))
    return [" ".join(f"{format(px(x), '.4f')},{format(py(y), '.4f')}" for x, y in pts)
            for pts in (graph, points)]


def ref_float_list(values, indent):
    """to_json's rendering of a list element by element."""
    inner = "  " * (indent + 1)
    items = [f"{inner}{''.join(to_json(v, indent + 1))}" for v in values]
    return "[\n" + ",\n".join(items) + f"\n{'  ' * indent}]"


def ref_sensitivity(m, x0, delta, n):
    dom = m.domain()
    a, b = dom.snap(x0), dom.snap(x0 + delta)
    seps = [0.0 if a == b else abs(a - b)]
    for k in range(n):
        try:
            a, b = dom.snap(m._raw(a)), dom.snap(m._raw(b))
        except DomainError as exc:
            raise DomainError(f"iterate {k + 1} escaped the domain: {exc}") from exc
        seps.append(0.0 if a == b else abs(a - b))
    return seps


def ref_cobweb(m, x0, steps):
    dom = m.domain()
    cur = dom.snap(x0)
    points = [(cur, cur)]
    converged, limit = False, None
    for k in range(steps):
        try:
            nxt = dom.snap(m._raw(cur))
        except DomainError as exc:
            raise DomainError(f"cobweb escaped the domain at step {k + 1}: {exc}") from exc
        points.append((cur, nxt))
        points.append((nxt, nxt))
        if not converged and abs(nxt - cur) < 1e-12:
            converged, limit = True, nxt
        cur = nxt
    return tuple(points), converged, limit


def ref_crosscheck(m, formula, lo, hi, n_max, samples):
    n_max = check_count(n_max, "iteration count", 0, MAX_ITERATIONS)
    worst, arg_x, arg_n = -1.0, lo, 0
    for i in range(samples):
        x = lo + (hi - lo) * i / (samples - 1)
        for n in range(n_max + 1):
            try:
                brute = ref_iterate(m, x, n)
                closed = formula(x, n)
            except DomainError as exc:
                raise DomainError(f"crosscheck failed at x={x!r}, n={n}: {exc}") from exc
            d = _scaled_deviation(brute, closed)
            if d > worst:
                worst, arg_x, arg_n = d, x, n
    return CrosscheckReport(worst, arg_x, arg_n, samples, n_max)


def ref_herschel_iterate(x, n):
    """herschel_iterate computed from scratch for one n."""
    n = check_count(n, "iteration count", 0, MAX_ITERATIONS)
    if not math.isfinite(x):
        raise DomainError(f"need a finite argument, got {x!r}")
    c, cm = closed_form._characteristic_roots(x)
    if n == 0:
        v = (c + cm) / 2.0
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            return x  # both roots are infinite for |x| above about 1.34e154
    else:
        for _ in range(n - 1):
            c, cm = c * c, cm * cm
        v = (0.5 * c) * c + (0.5 * cm) * cm
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            # a non-finite square stays non-finite; even powers diverge to +inf
            return math.inf
    if abs(v.imag) > 1e-6 * max(1.0, abs(v.real)):
        raise closed_form.ImaginaryResidueError(f"imaginary residue {v.imag!r} at x={x!r}, n={n}")
    return v.real


def ref_residual_report(grid, residual, what):
    """_residual_report over a list grid, its residuals a list of float
    objects; the report holds both as array('d'), so that its repr equals
    the kernel's exactly when every value does."""
    residuals = []
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
    return ConjugacyReport(array("d", grid), array("d", residuals), worst, arg)


def ref_verify(f, g, h, samples):
    """verify_conjugacy with the domains looked up at every evaluation."""
    return ref_residual_report(
        ref_interior_grid(f.domain(), samples),
        lambda x: abs(apply_homeo(h, eval_map(f, x)) - eval_map(g, apply_homeo(h, x))),
        "conjugacy")


def ref_semiverify(f, g, h, lo, hi, samples):
    """verify_semiconjugacy with the domains looked up at every evaluation."""
    samples = check_samples(samples)
    check_interval(lo, hi)
    return ref_residual_report(
        ref_linspace(lo, hi, samples + 1)[:-1],
        lambda x: abs(eval_map(f, eval_map(h, x)) - eval_map(h, eval_map(g, x))),
        "semiconjugacy")


def ref_herschel_per_call(f_outer, phi, lo, hi, samples):
    """herschel_relation_residual with phi's domain looked up at every point."""
    grid = ref_linspace(lo, hi, samples)
    check_interval(lo, hi)

    def residual(x):
        px = apply_homeo(phi, x)
        return abs(x + px + f_outer(x * px))

    return ref_residual_report(grid, residual, "Herschel relation").max_residual


def ref_periodicity_order(m, p_max, samples, tol):
    p_max = check_count(p_max, "p_max")
    grid = ref_interior_grid(m.domain(), samples)
    check_positive(tol, "tolerance")
    for p in range(1, p_max + 1):
        if all(abs(iterate(m, x, p) - x) < tol for x in grid):
            return p
    return None


def ref_orbit_consistency(f, g, pairs, n, tol):
    f_orbits, g_orbits = [], []
    for a, b in pairs:
        f_orbits.append([ref_iterate(f, a, k) for k in range(n + 1)])
        g_orbits.append([ref_iterate(g, b, k) for k in range(n + 1)])
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            for k in range(n + 1):
                if abs(f_orbits[i][k] - f_orbits[j][k]) < tol:
                    gap = abs(g_orbits[i][k] - g_orbits[j][k])
                    if gap >= 10.0 * tol:
                        return Conflict(left=pairs[i][0], right=pairs[j][0], image_gap=gap, step=k)
    return None


def ref_levels(m, v, depth):
    """Pull {0} back through m's branches on [0, v] and [v, 1] by
    monotone bisection on eval_map; yields the points of [0, 1] at every
    depth 1..depth."""

    def fwd(x):
        return eval_map(m, x)

    def pullback(t, lo, hi):
        flo, fhi = fwd(lo), fwd(hi)
        rlo, rhi = min(flo, fhi), max(flo, fhi)
        if t < rlo - 1e-12 or t > rhi + 1e-12:
            return None
        return _bisect_monotone(fwd, min(max(t, rlo), rhi), lo, hi)

    level = [0.0]
    for _ in range(depth):
        nxt = [p for t in level for p in (pullback(t, 0.0, v), pullback(t, v, 1.0))
               if p is not None]
        level = _dedup_sorted(nxt, 1e-12)
        yield [p for p in level if UNIT.contains(p)]


def ref_preimage_sets(g2, depth):
    """The zero-preimage sets of g2 at depths 1..depth, one per level, as
    zero_preimage_set built them before it solved each target once: every
    target of every level pulled back again, the tent's through t/2 and
    1 - t/2, then flattened, sorted and deduplicated."""
    if isinstance(g2, Tent):
        def pullback(t):
            return [0.5 * t, 1.0 - 0.5 * t]
    else:
        pullback = analysis._pullback(g2)
    level, points, gap, levels = [0.0], [], 1.0, []
    for k in range(1, depth + 1):
        if level:
            level = _dedup_sorted([p for t in level for p in pullback(t)], 1e-12)
            points = [p for p in level if UNIT.contains(p)]
            gap = largest_gap(points) if points else 1.0
        levels.append((k, len(points), gap))
        yield analysis.PreimageSet(depth=k, points=tuple(points), largest_gap=gap,
                                   levels=tuple(levels))


def ref_fixed_points(m, lo, hi, tol):
    """Scan a 10^4-point grid for strict sign changes of f(x) - x; in each,
    evaluate the bracket's ends again and halve it to width tol or to
    adjacent floats, taking 0.5 * a + 0.5 * b where a + b overflows."""
    if tol <= 0.0 or not math.isfinite(tol):
        raise ParameterError(f"tolerance must be positive, got {tol!r}")
    dom = m.domain()
    lo, hi = dom.snap(lo), dom.snap(hi)
    if lo >= hi:
        raise DomainError(f"cannot grid [{lo}, {hi}]: need lo < hi and a finite hi - lo")

    def g(x):
        return eval_map(m, x) - x

    def midpoint(a, b):
        mid = 0.5 * (a + b)
        return mid if math.isfinite(mid) else 0.5 * a + 0.5 * b

    n_grid = 10**4
    xs = [lo + (hi - lo) * i / (n_grid - 1) for i in range(n_grid)]
    roots = []
    prev_x, prev_g = xs[0], g(xs[0])
    if prev_g == 0.0:
        roots.append(prev_x)
    for x in xs[1:]:
        cur_g = g(x)
        if cur_g == 0.0:
            roots.append(x)
        elif (prev_g < 0.0 and cur_g > 0.0) or (prev_g > 0.0 and cur_g < 0.0):
            a, b = prev_x, x
            g(a), g(b)
            while b - a > tol:
                mid = midpoint(a, b)
                if not a < mid < b:
                    break
                gm = g(mid)
                if gm == 0.0:
                    a = b = mid
                    break
                if (gm < 0.0) == (prev_g < 0.0):
                    a = mid
                else:
                    b = mid
            roots.append(midpoint(a, b))
        prev_x, prev_g = x, cur_g
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > tol:
            merged.append(r)
    return merged


def ref_herschel(f_outer, phi, lo, hi, samples):
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples!r}")
    worst = 0.0
    for i in range(samples):
        x = lo + (hi - lo) * i / (samples - 1)
        px = apply_homeo(phi, x)
        worst = max(worst, abs(x + px + f_outer(x * px)))
    return worst


def ref_unimodal_checks(v, left, right):
    """The checks of Unimodal."""
    if not (0.0 < v < 1.0):
        raise ParameterError(f"turning point must lie in (0, 1), got {v!r}")
    if abs(eval_map(left, 0.0)) > 1e-12:
        raise ParameterError("left branch must vanish at 0")
    if abs(eval_map(right, 1.0)) > 1e-12:
        raise ParameterError("right branch must vanish at 1")
    n = 1000
    prev = eval_map(left, 0.0)
    for i in range(1, n):
        cur = eval_map(left, v * i / (n - 1))
        if cur < prev - 1e-12:
            raise ParameterError("left branch is not non-decreasing on [0, v]")
        prev = cur
    prev = eval_map(right, v)
    for i in range(1, n):
        cur = eval_map(right, v + (1.0 - v) * i / (n - 1))
        if cur > prev + 1e-12:
            raise ParameterError("right branch is not non-increasing on (v, 1]")
        prev = cur


def ref_distribution_checks(cdf, inverse_cdf):
    """The checks of DistributionSpec, given both functions."""
    if abs(cdf(0.0)) > 1e-9 or abs(cdf(1.0) - 1.0) > 1e-9:
        raise ParameterError("CDF must satisfy F(0) = 0 and F(1) = 1")
    prev = cdf(0.0)
    for i in range(1, 1000):
        cur = cdf(i / 999)
        if cur < prev - 1e-12:
            raise ParameterError(f"CDF decreases near {i / 999!r}")
        prev = cur
    for i in range(1, 1000):
        u = i / 1000
        if abs(cdf(inverse_cdf(u)) - u) > 1e-9:
            raise ParameterError(f"inverse CDF fails the round trip at u={u!r}")


def verdict(fn, *args):
    """outcome() for any library error, named by its type."""
    try:
        return "ok", repr(fn(*args))
    except IntervalDynError as exc:
        return type(exc).__name__, str(exc)


def construct(cls, *args):
    """None once cls(*args) has passed its checks."""
    cls(*args)


def recording(f, points):
    """f, appending every argument it is called with to points."""
    def wrapped(x):
        points.append(x)
        return f(x)
    return wrapped


class Recorded(MapDescriptor):
    """The map m, recording every point it is evaluated at, so that a
    test compares the grid points bit for bit, not only the verdicts."""

    def __init__(self, m):
        self.m, self.points, self._domain = m, [], m.domain()

    def _raw(self, x):
        self.points.append(x)
        return self.m._raw(x)


# --- the core equals the references --------------------------------------------


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_orbit_loops_match_references(spec):
    m = parse_map_spec(spec)
    for x0 in SEEDS + END_SEEDS:
        for n in (0, 1, 7, 200):
            assert outcome(iterate, m, x0, n) == outcome(ref_iterate, m, x0, n), (x0, n)
        assert outcome(lambda: orbit(m, x0, 200).values) == outcome(ref_orbit, m, x0, 200), x0
        for delta in (1e-9, -0.25, 0.0):
            assert (outcome(sensitivity_report, m, x0, delta, 60)
                    == outcome(ref_sensitivity, m, x0, delta, 60)), (x0, delta)


class Overshoot(MapDescriptor):
    """A map on [0, 1] whose iterates land just outside an end (snapped
    back), on an end, beyond the snap tolerance, at NaN, or that raises."""

    _domain = UNIT
    _NEXT = {0.1: 1.0 + 1e-13, 1.0: -1e-13, 0.0: 0.5, 0.5: 1.0 + 1e-9, 0.3: math.nan,
             0.2: 0.0, 0.7: None}

    def _raw(self, x):
        nxt = self._NEXT[x]
        if nxt is None:
            raise DomainError(f"no image of {x!r}")
        return nxt


@pytest.mark.parametrize("x0", [0.1, 0.2, 0.3, 0.7, 1.0 + 1e-13, -1e-13])
def test_orbits_off_the_open_interior_match_references(x0):
    m = Overshoot()
    for n in range(6):
        assert outcome(iterate, m, x0, n) == outcome(ref_iterate, m, x0, n), n
    assert outcome(lambda: orbit(m, x0, 5).values) == outcome(ref_orbit, m, x0, 5)


def cobweb_fields(m, x0, steps):
    path = cobweb_path(m, x0, steps)
    return path.points, path.converged, path.limit


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_cobweb_matches_reference(spec):
    m = parse_map_spec(spec)
    for x0 in SEEDS:
        path = outcome(cobweb_fields, m, x0, 100)
        kind, text = outcome(ref_cobweb, m, x0, 100)
        # the one loop words an escape the way iterate does
        text = re.sub(r"^cobweb escaped the domain at step (\d+)", r"iterate \1 escaped the domain",
                      text)
        assert path == (kind, text), x0


def polylines(m, orbit):
    return re.findall(r' points="([^"]*)"', "".join(cobweb_svg(m, orbit)))


def cobweb_polylines(m, x0, steps):
    # the orbit that cobweb --format svg draws
    return polylines(m, analysis._cobweb_orbit(m, x0, steps)[0])


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_cobweb_polylines_match_reference(spec):
    m = parse_map_spec(spec)
    for x0 in SEEDS + END_SEEDS:
        assert (outcome(cobweb_polylines, m, x0, 30)
                == outcome(lambda: ref_polylines(m, cobweb_path(m, x0, 30).orbit_values()))), x0


# points of [0, 1], points up to 2e-12 outside it (snapped, or rejected
# beyond 1e-12), and the values snap rejects
ULAM_POINTS = st.one_of(
    st.floats(min_value=-2e-12, max_value=1.0 + 2e-12),
    st.sampled_from([0.0, -0.0, 1.0, -1e-12, 1.0 + 1e-12, -1.1e-12, 1.0 + 1.1e-12, 5e-324,
                     math.nan, math.inf, -math.inf]))


@given(ULAM_POINTS)
def test_arcsine_cdf_is_the_ulam_homeo(v):
    assert outcome(arcsine_cdf, v) == outcome(apply_homeo, UlamArcsin(), v)


@given(st.lists(ULAM_POINTS, min_size=1, max_size=20))
def test_uniformize_is_the_ulam_homeo_pointwise(values):
    o = Orbit(seed=values[0], values=tuple(values), map_id="logistic")
    assert (outcome(uniformize, o)
            == outcome(lambda: [apply_homeo(UlamArcsin(), v) for v in values]))


@given(st.lists(st.floats(), min_size=1, max_size=30), st.integers(0, 2))
def test_float_lists_render_element_by_element(values, indent):
    values += [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308]
    for sequence in (values, tuple(values), array("d", values)):
        assert "".join(to_json(sequence, indent)) == ref_float_list(values, indent)


def test_mixed_lists_render_each_element_by_its_type():
    mixed = [0.5, True, 10**20, -0.0, 3]
    assert "".join(to_json(mixed)) == ref_float_list(mixed, 0) == (
        "[\n  0.5,\n  true,\n  100000000000000000000,\n  -0,\n  3\n]")


# the writers join their output a block at a time: lengths one short of a
# block, one block, one past it, and past two blocks
BLOCK_LENGTHS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0]


def edge_floats(length):
    """length floats with NaN, the infinities and -0.0 on the first and last
    element and on both sides of every block edge."""
    values = [k / 7.0 - 100.0 for k in range(length)]
    edges = [0, length - 1] if length else []
    edges += [i for e in range(BLOCK, length, BLOCK) for i in (e - 1, e)]
    for j, i in enumerate(edges):
        values[i] = EDGE_VALUES[j % len(EDGE_VALUES)]
    return values


@pytest.mark.parametrize("length", BLOCK_LENGTHS)
@pytest.mark.parametrize("kind", [list, tuple, partial(array, "d")], ids=["list", "tuple", "array"])
def test_float_lists_render_across_block_edges(length, kind):
    values = edge_floats(length)
    for indent in (0, 2):
        assert "".join(to_json(kind(values), indent)) == ref_float_list(values, indent)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
       st.integers(0, 2))
def test_finite_float_lists_render_element_by_element(values, indent):
    # a block of finite values whose sum is finite is one %-format
    values += [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]
    for sequence in (values, tuple(values), array("d", values)):
        assert "".join(to_json(sequence, indent)) == ref_float_list(values, indent)


# subnormals, both zeros, the largest finite floats and digits of every
# length; +-1.7e308 alternate, so that a block's sum stays finite
FINITE_VALUES = [5e-324, -2.2250738585072009e-308, -0.0, 0.0, 1e16, 0.1, 1.7e308,
                 123456789.125, -1.7e308, 2.0**-1074 * 3]


@pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("kind", [list, tuple, partial(array, "d")], ids=["list", "tuple", "array"])
def test_finite_float_blocks_render_across_block_edges(length, kind):
    values = [FINITE_VALUES[k % len(FINITE_VALUES)] if k % 2 else k / 7.0 - 100.0
              for k in range(length)]
    assert all(math.isfinite(sum(values[s:s + BLOCK])) for s in range(0, length, BLOCK))
    # and a block of finite values whose sum overflows, which is formatted
    # value by value
    overflowing = [1.7e308, 1.7e308] + values[2:]
    assert math.isinf(sum(overflowing[:BLOCK]))
    for sample in (values, overflowing):
        for indent in (0, 2):
            assert "".join(to_json(kind(sample), indent)) == ref_float_list(sample, indent)


@pytest.mark.parametrize("length", BLOCK_LENGTHS)
def test_mixed_lists_render_across_block_edges(length):
    cycle = [0.5, True, None, "a,b", 3, -0.0, [1.5, math.inf], {"k": math.nan}]
    mixed = [cycle[k % len(cycle)] for k in range(length)]
    assert "".join(to_json(mixed, 1)) == ref_float_list(mixed, 1)


def ref_csv(header, rows):
    """The CSV table row by row."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_csv_cell(c) for c in row) + "\n"
    return text


@pytest.mark.parametrize("length", [0, 1] + BLOCK_LENGTHS)
def test_csv_tables_render_across_block_edges(length):
    rows = [(k, x, None if k % 5 == 0 else "a,\"b\"") for k, x in enumerate(edge_floats(length))]
    # rows may be any iterable, read once
    assert "".join(to_csv(("k", "x", "note"), iter(rows))) == ref_csv(("k", "x", "note"), rows)
    assert "".join(to_csv(("k", "x"), enumerate(array("d", edge_floats(length))))) \
        == ref_csv(("k", "x"), enumerate(edge_floats(length)))


@pytest.mark.parametrize("length", [render.BLOCK // 2 - 1, render.BLOCK // 2,
                                    render.BLOCK // 2 + 1, render.BLOCK - 1, render.BLOCK,
                                    render.BLOCK + 1, 2 * render.BLOCK + 1])
def test_polylines_render_across_block_edges(length):
    # orbits of any length in the logistic and the quadratic window (a
    # cobweb has 2 * length - 1 points, render.BLOCK to a block), with -0.0
    # on every multiple of render.BLOCK / 2 values and on both sides of it
    for m, orbit in ((Logistic(), [(0.37 * k) % 1.0 for k in range(length)]),
                     (Quadratic(), [(0.61 * k) % 2.0 - 1.0 for k in range(length)])):
        for e in range(render.BLOCK // 2, length + 1, render.BLOCK // 2):
            for i in (e - 1, e, e + 1):
                if i < length:
                    orbit[i] = -0.0
        for kind in (list, partial(array, "d")):
            assert polylines(m, kind(orbit)) == ref_polylines(m, orbit)
        assert len(polylines(m, orbit)[1].split(" ")) == 2 * length - 1


def _failing_after(n_bad, formula):
    def wrapped(x, n):
        if n == n_bad and x > 0.5:
            raise DomainError("closed form undefined here")
        return formula(x, n)
    return wrapped


@pytest.mark.parametrize("case", [
    (Quadratic(), boole_iterate, -1.0, 1.0, 10, 101),
    (Quadratic(), herschel_iterate, -1.2, 3.0, 10, 101),
    (Quadratic(), herschel_iterate, 1.0, 3.0, 0, 5),
    (Quadratic(), herschel_iterate, 0.9999999, 1.0000001, 10, 51),
    (Quadratic(), herschel_iterate, 1e154, 2e154, 3, 5),
    (Hyperbola(e=math.sqrt(3.0), a=1.0), lambda x, n: hyperbola_iterate(math.sqrt(3.0), 1.0, x, n),
     2.0, 5.0, 4, 57),
    # brute force leaves the domain: the radicand turns negative at step 1
    (Hyperbola(e=0.5, a=1.0), lambda x, n: hyperbola_iterate(0.5, 1.0, x, n), -1.5, 1.5, 6, 11),
    # the closed form fails first, at step 3 of the first sample above 0.5
    (Quadratic(), _failing_after(3, boole_iterate), -1.0, 1.0, 6, 9),
], ids=["boole", "herschel", "herschel-n0", "herschel-at-1", "herschel-infinite-roots",
        "hyperbola", "escape", "formula-fails"])
def test_crosscheck_matches_per_n_iterate(case):
    assert outcome(crosscheck_closed_form, *case) == outcome(ref_crosscheck, *case)


def element_reprs(grid):
    """The repr of every point, and the grid's type."""
    return type(grid).__name__, [repr(x) for x in grid]


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.floats(), st.integers(1, 300))
@example(1e308, 1.7e308, 5)
@example(-1.7e308, -1e308, 10**4)
@example(-1.7e308, 1.7e308, 3)
@example(0.3, 0.3, 3)
@example(-math.inf, 1.0, 4)
def test_linspace_is_the_list_formula_bit_for_bit(lo, hi, samples):
    core = verdict(lambda: element_reprs(linspace(lo, hi, samples)))
    ref = verdict(lambda: element_reprs(array("d", ref_linspace(lo, hi, samples))))
    assert core == ref


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2, unique=True).map(sorted),
       st.integers(1, 300))
@example([-1e308, 1e308], 5)
@example([1e308, 1.7e308], 7)
@example([0.0, 5e-324], 2)
@example([-math.inf, 1.0], 4)
def test_interior_grid_is_the_list_formula_bit_for_bit(ends, samples):
    dom = Interval(*ends)
    core = verdict(lambda: element_reprs(dom.interior_grid(samples)))
    ref = verdict(lambda: element_reprs(array("d", ref_interior_grid(dom, samples))))
    assert core == ref


# maps whose images land on a closed end, within ENDPOINT_TOL beyond one,
# and further beyond; coordinate changes whose range (and so the domain of a
# map conjugated by them) cannot be built, alone and inside a composition
RESIDUAL_MAP_SPECS = MAP_SPECS + ["pwl:0,0;0.5,1.0000000000005;1,0", "pwl:0,-5e-13;0.5,1;1,0",
                                  "pwl:0,0;0.5,1.5;1,0"]
HOMEO_SPECS = ["ulam", "alpha", "reflect", "affine:p=0.5,q=0.25", "power:g=0.5",
               "mobius:a=0.5,b=0.5", "pwlh:0,0;0.3,0.6;1,1", "pwlh:0,1;0.25,0.8;0.6,0.3;1,0",
               "pwlh:0,0;0.5,1", "pwlh:0,0;2,1"]
_HOMEOS = st.recursive(st.sampled_from(HOMEO_SPECS).map(parse_homeo_spec),
                       lambda inner: st.builds(CompositionH, inner, inner), max_leaves=3)
_MAPS = st.one_of(st.sampled_from(RESIDUAL_MAP_SPECS).map(parse_map_spec),
                  st.builds(Conjugated, st.sampled_from(RESIDUAL_MAP_SPECS).map(parse_map_spec),
                            _HOMEOS))
_GRID_ENDS = st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.25, 0.75), (-0.5, 1.5), (0.9, 1.0)])


@settings(max_examples=300, deadline=None)
@given(_MAPS, _MAPS, _HOMEOS, st.integers(2, 24))
@example(Logistic(), parse_map_spec("conj:tent|(pwlh:0,0;0.5,1 o ulam)"), UlamArcsin(), 10)
@example(parse_map_spec("pwl:0,0;0.5,1.0000000000005;1,0"), Tent(), UlamArcsin(), 11)
@example(parse_map_spec("pwl:0,0;0.5,1.5;1,0"), Tent(), UlamArcsin(), 10)
def test_verify_matches_per_call_lookups(f, g, h, samples):
    case = (f, g, h, samples)
    assert verdict(verify_conjugacy, *case) == verdict(ref_verify, *case)


@settings(max_examples=300, deadline=None)
@given(_MAPS, _MAPS, _MAPS, _GRID_ENDS, st.integers(2, 24))
@example(Logistic(), parse_map_spec("doubling"),
         parse_map_spec("conj:tent|(pwlh:0,0;0.5,1 o ulam)"), (0.0, 1.0), 10)
@example(Tent(), parse_map_spec("pwl:0,-5e-13;0.5,1.0000000000005;1,0"),
         parse_map_spec("sinsq"), (0.0, 1.0), 10)
def test_semiverify_matches_per_call_lookups(f, g, h, ends, samples):
    case = (f, g, h, *ends, samples)
    assert verdict(verify_semiconjugacy, *case) == verdict(ref_semiverify, *case)


# outer functions for the Herschel relation: the one it holds for with
# mobius:a=1,b=2, and ones that overflow, return NaN or raise
_HERSCHEL_OUTERS = {
    "affine": lambda t: 1.0 + 2.0 * t,
    "identity": lambda t: t,
    "zero": lambda t: 0.0,
    "huge": lambda t: 1e308 * t,
    "nan": lambda t: math.nan if t > 0.5 else t,
    "raises": lambda t: eval_map(Tent(), t),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_HERSCHEL_OUTERS)), _HOMEOS,
       st.sampled_from([(0.0, 3.0), (0.3, 2.9), (-2.0, 2.0), (0.0, 1.0), (0.25, 0.75),
                        (-0.5, 1.5), (1.0, 0.0), (0.5, 0.5)]),
       st.integers(1, 24))
@example("affine", mobius_involution(1.0, 2.0, 0.0, 3.0), (0.0, 3.0), 1000)
@example("identity", parse_homeo_spec("(pwlh:0,0;0.5,1 o ulam)"), (0.0, 1.0), 10)
@example("raises", Reflect(), (-0.5, 1.5), 9)
def test_herschel_matches_per_call_lookups(outer, phi, ends, samples):
    core, ref = [], []
    f_outer = _HERSCHEL_OUTERS[outer]
    assert (verdict(herschel_relation_residual, recording(f_outer, core), phi, *ends, samples)
            == verdict(ref_herschel_per_call, recording(f_outer, ref), phi, *ends, samples))
    assert repr(core) == repr(ref)


@pytest.mark.parametrize("spec", RESIDUAL_MAP_SPECS + [
    "pwl:0,1;1,0", "conj:pwl:0,1;1,0|pwlh:0,0;0.3,0.6;1,1", "pwl:0,0;1,1",
    "conj:pwl:0,1;1,0|(pwlh:0,0;0.5,1 o ulam)"])
def test_periodicity_order_matches_per_point_iterate(spec):
    m = parse_map_spec(spec)
    for case in [(m, 4, 50, 1e-10), (m, 2, 7, 1e-3)]:
        assert verdict(periodicity_order, *case) == verdict(ref_periodicity_order, *case)


def per_n_outcomes(fn, x):
    """verdict(fn, x, n) for n = 0.., up to MAX_ITERATIONS or the first error."""
    out = []
    for n in range(MAX_ITERATIONS + 1):
        out.append(verdict(fn, x, n))
        if out[-1][0] != "ok":
            break
    return out


def chain_outcomes(x):
    out = []
    try:
        for v in _herschel_values(x, MAX_ITERATIONS):
            out.append(("ok", repr(v)))
    except IntervalDynError as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


_HERSCHEL_RNG = random.Random(20161)
HERSCHEL_POINTS = ([_HERSCHEL_RNG.uniform(-3.0, 3.0) for _ in range(20)]
                   + [1.0, -1.0, 0.0, -0.0, 1.0 + 1e-8, 1.0 - 1e-8, -1.0 - 1e-8, -1.0 + 1e-8,
                      1e154, 1.4e154, -1.4e154, 1e300, 5e-324, math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("x", HERSCHEL_POINTS)
def test_herschel_chain_is_herschel_iterate_for_every_n(x):
    chain = chain_outcomes(x)
    assert chain == per_n_outcomes(herschel_iterate, x) == per_n_outcomes(ref_herschel_iterate, x)
    assert len(chain) == (1 if not math.isfinite(x) else MAX_ITERATIONS + 1)


def test_herschel_chain_raises_an_imaginary_residue_at_the_same_n(monkeypatch):
    # a root pair that is not conjugate, which no real x gives: the residue
    # doubles with each squaring and passes 1e-6 partway along the chain
    monkeypatch.setattr(closed_form, "_characteristic_roots",
                        lambda x: (complex(x, 1e-9), complex(x, -2e-9)))
    chain = chain_outcomes(1.0)
    assert chain == per_n_outcomes(herschel_iterate, 1.0)
    assert chain == per_n_outcomes(ref_herschel_iterate, 1.0)
    assert 2 < len(chain) <= MAX_ITERATIONS and chain[-1][0] == "ImaginaryResidueError"


def test_crosscheck_names_the_failing_step():
    case = (Hyperbola(e=0.5, a=1.0), lambda x, n: hyperbola_iterate(0.5, 1.0, x, n),
            0.0, 1.5, 6, 4)
    with pytest.raises(DomainError, match=r"crosscheck failed at x=1\.5, n=1: iterate 1 escaped"):
        crosscheck_closed_form(*case)


def test_orbit_consistency_matches_per_n_iterate():
    f, g, h = Logistic(), Tent(), UlamArcsin()
    true_pairs = [(x, apply_homeo(h, x)) for x in (0.05, 0.3, 0.31, 0.7, 0.93)]
    escaping = parse_map_spec("pwl:0,0.5;1,1.5")
    cases = [
        (f, g, true_pairs, 40, 1e-9),
        (f, g, [(0.3, 0.3), (0.7, 0.6)], 1, 1e-9),
        (f, g, [(0.3, 0.3), (0.7, 0.6), (0.2, 0.9)], 6, 1e-3),
        (f, g, [(0.3, 0.9)], 5, 1e-9),
        (g, g, [(0.25, 0.1), (0.75, 0.2)], 3, 1e-12),
        (f, escaping, [(0.3, 0.2), (0.7, 0.9)], 4, 1e-9),
        (f, g, [(0.3, 0.2), (1.5, 0.9)], 4, 1e-9),
    ]
    for case in cases:
        assert outcome(orbit_consistency, *case) == outcome(ref_orbit_consistency, *case), case


def largest_gap(points):
    return max([points[0]] + [b - a for a, b in zip(points, points[1:])] + [1.0 - points[-1]])


def test_exact_tent_pullback_matches_bisection():
    for k, ref_points in enumerate(ref_levels(Tent(), 0.5, 16), 1):
        pset = zero_preimage_set(Tent(), k)
        assert pset.points == tuple(ref_points), k
        gap = largest_gap(ref_points)
        assert pset.levels[-1] == (k, len(ref_points), gap)
        assert pset.largest_gap == gap


def test_tent_pullback_never_bisects(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tent's preimages are exact")
    monkeypatch.setattr(analysis, "_bisect_monotone", refuse)
    assert zero_preimage_set(Tent(), 12).largest_gap == 2.0**-11
    with pytest.raises(AssertionError):
        zero_preimage_set(Logistic(), 2)


# a turning point on a knot and off one, a dyadic and a flat-topped map,
# the golden density map with brackets that cross knots, and a map of
# eight knots with uneven slopes
PL_DENSITY_SPECS = ["pwl:0,0;0.4123,1;1,0", "pwl:0,0;0.5,1;1,0", "pwl:0,0;0.25,0.5;0.5,1;1,0",
                    "pwl:0,0;0.3,1;0.6,1;1,0", "pwl:0,0;0.2,0.5;0.45,1;0.7,0.6;1,0",
                    "pwl:0,0;0.1,0.3;0.2,0.35;0.35,0.9;0.5,1;0.6,0.95;0.9,0.1;1,0"]


@pytest.mark.parametrize("spec", PL_DENSITY_SPECS)
def test_pl_pullback_matches_bisection(spec):
    m = parse_map_spec(spec)
    depth = 9
    pset = zero_preimage_set(m, depth)
    v = analysis._branch_structure(m)
    for k, ref_points in enumerate(ref_levels(m, v, depth), 1):
        assert pset.levels[k - 1] == (k, len(ref_points), largest_gap(ref_points)), k
    assert repr(pset.points) == repr(tuple(ref_points))


def test_pl_solves_never_call_bisect_monotone(monkeypatch):
    def refuse(*args):
        raise AssertionError("piecewise-linear solves run in _bisect_pl")
    monkeypatch.setattr(analysis, "_bisect_monotone", refuse)
    monkeypatch.setattr(homeos, "_bisect_monotone", refuse)
    zero_preimage_set(parse_map_spec(PL_DENSITY_SPECS[4]), 6)
    invert_homeo(PiecewiseLinearHomeo([(0.0, 1.0), (0.25, 0.8), (0.6, 0.3), (1.0, 0.0)]), 0.5)
    iterate(parse_map_spec("conj:tent|pwlh:0,0;0.3,0.6;1,1"), 0.3, 20)
    with pytest.raises(AssertionError):
        zero_preimage_set(Logistic(), 2)


def test_tent_levels_in_closed_form_match_every_target_pulled_back():
    # bit for bit: the points as bytes (their repr takes a second at depth
    # 20) and as floats, the rest by repr
    for ref in ref_preimage_sets(Tent(), 20):
        pset = zero_preimage_set(Tent(), ref.depth)
        assert array("d", pset.points).tobytes() == array("d", ref.points).tobytes(), ref.depth
        assert set(map(type, pset.points)) == {float}
        assert repr((pset.depth, pset.largest_gap, pset.levels)) == \
            repr((ref.depth, ref.largest_gap, ref.levels))


# tent-shaped pwl maps of [0, 1]: a peak of height 1 or not, reached
# through knots on dyadics or anywhere, and rises and falls with flat pieces
_KNOT_X = st.one_of(st.integers(1, 63).map(lambda k: k / 64), st.floats(0.01, 0.99))
_KNOT_FRACTION = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def tent_shaped_knots(draw):
    xs = sorted(draw(st.lists(_KNOT_X, min_size=1, max_size=6, unique=True)))
    peak = draw(st.integers(0, len(xs) - 1))
    top = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
    rise = sorted(draw(st.lists(_KNOT_FRACTION, min_size=peak, max_size=peak)))
    fall = sorted(draw(st.lists(_KNOT_FRACTION, min_size=len(xs) - peak - 1,
                                max_size=len(xs) - peak - 1)), reverse=True)
    ys = [top * f for f in rise] + [top] + [top * f for f in fall]
    return ((0.0, 0.0),) + tuple(zip(xs, ys)) + ((1.0, 0.0),)


def _preimage_outcome(fn, m, depth):
    try:
        return "ok", repr(fn(m, depth))
    except IntervalDynError as exc:
        return type(exc).__name__, str(exc)


@settings(deadline=None)
@given(tent_shaped_knots(), st.integers(1, 10))
@example(((0.0, 0.0), (0.4123, 1.0), (1.0, 0.0)), 10)
@example(((0.0, 0.0), (0.3, 1.0), (0.6, 1.0), (1.0, 0.0)), 8)
def test_pl_preimage_levels_match_every_target_pulled_back(knots, depth):
    m = PiecewiseLinear(knots)
    assert _preimage_outcome(zero_preimage_set, m, depth) == _preimage_outcome(
        lambda m, depth: list(ref_preimage_sets(m, depth))[-1], m, depth)


@pytest.mark.parametrize("spec", PL_DENSITY_SPECS)
def test_pl_pullback_solves_each_target_once(monkeypatch, spec):
    # the targets of level k are level k - 1, which holds every earlier
    # level: at most one solve per branch for each point of level
    # depth - 1, 2 * 513 = 1026 at depth 11, where pulling back every
    # target of every level made 2068
    solves = []

    def counted(*args):
        solves.append(args)
        return _bisect_pl(*args)
    monkeypatch.setattr(analysis, "_bisect_pl", counted)
    depth = 11
    pset = zero_preimage_set(parse_map_spec(spec), depth)
    assert len(solves) <= 2 * pset.levels[depth - 2][1] == 1026


# piecewise-linear solves: coarse dyadic knots, so that midpoints hit
# knots and targets exactly, or fine ones; ordinates increasing,
# decreasing or in any order (a pwl map's branch may be flat or dip)
_DYADIC = st.integers(0, 16).map(lambda k: k / 16)
_FINE = st.floats(-4.0, 4.0)


@st.composite
def pl_solves(draw):
    coord = draw(st.sampled_from([_DYADIC, _FINE]))
    n = draw(st.integers(2, 12))
    xs = sorted(draw(st.lists(coord, min_size=2, max_size=n, unique=True)))
    ys = draw(st.lists(coord, min_size=len(xs), max_size=len(xs)))
    ys = draw(st.sampled_from([sorted(ys), sorted(ys, reverse=True), ys]))
    knots = tuple(zip(xs, ys))
    end = st.one_of(st.sampled_from(xs), st.floats(xs[0], xs[-1]))
    lo, hi = sorted((draw(end), draw(end)))
    # the value at a midpoint that bisection reaches after a few steps,
    # so that an exact hit there depends on the formula's last bit
    a, b = lo, hi
    for left in draw(st.lists(st.booleans(), max_size=8)):
        if left:
            b = 0.5 * (a + b)
        else:
            a = 0.5 * (a + b)
    target = draw(st.one_of(
        st.sampled_from(ys + [_interpolate(knots, lo), _interpolate(knots, hi)]),
        st.just(_interpolate(knots, 0.5 * (a + b))),
        st.floats(min(ys) - 1.0, max(ys) + 1.0),
        st.sampled_from([math.nan, math.inf, -math.inf])))
    return knots, target, lo, hi


@settings(max_examples=500, deadline=None)
@given(pl_solves())
@example((((0.0, 0.0), (0.25, 0.5), (0.5, 0.75), (1.0, 1.0)), 0.6, 0.25, 1.0))
@example((((0.0, 1.0), (0.3, 0.7), (0.6, 0.2), (1.0, 0.0)), 0.45, 0.0, 0.6))
@example((((-1.0, 0.0), (0.1, 0.3), (0.2, 0.9), (3.0, 1.0)), 0.3000000000000001, -1.0, 3.0))
@example((((0.0, 0.0), (1.0, 1.0)), 2.0, 0.0, 1.0))
# brackets whose sum lo + hi overflows, over all the knots and inside them
@example((((1e308, 0.0), (1.2e308, 1.0), (1.4e308, 2.0), (1.6e308, 3.0)), 2.5, 1e308, 1.6e308))
@example((((1e308, 3.0), (1.2e308, 2.0), (1.4e308, 1.0), (1.6e308, 0.0)), 0.5, 1e308, 1.6e308))
@example((((-1.6e308, 0.0), (-1.4e308, 1.0), (-1.2e308, 2.0), (-1e308, 3.0)), 0.5, -1.6e308,
          -1e308))
@example((((1e308, 0.0), (1.2e308, 1.0), (1.4e308, 2.0), (1.6e308, 3.0)), 1.7, 1.1e308, 1.5e308))
@example((((0.0, 0.0), (1.5e308, 1.0), (1.7e308, 2.0)), 1.9, 1e308, 1.7e308))
def test_knot_window_bisection_is_bisection_on_interpolate(case):
    knots, target, lo, hi = case
    assert (outcome(_bisect_pl, knots, target, lo, hi)
            == outcome(_bisect_monotone, partial(_interpolate, knots), target, lo, hi))


def test_bisection_midpoints_do_not_overflow():
    # 0.5 * (lo + hi) is infinite here; 0.5 * lo + 0.5 * hi is not
    h = PiecewiseLinearHomeo([(1e308, 0.0), (1.2e308, 1.0), (1.4e308, 2.0), (1.6e308, 3.0)])
    assert invert_homeo(h, 2.5) == 1.5e308
    assert _bisect_monotone(lambda x: x, 1.5e308, 1e308, 1.6e308) == 1.5e308


# the capped loops the two kernels replaced, verbatim: at most 100 halvings,
# and at least one however narrow the bracket
_CAPPED_TOL, _CAPPED_ITER = 1e-14, 100


def capped_bisect_monotone(f, target, lo, hi):
    flo, fhi = f(lo), f(hi)
    if flo == target:
        return lo
    if fhi == target:
        return hi
    increasing = fhi > flo
    a, b = (flo, fhi) if increasing else (fhi, flo)
    if not (a <= target <= b):
        raise DomainError(f"target {target!r} outside branch range [{a}, {b}]")
    for _ in range(_CAPPED_ITER):
        mid = 0.5 * (lo + hi)
        if not math.isfinite(mid):  # lo + hi overflowed; their halves cannot
            mid = 0.5 * lo + 0.5 * hi
        fm = f(mid)
        if fm == target:
            return mid
        if (fm < target) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _CAPPED_TOL:
            break
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def capped_bisect_pl(knots, target, lo, hi):
    last = len(knots) - 1
    i, j = homeos._segment(knots, lo, 0, last), homeos._segment(knots, hi, 0, last)
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
    for _ in range(_CAPPED_ITER):
        mid = 0.5 * (lo + hi)
        if not math.isfinite(mid):  # lo + hi overflowed; their halves cannot
            mid = 0.5 * lo + 0.5 * hi
        if i != j:
            k = homeos._segment(knots, mid, i, j + 1)
            (x0, y0), (x1, y1) = knots[k], knots[k + 1]
            dy, dx = y1 - y0, x1 - x0
        fm = y0 + (mid - x0) * dy / dx
        if fm == target:
            return mid
        if (fm < target) == increasing:
            lo, i = mid, k
        else:
            hi, j = mid, k
        if hi - lo <= _CAPPED_TOL:
            break
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


_MONOTONE = [lambda x: x, lambda x: -x, math.atan, lambda x: -math.atan(x),
             lambda x: 3.0 * x - 1.0, math.floor]


@st.composite
def capped_regime_solves(draw):
    """A monotone f, a target and a bracket wider than 1e-14 that 90
    halvings take to 1e-14, or to adjacent floats far from 0: the brackets
    on which the capped loop stopped before its cap, or spun on adjacent
    floats until it."""
    f = draw(st.sampled_from(_MONOTONE))
    lo = draw(st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300)))
    hi = lo + _CAPPED_TOL * 2.0 ** draw(st.floats(0.0, 90.0))
    if hi == lo:
        hi = math.nextafter(lo, math.inf)
    assume(hi - lo > _CAPPED_TOL)
    inside = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    target = draw(st.one_of(st.sampled_from([f(lo), f(hi), f(inside)]),
                            st.floats(min(f(lo), f(hi)) - 1.0, max(f(lo), f(hi)) + 1.0),
                            st.just(math.nan)))
    return f, target, lo, hi


@settings(max_examples=300, deadline=None)
@given(capped_regime_solves())
@example((math.atan, 0.5, 0.0, 1.0))
@example((lambda x: x - 1e5 - 1.0 / 3.0, 0.0, 1e5, 1e5 + 1.0))  # ends on floats 1.5e-11 apart
def test_bisect_monotone_keeps_the_capped_loops_bits(case):
    f, target, lo, hi = case
    assert (outcome(_bisect_monotone, f, target, lo, hi)
            == outcome(capped_bisect_monotone, f, target, lo, hi))


@settings(max_examples=200, deadline=None)
@given(pl_solves())
@example((((0.0, 0.0), (0.25, 0.5), (0.5, 0.75), (1.0, 1.0)), 0.6, 0.25, 1.0))
@example((((-1.0, 0.0), (0.1, 0.3), (0.2, 0.9), (3.0, 1.0)), 0.3000000000000001, -1.0, 3.0))
def test_bisect_pl_keeps_the_capped_loops_bits(case):
    knots, target, lo, hi = case
    assume(hi - lo > _CAPPED_TOL)
    assert outcome(_bisect_pl, knots, target, lo, hi) == outcome(capped_bisect_pl, knots, target,
                                                                   lo, hi)


def test_a_bracket_within_tol_is_not_halved():
    # the capped loop halved it once; both answers are within 1e-14
    assert capped_bisect_monotone(lambda x: x, 0.3e-15, 0.0, 1e-15) == 2.5e-16
    assert _bisect_monotone(lambda x: x, 0.3e-15, 0.0, 1e-15) == 5e-16


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300), st.floats(0.0, 1.0))
@example(0.0, 1e300, 0.3)
@example(-1e300, 1e300, 1e-200)
def test_bisection_reaches_tol_or_adjacent_floats(lo, width, frac):
    # no iteration cap: 100 halvings leave a 1e300-wide bracket 8e269 wide
    hi = lo + width
    assume(lo < hi)
    t = min(lo + frac * (hi - lo), hi)
    x = _bisect_monotone(lambda x: x, t, lo, hi)
    assert abs(x - t) <= 1e-14 or math.nextafter(x, t) == t


# --- the one-step inverse of a pwlh on [0, 1] -------------------------------------

_LEAST = 5e-324  # the least positive float
_DYADIC_INTERIOR = st.integers(1, 52).flatmap(
    lambda d: st.integers(0, 2 ** (d - 1) - 1).map(lambda a: (2 * a + 1) / 2 ** d))


@st.composite
def unit_pwlh_solves(draw):
    """The knots of a pwlh on [0, 1] and a target. Interior abscissae lie
    anywhere, on a dyadic of depth 1-52 or one float off one; ordinates
    rise or fall, whole multiples of the least float or at a scale from
    1e-300 to 1e300; the target is a knot ordinate, the image of a dyadic
    (an exact hit for bisection), anywhere in the range, or any float."""
    off_dyadic = st.builds(math.nextafter, _DYADIC_INTERIOR, st.sampled_from([0.0, 1.0]))
    inner = draw(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                    _DYADIC_INTERIOR, off_dyadic), max_size=4, unique=True))
    xs = [0.0] + sorted(inner) + [1.0]
    if draw(st.booleans()):
        units = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=len(xs),
                              max_size=len(xs), unique=True))
        ys = [k * _LEAST for k in units]
    else:
        scale = 10.0 ** draw(st.integers(-300, 300))
        ys = [v * scale for v in draw(st.lists(st.floats(-1.0, 1.0), min_size=len(xs),
                                               max_size=len(xs), unique=True))]
        assume(len(set(ys)) == len(ys))
    ys.sort(reverse=draw(st.booleans()))
    knots = tuple(zip(xs, ys))
    target = draw(st.one_of(st.sampled_from(ys), _DYADIC_INTERIOR.map(partial(_interpolate, knots)),
                            st.floats(min(ys), max(ys)), st.floats()))
    return knots, target


def with_neighbours(y):
    """y and the floats 1, 8 and 16 ulps to either side of it."""
    out, down, up = [y], y, y
    for k in range(1, 17):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        if k in (1, 8, 16):
            out += [down, up]
    return out


# A segment 2^-20 + 2^-52 wide with subnormal ordinates: at the dyadic
# 0.5 + 2^-20, just left of its right knot, (x - x0) * (y1 - y0) underflows
# and _interpolate overshoots that knot's ordinate by 2^19 - 1 least floats,
# although the largest ordinate is only 2^47 + 2^19 + 1001 of them.
_UNDERFLOWING = ((0.0, 0.0), (0.5, 1000 * _LEAST),
                 (0.5 + 2 ** -20 + 2 ** -52, (2 ** 19 + 1001) * _LEAST),
                 (1.0, (2 ** 47 + 2 ** 19 + 1001) * _LEAST))


@settings(deadline=None)  # as many examples as the hypothesis profile asks (tests/conftest.py)
@given(unit_pwlh_solves())
# each interior ordinate of a rising, a falling and a 4-knot pwlh
@example((((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)), 0.6))
@example((((0.0, 1.0), (0.25, 0.8), (0.6, 0.3), (1.0, 0.0)), 0.8))
@example((((0.0, 1.0), (0.25, 0.8), (0.6, 0.3), (1.0, 0.0)), 0.3))
@example((((0.0, 0.0), (0.2, 0.3), (0.7, 0.6), (1.0, 1.0)), 0.3))
@example((((0.0, 0.0), (0.2, 0.3), (0.7, 0.6), (1.0, 1.0)), 0.6))
@example((((0.0, 0.0), (0.4, 3e-301), (1.0, 1e-300)), 3e-301))
@example((((0.0, -1e300), (0.7, 2e299), (1.0, 1e300)), 2e299))
# subnormal ordinates: one that _interpolate overshoots by a least float,
# one of a few thousand, and the underflowing segment
@example((((0.0, 0.0), (0.6, _LEAST), (1.0, 2 * _LEAST)), _LEAST))
@example((((0.0, 0.0), (0.6, 2024 * _LEAST), (1.0, 4048 * _LEAST)), 2024 * _LEAST))
@example((_UNDERFLOWING, (2 ** 19 + 1998) * _LEAST))
# the identity, at its first midpoint and off every dyadic
@example((((0.0, 0.0), (1.0, 1.0)), 0.5))
@example((((0.0, 0.0), (1.0, 1.0)), 0.3))
def test_unit_pwlh_inverse_is_the_bisection(case):
    knots, target = case
    h = PiecewiseLinearHomeo(knots)
    for y in with_neighbours(target):
        assert outcome(h._inv, y) == outcome(_bisect_pl, h.knots, y, 0.0, 1.0), y


def test_order_inverts_its_pwlh_in_one_step(monkeypatch):
    # the verify-grid benchmark's order map at seed 0, where 105 of the
    # 10001 solves (1.05%) fall back to the bisection loop; an edit that
    # falls back more often than twice that fails here
    def counted(counter, fn):
        def wrapper(*args):
            counter[0] += 1
            return fn(*args)
        return wrapper

    solves, loops = [0], [0]
    monkeypatch.setattr(PiecewiseLinearHomeo, "_inv", counted(solves, PiecewiseLinearHomeo._inv))
    monkeypatch.setattr(homeos, "_bisect_pl", counted(loops, _bisect_pl))
    m = parse_map_spec("conj:pwl:0,1;1,0|pwlh:0,0;0.5067648328211651,0.4429604824702486;1,1")
    assert periodicity_order(m, 6, 5000) == 2
    assert solves[0] == 10001
    assert loops[0] < 2 * 0.0105 * solves[0], loops[0]


@pytest.mark.parametrize("spec,lo,hi,tol", [
    ("logistic", 0.0, 1.0, 1e-12), ("tent", 0.0, 1.0, 1e-9), ("cosine", -1.0, 2.0, 1e-300),
    ("cosine", -1.0, 2.0, 0.01), ("logistic", 0.1, 0.9, 0.01),
    ("quadratic", -1.0, 1.0, 1e-12), ("pwl:0,0.5;1,1.5", 0.0, 1.0, 1e-12),
    ("hyperbola:e=0.5,a=1", -2.0, 2.0, 1e-12), ("logistic", 0.3, 0.3, 1e-12),
    ("logistic", 0.0, 1.0, 0.0),
    # a midpoint whose sum a + b overflows, and a sign change whose
    # product prev_g * cur_g underflows to 0
    ("verhulst:m=2,n=7.7e-309", 1.29865e308, 1.29875e308, 1e290),
    ("conj:tent|affine:p=1e-170,q=0", 0.0, 1e-170, 1e-190),
])
def test_fixed_points_grid_matches_reference(spec, lo, hi, tol):
    core, ref = Recorded(parse_map_spec(spec)), Recorded(parse_map_spec(spec))
    assert verdict(fixed_points, core, lo, hi, tol) == verdict(ref_fixed_points, ref, lo, hi, tol)
    assert repr(core.points) == repr(ref.points)


def test_herschel_grid_matches_reference():
    phi = mobius_involution(1.0, 2.0, lo=0.0, hi=3.0)
    cases = [(lambda t: 1.0 + 2.0 * t, phi, 0.0, 3.0, 1000),
             (lambda t: 1.0 + 2.0 * t, phi, 0.3, 2.9, 7),
             (lambda t: 0.0, mobius_involution(0.0, 0.0), -2.0, 2.0, 100),
             (lambda t: t, Reflect(), 0.1, 0.8, 101),
             (lambda t: t, Reflect(), 0.0, 1.0, 1)]
    for f_outer, *rest in cases:
        core, ref = [], []
        assert (verdict(herschel_relation_residual, recording(f_outer, core), *rest)
                == verdict(ref_herschel, recording(f_outer, ref), *rest)), rest
        assert repr(core) == repr(ref), rest


def test_unimodal_and_distribution_grids_match_references():
    left, right = PiecewiseLinear([(0.0, 0.0), (0.5, 1.0)]), PiecewiseLinear([(0.5, 1.0), (1.0, 0.0)])
    dip = PiecewiseLinear([(0.0, 0.0), (0.2, 0.8), (0.3, 0.5), (0.5, 1.0)])
    bump = PiecewiseLinear([(0.5, 1.0), (0.7, 0.2), (0.8, 0.4), (1.0, 0.0)])
    short = PiecewiseLinear([(0.0, 0.0), (0.4, 1.0)])
    wide = (PiecewiseLinear([(0.0, 0.0), (0.3, 1.0)]), PiecewiseLinear([(0.3, 1.0), (1.0, 0.0)]))
    for v, branches in ((0.5, (left, right)), (0.5, (dip, right)), (0.5, (left, bump)),
                        (0.5, (dip, bump)), (0.5, (short, right)), (0.3, wide)):
        core, ref = [Recorded(b) for b in branches], [Recorded(b) for b in branches]
        assert verdict(construct, Unimodal, v, *core) == verdict(ref_unimodal_checks, v, *ref)
        assert [repr(b.points) for b in core] == [repr(b.points) for b in ref], branches

    def smooth(x):
        return x * x * (3.0 - 2.0 * x)

    def wobble(x):
        return x + 0.01 * math.sin(40.0 * math.pi * x)

    for cdf, inverse in ((lambda x: x, lambda u: u), (lambda x: x * x, math.sqrt),
                         (lambda x: x * x, lambda u: u), (wobble, lambda u: u),
                         (smooth, lambda u: _bisect_monotone(smooth, u, 0.0, 1.0))):
        core, ref = [], []
        assert (verdict(construct, DistributionSpec, recording(cdf, core), inverse)
                == verdict(ref_distribution_checks, recording(cdf, ref), inverse))
        assert repr(core) == repr(ref)


# --- snap -----------------------------------------------------------------------


@st.composite
def intervals(draw):
    ends = st.floats(allow_nan=False)
    lo, hi = sorted((draw(ends), draw(ends)))
    assume(lo < hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@given(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3, unique=True),
       st.booleans(), st.booleans())
def test_snap_never_moves_an_interior_point(ends, lo_closed, hi_closed):
    lo, x, hi = sorted(ends)
    assert repr(Interval(lo, hi, lo_closed, hi_closed).snap(x)) == repr(x)


@given(intervals(), st.floats())
def test_snap_is_idempotent(iv, x):
    try:
        y = iv.snap(x)
    except DomainError:
        return
    assert repr(iv.snap(y)) == repr(y)
    assert iv.contains(y)


@given(intervals(), st.floats(min_value=0.0, exclude_min=True, allow_nan=False))
def test_snap_rejects_nan_and_points_beyond_the_tolerance(iv, offset):
    with pytest.raises(DomainError):
        iv.snap(math.nan)
    below = iv.lo - ENDPOINT_TOL - offset
    if math.isfinite(iv.lo) and below < iv.lo - ENDPOINT_TOL:
        with pytest.raises(DomainError):
            iv.snap(below)
    above = iv.hi + ENDPOINT_TOL + offset
    if math.isfinite(iv.hi) and above > iv.hi + ENDPOINT_TOL:
        with pytest.raises(DomainError):
            iv.snap(above)
