"""The numerical core against reference loops, and properties of snap.

The references are the straightforward loops that the core replaces:
iterate recomputed from the seed for every n, one hand-written orbit
loop per caller, and monotone bisection through the tent map's
branches. The core must reproduce each of them exactly, errors
included: results are compared by repr, which is bitwise for floats
and treats NaN as equal to itself.
"""

import math
import re

import pytest
from hypothesis import assume, given, strategies as st

from intervaldyn import (DomainError, Hyperbola, Logistic, Quadratic, Tent,
                         UlamArcsin, apply_homeo, boole_iterate, cobweb_path,
                         crosscheck_closed_form, eval_map, herschel_iterate,
                         hyperbola_iterate, iterate, orbit, orbit_consistency,
                         sensitivity_report, zero_preimage_set)
from intervaldyn import analysis
from intervaldyn.analysis import _dedup_sorted
from intervaldyn.cli import parse_map_spec
from intervaldyn.closed_form import CrosscheckReport, _check_n, _scaled_deviation
from intervaldyn.conjugacy import Conflict
from intervaldyn.homeos import _bisect_monotone
from intervaldyn.interval import ENDPOINT_TOL, UNIT, Interval

# every map family the CLI grammar reaches, plus a map that leaves its domain
MAP_SPECS = ["logistic", "tent", "halftent", "quadratic", "doubling", "cosine", "sinsq",
             "hyperbola:e=2,a=1", "hyperbola:e=0.5,a=1", "verhulst:m=4,n=4",
             "verhulst:m=3.2,n=1", "pwl:0,0;0.4,1;1,0", "pwl:0,0.5;1,1.5",
             "conj:logistic|alpha", "conj:tent|pwlh:0,0;0.3,0.6;1,1"]
SEEDS = [0.123456789, 0.3, 0.7, 0.999, 1.0 + 1e-13, 1.5, -0.5, 3.0,
         math.inf, -math.inf, math.nan]


def outcome(fn, *args):
    """("ok", repr of the result) or ("error", the DomainError message)."""
    try:
        return "ok", repr(fn(*args))
    except DomainError as exc:
        return "error", str(exc)


# --- reference loops -----------------------------------------------------------


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
    n_max = _check_n(n_max)
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


def ref_tent_levels(depth):
    """Pull {0} back through the tent's branches by monotone bisection;
    yields the points of [0, 1] at every depth 1..depth."""
    tent = Tent()

    def fwd(x):
        return eval_map(tent, x)

    def pullback(t, lo, hi):
        flo, fhi = fwd(lo), fwd(hi)
        rlo, rhi = min(flo, fhi), max(flo, fhi)
        if t < rlo - 1e-12 or t > rhi + 1e-12:
            return None
        return _bisect_monotone(fwd, min(max(t, rlo), rhi), lo, hi)

    level = [0.0]
    for _ in range(depth):
        nxt = [p for t in level for p in (pullback(t, 0.0, 0.5), pullback(t, 0.5, 1.0))
               if p is not None]
        level = _dedup_sorted(nxt)
        yield [p for p in level if UNIT.contains(p)]


# --- the core equals the references --------------------------------------------


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_orbit_loops_match_references(spec):
    m = parse_map_spec(spec)
    for x0 in SEEDS:
        for n in (0, 1, 7, 200):
            assert outcome(iterate, m, x0, n) == outcome(ref_iterate, m, x0, n), (x0, n)
        assert outcome(lambda: orbit(m, x0, 200).values) == outcome(ref_orbit, m, x0, 200), x0
        for delta in (1e-9, -0.25, 0.0):
            assert (outcome(sensitivity_report, m, x0, delta, 60)
                    == outcome(ref_sensitivity, m, x0, delta, 60)), (x0, delta)


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
    (Hyperbola(e=math.sqrt(3.0), a=1.0), lambda x, n: hyperbola_iterate(math.sqrt(3.0), 1.0, x, n),
     2.0, 5.0, 4, 57),
    # brute force leaves the domain: the radicand turns negative at step 1
    (Hyperbola(e=0.5, a=1.0), lambda x, n: hyperbola_iterate(0.5, 1.0, x, n), -1.5, 1.5, 6, 11),
    # the closed form fails first, at step 3 of the first sample above 0.5
    (Quadratic(), _failing_after(3, boole_iterate), -1.0, 1.0, 6, 9),
], ids=["boole", "herschel", "herschel-n0", "hyperbola", "escape", "formula-fails"])
def test_crosscheck_matches_per_n_iterate(case):
    assert outcome(crosscheck_closed_form, *case) == outcome(ref_crosscheck, *case)


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


def test_exact_tent_pullback_matches_bisection():
    for k, ref_points in enumerate(ref_tent_levels(16), 1):
        pset = zero_preimage_set(Tent(), k)
        assert pset.points == tuple(ref_points), k
        gap = max([ref_points[0]] + [b - a for a, b in zip(ref_points, ref_points[1:])]
                  + [1.0 - ref_points[-1]])
        assert pset.levels[-1] == (k, len(ref_points), gap)
        assert pset.largest_gap == gap


def test_tent_pullback_never_bisects(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tent's preimages are exact")
    monkeypatch.setattr(analysis, "_bisect_monotone", refuse)
    assert zero_preimage_set(Tent(), 12).largest_gap == 2.0**-11
    with pytest.raises(AssertionError):
        zero_preimage_set(Logistic(), 2)


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
