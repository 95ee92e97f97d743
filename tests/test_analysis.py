import math
import tracemalloc

import pytest

from intervaldyn import (Conjugated, Cosine, Logistic, ParameterError, PiecewiseLinear,
                         Power, Tent, Unimodal, cobweb_path, density_report, orbit,
                         zero_preimage_set)


def _truncated_tent():
    return Unimodal(v=0.5,
                    left=PiecewiseLinear([(0.0, 0.0), (0.5, 0.8)]),
                    right=PiecewiseLinear([(0.5, 0.8), (1.0, 0.0)]))


def test_cobweb_cosine_converges_to_root():
    path = cobweb_path(Cosine(), 1.0, 200)
    assert path.converged
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    assert abs(path.limit - 0.5 * (lo + hi)) < 1e-9


def test_cobweb_fixed_point_immediate():
    path = cobweb_path(Logistic(), 0.75, 5)
    assert path.converged
    assert path.limit == 0.75
    assert all(p == (0.75, 0.75) for p in path.points)


def test_cobweb_period_two_trap():
    path = cobweb_path(Tent(), 0.2, 4)
    points = tuple(path.points)
    assert [x for x, _ in points[::2]] == pytest.approx([0.2, 0.4, 0.8, 0.4, 0.8], abs=1e-14)
    assert not path.converged
    assert path.limit is None


def test_cobweb_point_structure():
    m = Tent()
    points = tuple(cobweb_path(m, 0.37, 25).points)
    assert len(points) == 2 * 25 + 1
    assert points[0] == (0.37, 0.37)
    for a, b in zip(points, points[1:]):
        assert a[0] == b[0] or a[1] == b[1]  # share a coordinate
    for x, y in points[1::2]:  # graph points
        from intervaldyn import iterate
        assert iterate(m, x, 1) == y
    for x, y in points[0::2]:  # diagonal points
        assert x == y


def test_cobweb_matches_orbit_exactly():
    m, x0, steps = Logistic(), 0.123456789, 50
    path = cobweb_path(m, x0, steps)
    o = orbit(m, x0, steps)
    assert tuple(y for _, y in tuple(path.points)[0::2]) == o.values


def test_cobweb_monotone_trap_convergence():
    # x < f(x) < a for x < a and a < f(x) < x for x > a forces x_k -> a
    m = PiecewiseLinear([(0.0, 0.25), (1.0, 0.75)])  # 0.5 x + 0.25, a = 0.5
    for seed in (0.05, 0.3, 0.9):
        path = cobweb_path(m, seed, 100)
        assert path.converged
        assert abs(path.limit - 0.5) < 1e-9


def test_zero_preimage_tent_depth_one():
    pset = zero_preimage_set(Tent(), 1)
    assert pset.points == (0.0, 1.0)
    assert pset.largest_gap == 1.0


def test_zero_preimage_tent_depth_four():
    pset = zero_preimage_set(Tent(), 4)
    assert pset.points == tuple(j / 8 for j in range(9))
    assert pset.largest_gap == 0.125


@pytest.mark.parametrize("depth", range(1, 11))
def test_zero_preimage_tent_exact_counts_and_gaps(depth):
    pset = zero_preimage_set(Tent(), depth)
    assert len(pset.points) == 2 ** (depth - 1) + 1
    assert pset.largest_gap == 2.0 ** (1 - depth)


@pytest.mark.parametrize("depth", range(1, 7))
def test_zero_preimage_truncated_tent_never_grows(depth):
    pset = zero_preimage_set(_truncated_tent(), depth)
    assert pset.points == (0.0, 1.0)
    assert pset.largest_gap == 1.0


@pytest.mark.parametrize("g2", [
    Tent(), Logistic(), _truncated_tent(), PiecewiseLinear([(0.0, 0.0), (0.4, 1.0), (1.0, 0.0)]),
    # lifted 1e-10 off 0 at both ends: 0 has no preimage, every level is empty
    PiecewiseLinear([(0.0, 1e-10), (0.5, 1.0), (1.0, 1e-10)]),
])
def test_zero_preimage_levels_match_each_depth(g2):
    pset = zero_preimage_set(g2, 7)
    each = [zero_preimage_set(g2, k) for k in range(1, 8)]
    assert pset.levels == tuple((k, len(p.points), p.largest_gap) for k, p in enumerate(each, 1))
    assert pset.levels[-1] == (7, len(pset.points), pset.largest_gap)


def test_zero_preimage_rejects_non_tent_shapes():
    with pytest.raises(ParameterError):
        zero_preimage_set(PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)]), 3)  # no interior maximum
    with pytest.raises(ParameterError):
        zero_preimage_set(Cosine(), 3)  # wrong domain
    with pytest.raises(ParameterError):
        zero_preimage_set(Tent(), 0)
    with pytest.raises(ParameterError):
        zero_preimage_set(Tent(), 21)  # depth cap


def test_zero_preimage_conjugated_tent_gap_decays():
    g2 = Conjugated(Tent(), Power(1.5))
    gap5 = zero_preimage_set(g2, 5).largest_gap
    gap10 = zero_preimage_set(g2, 10).largest_gap
    assert gap10 < gap5


def test_zero_preimage_logistic_works_like_tent():
    # the logistic parabola is tent-shaped; its preimages of 0 are
    # sin^2(pi j / 2^k) values, dense like the tent's
    pset = zero_preimage_set(Logistic(), 6)
    assert len(pset.points) == 2**5 + 1
    assert pset.largest_gap < 0.1


# The tracemalloc peak of zero_preimage_set, measured with Python 3.11:
# the tent at depth 20 peaks at 17.0 MB, of which its 2^19 + 1 points are
# 16.8 MB (a float object and a tuple slot each); pwl at depth 15 peaks at
# 0.93 MB. Pulling back every target of every level peaked at 43.4 and
# 1.33 MB; holding the previous level's preimages as a list per target
# peaks at 1.52 MB, and as a dict of such lists at 1.89 MB.
@pytest.mark.parametrize("g2, depth, ceiling", [
    (Tent(), 20, 19_000_000),
    (PiecewiseLinear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]), 15, 1_200_000),
], ids=["tent", "pwl"])
def test_zero_preimage_memory_ceilings(g2, depth, ceiling):
    zero_preimage_set(g2, 2)  # untraced, for the imports and caches
    tracemalloc.start()
    try:
        zero_preimage_set(g2, depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ceiling, peak


def test_density_report():
    dense = density_report(zero_preimage_set(Tent(), 10), 0.01)
    assert dense.largest_gap == 2.0**-9
    assert dense.count == 513
    assert dense.dense_estimate

    sparse = density_report(zero_preimage_set(_truncated_tent(), 6), 0.01)
    assert sparse.largest_gap == 1.0
    assert not sparse.dense_estimate

    singleton = density_report(zero_preimage_set(Tent(), 1), 0.5)
    assert singleton.largest_gap == 1.0
    assert not singleton.dense_estimate
