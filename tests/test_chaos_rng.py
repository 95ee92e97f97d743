import math
import re
from array import array
from functools import partial
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from intervaldyn import (DomainError, Doubling, EmptySampleError,
                         FixedPointWord, Logistic, ParameterError, SineSquared,
                         Tent, apply_homeo, arcsine_cdf, doubling_collapse,
                         eval_map, ks_distance, stage_values)
from intervaldyn import chaos_rng
from intervaldyn.chaos_rng import logistic_values
from intervaldyn.homeos import UlamArcsin


def test_logistic_sequence_examples():
    assert list(logistic_values(0.75, 5)) == [0.75] * 6
    assert list(logistic_values(0.2, 1)) == [0.2, pytest.approx(0.64, abs=1e-15)]
    # the seed is checked at the call, before any value is read
    with pytest.raises(DomainError):
        logistic_values(0.0, 5)
    with pytest.raises(DomainError):
        logistic_values(1.0, 5)


def test_uniformize_examples():
    values = list(stage_values(0.75, 3, "uniform"))
    assert values == pytest.approx([2.0 / 3.0] * 4, abs=1e-15)

    # endpoint fixing: the orbit of 0.5 lands on 1 and then stays at 0
    assert list(stage_values(0.5, 3, "uniform"))[1:] == [1.0, 0.0, 0.0]


def test_uniformize_uses_the_conjugacy_function():
    # one function, two roles: the uniformizing transform is the
    # invariant-measure CDF is the conjugating coordinate change
    o = list(logistic_values(0.37, 20))
    ulam = UlamArcsin()
    assert list(stage_values(0.37, 20, "uniform")) == [apply_homeo(ulam, v) for v in o]
    assert all(arcsine_cdf(v) == apply_homeo(ulam, v) for v in o)


def test_stage_values_rejects_an_unknown_stage():
    for stage in ("arcsine", "Raw", ""):
        with pytest.raises(ParameterError, match=rf"^unknown stage {stage!r}, expected one of "
                                                 r"raw, uniform, square$"):
            stage_values(0.3, 5, stage)


def test_ks_distance_examples():
    assert ks_distance([0.5], lambda x: x) == 0.5
    n = 100
    grid = [j / n for j in range(1, n + 1)]
    assert ks_distance(grid, lambda x: x) == pytest.approx(1.0 / n, abs=1e-15)
    with pytest.raises(EmptySampleError):
        ks_distance([], lambda x: x)


def _ks_reference(sample, cdf):
    """sup |F_n - F| over the sample points by counting: the empirical CDF
    steps from #{s < v}/n to #{s <= v}/n at every sample value v."""
    n = len(sample)
    worst = 0.0
    for v in sample:
        f = cdf(v)
        below = sum(1 for s in sample if s < v) / n
        upto = sum(1 for s in sample if s <= v) / n
        worst = max(worst, abs(upto - f), abs(below - f))
    return worst


# endpoints, both zeros and repeated values next to arbitrary unit floats
_unit_samples = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    min_size=1, max_size=30,
).map(lambda s: s + s[: len(s) // 2])


@given(_unit_samples, st.sampled_from([arcsine_cdf, lambda x: x, lambda x: x * x]))
def test_ks_distance_matches_brute_force(sample, cdf):
    assert ks_distance(sample, cdf) == _ks_reference(sample, cdf)


@pytest.mark.parametrize("sample, cdf", [
    ([math.nan], lambda x: x),
    ([math.nan, 0.2, 0.7], lambda x: 0.5),  # the CDF value alone hides it
    ([0.2, 0.7, math.nan], lambda x: 0.5),
    ([0.2, 0.7], lambda x: math.nan),
    ([0.2, 0.7], lambda x: math.nan if x > 0.5 else x),
])
def test_ks_distance_rejects_nan(sample, cdf):
    with pytest.raises(DomainError):
        ks_distance(sample, cdf)


def test_doubling_collapse_examples():
    assert doubling_collapse(FixedPointWord(3, 5), 10) == 3  # 5 -> 2 -> 4 -> 0 mod 8
    assert doubling_collapse(FixedPointWord(8, 0), 10) == 0
    assert doubling_collapse(FixedPointWord(8, 1), 8) == 8
    assert doubling_collapse(FixedPointWord(8, 128), 8) == 1
    assert doubling_collapse(FixedPointWord(8, 3), 2) is None  # cap too low


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 10])
def test_doubling_collapse_within_bits_steps(bits):
    for value in range(2**bits):
        steps = doubling_collapse(FixedPointWord(bits, value), bits)
        assert steps is not None and steps <= bits


def test_doubling_collapse_mean_b12():
    b = 12
    total = sum(doubling_collapse(FixedPointWord(b, v), b) for v in range(2**b))
    mean = total / 2**b
    assert mean == b - 1 + 2.0**-b  # exhaustive oracle: 11.000244140625
    assert abs(mean - 11.0) < 0.01


def test_fixed_point_word_validation():
    with pytest.raises(ParameterError):
        FixedPointWord(0, 0)
    with pytest.raises(ParameterError):
        FixedPointWord(64, 0)
    with pytest.raises(ParameterError):
        FixedPointWord(8, 256)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 8.5, "a"])
def test_fixed_point_word_rejects_every_bad_number(bad):
    # NaN, the infinities, fractions and non-numbers fail the whole-number rule
    # with the message of any other bad width or value, never a builtin error
    shown = re.escape(repr(bad))
    width = rf"^word width must be an integer in 1\.\.63, got {shown}$"
    with pytest.raises(ParameterError, match=width):
        FixedPointWord(bad, 0)
    with pytest.raises(ParameterError, match=rf"^value {shown} does not fit in 8 bits$"):
        FixedPointWord(8, bad)


def test_semiconjugacy_transport():
    # exact alpha-doubling pushed through sin^2(pi .) follows the
    # logistic orbit for a 20-step binary64 budget
    for a0 in (0.2, 0.123456789):
        alpha = a0
        x = eval_map(SineSquared(), a0)
        worst = 0.0
        d, f = Doubling(), Logistic()
        for _ in range(20):
            alpha = eval_map(d, alpha)
            x = eval_map(f, x)
            s = math.sin(math.pi * alpha)
            worst = max(worst, abs(s * s - x))
        assert worst < 1e-9


def test_uniformized_sequence_commutes_with_tent():
    uni = list(stage_values(0.123456789, 1000, "uniform"))
    t = Tent()
    worst = max(abs(eval_map(t, u) - nxt) for u, nxt in zip(uni, uni[1:]))
    assert worst < 1e-10


def test_statistics_smoke_at_modest_n():
    # full 10^6-sample bounds live in the acceptance suite
    o = list(logistic_values(0.123456789, 20000))
    assert ks_distance(o, arcsine_cdf) < 0.05
    uni = list(stage_values(0.123456789, 20000, "uniform"))
    assert ks_distance(uni, lambda x: x) < 0.05
    counts = [0] * 10
    for u in uni:
        counts[min(int(u * 10), 9)] += 1  # 1.0 goes in the last bin
    assert all(abs(c - len(uni) / 10) < 0.1 * len(uni) / 10 for c in counts)


# --- the run-wise KS sort -------------------------------------------------------


def _ks_sorted(sample, cdf):
    """ks_distance as one loop over sorted(sample): the reference for the
    run-wise sort."""
    n = len(sample)
    if n == 0:
        raise EmptySampleError("cannot compute a KS distance of an empty sample")
    d = below = 0.0
    for i, v in enumerate(sorted(sample), 1):
        f = cdf(v)
        if v != v or f != f:
            raise DomainError(f"KS needs numbers, got sample value {v!r} with CDF value {f!r}")
        above = i / n
        if above - f > d:
            d = above - f
        if f - below > d:
            d = f - below
        below = above
    return d


def _ks_outcome(ks, sample, cdf):
    """The value or the exception's type and message, and the repr of every
    value the CDF saw, in order (so the sign of each zero counts too)."""
    seen = []

    def recorded(v):
        seen.append(repr(v))
        return cdf(v)

    try:
        result = ("ok", repr(ks(sample, recorded)))
    except Exception as exc:  # the reference and ks_distance must raise alike
        result = (type(exc).__name__, str(exc))
    return result, seen


def _raises_below_zero(v):
    if v < 0.0:
        raise DomainError(f"no CDF value below 0, got {v!r}")
    return min(v, 1.0)


_KS_CDFS = [lambda x: x, lambda x: x * x, arcsine_cdf, _raises_below_zero]
_ODD_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, 1.1125369292536007e-308,
               math.nan, math.inf, -math.inf]


def _generator(sample):
    return (v for v in sample)


# a sample as a list, an array('d'), an iterator and a generator: the
# last two can be read only once, and have no length
_KS_KINDS = [list, partial(array, "d"), iter, _generator]


def _assert_ks_matches_sorted(sample, cdf, blocks=(1, 2, 3, 4096), kinds=_KS_KINDS):
    # a small BLOCK puts a few values in each of many chunks and runs
    expected = _ks_outcome(_ks_sorted, sample, cdf)
    for block in blocks:
        with mock.patch.object(chaos_rng, "BLOCK", block):
            for k, kind in enumerate(kinds):
                assert _ks_outcome(ks_distance, kind(sample), cdf) == expected, (block, k)


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_ODD_FLOATS),
                          st.floats(-1.0, 1.0)), min_size=1, max_size=40),
       st.sampled_from(_KS_CDFS))
def test_ks_distance_is_one_pass_over_sorted(sample, cdf):
    _assert_ks_matches_sorted(sample, cdf)


@pytest.mark.parametrize("sample", [
    # a subnormal range: its width underflows to 0.0
    [1.1125369292536007e-308, 0.0, 1.1125369292536007e-308],
    # zeros of both signs on the run edge -1.0 + 0.5 * 2 = 0.0 at BLOCK 2
    [0.0, -0.0, 1.0, -1.0, -0.0, 0.0],
    [-0.0, 0.0, -1.0, 1.0, 0.0, -0.0, 0.5, -0.5],
    # zeros of both signs across chunk edges, and on the run edge 0.0 at
    # BLOCK 1 and 2 (1.0, 0.0, -0.0 | -1.0, 0.0, -0.0 | 0.5 at BLOCK 3)
    [1.0, 0.0, -0.0, -1.0, 0.0, -0.0, 0.5],
    # on the run edge 0.0 at BLOCK 2 and 3, alternating across every chunk edge
    [-0.0, 0.0] * 4 + [-1.0, 1.0],
    # the sum overflows, and the width does
    [1e308, 1e308],
    [1e308, -1e308, 0.5],
    # one value, and all values equal
    [0.25],
    [0.75] * 9,
], ids=["subnormal-width", "zeros-on-edge", "zeros-mixed", "zeros-across-chunks",
        "zeros-alternating", "sum-overflows", "width-overflows", "one", "equal"])
def test_ks_distance_edge_samples_match_sorted(sample):
    for cdf in _KS_CDFS:
        _assert_ks_matches_sorted(sample, cdf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_distance_nonfinite_values_match_sorted(bad):
    base = [0.3, -0.0, 0.9, 0.0, 0.1, 0.7, 0.5]
    for k in range(len(base) + 1):
        for cdf in _KS_CDFS:
            _assert_ks_matches_sorted(base[:k] + [bad] + base[k:], cdf, blocks=(1, 2))


@pytest.mark.parametrize("sample", [
    [0.5, 1, 0.25, -0.0, 0],
    [True, 0.5, False, 0.0],
    [0.5, 0.25, 0.75, "a", 0.0],
    [0.5, 0.25, 0.75, None],
], ids=["ints", "bools", "str", "none"])
def test_ks_distance_non_float_samples_match_sorted(sample):
    # no array('d'), which would make each number a float
    for cdf in (lambda x: x, lambda x: x * x):
        _assert_ks_matches_sorted(sample, cdf, kinds=[list, iter, _generator])


def test_ks_distance_of_a_long_logistic_sample():
    # the CLI's rng ks --n 200000 sample: an array('d') sorted in many runs
    sample = array("d", chaos_rng.logistic_values(0.123456789, 200000))
    runs = list(map(len, chaos_rng._sorted_runs(sample)))
    assert len(runs) == 200001 // chaos_rng.BLOCK + 2
    # edges at the chunks' quantiles, although the arcsine density piles
    # values up at both ends of [0, 1]
    assert max(runs) <= 2 * chaos_rng.BLOCK
    assert list(chain.from_iterable(chaos_rng._sorted_runs(sample))) == sorted(sample)
    assert ks_distance(sample, arcsine_cdf) == _ks_sorted(sample, arcsine_cdf)
