"""The library's rules for counts, tolerances, caps, sample counts and
gridded intervals, the same in every function that takes one:
errors.check_count, errors.check_cap, errors.check_positive,
errors.check_samples and errors.check_interval."""

import glob
import math
import os
import re
from array import array

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervaldyn import (DomainError, Doubling, FixedPointWord, Interval, Logistic,
                         MapDescriptor, Mobius, ParameterError, PiecewiseLinear, Quadratic,
                         RangeError, Reflect, SineSquared, Tent, UlamArcsin, boole_iterate,
                         cobweb_path, crosscheck_closed_form, density_report,
                         doubling_collapse, fixed_points, fractional_iterate_hyperbola,
                         fractional_iterate_quadratic, herschel_iterate,
                         herschel_relation_residual, hyperbola_iterate, iterate, orbit,
                         orbit_consistency, periodicity_order, propagate_partial_conjugacy,
                         sensitivity_report, verify_conjugacy,
                         verify_semiconjugacy, zero_preimage_set)
from intervaldyn.chaos_rng import logistic_values
from intervaldyn.errors import check_cap, check_count, check_interval, check_samples
from intervaldyn.interval import UNIT, linspace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REFLECT = PiecewiseLinear([(0.0, 1.0), (1.0, 0.0)])  # x -> 1 - x


def test_tolerance_and_threshold_messages():
    with pytest.raises(ParameterError, match=r"^tolerance must be positive, got 0\.0$"):
        fixed_points(Logistic(), 0.0, 1.0, 0.0)
    with pytest.raises(ParameterError, match=r"^threshold must be positive, got -1\.0$"):
        density_report(zero_preimage_set(Tent(), 3), -1.0)


def test_check_count():
    assert check_count(3.0, "n") == 3 and type(check_count(3.0, "n")) is int
    assert check_count(0, "n", 0) == 0
    assert check_count(30, "n", 0, 30) == 30
    for bad in (0, -1, 2.5, math.nan, math.inf, -math.inf, "3", None):
        message = f"^n must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ParameterError, match=message):
            check_count(bad, "n")
    with pytest.raises(ParameterError, match=r"^n must be a nonnegative integer, got -1$"):
        check_count(-1, "n", 0)
    with pytest.raises(RangeError, match=r"^n 31 exceeds the cap of 30$"):
        check_count(31, "n", 0, 30)


def test_check_cap():
    check_cap(30, "--n", 30)
    with pytest.raises(RangeError, match=r"^--grid \* 2 7 exceeds the cap of 6$"):
        check_cap(7, "--grid * 2", 6)


_WORD = FixedPointWord(8, 1)

# every library function that takes a count, called with that count n
_COUNTED = {
    "iterate": lambda n: iterate(Logistic(), 0.3, n),
    "orbit": lambda n: orbit(Logistic(), 0.3, n),
    "sensitivity_report": lambda n: sensitivity_report(Logistic(), 0.3, 1e-9, n),
    "cobweb_path": lambda n: cobweb_path(Logistic(), 0.3, n),
    "zero_preimage_set": lambda n: zero_preimage_set(Tent(), n),
    "periodicity_order": lambda n: periodicity_order(REFLECT, n, 10),
    "orbit_consistency": lambda n: orbit_consistency(Logistic(), Tent(), [(0.3, 0.4)], n, 1e-9),
    "propagate_partial_conjugacy": lambda n: propagate_partial_conjugacy(
        Logistic(), Tent(), 0.1, 0.2, UlamArcsin(), n, 5, 1e-3),
    "logistic_values": lambda n: logistic_values(0.3, n),
    "doubling_collapse": lambda n: doubling_collapse(_WORD, n),
    "herschel_iterate": lambda n: herschel_iterate(0.5, n),
    "boole_iterate": lambda n: boole_iterate(0.5, n),
    "hyperbola_iterate": lambda n: hyperbola_iterate(2.0, 1.0, 2.0, n),
    "crosscheck_closed_form": lambda n: crosscheck_closed_form(
        Quadratic(), boole_iterate, -1.0, 1.0, n, 5),
    "fractional_iterate_quadratic": lambda n: fractional_iterate_quadratic(2.0, n),
    "fractional_iterate_hyperbola": lambda n: fractional_iterate_hyperbola(2.0, 1.0, 2.0, n),
}


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, -1], ids=["nan", "inf", "2.5", "-1"])
@pytest.mark.parametrize("name", sorted(_COUNTED))
def test_a_bad_count_is_a_parameter_error(name, n):
    with pytest.raises(ParameterError, match=f" integer, got {re.escape(repr(n))}$"):
        _COUNTED[name](n)


def test_every_counted_function_accepts_a_whole_float():
    for call in _COUNTED.values():
        call(2.0)


# every library function that takes a tolerance or threshold, called with it
_TOLERANCES = {
    "fixed_points": lambda tol: fixed_points(Logistic(), 0.0, 1.0, tol),
    "density_report": lambda tol: density_report(zero_preimage_set(Tent(), 3), tol),
    "orbit_consistency": lambda tol: orbit_consistency(Logistic(), Tent(), [(0.3, 0.4)], 2, tol),
    "propagate_partial_conjugacy": lambda tol: propagate_partial_conjugacy(
        Logistic(), Tent(), 0.1, 0.2, UlamArcsin(), 2, 5, tol),
    "periodicity_order": lambda tol: periodicity_order(REFLECT, 2, 10, tol),
}


@pytest.mark.parametrize("tol", [math.nan, 0.0, math.inf], ids=["nan", "0", "inf"])
@pytest.mark.parametrize("name", sorted(_TOLERANCES))
def test_a_bad_tolerance_is_a_parameter_error(name, tol):
    with pytest.raises(ParameterError, match=f" must be positive, got {re.escape(repr(tol))}$"):
        _TOLERANCES[name](tol)


def test_library_caps_raise_range_error():
    assert issubclass(RangeError, ParameterError)
    with pytest.raises(RangeError, match=r"^depth 21 exceeds the cap of 20$"):
        zero_preimage_set(Tent(), 21)
    with pytest.raises(RangeError, match=r"^steps 1000001 exceeds the cap of 1000000$"):
        cobweb_path(Logistic(), 0.3, 10**6 + 1)


def test_check_samples():
    assert check_samples(3.0) == 3 and type(check_samples(3.0)) is int
    assert check_samples(2) == 2
    for bad in (1, 0, -1, 1.0):
        with pytest.raises(ParameterError, match=f"^need at least 2 samples, got {bad!r}$"):
            check_samples(bad)
    with pytest.raises(ParameterError, match=r"^need at least 2 seed points, got 1$"):
        check_samples(1, "seed points")
    for bad in (2.5, math.nan, math.inf, -math.inf, "3", None):
        message = f"^samples must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ParameterError, match=message):
            check_samples(bad)


# every library function that takes a sample count, called with that count n
_SAMPLED = {
    "linspace": lambda n: linspace(0.0, 1.0, n),
    "interior_grid": lambda n: UNIT.interior_grid(n),
    "verify_conjugacy": lambda n: verify_conjugacy(Logistic(), Tent(), UlamArcsin(), n),
    "verify_semiconjugacy": lambda n: verify_semiconjugacy(
        Logistic(), Doubling(), SineSquared(), 0.0, 1.0, n),
    "periodicity_order": lambda n: periodicity_order(REFLECT, 2, n),
    "crosscheck_closed_form": lambda n: crosscheck_closed_form(
        Quadratic(), boole_iterate, -1.0, 1.0, 2, n),
    "herschel_relation_residual": lambda n: herschel_relation_residual(
        lambda t: 1.0 + 2.0 * t, Mobius(1.0, 2.0, 0.0, 3.0), 0.0, 3.0, n),
    "propagate_partial_conjugacy": lambda n: propagate_partial_conjugacy(
        Logistic(), Tent(), 0.1, 0.2, UlamArcsin(), 2, n, 1e-3),
}


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5], ids=["nan", "inf", "2.5"])
@pytest.mark.parametrize("name", sorted(_SAMPLED))
def test_a_bad_sample_count_is_a_parameter_error(name, n):
    message = f" must be a positive integer, got {re.escape(repr(n))}$"
    with pytest.raises(ParameterError, match=message):
        _SAMPLED[name](n)


@pytest.mark.parametrize("name", sorted(_SAMPLED))
def test_one_grid_point_is_too_few(name):
    what = "seed points" if name == "propagate_partial_conjugacy" else "samples"
    with pytest.raises(ParameterError, match=f"^need at least 2 {what}, got 1$"):
        _SAMPLED[name](1)


@pytest.mark.parametrize("name", sorted(_SAMPLED))
def test_a_whole_float_sample_count_grids_like_the_int(name):
    assert repr(_SAMPLED[name](3.0)) == repr(_SAMPLED[name](3))


_BAD_INTERVALS = [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
                  (-math.inf, math.inf), (0.5, 0.5), (1.0, 0.0), (-1e308, 1e308)]


def _cannot_grid(lo, hi):
    return f"^{re.escape(f'cannot grid [{lo}, {hi}]: need lo < hi and a finite hi - lo')}$"


def test_check_interval():
    check_interval(0.0, 1.0)
    check_interval(-1e308, 0.0)
    for lo, hi in _BAD_INTERVALS:
        with pytest.raises(DomainError, match=_cannot_grid(lo, hi)):
            check_interval(lo, hi)


# every library function that grids an interval [lo, hi] it is given
_GRIDDED = {
    "fixed_points": lambda lo, hi: fixed_points(Quadratic(), lo, hi, 1e-9),
    "verify_semiconjugacy": lambda lo, hi: verify_semiconjugacy(
        Quadratic(), Quadratic(), Quadratic(), lo, hi, 5),
    "crosscheck_closed_form": lambda lo, hi: crosscheck_closed_form(
        Quadratic(), herschel_iterate, lo, hi, 2, 5),
    "herschel_relation_residual": lambda lo, hi: herschel_relation_residual(
        lambda t: 0.0, Reflect(), lo, hi, 5),
    "propagate_partial_conjugacy": lambda lo, hi: propagate_partial_conjugacy(
        Quadratic(), Quadratic(), lo, hi, Mobius(0.0, 0.0), 2, 5, 1e-3),
}


@pytest.mark.parametrize("lo,hi", _BAD_INTERVALS,
                         ids=[f"{lo},{hi}" for lo, hi in _BAD_INTERVALS])
@pytest.mark.parametrize("name", sorted(_GRIDDED))
def test_a_bad_interval_cannot_be_gridded(name, lo, hi):
    message = _cannot_grid(lo, hi)
    if name == "fixed_points" and (math.isnan(lo) or math.isnan(hi)):  # snapped first
        message = r"^NaN is not a point of \[-inf, inf\]$"
    with pytest.raises(DomainError, match=message):
        _GRIDDED[name](lo, hi)


class _Identity(MapDescriptor):
    """x -> x on a given domain."""

    def __init__(self, lo, hi):
        self._domain = Interval(lo, hi)

    def _raw(self, x):
        return x


# every library function that grids a map's domain, called with the map
_DOMAIN_GRIDDED = {
    "interior_grid": lambda m: m.domain().interior_grid(5),
    "verify_conjugacy": lambda m: verify_conjugacy(m, m, Mobius(0.0, 0.0), 5),
    "periodicity_order": lambda m: periodicity_order(m, 2, 5),
}
_UNGRIDDABLE_DOMAINS = [(-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308)]


@pytest.mark.parametrize("lo,hi", _UNGRIDDABLE_DOMAINS,
                         ids=[f"{lo},{hi}" for lo, hi in _UNGRIDDABLE_DOMAINS])
@pytest.mark.parametrize("name", sorted(_DOMAIN_GRIDDED))
def test_an_unbounded_or_too_wide_domain_cannot_be_gridded(name, lo, hi):
    with pytest.raises(DomainError, match=_cannot_grid(lo, hi)):
        _DOMAIN_GRIDDED[name](_Identity(lo, hi))


def test_linspace_grids_a_point():
    assert linspace(0.3, 0.3, 3) == array("d", [0.3, 0.3, 0.3])


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.7e308, 1.7e308), st.floats(-1.7e308, 1.7e308), st.integers(2, 200))
@example(1e308, 1.7e308, 5)
@example(-1.7e308, -1e308, 10**4)
def test_every_point_of_a_grid_of_a_gridded_interval_is_finite(lo, hi, samples):
    assume(lo < hi and hi - lo < math.inf)
    check_interval(lo, hi)
    assert all(math.isfinite(x) for x in linspace(lo, hi, samples))


def test_linspace_keeps_its_formula_where_it_does_not_overflow():
    # the step form takes over only where (hi - lo) * (samples - 1) overflows
    assert linspace(0.0, 1.0, 4) == array("d", [0.0, 1 / 3, 2 / 3, 1.0])
    assert linspace(-1.0, 2.0, 10**4)[1234] == -1.0 + 3.0 * 1234 / 9999
    assert linspace(1e308, 1.7e308, 5) == array("d", [1e308, 1.175e308, 1.35e308,
                                                      1.5249999999999999e308, 1.7e308])


def test_the_argument_messages_are_built_only_in_errors():
    phrases = ("must be a positive integer", "must be a nonnegative integer",
               "must be positive, got", "need at least 2", "cannot grid", "exceeds the cap of")
    paths = glob.glob(os.path.join(SRC, "intervaldyn", "*.py"))
    assert len(paths) > 10
    for path in paths:
        if os.path.basename(path) == "errors.py":
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for phrase in phrases:
            assert phrase not in text, f"{os.path.basename(path)} spells out '{phrase}'"
