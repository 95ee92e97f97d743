import math

import pytest

from intervaldyn import (DomainError, Hyperbola, ParameterError, Quadratic,
                         RangeError, boole_iterate, crosscheck_closed_form,
                         eval_map, fractional_iterate_hyperbola,
                         fractional_iterate_quadratic, herschel_iterate,
                         hyperbola_iterate, iterate)
from intervaldyn.closed_form import _characteristic_roots

SQRT3 = math.sqrt(3.0)


def herschel_constant(x):
    """C = x + sqrt(x^2 - 1), the principal complex root when x^2 < 1: the
    larger characteristic root, whose powers give herschel_iterate."""
    return _characteristic_roots(x)[0]


def test_herschel_constant_examples():
    assert herschel_constant(1.0) == complex(1.0, 0.0)
    c = herschel_constant(2.0)
    assert c.real == pytest.approx(2.0 + SQRT3, rel=1e-15)
    assert c.imag == 0.0
    assert herschel_constant(0.0) == complex(0.0, 1.0)


@pytest.mark.parametrize("x", [-0.9, -0.2, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_herschel_constant_reciprocal_invariant(x):
    c = herschel_constant(x)
    if x * x >= 1.0:
        other = complex(x - math.sqrt(x * x - 1.0), 0.0)
    else:
        other = complex(x, -math.sqrt(1.0 - x * x))
    assert abs(c * other - 1.0) < 1e-12


def test_herschel_iterate_examples():
    assert herschel_iterate(2.0, 1) == pytest.approx(7.0, abs=1e-12)
    for i in range(41):
        x = -1.0 + 4.0 * i / 40
        assert herschel_iterate(x, 0) == pytest.approx(x, abs=1e-15)
    assert herschel_iterate(0.5, 2) == pytest.approx(-0.5, abs=1e-12)
    assert herschel_iterate(0.5, 2) == pytest.approx(iterate(Quadratic(), 0.5, 2), abs=1e-12)


def test_herschel_iterate_guards():
    with pytest.raises(RangeError):
        herschel_iterate(0.5, 31)
    with pytest.raises(DomainError):
        herschel_iterate(float("inf"), 2)
    with pytest.raises(ParameterError):
        herschel_iterate(0.5, -1)


def test_herschel_iterate_exactly_real_inside_unit_interval():
    # conjugate-pair squaring keeps the imaginary parts exactly opposite
    for i in range(101):
        t = -1.0 + 2.0 * i / 100
        herschel_iterate(t, 10)  # must not raise ImaginaryResidueError


def test_herschel_overflow_matches_brute_force():
    # intermediate C^(2^n) is twice the result; the halved final squaring
    # keeps this finite
    assert herschel_iterate(1.25, 10) == iterate(Quadratic(), 1.25, 10)
    assert herschel_iterate(3.0, 10) == math.inf
    assert iterate(Quadratic(), 3.0, 10) == math.inf
    # squares that overflow at the first steps, and a root that is infinite from the start
    for x, steps in ((1e154, (0, 1, 2, 5, 30)), (-1e154, (0, 1, 2, 5, 30)),
                     (1.3e154, (0, 1, 2, 30)), (-1e200, (0, 1, 2, 5, 30)), (1e300, (0, 1, 30))):
        for n in steps:
            assert repr(herschel_iterate(x, n)) == repr(iterate(Quadratic(), x, n)), (x, n)


def test_boole_iterate_examples():
    for n in (0, 1, 5, 20, 30):
        assert boole_iterate(1.0, n) == 1.0
    assert boole_iterate(0.5, 2) == pytest.approx(-0.5, abs=1e-12)
    assert boole_iterate(math.cos(0.1), 3) == pytest.approx(math.cos(0.8), abs=1e-12)


def test_boole_iterate_guards():
    with pytest.raises(DomainError):
        boole_iterate(1.5, 2)
    with pytest.raises(RangeError):
        boole_iterate(0.5, 31)
    assert boole_iterate(1.0 + 1e-13, 1) == 1.0  # roundoff clamp


def test_hyperbola_iterate_examples():
    assert hyperbola_iterate(SQRT3, 1.0, 2.0, 2) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    for x in (0.5, 1.0, -2.0, 4.0):
        assert hyperbola_iterate(SQRT3, 1.0, x, 0) == pytest.approx(abs(x), rel=1e-15)
    assert hyperbola_iterate(SQRT3, 1.0, 2.0, 1) == pytest.approx(
        eval_map(Hyperbola(e=SQRT3, a=1.0), 2.0), rel=1e-14)


def test_hyperbola_iterate_guards():
    with pytest.raises(ParameterError):
        hyperbola_iterate(1.0, 1.0, 2.0, 1)
    with pytest.raises(ParameterError):
        hyperbola_iterate(math.sqrt(2.0), 1.0, 2.0, 1)
    with pytest.raises(DomainError):
        hyperbola_iterate(SQRT3, 1.0, 0.3, 1)  # radicand negative
    with pytest.raises(RangeError):
        hyperbola_iterate(SQRT3, 1.0, 2.0, 31)


def test_fractional_quadratic_examples():
    for i in range(21):
        x = 1.0 + 2.0 * i / 20
        assert fractional_iterate_quadratic(x, 1) == pytest.approx(
            herschel_iterate(x, 1), rel=1e-13)
    y = fractional_iterate_quadratic(2.0, 2)
    assert fractional_iterate_quadratic(y, 2) == pytest.approx(7.0, abs=1e-9)
    for n in (1, 2, 5):
        assert fractional_iterate_quadratic(1.0, n) == 1.0
    with pytest.raises(DomainError):
        fractional_iterate_quadratic(0.5, 2)


def test_fractional_hyperbola_examples():
    for i in range(21):
        x = 1.5 + 3.0 * i / 20
        assert fractional_iterate_hyperbola(SQRT3, 1.0, x, 1) == pytest.approx(
            hyperbola_iterate(SQRT3, 1.0, x, 1), rel=1e-13)
    y = fractional_iterate_hyperbola(SQRT3, 1.0, 3.0, 2)
    assert fractional_iterate_hyperbola(SQRT3, 1.0, y, 2) == pytest.approx(
        hyperbola_iterate(SQRT3, 1.0, 3.0, 1), abs=1e-9)
    with pytest.raises(ParameterError):
        fractional_iterate_hyperbola(0.5, 1.0, 2.0, 2)  # e^2 < 1


def test_crosscheck_reports():
    r = crosscheck_closed_form(Quadratic(), boole_iterate, -1.0, 1.0, 10, 1000)
    assert r.max_deviation < 1e-9
    r = crosscheck_closed_form(Quadratic(), herschel_iterate, 1.0, 3.0, 10, 1000)
    assert r.max_deviation < 1e-6
    formula = lambda x, n: hyperbola_iterate(SQRT3, 1.0, x, n)
    r = crosscheck_closed_form(Hyperbola(e=SQRT3, a=1.0), formula, 2.0, 5.0, 4, 100)
    assert r.max_deviation < 1e-9


def test_crosscheck_guards():
    with pytest.raises(ParameterError):
        crosscheck_closed_form(Quadratic(), boole_iterate, -1.0, 1.0, 5, 1)
    with pytest.raises(RangeError):
        crosscheck_closed_form(Quadratic(), boole_iterate, -1.0, 1.0, 31, 10)


def test_herschel_boole_equivalence():
    worst = 0.0
    for i in range(1000):
        t = -1.0 + 2.0 * i / 999
        for n in range(11):
            worst = max(worst, abs(herschel_iterate(t, n) - boole_iterate(t, n)))
    assert worst < 1e-9


def test_boole_semigroup():
    for a, b in [(3, 5), (0, 20), (10, 10), (1, 2)]:
        for i in range(50):
            t = -1.0 + 2.0 * i / 49
            assert boole_iterate(boole_iterate(t, a), b) == pytest.approx(
                boole_iterate(t, a + b), abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fractional_self_composition(n):
    worst = 0.0
    for i in range(200):
        x = 1.01 + (3.0 - 1.01) * i / 199
        y = x
        for _ in range(n):
            y = fractional_iterate_quadratic(y, n)
        worst = max(worst, abs(y - herschel_iterate(x, 1)))
    assert worst < 1e-8


def test_closed_forms_at_n1_match_single_application():
    for i in range(100):
        t = -1.0 + 2.0 * i / 99
        assert abs(boole_iterate(t, 1) - eval_map(Quadratic(), t)) < 1e-12
        assert abs(herschel_iterate(t, 1) - eval_map(Quadratic(), t)) < 1e-12
    m = Hyperbola(e=SQRT3, a=1.0)
    for i in range(50):
        x = 1.5 + 3.0 * i / 49
        assert abs(hyperbola_iterate(SQRT3, 1.0, x, 1) - eval_map(m, x)) < 1e-12
