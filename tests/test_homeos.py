import math

import pytest

from intervaldyn import (Affine, AlphaArcsin, CompositionH, DomainError,
                         Mobius, ParameterError, PiecewiseLinearHomeo, Power,
                         Reflect, UlamArcsin, apply_homeo, invert_homeo)

ALL_UNIT_HOMEOS = [
    UlamArcsin(),
    AlphaArcsin(),
    Power(0.7),
    Power(2.5),
    Reflect(),
    PiecewiseLinearHomeo([(0.0, 0.0), (0.3, 0.6), (1.0, 1.0)]),
    PiecewiseLinearHomeo([(0.0, 1.0), (0.4, 0.2), (1.0, 0.0)]),
    CompositionH(Affine(2.0, 0.0), AlphaArcsin()),
]


def test_ulam_values():
    h = UlamArcsin()
    assert apply_homeo(h, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert apply_homeo(h, 0.0) == 0.0
    assert apply_homeo(h, 1.0) == 1.0
    assert apply_homeo(h, 0.75) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_alpha_inverse_value():
    assert invert_homeo(AlphaArcsin(), 0.25) == pytest.approx(0.5, abs=1e-15)


def test_ulam_is_doubled_alpha():
    ulam, alpha = UlamArcsin(), AlphaArcsin()
    for i in range(1001):
        x = i / 1000
        assert apply_homeo(ulam, x) == 2.0 * apply_homeo(alpha, x)


def test_composition_affine_alpha_equals_ulam():
    comp = CompositionH(Affine(2.0, 0.0), AlphaArcsin())
    ulam = UlamArcsin()
    for i in range(1001):
        x = i / 1000
        assert abs(apply_homeo(comp, x) - apply_homeo(ulam, x)) < 1e-15


@pytest.mark.parametrize("h", ALL_UNIT_HOMEOS, ids=lambda h: h.describe())
def test_round_trip(h):
    dom = h.domain()
    for i in range(1000):
        x = dom.lo + (dom.hi - dom.lo) * (i + 0.5) / 1000
        assert abs(invert_homeo(h, apply_homeo(h, x)) - x) < 1e-10


@pytest.mark.parametrize("h", ALL_UNIT_HOMEOS, ids=lambda h: h.describe())
def test_strict_monotonicity_on_grid(h):
    dom = h.domain()
    vals = [apply_homeo(h, dom.lo + (dom.hi - dom.lo) * i / 999) for i in range(1000)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


def test_affine():
    h = Affine(2.0, -1.0)
    assert apply_homeo(h, 3.0) == 5.0
    assert invert_homeo(h, 5.0) == 3.0
    with pytest.raises(ParameterError):
        Affine(0.0, 1.0)


def test_power_validation():
    with pytest.raises(ParameterError):
        Power(0.0)
    with pytest.raises(ParameterError):
        Power(-2.0)


def test_mobius_basics():
    phi = Mobius(a=1.0, b=2.0, lo=0.0, hi=3.0)
    assert apply_homeo(phi, 0.0) == -1.0
    # self-inverse evaluation is permitted outside the declared interval
    assert abs(apply_homeo(phi, apply_homeo(phi, 1.7)) - 1.7) < 1e-14


def test_mobius_validation():
    with pytest.raises(ParameterError, match="too close to 1"):
        Mobius(a=0.5, b=2.0)
    with pytest.raises(ParameterError, match="pole"):
        Mobius(a=1.0, b=-2.0, lo=0.0, hi=3.0)  # pole at 0.5
    with pytest.raises(DomainError, match="pole"):
        apply_homeo(Mobius(a=1.0, b=2.0, lo=0.0, hi=3.0), -0.5)
    for lo, hi in ((1.0, 0.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ParameterError, match="^bad declared interval"):
            Mobius(a=0.5, b=0.5, lo=lo, hi=hi)


def test_mobius_reduces_to_negation():
    phi = Mobius(a=0.0, b=0.0)
    for x in (-2.0, 0.0, 0.3, 5.0):
        assert apply_homeo(phi, x) == -x


def test_pwl_homeo_validation():
    with pytest.raises(ParameterError):
        PiecewiseLinearHomeo([(0.0, 0.0), (1.0, 0.0)])  # not strictly monotone
    with pytest.raises(ParameterError):
        PiecewiseLinearHomeo([(0.0, 0.0), (0.5, 0.8), (1.0, 0.5)])  # changes direction


def test_pwl_homeo_bisection_inverse():
    h = PiecewiseLinearHomeo([(0.0, 0.0), (0.25, 0.7), (1.0, 1.0)])
    y = apply_homeo(h, 0.2)
    assert abs(invert_homeo(h, y) - 0.2) < 1e-13
    dec = PiecewiseLinearHomeo([(0.0, 1.0), (1.0, 0.0)])
    assert abs(invert_homeo(dec, 0.25) - 0.75) < 1e-13


def test_domain_errors():
    with pytest.raises(DomainError):
        apply_homeo(UlamArcsin(), 1.5)
    with pytest.raises(DomainError):
        invert_homeo(AlphaArcsin(), 0.7)  # range is [0, 0.5]


def test_identity_homeo():
    h = Affine(1.0, 0.0)
    assert apply_homeo(h, 0.37) == 0.37
    assert invert_homeo(h, 0.37) == 0.37


def test_endpoint_roundoff_absorbed():
    # composed maps overshoot by an ulp; the snap brings it back
    assert apply_homeo(UlamArcsin(), 1.0 + 1e-13) == 1.0
    with pytest.raises(DomainError):
        apply_homeo(UlamArcsin(), 1.0 + 1e-9)
