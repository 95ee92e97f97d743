import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from intervaldyn import (Affine, AlphaArcsin, Conflict, Conjugated, Cosine, DomainError,
                         HalfTent, Logistic, Mobius, ParameterError, PiecewiseLinear, Power,
                         Quadratic, Reflect, Tent, UlamArcsin, apply_homeo, eval_map,
                         herschel_relation_residual, iterate, orbit_consistency,
                         periodicity_order, propagate_partial_conjugacy, verify_conjugacy,
                         verify_semiconjugacy)
from intervaldyn.homeos import PiecewiseLinearHomeo

REFLECT = PiecewiseLinear([(0.0, 1.0), (1.0, 0.0)])  # x -> 1 - x
IDENTITY = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])


def test_verify_conjugacy_logistic_tent():
    report = verify_conjugacy(Logistic(), Tent(), UlamArcsin(), 10**4)
    assert report.max_residual < 1e-12
    assert len(report.residuals) == 10**4
    assert report.max_residual == max(report.residuals)


def test_verify_conjugacy_logistic_halftent():
    report = verify_conjugacy(Logistic(), HalfTent(), AlphaArcsin(), 10**4)
    assert report.max_residual < 1e-12


def test_reflect_does_not_conjugate_tent_to_itself():
    report = verify_conjugacy(Tent(), Tent(), Reflect(), 10**3)
    assert report.max_residual > 0.1


def test_conjugate_map_examples():
    g = Conjugated(Logistic(), AlphaArcsin())
    assert eval_map(g, 0.1) == pytest.approx(0.2, abs=1e-13)

    f = Tent()
    ident = Conjugated(f, Affine(1.0, 0.0))
    for i in range(101):
        x = (i + 0.5) / 102
        assert eval_map(ident, x) == pytest.approx(eval_map(f, x), abs=1e-15)

    # the parabola on [-1, 1] turned upside down is the logistic parabola
    g = Conjugated(Quadratic(), Affine(-0.5, 0.5))
    for i in range(1000):
        x = (i + 0.5) / 1000
        assert abs(eval_map(g, x) - eval_map(Logistic(), x)) < 1e-12


def test_conjugate_map_round_trip_property():
    cases = [
        (Logistic(), UlamArcsin()),
        (Logistic(), AlphaArcsin()),
        (Tent(), Power(2.0)),
    ]
    for f, h in cases:
        report = verify_conjugacy(f, Conjugated(f, h), h, 10**3)
        assert report.max_residual < 1e-12


def test_verify_semiconjugacy_cosine_double_angle():
    doubling_line = PiecewiseLinear([(0.0, 0.0), (10.0, 20.0)])
    report = verify_semiconjugacy(Quadratic(), doubling_line, Cosine(), 0.0, 10.0, 10**4)
    assert report.max_residual < 1e-12


def test_verify_semiconjugacy_sin_squared():
    from intervaldyn import Doubling, SineSquared
    report = verify_semiconjugacy(Logistic(), Doubling(), SineSquared(), 0.0, 1.0, 10**4)
    assert report.max_residual < 1e-12


def test_verify_semiconjugacy_identity():
    report = verify_semiconjugacy(Tent(), Tent(), IDENTITY, 0.0, 1.0, 10**3)
    assert report.max_residual == 0.0


def test_iterated_commutation():
    f, g, h = Logistic(), Tent(), UlamArcsin()
    worst = 0.0
    for i in range(1000):
        x = (i + 0.5) / 1000
        for n in range(11):
            worst = max(worst, abs(apply_homeo(h, iterate(f, x, n)) - iterate(g, apply_homeo(h, x), n)))
    assert worst < 1e-10


def test_periodicity_order_examples():
    assert periodicity_order(REFLECT, 5, 10**3, 1e-12) == 2
    assert periodicity_order(IDENTITY, 5, 10**3, 1e-12) == 1
    conj = Conjugated(REFLECT, Power(2.0))
    assert periodicity_order(conj, 5, 10**3, 1e-10) == 2
    assert periodicity_order(Logistic(), 6, 10**3, 1e-10) is None
    assert periodicity_order(Tent(), 6, 10**3, 1e-10) is None


def test_periodicity_order_preserved_by_conjugation():
    # order-p maps stay order-p in any coordinates (p = 1 and 2)
    for h in (Power(2.0), Power(0.5), PiecewiseLinearHomeo([(0.0, 0.0), (0.7, 0.2), (1.0, 1.0)])):
        assert periodicity_order(Conjugated(IDENTITY, h), 5, 200, 1e-9) == 1
        assert periodicity_order(Conjugated(REFLECT, h), 5, 200, 1e-9) == 2


def test_mobius_involution_examples():
    phi = Mobius(0.0, 0.0)
    for x in (0.0, 0.25, 1.0):
        assert apply_homeo(phi, x) == -x

    phi = Mobius(1.0, 2.0)  # on [0, 3], clear of the pole -0.5
    assert apply_homeo(phi, 0.0) == -1.0
    worst = 0.0
    for i in range(1000):
        x = 3.0 * i / 999
        worst = max(worst, abs(apply_homeo(phi, apply_homeo(phi, x)) - x))
    assert worst < 1e-12

    with pytest.raises(ParameterError):
        Mobius(0.5, 2.0)


def _round_trip_error_bound(a, b, x):
    """A first-order bound, times 4, on the rounding error of phi(phi(x))
    for phi(x) = -(a + x)/(1 + b x) in binary64: y = phi(x) carries a
    relative error r1 from its three operations, and the second
    application divides a + y and 1 + b y, each carrying y's error, where
    the true values are x (ab - 1)/(1 + b x) and (1 - ab)/(1 + b x)."""
    eps = 2.0**-53
    y = -(a + x) / (1.0 + b * x)
    r1 = 3.0 * eps + 2.0 * eps * (1.0 + abs(b * x)) / abs(1.0 + b * x)
    d2 = abs(1.0 + b * y)
    d2_error = abs(b * y) * r1 + 2.0 * eps * (1.0 + abs(b * y))
    return 4.0 * ((abs(y) * r1 + eps * abs(a + y)) / d2 + abs(x) * (d2_error / d2 + eps))


_COEFFICIENT = st.floats(-4.0, 4.0)


@given(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT, st.floats(1e-3, 4.0), st.floats(0.0, 1.0))
def test_mobius_involution_is_an_involution_on_its_interval(a, b, lo, width, t):
    hi = lo + width
    try:
        phi = Mobius(a, b)
    except ParameterError:  # a*b too close to 1
        assume(False)
    assume(b == 0.0 or not lo <= -1.0 / b <= hi)  # the pole outside [lo, hi]
    x = min(lo + t * width, hi)
    bound = _round_trip_error_bound(a, b, x)
    assume(math.isfinite(bound))  # phi(x) overflows next to the pole
    assert abs(apply_homeo(phi, apply_homeo(phi, x)) - x) <= bound


def test_herschel_relation_residual_examples():
    a, b = 1.0, 2.0
    phi = Mobius(a, b)  # on [0, 3], clear of the pole -0.5
    assert herschel_relation_residual(lambda t: a + b * t, phi, 0.0, 3.0, 1000) < 1e-12

    neg = Mobius(0.0, 0.0)
    assert herschel_relation_residual(lambda t: 0.0, neg, -2.0, 2.0, 100) == 0.0

    assert herschel_relation_residual(lambda t: t, Reflect(), 0.0, 1.0, 100) > 0.5


def test_orbit_consistency_examples():
    f, g, h = Logistic(), Tent(), UlamArcsin()
    pairs = [(0.3, apply_homeo(h, 0.3)), (0.7, apply_homeo(h, 0.7))]
    assert orbit_consistency(f, g, pairs, 5, 1e-9) is None

    conflict = orbit_consistency(f, g, [(0.3, 0.3), (0.7, 0.6)], 1, 1e-9)
    assert isinstance(conflict, Conflict)
    assert conflict.step == 1
    assert conflict.image_gap == pytest.approx(0.2, abs=1e-12)

    assert orbit_consistency(f, g, [(0.3, 0.9)], 5, 1e-9) is None  # single pair


def test_propagate_identity_stays_on_diagonal():
    table = propagate_partial_conjugacy(
        Tent(), Tent(), 0.01, 0.02, Affine(1.0, 0.0), 5, 21, 1e-6)
    assert not isinstance(table, Conflict)
    assert all(y == x for x, y in table)
    assert table == sorted(table)


def test_propagate_true_seed_stays_on_graph():
    h = UlamArcsin()
    table = propagate_partial_conjugacy(
        Logistic(), Tent(), 0.1, 0.11, h, 6, 41, 1e-3)
    assert not isinstance(table, Conflict)
    worst = max(abs(y - apply_homeo(h, x)) for x, y in table)
    assert worst < 1e-9


def test_propagate_wrong_seed_conflicts():
    outcome = propagate_partial_conjugacy(
        Logistic(), Tent(), 0.1, 0.11, Affine(1.0, 0.0), 6, 41, 1e-3)
    assert isinstance(outcome, Conflict)
    assert outcome.image_gap > 0.01


def test_mobius_family_involution_property():
    rng = random.Random(7)
    count = 0
    while count < 20:
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        if abs(a * b - 1.0) <= 0.1:
            continue
        count += 1
        pole = -1.0 / b if b != 0.0 else None
        phi = Mobius(a, b)
        # any pole-free interval works; shift if the pole lands in [0, 3]
        if pole is not None and 0.0 <= pole <= 3.0:
            grid_lo = pole + 0.1
        else:
            grid_lo = 0.0
        worst = 0.0
        for i in range(200):
            x = grid_lo + 3.0 * i / 199
            worst = max(worst, abs(apply_homeo(phi, apply_homeo(phi, x)) - x))
        assert worst < 1e-12


def test_conjugacy_report_argmax_consistency():
    report = verify_conjugacy(Tent(), Tent(), Reflect(), 100)
    idx = report.residuals.index(report.max_residual)
    assert report.grid[idx] == report.argmax
    assert all(r >= 0.0 and math.isfinite(r) for r in report.residuals)


def test_semiconjugacy_domain_error_reports_point():
    with pytest.raises(DomainError):
        verify_semiconjugacy(Logistic(), Tent(), IDENTITY, 0.0, 2.0, 100)
