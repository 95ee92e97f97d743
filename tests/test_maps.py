import math
import re

import pytest

from intervaldyn import (Conjugated, Cosine, DomainError, Doubling,
                         HalfTent, Hyperbola, Logistic, ParameterError,
                         PiecewiseLinear, Power, Quadratic, SineSquared, Tent,
                         Unimodal, Verhulst, eval_map, fixed_points, iterate, orbit,
                         sensitivity_report)
from intervaldyn.homeos import (AlphaArcsin, PiecewiseLinearHomeo, Reflect, UlamArcsin,
                               invert_homeo)


def test_eval_examples():
    assert eval_map(Logistic(), 0.2) == pytest.approx(0.64, abs=1e-15)
    assert eval_map(Tent(), 0.75) == 0.5
    assert eval_map(HalfTent(), 0.1) == pytest.approx(0.2, abs=1e-15)


def test_eval_branch_boundaries():
    # closed-side branch at the shared endpoint; both branches agree there
    assert eval_map(Tent(), 0.5) == 1.0
    assert eval_map(HalfTent(), 0.25) == 0.5
    assert eval_map(Doubling(), 0.5) == 0.0


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_map(Logistic(), 1.5)
    with pytest.raises(DomainError):
        eval_map(Logistic(), -0.1)
    with pytest.raises(DomainError):
        eval_map(Doubling(), 1.0)  # right-open domain
    with pytest.raises(DomainError):
        eval_map(Logistic(), float("nan"))


def test_eval_clamps_out_of_domain_roundoff():
    assert eval_map(Logistic(), 1.0 + 1e-13) == 0.0
    assert eval_map(Logistic(), -1e-13) == 0.0
    with pytest.raises(DomainError):
        eval_map(Logistic(), 1.0 + 1e-9)


def test_iterate_examples():
    assert iterate(Logistic(), 0.75, 10) == 0.75
    assert iterate(Quadratic(), 0.5, 2) == -0.5
    assert iterate(Tent(), 0.1, 1) == pytest.approx(0.2, abs=1e-15)
    assert iterate(Tent(), 0.3, 0) == 0.3


def test_iterate_escape_names_index():
    m = PiecewiseLinear([(0.0, 0.5), (1.0, 1.5)])  # leaves [0,1] immediately
    with pytest.raises(DomainError, match="iterate 1"):
        iterate(m, 0.8, 5)
    with pytest.raises(DomainError, match="iterate 2"):
        iterate(m, 0.2, 5)  # 0.2 -> 0.7 -> 1.2


def test_iterate_composition_law():
    m = Logistic()
    x = 0.123456789
    for a, b in [(3, 4), (0, 7), (5, 0), (1, 9)]:
        assert iterate(m, x, a + b) == iterate(m, iterate(m, x, a), b)


def test_orbit_examples():
    assert orbit(Doubling(), 0.375, 3).values == (0.375, 0.75, 0.5, 0.0)
    assert orbit(Logistic(), 0.75, 2).values == (0.75, 0.75, 0.75)
    assert orbit(Quadratic(), 0.5, 2).values == (0.5, -0.5, -0.5)


def test_orbit_recompute_bit_exact():
    o = orbit(Logistic(), 0.123456789, 200)
    for prev, cur in zip(o.values, o.values[1:]):
        assert iterate(Logistic(), prev, 1) == cur
        assert Logistic().domain().contains(cur)
    assert o.seed == o.values[0]


def test_orbit_rejects_bad_length():
    with pytest.raises(ParameterError):
        orbit(Logistic(), 0.2, 0)


def test_fixed_points_examples():
    assert fixed_points(Logistic(), 0.01, 0.99, 1e-12) == pytest.approx([0.75], abs=1e-11)
    assert fixed_points(Tent(), 0.1, 0.9, 1e-12) == pytest.approx([2.0 / 3.0], abs=1e-11)
    roots = fixed_points(Cosine(), 0.0, 1.0, 1e-9)
    assert len(roots) == 1
    # independent bisection oracle for cos x = x
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    assert roots[0] == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_fixed_points_tolerance_below_float_spacing():
    # bisection stops at adjacent doubles instead of looping forever
    roots = fixed_points(SineSquared(), 0.1, 1.0, 1e-300)
    assert len(roots) == 2
    for r in roots:
        assert abs(math.sin(math.pi * r) ** 2 - r) <= 1e-15


def test_fixed_points_bad_interval():
    with pytest.raises(DomainError):
        fixed_points(Logistic(), 0.2, 1.7, 1e-9)
    # an end outside the domain is named by the snap, before the grid rule
    with pytest.raises(DomainError, match=r"^-inf lies outside \[0\.0, 1\.0\]$"):
        fixed_points(Logistic(), -math.inf, 1.0, 1e-9)
    with pytest.raises(ParameterError):
        fixed_points(Logistic(), 0.1, 0.9, -1.0)


def test_sensitivity_examples():
    seps = sensitivity_report(Logistic(), 0.123456789, 1e-9, 40)
    assert len(seps) == 41
    assert seps[-1] > 0.1

    assert sensitivity_report(Logistic(), 0.75, 0.0, 5) == [0.0] * 6


def test_sensitivity_tent_doubles_until_wrap():
    # the tent map doubles a dyadic separation exactly on every
    # pre-wrap step; after the wrap the two exactly-dyadic orbits fold
    # onto one another and coalesce (separation drops to exactly 0)
    seps = sensitivity_report(Tent(), 0.1, 2.0**-20, 25)
    for k in range(19):
        assert seps[k] == 2.0**k * 2.0**-20
    assert max(seps) == 0.25
    assert seps[-1] == 0.0


def test_tent_halftent_relation():
    t, ht = Tent(), HalfTent()
    for i in range(1001):
        x = i / 1000
        assert abs(2.0 * eval_map(ht, x / 2.0) - eval_map(t, x)) < 1e-15


def test_verhulst_matches_logistic():
    v, f = Verhulst(4.0, 4.0), Logistic()
    for i in range(1001):
        x = i / 1000
        assert eval_map(v, x) == pytest.approx(eval_map(f, x), abs=1e-15)


def test_hyperbola_eval_and_errors():
    m = Hyperbola(e=math.sqrt(3.0), a=1.0)
    assert eval_map(m, 2.0) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    with pytest.raises(DomainError, match="radicand"):
        eval_map(m, 0.5)  # |x| < a with e^2 > 1
    with pytest.raises(ParameterError):
        Hyperbola(e=1.0, a=1.0)
    with pytest.raises(ParameterError):
        Hyperbola(e=math.sqrt(2.0), a=1.0)
    with pytest.raises(ParameterError):
        Hyperbola(e=3.0, a=-1.0)


def test_piecewise_linear():
    m = PiecewiseLinear([(0.0, 0.25), (0.25, 0.25), (0.75, 0.75), (1.0, 0.75)])
    assert eval_map(m, 0.1) == 0.25
    assert eval_map(m, 0.5) == 0.5
    assert eval_map(m, 0.9) == 0.75
    with pytest.raises(ParameterError):
        PiecewiseLinear([(0.0, 0.0)])
    with pytest.raises(ParameterError):
        PiecewiseLinear([(0.0, 0.0), (0.0, 1.0)])  # duplicate abscissa


@pytest.mark.parametrize("knots,i", [
    ([(-1e308, 0.0), (1e308, 1.0)], 0),  # x1 - x0 overflows
    ([(0.0, -1e308), (1.0, 1e308)], 0),  # y1 - y0 overflows
    ([(0.0, 0.0), (1e200, 1e200)], 0),  # each span is finite, their product is not
    ([(0.0, 0.0), (1.0, 1.0), (1e200, -1e200), (2e200, 0.0)], 1),
])
def test_knot_segments_whose_span_overflows_are_rejected(knots, i):
    message = (f"^knot segment from {re.escape(repr(knots[i]))} to "
               f"{re.escape(repr(knots[i + 1]))} overflows: ")
    with pytest.raises(ParameterError, match=message):
        PiecewiseLinear(knots)
    if all(b[1] > a[1] for a, b in zip(knots, knots[1:])):
        with pytest.raises(ParameterError, match=message):
            PiecewiseLinearHomeo(knots)


def test_knot_segments_at_the_overflow_edge_interpolate():
    m = PiecewiseLinear([(0.0, 0.0), (1e154, 1e154)])
    assert eval_map(m, 1e153) == 1e153
    assert eval_map(PiecewiseLinear([(-1e300, 0.0), (1e300, 1.0)]), 0.0) == 0.5


def test_unimodal_construction_and_eval():
    m = Unimodal(v=0.5,
                 left=PiecewiseLinear([(0.0, 0.0), (0.5, 0.8)]),
                 right=PiecewiseLinear([(0.5, 0.8), (1.0, 0.0)]))
    assert eval_map(m, 0.25) == pytest.approx(0.4, abs=1e-15)
    assert eval_map(m, 0.75) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(ParameterError, match="vanish"):
        Unimodal(v=0.5,
                 left=PiecewiseLinear([(0.0, 0.1), (0.5, 0.8)]),
                 right=PiecewiseLinear([(0.5, 0.8), (1.0, 0.0)]))
    with pytest.raises(ParameterError):
        Unimodal(v=1.5,
                 left=PiecewiseLinear([(0.0, 0.0), (2.0, 1.0)]),
                 right=PiecewiseLinear([(0.5, 1.0), (1.0, 0.0)]))


def test_conjugated():
    conj = Conjugated(base=Logistic(), change=AlphaArcsin())
    h = AlphaArcsin()
    for i in range(101):
        x = 0.5 * (i + 0.5) / 101
        expected = eval_map(Logistic(), invert_homeo(h, x))
        from intervaldyn.homeos import apply_homeo
        assert abs(eval_map(conj, x) - apply_homeo(h, expected)) < 1e-12


def test_conjugated_domain_follows_change():
    conj = Conjugated(base=Logistic(), change=AlphaArcsin())
    dom = conj.domain()
    assert (dom.lo, dom.hi) == (0.0, 0.5)
    with pytest.raises(DomainError):
        eval_map(conj, 0.7)


def test_sine_squared():
    m = SineSquared()
    assert eval_map(m, 0.0) == 0.0
    assert eval_map(m, 0.5) == 1.0
    assert eval_map(m, 0.25) == pytest.approx(0.5, abs=1e-15)


def test_determinism():
    m = Conjugated(base=Logistic(), change=UlamArcsin())
    assert eval_map(m, 0.37) == eval_map(m, 0.37)
    assert iterate(m, 0.37, 17) == iterate(m, 0.37, 17)


def test_two_knot_piecewise_linear_maps():
    assert eval_map(PiecewiseLinear([(0.0, 1.0), (1.0, 0.0)]), 0.3) == 0.7
    assert eval_map(PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)]), 0.42) == 0.42
    assert eval_map(PiecewiseLinear([(0.0, 0.0), (10.0, 20.0)]), 3.25) == 6.5
    # the knots reject an empty or reversed interval and a NaN end
    for lo, hi in ((1.0, 0.0), (0.5, 0.5)):
        with pytest.raises(ParameterError, match="^knot abscissae must be strictly increasing$"):
            PiecewiseLinear([(lo, 2.0 * lo), (hi, 2.0 * hi)])
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ParameterError, match="^knots must be finite$"):
            PiecewiseLinear([(lo, 2.0 * lo), (hi, 2.0 * hi)])
    r = PiecewiseLinear([(0.0, 1.0), (1.0, 0.0)])
    # 1 - (1 - x) is not bit-exact for x without an exact complement
    assert eval_map(r, eval_map(r, 0.3)) == pytest.approx(0.3, abs=1e-15)


def test_describe_round_trips_identity():
    assert Logistic().describe() == "logistic"
    assert Tent().describe() == "tent"
    d = Conjugated(base=Tent(), change=Power(2.0)).describe()
    assert d == "conj:tent|power:g=2.0"


def test_reflect_homeo_matches_reflect_map():
    from intervaldyn.homeos import apply_homeo
    r_h, r_m = Reflect(), PiecewiseLinear([(0.0, 1.0), (1.0, 0.0)])
    for i in range(101):
        x = i / 100
        assert apply_homeo(r_h, x) == eval_map(r_m, x)
