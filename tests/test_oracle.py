"""The paper's h, the arcsine CDF, the C01 conjugacy, the closed-form
iterates of C04 and the fractional iterates of C05 against a 60-digit
mpmath oracle.

The bounds are regression bounds: they may be tightened, never loosened.
h(x) = (2/pi) arcsin sqrt(x) rounds sqrt(x) first, and asin amplifies that
rounding by 1/sqrt(1 - x) near 1, so its error in ulps grows like
0.32 / sqrt(1 - x) + 1.25 (measured on 3000 consecutive floats below the
top of each sub-interval). Each envelope is that worst case, rounded up.

Points are seeded, so every run checks the same ones.
"""

import math
import random

import pytest

mpmath = pytest.importorskip("mpmath")

from intervaldyn.chaos_rng import arcsine_cdf  # noqa: E402
from intervaldyn.closed_form import (boole_iterate, fractional_iterate_hyperbola,  # noqa: E402
                                     fractional_iterate_quadratic, herschel_iterate,
                                     hyperbola_iterate)
from intervaldyn.homeos import UlamArcsin, apply_homeo  # noqa: E402
from intervaldyn.maps import Logistic, Tent, eval_map  # noqa: E402

mp = mpmath.mp.clone()
mp.dps = 60

EPS = 2.0 ** -53  # the unit roundoff of binary64
H = UlamArcsin()


def exact_h(x: float):
    return 2 * mp.asin(mp.sqrt(mp.mpf(x))) / mp.pi


def exact_h_inverse(y: float):
    return mp.sin(mp.pi * mp.mpf(y) / 2) ** 2


def ulps(got: float, exact) -> float:
    """|got - exact| in units of the last place of exact rounded to binary64."""
    return float(abs(mp.mpf(got) - exact)) / math.ulp(float(exact))


def points(lo: float, hi: float, seed: int, count: int = 2000, below_hi: int = 500) -> list[float]:
    """Seeded uniform points of [lo, hi], its ends, and the below_hi floats
    just below hi, where the error of h is largest."""
    rng = random.Random(seed)
    xs, x = [lo, hi] + [rng.uniform(lo, hi) for _ in range(count)], hi
    for _ in range(below_hi):
        x = math.nextafter(x, lo)
        xs.append(x)
    return xs


# (lo, hi, envelope in ulps) of h on [0, 1) by sub-interval
H_ENVELOPES = [(0.0, 0.9, 3.0), (0.9, 0.999, 12.0), (0.999, 0.99999997, 1900.0)]


@pytest.mark.parametrize("lo, hi, envelope", H_ENVELOPES,
                         ids=[f"{lo}-{hi}" for lo, hi, _ in H_ENVELOPES])
def test_h_stays_within_its_ulp_envelope(lo, hi, envelope):
    worst = max((ulps(H._fwd(x), exact_h(x)), x) for x in points(lo, hi, seed=int(hi * 1e8)))
    assert worst[0] <= envelope, worst


def test_h_inverse_stays_within_four_ulps():
    worst = max((ulps(H._inv(y), exact_h_inverse(y)), y)
                for y in points(0.0, 1.0, seed=3, count=5000, below_hi=0))
    assert worst[0] <= 4.0, worst


def test_c01_sides_each_match_the_oracle():
    # h(f(x)) and g(h(x)) for f logistic, g tent, each against the exact
    # common value, so that an error both sides share cannot cancel
    logistic, tent = Logistic(), Tent()
    rng = random.Random(2016)
    worst_residual = 0.0
    for _ in range(10000):
        x = rng.uniform(0.0, 1.0)
        t = exact_h(x)
        exact = 2 * t if t <= 0.5 else 2 - 2 * t
        left = apply_homeo(H, eval_map(logistic, x))
        right = eval_map(tent, apply_homeo(H, x))
        # h amplifies the rounding of f(x) by h'(f(x)), about 1 / (pi |1 - 2x|)
        assert float(abs(left - exact)) <= EPS * (1.0 + 1.0 / abs(1.0 - 2.0 * x)), x
        # the tent map doubles h's own error, which grows like 1 / sqrt(1 - x)
        assert float(abs(right - exact)) <= 2.0 * EPS * (1.0 + 1.0 / math.sqrt(1.0 - x)), x
        worst_residual = max(worst_residual, abs(left - right))
    assert worst_residual <= 2.1e-12


@pytest.mark.parametrize("lo, hi, envelope", H_ENVELOPES,
                         ids=[f"{lo}-{hi}" for lo, hi, _ in H_ENVELOPES])
def test_arcsine_cdf_stays_within_the_envelope_of_h(lo, hi, envelope):
    # the CDF that rng ks tests against is h, snapped at the ends
    worst = max((ulps(arcsine_cdf(x), exact_h(x)), x) for x in points(lo, hi, seed=int(hi * 1e7)))
    assert worst[0] <= envelope, worst
    assert [arcsine_cdf(x) for x in (0.0, -1e-13, 1.0, 1.0 + 1e-13)] == [0.0, 0.0, 1.0, 1.0]


# --- closed-form iterates (C04) ---------------------------------------------------


def near_ends(seed: int, inside: bool = True, per_decade: int = 20) -> list[float]:
    """Seeded points 10^-k from -1 and 1, k = 2..15, inside [-1, 1] and,
    unless inside, just above 1 too: where 2^n amplifies the rounding of
    arccos or of sqrt(x^2 - 1) most."""
    rng = random.Random(seed)
    offsets = [rng.uniform(0.5, 5.0) * 10.0 ** -k for k in range(2, 16) for _ in range(per_decade)]
    xs = [1.0 - d for d in offsets] + [-1.0 + d for d in offsets]
    return xs if inside else xs + [1.0 + d for d in offsets]


def scaled_error(got: float, exact) -> float:
    """|got - exact| / max(1, |exact|), C04's scaled deviation; an exact
    value beyond binary64 range must come out as an infinity of its sign."""
    if math.isinf(float(exact)):
        return 0.0 if got == float(exact) else math.inf
    return float(abs(mp.mpf(got) - exact) / max(1, abs(exact)))


def worst_quadratic_iterate(formula, xs, n_max: int = 10):
    """The largest scaled error of formula(x, n) against f^n(x) for
    f(x) = 2x^2 - 1 iterated at 60 digits, n = 0..n_max, with its x, n."""
    worst = (0.0, math.nan, 0)
    for x in xs:
        exact = mp.mpf(x)
        for n in range(n_max + 1):
            worst = max(worst, (scaled_error(formula(x, n), exact), x, n))
            exact = 2 * exact * exact - 1
    return worst


HERSCHEL_POINTS = points(-1.0, 3.0, seed=4, below_hi=0) + near_ends(seed=5, inside=False)

# Envelopes, measured on these seeded points and rounded up. The herschel
# form's worst case below 1, 2.8e-11 at n = 10, sits at 0.99999995, where
# 1 - x * x loses half its digits and 2^n squarings amplify the rest; C04
# checks 1e-9 on its grid of [-1, 3]. At and above 1 the root is taken of
# (x - 1) * (x + 1), which does not cancel, and the worst is 1.8e-13. boole's
# worst is 2.3e-13 and the hyperbola form's relative error 4.6e-16.
HERSCHEL_ENVELOPE = 3e-11
HERSCHEL_ABOVE_ONE_ENVELOPE = 3e-13
BOOLE_ENVELOPE = 3e-13
HYPERBOLA_ENVELOPE = 1e-15


def test_herschel_iterate_stays_within_its_envelope():
    worst = worst_quadratic_iterate(herschel_iterate, [x for x in HERSCHEL_POINTS if x < 1.0])
    assert worst[0] <= HERSCHEL_ENVELOPE, worst


def test_herschel_iterate_at_and_above_one_stays_within_its_envelope():
    worst = worst_quadratic_iterate(herschel_iterate, [x for x in HERSCHEL_POINTS if x >= 1.0])
    assert worst[0] <= HERSCHEL_ABOVE_ONE_ENVELOPE, worst


def test_boole_iterate_stays_within_its_envelope():
    xs = points(-1.0, 1.0, seed=6, below_hi=200) + near_ends(seed=7)
    worst = worst_quadratic_iterate(boole_iterate, xs)
    assert worst[0] <= BOOLE_ENVELOPE, worst


@pytest.mark.parametrize("e, a, lo, hi", [(math.sqrt(3.0), 1.0, 2.0, 5.0), (2.0, 3.0, 4.0, 8.0)],
                         ids=["sqrt3-1", "2-3"])
def test_hyperbola_iterate_stays_within_its_envelope(e, a, lo, hi):
    # against sqrt((1 - e^2)(a^2 - x^2)) iterated at 60 digits, with e^2
    # exact: the library rounds e * e, which the envelope covers
    e2, a2 = mp.mpf(e) ** 2, mp.mpf(a) ** 2
    worst = (0.0, math.nan, 0)
    for x in points(lo, hi, seed=8, count=500, below_hi=0):
        exact = mp.mpf(x)
        for n in range(11):
            worst = max(worst, (scaled_error(hyperbola_iterate(e, a, x, n), exact), x, n))
            exact = mp.sqrt((1 - e2) * (a2 - exact * exact))
    assert worst[0] <= HYPERBOLA_ENVELOPE, worst


# --- fractional iterates (C05) ----------------------------------------------------

# Envelopes, measured and rounded up. One step of the 1/n-th iterate of
# 2x^2 - 1, cosh(2^(1/n) arccosh x), is within 1.1e-15 relative on
# [1, 1e3] for n = 1..10, near 1 included; one of the hyperbola family's
# within 2.5e-16. Composed n times on C05's grids, n = 2..4, they are
# within 1.5e-14 and 2.7e-15 of 2x^2 - 1 and of sqrt((e^2 - 1)(x^2 - a^2)),
# and the single iterates C05 compares them with, herschel_iterate(x, 1)
# and hyperbola_iterate(e, a, x, 1), within 4.1e-15 and 8.0e-16.
QUADRATIC_ROOT_ENVELOPE = 2e-15
HYPERBOLA_ROOT_ENVELOPE = 3e-16
COMPOSED_QUADRATIC_ENVELOPE = 2e-14
COMPOSED_HYPERBOLA_ENVELOPE = 3e-15
HERSCHEL_ONE_STEP_ENVELOPE = 5e-15
HYPERBOLA_ONE_STEP_ENVELOPE = 1e-15
# C05 (tests/test_acceptance.py) compares the composition with the single
# iterate, so its bounds are the sums of these: 2.5e-14 and 4e-15.
SQRT3 = math.sqrt(3.0)


def c05_grid(lo: float, hi: float) -> list[float]:
    """The 200 points of [lo, hi] that test_c05_fractional_iterates composes at."""
    return [lo + (hi - lo) * i / 199 for i in range(200)]


def test_fractional_iterate_quadratic_stays_within_its_envelope():
    xs = (points(1.0, 3.0, seed=9, below_hi=0) + points(3.0, 1e3, seed=10, count=300, below_hi=0)
          + [1.0 + 10.0 ** -k for k in range(1, 16)])
    worst = (0.0, math.nan, 0)
    for x in xs:
        for n in range(1, 11):
            exact = mp.cosh(mp.mpf(2) ** (mp.mpf(1) / n) * mp.acosh(mp.mpf(x)))
            worst = max(worst, (scaled_error(fractional_iterate_quadratic(x, n), exact), x, n))
    assert worst[0] <= QUADRATIC_ROOT_ENVELOPE, worst


@pytest.mark.parametrize("e, a, lo, hi", [(SQRT3, 1.0, 2.0, 5.0), (2.0, 3.0, 4.0, 8.0)],
                         ids=["sqrt3-1", "2-3"])
def test_fractional_iterate_hyperbola_stays_within_its_envelope(e, a, lo, hi):
    # sqrt(P x^2 - c (P - 1) a^2) with P = (e^2 - 1)^(1/n), c = (e^2 - 1)/(e^2 - 2)
    e2, a2 = mp.mpf(e) ** 2, mp.mpf(a) ** 2
    c = (e2 - 1) / (e2 - 2)
    worst = (0.0, math.nan, 0)
    for x in points(lo, hi, seed=11, count=1000, below_hi=0):
        for n in range(1, 11):
            p = (e2 - 1) ** (mp.mpf(1) / n)
            exact = mp.sqrt(p * x * x - c * (p - 1) * a2)
            worst = max(worst, (scaled_error(fractional_iterate_hyperbola(e, a, x, n), exact), x, n))
    assert worst[0] <= HYPERBOLA_ROOT_ENVELOPE, worst


def test_c05_sides_each_match_the_oracle():
    # each side of C05's comparison against the exact single iterate, so
    # that an error both sides share cannot cancel
    composed_q = single_q = composed_h = single_h = 0.0
    e2 = mp.mpf(SQRT3) ** 2
    for n in (2, 3, 4):
        for x in c05_grid(1.01, 3.0):
            exact, y = 2 * mp.mpf(x) ** 2 - 1, x
            for _ in range(n):
                y = fractional_iterate_quadratic(y, n)
            composed_q = max(composed_q, float(abs(y - exact)))
            single_q = max(single_q, float(abs(herschel_iterate(x, 1) - exact)))
        for x in c05_grid(2.0, 5.0):
            exact, y = mp.sqrt((e2 - 1) * (mp.mpf(x) ** 2 - 1)), x
            for _ in range(n):
                y = fractional_iterate_hyperbola(SQRT3, 1.0, y, n)
            composed_h = max(composed_h, float(abs(y - exact)))
            single_h = max(single_h, float(abs(hyperbola_iterate(SQRT3, 1.0, x, 1) - exact)))
    assert composed_q <= COMPOSED_QUADRATIC_ENVELOPE, composed_q
    assert single_q <= HERSCHEL_ONE_STEP_ENVELOPE, single_q
    assert composed_h <= COMPOSED_HYPERBOLA_ENVELOPE, composed_h
    assert single_h <= HYPERBOLA_ONE_STEP_ENVELOPE, single_h
