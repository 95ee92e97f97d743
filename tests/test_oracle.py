"""The paper's h and the C01 conjugacy against a 60-digit mpmath oracle.

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
