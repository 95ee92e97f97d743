"""Closed-form n-th iterates of the quadratic and hyperbola families,
plus fractional (iterative-root) variants, cross-checked against brute
force.

For f(x) = 2x^2 - 1 the n-th iterate is

    f^n(x) = ((x + sqrt(x^2-1))^(2^n) + (x - sqrt(x^2-1))^(2^n)) / 2

where the square root is taken as the principal complex root when
x^2 < 1. The two bases are then complex conjugates on the unit circle,
so repeated squaring keeps the pair exactly conjugate and the sum
exactly real. The same iterate has the trigonometric form
cos(2^n arccos t) on [-1, 1].

A fractional iterate (a map phi with phi^n = f) follows by replacing
the exponent 2^n with 2^(1/n); only the real branch (x >= 1, both bases
positive) is implemented.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from .errors import (DomainError, ImaginaryResidueError, ParameterError, check_count,
                     check_interval, check_samples)
from .frozen import Frozen
from .interval import linspace
from .maps import MapDescriptor, _hyperbola_e2, trajectory

MAX_ITERATIONS = 30  # keeps 2^n exact and the squaring cascade bounded


def _characteristic_roots(x: float) -> tuple[complex, complex]:
    if x * x >= 1.0:
        s = math.sqrt((x - 1.0) * (x + 1.0))
        return complex(x + s, 0.0), complex(x - s, 0.0)
    s = math.sqrt(1.0 - x * x)
    return complex(x, s), complex(x, -s)


def _herschel_values(x: float, n_max: int) -> Iterator[float]:
    """herschel_iterate(x, n) for n = 0..n_max, from one squaring chain.
    The pair of roots stays exactly conjugate, or real, so for a real x
    no value has an imaginary residue."""
    if not math.isfinite(x):
        raise DomainError(f"need a finite argument, got {x!r}")
    c, cm = _characteristic_roots(x)
    v, n = (c + cm) / 2.0, 0
    while True:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            # at n = 0 both roots are infinite (|x| above about 1.34e154), and the
            # iterate is x; after that a non-finite square stays non-finite, and
            # even powers diverge to +inf
            yield x if n == 0 else math.inf
        elif abs(v.imag) > 1e-6 * max(1.0, abs(v.real)):
            raise ImaginaryResidueError(f"imaginary residue {v.imag!r} at x={x!r}, n={n}")
        else:
            yield v.real
        if n == n_max:
            return
        if n:
            c, cm = c * c, cm * cm
        v, n = (0.5 * c) * c + (0.5 * cm) * cm, n + 1


def herschel_iterate(x: float, n: int) -> float:
    """n-th iterate of 2x^2 - 1 via the characteristic-root power form.

    C^(2^n) is produced by n complex squarings (never polar
    exponentiation), with the final halving folded into the last
    squaring so the result overflows only when the iterate itself
    leaves binary64 range.
    """
    for v in _herschel_values(x, check_count(n, "iteration count", 0, MAX_ITERATIONS)):
        pass
    return v


def boole_iterate(t: float, n: int) -> float:
    """n-th iterate of 2x^2 - 1 in trigonometric form: cos(2^n arccos t)."""
    n = check_count(n, "iteration count", 0, MAX_ITERATIONS)
    if math.isnan(t) or abs(t) > 1.0 + 1e-12:
        raise DomainError(f"need t in [-1, 1], got {t!r}")
    t = min(1.0, max(-1.0, t))
    return math.cos(2.0**n * math.acos(t))


def _hyperbola_closed_form(e2: float, a: float, x: float, power: float) -> float:
    coeff = (e2 - 1.0) / (e2 - 2.0)
    try:
        rad = power * x * x - coeff * (power - 1.0) * a * a
    except OverflowError:
        rad = math.nan
    if math.isnan(rad) and (math.isinf(power) or abs(power) > 1e300):
        # re-associate: rad = power*(x^2 - coeff*a^2) + coeff*a^2
        lead = x * x - coeff * a * a
        rad = math.copysign(math.inf, lead) if lead != 0.0 else coeff * a * a
    if rad < 0.0:
        scale = abs(power * x * x) + abs(coeff * (power - 1.0) * a * a)
        if math.isfinite(scale) and rad >= -1e-12 * max(1.0, scale):
            rad = 0.0
        else:
            raise DomainError(f"radicand {rad!r} negative at x={x!r}")
    return math.sqrt(rad)


def hyperbola_iterate(e: float, a: float, x: float, n: int) -> float:
    """n-th iterate of sqrt((1-e^2)(a^2-x^2)):

        f^n(x) = sqrt((e^2-1)^n x^2 - (e^2-1)/(e^2-2) ((e^2-1)^n - 1) a^2)
    """
    n = check_count(n, "iteration count", 0, MAX_ITERATIONS)
    e2 = _hyperbola_e2(e, a)
    try:
        power = (e2 - 1.0) ** n
    except OverflowError:
        power = math.inf
    return _hyperbola_closed_form(e2, a, x, power)


def fractional_iterate_quadratic(x: float, n: int) -> float:
    """The 1/n-th iterate of 2x^2 - 1 on the real branch x >= 1.

    Exponent 2^(1/n) applied to both (positive real) characteristic
    roots; n-fold self-composition reproduces one application of the map.
    """
    n = check_count(n, "root order")
    if math.isnan(x) or x < 1.0 - 1e-12:
        raise DomainError(f"real fractional branch needs x >= 1, got {x!r}")
    x = max(x, 1.0)
    try:
        s = math.sqrt(x * x - 1.0)
        expo = 2.0 ** (1.0 / n)
        return 0.5 * ((x + s) ** expo + (x - s) ** expo)
    except OverflowError:
        return math.inf


def fractional_iterate_hyperbola(e: float, a: float, x: float, n: int) -> float:
    """The 1/n-th iterate of the hyperbola family; needs e^2 > 1 so that
    (e^2-1)^(1/n) has a real principal value."""
    n = check_count(n, "root order")
    e2 = _hyperbola_e2(e, a)
    if e2 <= 1.0:
        raise ParameterError(f"fractional exponent needs e^2 > 1, got e^2 = {e2!r}")
    try:
        power = (e2 - 1.0) ** (1.0 / n)
    except OverflowError:
        power = math.inf
    return _hyperbola_closed_form(e2, a, x, power)


class CrosscheckReport(Frozen):
    """Worst disagreement between brute-force iteration and a closed form."""

    max_deviation: float
    argmax_x: float
    argmax_n: int
    samples: int
    n_max: int


def _scaled_deviation(u: float, v: float) -> float:
    """|u - v| relative to max(1, |u|, |v|).

    For values bounded by 1 this is the plain absolute deviation; for
    diverging iterates it degrades gracefully to a relative error, and
    two infinities of the same sign count as exact agreement.
    """
    if math.isinf(u) and math.isinf(v) and (u > 0.0) == (v > 0.0):
        return 0.0
    if math.isnan(u) or math.isnan(v):
        return math.inf
    d = abs(u - v)
    if math.isinf(d):
        return math.inf
    return d / max(1.0, abs(u), abs(v))


def crosscheck_closed_form(
    m: MapDescriptor,
    formula: Callable[[float, int], float],
    lo: float,
    hi: float,
    n_max: int,
    samples: int,
) -> CrosscheckReport:
    """Max deviation between iterate(m, x, n) and formula(x, n) over an
    inclusive sample grid of [lo, hi] and n = 0..n_max. Each sample's
    brute-force iterates come from one walk of its trajectory, and
    herschel_iterate's from one squaring chain."""
    n_max = check_count(n_max, "iteration count", 0, MAX_ITERATIONS)
    samples = check_samples(samples)
    check_interval(lo, hi)
    chain = formula is herschel_iterate  # one squaring chain per x serves every n
    worst, arg_x, arg_n = -1.0, lo, 0
    for x in linspace(lo, hi, samples):
        n = 0  # the step being checked, also while the walk computes it
        exact = _herschel_values(x, n_max) if chain else (formula(x, k) for k in range(n_max + 1))
        try:
            for brute, value in zip(trajectory(m, x, n_max), exact):
                d = _scaled_deviation(brute, value)
                if d > worst:
                    worst, arg_x, arg_n = d, x, n
                n += 1
        except DomainError as exc:
            raise DomainError(f"crosscheck failed at x={x!r}, n={n}: {exc}") from exc
    return CrosscheckReport(worst, arg_x, arg_n, samples, n_max)
