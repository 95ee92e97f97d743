"""The logistic-map random-number pipeline and its finite-precision failure.

Iterates of 4x(1-x) from a generic seed distribute along the arcsine
law, whose CDF is the same (2/pi) arcsin sqrt(x) that conjugates the
logistic map to the tent map - one function in two roles. Applying it
pointwise therefore uniformizes an orbit, and composing with an inverse
CDF transports the sample to any target distribution on [0, 1].

The catch: in alpha-coordinates (x = sin^2(pi*alpha)) the dynamics is
the doubling map, a pure left shift of binary digits. A b-bit machine
word therefore shifts to exactly zero within b steps, which is the
classical objection to using the map as a generator with fixed-point
arithmetic. FixedPointWord models this with exact integers.

The default ergodic seed is 0.123456789; seeds such as 0, 1, 0.5 or
0.75 land on fixed points or short preperiodic tails and are degenerate
for sampling purposes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, compress, count, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import DomainError, EmptySampleError, ParameterError, check_count
from .frozen import Frozen
from .homeos import UlamArcsin, apply_homeo, _bisect_monotone
from .interval import linspace
from .maps import Logistic, Orbit, orbit, trajectory

DEFAULT_SEED = 0.123456789

_ULAM = UlamArcsin()


def arcsine_cdf(x: float) -> float:
    """CDF of the logistic map's invariant measure: apply_homeo(UlamArcsin, x).
    Interior points skip the snap, which would return them as they are."""
    return _ULAM._fwd(x) if 0.0 < x < 1.0 else apply_homeo(_ULAM, x)


class FixedPointWord(Frozen):
    """A b-bit binary fraction value / 2^bits in [0, 1); doubling it is the
    exact shift value -> (2*value) mod 2^bits."""

    bits: int
    value: int

    def __post_init__(self) -> None:
        if self.bits < 1 or self.bits > 63 or self.bits != int(self.bits):
            raise ParameterError(f"word width must be an integer in 1..63, got {self.bits!r}")
        if self.value != int(self.value) or not (0 <= self.value < 2**self.bits):
            raise ParameterError(f"value {self.value!r} does not fit in {self.bits} bits")

    def fraction(self) -> float:
        return self.value / 2.0**self.bits


class DistributionSpec(Frozen):
    """A target distribution on [0, 1] given by its CDF.

    The CDF must be non-decreasing with F(0) = 0 and F(1) = 1 (checked
    on a 1000-point grid); a missing inverse is filled in by monotone
    bisection.
    """

    cdf: Callable[[float], float]
    inverse_cdf: Callable[[float], float]

    def __init__(self, cdf: Callable[[float], float],
                 inverse_cdf: Optional[Callable[[float], float]] = None) -> None:
        object.__setattr__(self, "cdf", cdf)
        if inverse_cdf is None:
            inverse_cdf = lambda u: _bisect_monotone(cdf, u, 0.0, 1.0)
        object.__setattr__(self, "inverse_cdf", inverse_cdf)
        if abs(cdf(0.0)) > 1e-9 or abs(cdf(1.0) - 1.0) > 1e-9:
            raise ParameterError("CDF must satisfy F(0) = 0 and F(1) = 1")
        prev = cdf(0.0)
        for x in linspace(0.0, 1.0, 1000)[1:]:
            cur = cdf(x)
            if cur < prev - 1e-12:
                raise ParameterError(f"CDF decreases near {x!r}")
            prev = cur
        for u in linspace(0.0, 1.0, 1001)[1:-1]:
            if abs(self.cdf(self.inverse_cdf(u)) - u) > 1e-9:
                raise ParameterError(f"inverse CDF fails the round trip at u={u!r}")


def square_distribution() -> DistributionSpec:
    """F(x) = x^2, inverse sqrt(u)."""
    return DistributionSpec(cdf=lambda x: x * x, inverse_cdf=math.sqrt)


def _logistic_start(x0: float, n: int) -> tuple[Logistic, float, int]:
    """The map, seed and step count of a logistic sequence, once the seed
    lies strictly inside (0, 1) and n is a positive integer."""
    if math.isnan(x0) or not (0.0 < x0 < 1.0):
        raise DomainError(f"seed must lie strictly inside (0, 1), got {x0!r}")
    return Logistic(), x0, check_count(n, "step count")


def logistic_sequence(x0: float, n: int) -> Orbit:
    """Orbit of the logistic map from x0 in (0, 1), length n+1."""
    return orbit(*_logistic_start(x0, n))


def logistic_values(x0: float, n: int) -> Iterator[float]:
    """The values of logistic_sequence(x0, n), one at a time; the seed and
    the count are checked at the call."""
    return trajectory(*_logistic_start(x0, n))


def uniform_values(values: Iterable[float]) -> Iterator[float]:
    """The arcsine CDF of each value, one at a time."""
    fwd = _ULAM._fwd  # arcsine_cdf, inlined: one call per point
    for v in values:
        yield fwd(v) if 0.0 < v < 1.0 else apply_homeo(_ULAM, v)


def uniformize(o: Orbit) -> list[float]:
    """Transport a logistic orbit to [0, 1] uniform coordinates by applying
    the arcsine CDF pointwise."""
    if o.map_id != "logistic":
        raise ParameterError(f"expected a logistic orbit, got one from {o.map_id!r}")
    return list(uniform_values(o.values))


def transform_to(values: Sequence[float], dist: DistributionSpec) -> list[float]:
    """Push uniform samples through the inverse CDF; the output's empirical
    CDF approximates dist.cdf."""
    return [dist.inverse_cdf(u) for u in values]


# values per chunk of the KS sort: about n / BLOCK chunks and runs, so that
# one run at a time is held as float objects, never a whole sample
BLOCK = 4096


def _sorted_runs(sample: Iterable[float]) -> Iterator[list[float]]:
    """sorted(sample) as consecutive runs, each sorted when it is reached.

    The sample is read once, in array('d') chunks of BLOCK values kept in
    sample order until the last is read. If every value is a finite float,
    each chunk is then sorted in turn, and a run is cut from every chunk
    by bisection at n // BLOCK + 1 edges, one more from the last edge up,
    and sorted. The edges are quantiles of a pool of every s-th value of
    each sorted chunk, s = BLOCK // (number of chunks): a chunk holds
    fewer than s values more than its pool share between two edges, so
    each run holds at most about 2 * BLOCK values, whatever the sample's
    density (equal values, which no edge splits, aside). Chunks are in
    sample order, so a run keeps the sample order of equal values (0.0
    and -0.0), as the stable sort does. A sample of anything but floats,
    or with a chunk whose sum is not finite (NaN, the infinities, an
    overflowing sum), is sorted whole as one run.
    """
    from array import array
    values, chunks = iter(sample), []
    while chunk := list(islice(values, BLOCK)):
        if set(map(type, chunk)) != {float} or not math.isfinite(sum(chunk)):
            yield sorted(chain(*chunks, chunk, values))
            return
        chunks.append(array("d", chunk))
    for k, chunk in enumerate(chunks):
        chunks[k] = array("d", sorted(chunk))
    if not chunks:
        return
    ranges = sum(map(len, chunks)) // BLOCK + 1
    stride = max(1, BLOCK // len(chunks))
    pool = sorted(chain.from_iterable(c[::stride] for c in chunks))
    edges = [pool[len(pool) * r // (ranges + 1)] for r in range(1, ranges + 1)]
    del pool  # the runs need only the edges
    starts = [0] * len(chunks)  # one cursor per chunk
    for edge in edges + [math.inf]:
        ends = [bisect_left(c, edge, a) for c, a in zip(chunks, starts)]
        yield sorted(chain.from_iterable(c[a:b] for c, a, b in zip(chunks, starts, ends)))
        starts = ends


def ks_distance(sample: Iterable[float], cdf: Callable[[float], float]) -> float:
    """Two-sided empirical-CDF discrepancy sup_i max(|i/n - F(s_i)|,
    |(i-1)/n - F(s_i)|) over the sorted sample.

    i/n >= (i-1)/n holds exactly in binary64, so the larger of the two
    absolute values is always one of the signed differences i/n - F and
    F - (i-1)/n; one pass over the sorted sample takes the maximum of
    those. The sample may be any iterable, read once; it is sorted a run
    at a time (_sorted_runs), in the order sorted() gives. A NaN sample
    or CDF value raises DomainError (NaN has no place in the sort order).
    """
    read = count(1)  # compress(sample, read) passes every value on and counts it
    values = chain.from_iterable(_sorted_runs(compress(sample, read)))
    least = next(values, None)  # the whole sample is read before the first value
    n = next(read) - 1
    if n == 0:
        raise EmptySampleError("cannot compute a KS distance of an empty sample")
    d = below = 0.0  # below = (i-1)/n
    for i, v in enumerate(chain([least], values), 1):
        f = cdf(v)
        if v != v or f != f:
            raise DomainError(f"KS needs numbers, got sample value {v!r} with CDF value {f!r}")
        above = i / n
        # d = max(d, above - f, f - below), unrolled: calling max() makes
        # the loop about 25% slower
        if above - f > d:
            d = above - f
        if f - below > d:
            d = f - below
        below = above
    return d


def doubling_collapse(word: FixedPointWord, max_steps: int) -> Optional[int]:
    """Steps until the exact doubling shift reaches zero, or None past
    max_steps. Any b-bit word collapses within b steps (every doubling
    discards the leading bit), so max_steps >= bits always succeeds."""
    max_steps = check_count(max_steps, "max_steps", 0)
    modulus = 2**word.bits
    value, steps = word.value, 0
    while value != 0:
        if steps >= max_steps:
            return None
        value = (2 * value) % modulus
        steps += 1
    return steps

