"""The logistic-map random-number pipeline and its finite-precision failure.

Iterates of 4x(1-x) from a generic seed distribute along the arcsine
law, whose CDF is the same (2/pi) arcsin sqrt(x) that conjugates the
logistic map to the tent map - one function in two roles. Applying it
pointwise therefore uniformizes an orbit (logistic_values), and sqrt,
the inverse of the CDF x^2, carries the uniform sample on to the square
law. STAGES names the three stages and the CDF each one follows, and
stage_values streams a stage one value at a time, so no stage of a long
sample is held as a list; ks_distance reads such a stream once.

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
from typing import Callable, Iterable, Iterator, Optional

from .errors import DomainError, EmptySampleError, ParameterError, _whole, check_count
from .frozen import Frozen
from .homeos import UlamArcsin, apply_homeo
from .maps import Logistic, trajectory

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
        if not (_whole(self.bits) and 1 <= self.bits <= 63):
            raise ParameterError(f"word width must be an integer in 1..63, got {self.bits!r}")
        if not (_whole(self.value) and 0 <= self.value < 2**self.bits):
            raise ParameterError(f"value {self.value!r} does not fit in {self.bits} bits")


def logistic_values(x0: float, n: int) -> Iterator[float]:
    """The orbit of the logistic map from x0 in (0, 1), n + 1 values, one
    at a time; the seed and the count are checked at the call."""
    if math.isnan(x0) or not (0.0 < x0 < 1.0):
        raise DomainError(f"seed must lie strictly inside (0, 1), got {x0!r}")
    return trajectory(Logistic(), x0, check_count(n, "step count"))


# each stage of the pipeline -> the CDF its sample follows
STAGES = {"raw": arcsine_cdf, "uniform": lambda x: x, "square": lambda x: x * x}


def stage_values(x0: float, n: int, stage: str) -> Iterator[float]:
    """The sample of a STAGES stage, n + 1 values, one at a time: the orbit
    from x0 (raw) streams through the arcsine CDF (uniform) and on through
    sqrt, the inverse of x^2 (square). The stage, the seed and the count
    are checked at the call."""
    if stage not in STAGES:
        raise ParameterError(f"unknown stage {stage!r}, expected one of {', '.join(STAGES)}")
    values = logistic_values(x0, n)
    if stage != "raw":  # the orbit stays in [0, 1], where apply_homeo's snap moves nothing
        values = map(_ULAM._fwd, values)
    if stage == "square":
        values = map(math.sqrt, values)
    return values


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

