"""Exception hierarchy shared by all intervaldyn modules, and the argument
rules: check_count (counts), check_cap (caps), check_positive (tolerances),
check_samples (grid sizes) and check_interval (grid ends)."""

import math
from typing import Optional


class IntervalDynError(Exception):
    """Base class for all library errors."""


class DomainError(IntervalDynError):
    """An argument lies outside the domain where an operation is defined."""


class ParameterError(IntervalDynError):
    """A descriptor or operation was constructed with invalid parameters."""


class RangeError(ParameterError):
    """An iteration count or depth exceeds its documented cap."""


class ImaginaryResidueError(IntervalDynError):
    """A nominally real result retained a non-negligible imaginary part."""


class EmptySampleError(IntervalDynError):
    """A statistic was requested over an empty sample."""


class UsageError(IntervalDynError):
    """Bad command-line arguments (exit code 2 in the CLI)."""


def _whole(n) -> bool:
    try:
        return n == int(n)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, an infinity
        return False


def check_count(n, what: str, minimum: int = 1, cap: Optional[int] = None) -> int:
    """int(n) for a whole number n >= minimum (0 or 1) and, when a cap is
    given, n <= cap. NaN, infinities, fractions and non-numbers raise
    ParameterError; a count above the cap raises RangeError."""
    if not _whole(n) or n < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise ParameterError(f"{what} must be a {kind} integer, got {n!r}")
    if cap is not None:
        check_cap(n, what, cap)
    return int(n)


def check_cap(n, what: str, cap: int) -> None:
    """Raise RangeError if the size n exceeds cap."""
    if n > cap:
        raise RangeError(f"{what} {n} exceeds the cap of {cap}")


def check_positive(x: float, what: str) -> None:
    """Raise ParameterError unless 0 < x < inf (NaN fails too)."""
    if not 0.0 < x < math.inf:
        raise ParameterError(f"{what} must be positive, got {x!r}")


def check_samples(n, what: str = "samples") -> int:
    """int(n) for a whole number n >= 2 of grid points. A smaller whole number
    raises ParameterError naming it; anything else, check_count's."""
    if _whole(n) and n < 2:
        raise ParameterError(f"need at least 2 {what}, got {n!r}")
    return check_count(n, what)


def check_interval(lo: float, hi: float) -> None:
    """Raise DomainError unless lo < hi and hi - lo is finite, so that no
    point of a grid of [lo, hi] is NaN or infinite."""
    if not (lo < hi and hi - lo < math.inf):
        raise DomainError(f"cannot grid [{lo}, {hi}]: need lo < hi and a finite hi - lo")
