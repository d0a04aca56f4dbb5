"""Accurate sums and differences of numbers carried in the log domain.

Quantities like the extremal layer heights overflow or underflow float64 by
hundreds of orders of magnitude, so they are represented by their natural
logarithm and never exponentiated until the final, moderate result.
"""

import math

LOG_ZERO = float("-inf")


def logsumexp(values) -> float:
    """log(sum(exp(v) for v in values)) without overflow.

    Accepts any non-empty iterable.  -inf entries are legal and contribute
    nothing; the result is -inf only if every entry is -inf.
    """
    xs = list(values)
    if not xs:
        raise ValueError("logsumexp needs at least one value")
    m = max(xs)
    if math.isinf(m):
        return m
    # exp(x-m) = expm1(x-m) + 1; summing the expm1 parts keeps the terms
    # near zero where fsum is exact, then one log1p reassembles the total.
    tail = math.fsum(math.expm1(x - m) for x in xs)
    return m + math.log1p(tail + (len(xs) - 1))


def exp_or_inf(x: float) -> float:
    """exp(x), inf where it lies past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def logdiffexp(x: float, y: float) -> float:
    """log(exp(x) - exp(y)) for x >= y; equal arguments give -inf."""
    if y == LOG_ZERO:
        return x
    if y > x:
        raise ValueError(f"logdiffexp needs x >= y, got x={x!r} y={y!r}")
    if y == x:
        return LOG_ZERO
    return x + math.log1p(-math.exp(y - x))
