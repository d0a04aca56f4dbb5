"""Accurate sums of numbers carried in the log domain, and exp past the float range.

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

    The result is never below max(values), in floats as in reals: each of the
    n - 1 expm1 terms besides the max's 0.0 is at least -1, so their fsum,
    rounded once, is at least -(n - 1); log1p of the non-negative sum with
    n - 1 is then non-negative, and adding it to the max cannot round below it.
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

