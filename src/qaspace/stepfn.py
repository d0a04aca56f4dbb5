"""Step functions on [0,1] with exact breakpoint arithmetic.

A step function is a finite list of half-open pieces [t_{i-1}, t_i) carrying
constant values, with the last piece closed at 1.  Breakpoints are exact
rationals, kept as integer ticks over a common denominator: every float is a
dyadic rational, so conversion is lossless, and measures, merged grids and
rearrangements come out exact.  Values are plain floats.

A function computes its ticks once, when it is built.  from_json reads the
JSON floats straight into ticks over their largest power-of-two denominator
(float.as_integer_ratio and a shift, _dyadic); the constructor writes the
Fractions it is given over their least common denominator (_ticks).  A
measure is a sum of tick differences, `breakpoints` is a Fraction view built
on first read, and a Fraction is otherwise built only for an answer.

Operations return canonical functions (adjacent equal values merged), so
comparing canonical forms is a meaningful equality test, and anything that
depends only on the value distribution is reproducible bit for bit across
rearrangement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import lt, mul, ne, sub

from .errors import SpecParseError, _number, spec_keys, spec_list, spec_number, spec_read
from .records import Record

_ONE = Fraction(1)
_ZERO = Fraction(0)


class StepFunction(Record):
    """Piecewise-constant function on [0,1]; a frozen record of its two fields.

    breakpoints: m+1 strictly increasing Fractions from 0 to 1.
    values: m finite floats, values[i] taken on [breakpoints[i], breakpoints[i+1]).
    The constructor (and so from_json) validates both in full; what the library
    builds on a grid it already checked is checked only for finite values.

    The grid is kept as integer ticks, _grid = (den, ticks), breakpoints[k] ==
    ticks[k] / den, computed once per function; breakpoints is a view of it,
    built on first read.  Equality, hashing, repr and pickling are the
    record's, over (breakpoints, values), whatever den the ticks are kept over.
    """

    __slots__ = ("_grid", "values", "_breakpoints", "_hash")
    breakpoints: tuple
    values: tuple

    def __init__(self, breakpoints, values):
        bps = tuple(_fraction(b, "breakpoints", "breakpoints must be finite") for b in breakpoints)
        grid, vals = _ticks(bps), tuple(float(_number(v, "values")) for v in values)
        _check(grid, vals)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_breakpoints", bps)

    @property
    def breakpoints(self) -> tuple:
        if self._breakpoints is None:
            den, ticks = self._grid
            object.__setattr__(self, "_breakpoints", tuple(Fraction(t, den) for t in ticks))
        return self._breakpoints

    @property
    def pieces(self) -> int:
        return len(self.values)

    def canonical(self) -> "StepFunction":
        """Merge adjacent pieces that carry the same value."""
        return _canonical(self._grid, self.values)

    def eval_at(self, x) -> float:
        """Value at x in [0,1]; the right endpoint belongs to the last piece."""
        message = "step functions live on [0,1]"
        xf = x if isinstance(x, Fraction) else _fraction(x, "x", message)
        if xf < 0 or xf > 1:
            raise ValueError(message)
        # the search stops below the last breakpoint, so 1 lands in the last piece
        return self.values[bisect_right(self.breakpoints, xf, 0, len(self.values)) - 1]

    def piece_measures(self) -> tuple:
        """Exact lengths of the pieces, as Fractions."""
        den, ticks = self._grid
        return tuple(Fraction(b - a, den) for a, b in zip(ticks, ticks[1:]))

    def to_json(self) -> dict:
        den, ticks = self._grid
        # int / int is correctly rounded: float(Fraction(t, den)) bit for bit
        return {"breakpoints": [t / den for t in ticks], "values": list(self.values)}

    @classmethod
    def from_json(cls, obj) -> "StepFunction":
        """The function of a JSON spec.  JSON breakpoints are floats, dyadic
        rationals, so their ticks come straight from their integer ratios over
        the largest power-of-two denominator (_dyadic), and no Fraction is built."""
        keys = ("breakpoints", "values")
        spec_keys(obj, "step function", keys)
        bps, vals = (spec_read(obj, key, spec_list, spec_number) for key in keys)
        shift, ticks = _dyadic(bps)
        grid, vals = (1 << shift, ticks), tuple(vals)
        try:
            _check(grid, vals)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
        return _on_grid(grid, vals)


def _fraction(x, name: str, message: str) -> Fraction:
    """Fraction(x) of the number x (_number); a float that is not finite gets
    message, where Fraction would raise an OverflowError or ValueError that
    names no argument."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(message)
    return Fraction(_number(x, name))


def _check(grid, values) -> None:
    """The constructor's checks of a grid = (den, ticks) and its values."""
    den, ticks = grid
    if len(ticks) < 2 or len(values) != len(ticks) - 1:
        raise ValueError("need m+1 breakpoints for m values, m >= 1")
    if ticks[0] != 0 or ticks[-1] != den:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if not all(map(lt, ticks, ticks[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")


def _on_grid(grid, values) -> StepFunction:
    """The StepFunction on grid = (den, ticks) with values, from fields the
    library built and checked: no check runs."""
    f = object.__new__(StepFunction)
    object.__setattr__(f, "_grid", grid)
    object.__setattr__(f, "values", values)
    object.__setattr__(f, "_breakpoints", None)
    return f


def _ticks(bps) -> tuple:
    """(den, ints): the Fractions bps as integers over their least common
    denominator, bps[k] == ints[k] / den."""
    den = math.lcm(*(b.denominator for b in bps))
    return den, [b.numerator * (den // b.denominator) for b in bps]


def _dyadic(values) -> tuple:
    """(shift, ints): the floats values as integers over 2^shift, the least
    power of two that holds them all, values[k] == ints[k] / 2^shift."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max((d.bit_length() for _, d in ratios), default=1) - 1
    return shift, [n << (shift + 1 - d.bit_length()) for n, d in ratios]


def _canonical(grid, values) -> StepFunction:
    """The canonical StepFunction on grid = (den, ticks) with values, checking
    only that the values are finite (a scale or a sum can overflow).  Only for
    ticks from 0 to den that are increasing by construction and one float per
    piece: the grid is trusted.  A run of equal values keeps its first value
    (0.0 == -0.0) and the tick where it starts.
    """
    starts = list(map(ne, values, chain((None,), values)))
    vals = tuple(compress(values, starts))
    if not all(map(math.isfinite, vals)):
        raise ValueError("values must be finite")
    den, ticks = grid
    return _on_grid((den, (*compress(ticks, starts), ticks[-1])), vals)


def _layers(f: StepFunction) -> tuple:
    """(den, heights, cum): the layer cake of |f|, which every reader uses.
    heights are the distinct nonzero values of |f|, descending, and cum[k] the
    measure where |f| is at least heights[k], in ticks over f's den."""
    den, ticks = f._grid
    mass = {}
    for v, w in zip(map(abs, f.values), map(sub, ticks[1:], ticks)):
        mass[v] = mass.get(v, 0) + w
    mass.pop(0.0, None)  # the zero level
    heights = sorted(mass, reverse=True)
    return den, heights, list(accumulate(map(mass.__getitem__, heights)))


def indicator(a, b, height: float = 1.0) -> StepFunction:
    """height * indicator([a, b)) as a canonical step function."""
    message = "need 0 <= a < b <= 1"
    af, bf = _fraction(a, "a", message), _fraction(b, "b", message)
    if not 0 <= af < bf <= 1:
        raise ValueError(message)
    height, bps = float(_number(height, "height")), sorted({_ZERO, af, bf, _ONE})
    return _canonical(_ticks(bps), [height if af <= t < bf else 0.0 for t in bps[:-1]])


def constant(c: float) -> StepFunction:
    return StepFunction((_ZERO, _ONE), (_number(c, "c"),))


def _distribution_exact(f: StepFunction, s: float) -> Fraction:
    _number(s, "s")
    if s != s:  # no |f(x)| exceeds NaN, and none fails to: the level names no set
        raise ValueError("the level must not be NaN")
    den, ticks = f._grid
    above = (b - a for v, a, b in zip(f.values, ticks, ticks[1:]) if abs(v) > s)
    return Fraction(sum(above), den)


def distribution(f: StepFunction, s: float) -> float:
    """Measure of {x : |f(x)| > s}."""
    return float(_distribution_exact(f, s))


def rearrange(f: StepFunction) -> StepFunction:
    """Decreasing rearrangement: same value distribution, sorted descending."""
    den, heights, cum = _layers(f)
    if not cum or cum[-1] != den:
        heights.append(0.0)
        cum.append(den)
    # distinct finite values: canonical as built
    return _on_grid((den, (0, *cum)), tuple(heights))


def l1_norm_exact(f: StepFunction) -> Fraction:
    """Integral of |f| as an exact rational (values are dyadic too)."""
    den, ticks = f._grid
    shift, scaled = _dyadic(map(abs, f.values))
    return Fraction(sum(map(mul, scaled, map(sub, ticks[1:], ticks))), den << shift)


def l1_norm(f: StepFunction) -> float:
    return float(l1_norm_exact(f))


def linf_norm(f: StepFunction) -> float:
    """Essential sup of |f|; every piece has positive measure."""
    return max(abs(v) for v in f.values)


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise sum on the merged breakpoint grid, in ticks over the lcm of
    the two grids' denominators."""
    (fden, fticks), (gden, gticks) = f._grid, g._grid
    den = math.lcm(fden, gden)
    fticks = [t * (den // fden) for t in fticks]
    gticks = [t * (den // gden) for t in gticks]
    grid = sorted(set(fticks).union(gticks))
    vals = [f.values[bisect_right(fticks, left) - 1] + g.values[bisect_right(gticks, left) - 1]
            for left in grid[:-1]]
    return _canonical((den, grid), vals)


def scale(f: StepFunction, a: float) -> StepFunction:
    a = float(_number(a, "a"))
    return _canonical(f._grid, [a * v for v in f.values])


def abs_(f: StepFunction) -> StepFunction:
    return _canonical(f._grid, [abs(v) for v in f.values])


def random_step_function(
    rng,
    max_pieces: int = 12,
    vmax: float = 10.0,
    value_pool=None,
    denominator: int = 10_000,
    signed: bool = False,
) -> StepFunction:
    """Seeded random step function; breakpoints on a uniform rational grid."""
    _number(vmax, "vmax")
    m = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, denominator), min(m - 1, denominator - 1)))
    ticks = [0, *cuts, denominator]
    vals = []
    for _ in range(len(ticks) - 1):
        if value_pool is not None:
            v = float(_number(rng.choice(value_pool), "value_pool"))
        else:
            v = rng.uniform(0.0, vmax)
        if signed and rng.random() < 0.5:
            v = -v
        vals.append(v)
    return _canonical((denominator, ticks), vals)
