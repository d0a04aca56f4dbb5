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
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import lt, mul, ne, sub

from .errors import NegativePiece, SpecParseError, ZeroFunction
from .errors import spec_keys, spec_list, spec_number, spec_read

__all__ = [
    "StepFunction",
    "NestedForm",
    "indicator",
    "constant",
    "distribution",
    "rearrange",
    "nested_form",
    "l1_norm",
    "linf_norm",
    "l1_norm_exact",
    "add",
    "scale",
    "abs_",
    "random_step_function",
]

_ONE = Fraction(1)
_ZERO = Fraction(0)


class StepFunction:
    """Piecewise-constant function on [0,1].

    breakpoints: m+1 strictly increasing Fractions from 0 to 1.
    values: m finite floats, values[i] taken on [breakpoints[i], breakpoints[i+1]).
    The constructor (and so from_json) validates both in full; what the library
    builds on a grid it already checked is checked only for finite values.

    The grid is kept as integer ticks, _grid = (den, ticks), breakpoints[k] ==
    ticks[k] / den, computed once per function; breakpoints is a view of it,
    built on first read.  Equality, hashing and repr are those of the frozen
    (breakpoints, values) pair, whatever den the ticks are kept over.
    """

    __slots__ = ("_grid", "values", "_breakpoints")

    def __new__(cls, breakpoints, values):
        bps = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in breakpoints)
        grid, vals = _ticks(bps), tuple(float(v) for v in values)
        _check(grid, vals)
        return _on_grid(grid, vals, bps)

    @property
    def breakpoints(self) -> tuple:
        if self._breakpoints is None:
            den, ticks = self._grid
            object.__setattr__(self, "_breakpoints", tuple(Fraction(t, den) for t in ticks))
        return self._breakpoints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.breakpoints, self.values) == (other.breakpoints, other.values)

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        return f"StepFunction(breakpoints={self.breakpoints!r}, values={self.values!r})"

    def __reduce__(self):
        return StepFunction, (self.breakpoints, self.values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def pieces(self) -> int:
        return len(self.values)

    def canonical(self) -> "StepFunction":
        """Merge adjacent pieces that carry the same value."""
        return _canonical(self._grid, self.values)

    def eval_at(self, x) -> float:
        """Value at x in [0,1]; the right endpoint belongs to the last piece."""
        xf = x if isinstance(x, Fraction) else Fraction(x)
        if xf < 0 or xf > 1:
            raise ValueError("step functions live on [0,1]")
        if xf == _ONE:
            return self.values[-1]
        idx = bisect_right(self.breakpoints, xf) - 1
        return self.values[idx]

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


def _on_grid(grid, values, breakpoints=None) -> StepFunction:
    """The StepFunction on grid = (den, ticks) with values, from fields the
    library built and checked: no check runs.  breakpoints, when given, are
    the Fractions of the grid, kept as its view."""
    f = object.__new__(StepFunction)
    object.__setattr__(f, "_grid", grid)
    object.__setattr__(f, "values", values)
    object.__setattr__(f, "_breakpoints", breakpoints)
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


def _layers(values, grid) -> tuple:
    """(den, heights, cum): the one layer cake, which every reader uses.  heights
    are the distinct nonzero values, descending, and cum[k] the measure of the
    pieces whose value is at least heights[k], in ticks over den, the grid's
    (den, ticks)."""
    den, ticks = grid
    mass = {}
    for v, w in zip(values, map(sub, ticks[1:], ticks)):
        mass[v] = mass.get(v, 0) + w
    mass.pop(0.0, None)  # the zero level, also when it is -0.0
    heights = sorted(mass, reverse=True)
    return den, heights, list(accumulate(map(mass.__getitem__, heights)))


@dataclass(frozen=True)
class NestedForm:
    """The layer cake of a non-negative step function, the public exact view.

    heights: the distinct positive values of f*, strictly decreasing.
    measures: Fractions, measures[k] the exact measure of {f >= heights[k]}.
    The layer-cake sum is sum_k levels[k] * indicator([0, measures[k])),
    with levels[k] the rounded difference heights[k] - heights[k+1] (0 below
    the last height) and rings[k] the exact measure of {f == heights[k]}.
    reconstruct() rebuilds f* from the heights, so it returns rearrange(f)
    bitwise for a form built by nested_form(f).
    """

    heights: tuple
    measures: tuple

    def __post_init__(self):
        heights = tuple(float(h) for h in self.heights)
        measures = tuple(m if isinstance(m, Fraction) else Fraction(m) for m in self.measures)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "measures", measures)
        if len(heights) != len(measures) or not heights:
            raise ValueError("heights and measures must be non-empty and equal length")
        if not all(a > b for a, b in zip(heights, (*heights[1:], 0.0))):
            raise ValueError("heights must be positive and strictly decreasing")
        if not all(a < b for a, b in zip(measures, measures[1:])):
            raise ValueError("measures must be strictly increasing")
        if measures[-1] > 1:
            raise ValueError("measures cannot exceed 1")

    @property
    def layers(self) -> int:
        return len(self.heights)

    @property
    def levels(self) -> tuple:
        """Rounded layer thicknesses heights[k] - heights[k+1]."""
        return tuple(a - b for a, b in zip(self.heights, (*self.heights[1:], 0.0)))

    @property
    def rings(self) -> tuple:
        """Exact level-set measures measures[k] - measures[k-1]."""
        return tuple(b - a for a, b in zip((_ZERO, *self.measures), self.measures))

    def reconstruct(self) -> StepFunction:
        """Rebuild the decreasing step function; the heights are distinct and
        positive, so it is canonical as built."""
        bps = [_ZERO, *self.measures]
        vals = list(self.heights)
        if self.measures[-1] != _ONE:
            bps.append(_ONE)
            vals.append(0.0)
        return StepFunction(tuple(bps), tuple(vals))


def indicator(a, b, height: float = 1.0) -> StepFunction:
    """height * indicator([a, b)) as a canonical step function."""
    af, bf = Fraction(a), Fraction(b)
    if not 0 <= af < bf <= 1:
        raise ValueError("need 0 <= a < b <= 1")
    bps = [_ZERO]
    vals = []
    if af > 0:
        bps.append(af)
        vals.append(0.0)
    bps.append(bf)
    vals.append(float(height))
    if bf < 1:
        bps.append(_ONE)
        vals.append(0.0)
    return _canonical(_ticks(bps), vals)


def constant(c: float) -> StepFunction:
    return StepFunction((_ZERO, _ONE), (float(c),))


def _distribution_exact(f: StepFunction, s: float) -> Fraction:
    den, ticks = f._grid
    above = (b - a for v, a, b in zip(f.values, ticks, ticks[1:]) if abs(v) > s)
    return Fraction(sum(above), den)


def distribution(f: StepFunction, s: float) -> float:
    """Measure of {x : |f(x)| > s}."""
    return float(_distribution_exact(f, s))


def rearrange(f: StepFunction) -> StepFunction:
    """Decreasing rearrangement: same value distribution, sorted descending."""
    den, heights, cum = _layers(map(abs, f.values), f._grid)
    if not cum or cum[-1] != den:
        heights.append(0.0)
        cum.append(den)
    # distinct finite values: canonical as built
    return _on_grid((den, (0, *cum)), tuple(heights))


def nested_form(f: StepFunction) -> NestedForm:
    """Layer cake of a non-negative f, read off its value distribution: the
    distinct positive values as heights, the superlevel-set measures exact."""
    if min(f.values) < 0:
        raise NegativePiece("nested form needs f >= 0")
    den, heights, cum = _layers(f.values, f._grid)
    if not heights:
        raise ZeroFunction("nested form is undefined for f == 0")
    return NestedForm(tuple(heights), tuple(Fraction(c, den) for c in cum))


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
    vals = []
    fi = gi = 0
    for left in grid[:-1]:
        while fticks[fi + 1] <= left:
            fi += 1
        while gticks[gi + 1] <= left:
            gi += 1
        vals.append(f.values[fi] + g.values[gi])
    return _canonical((den, grid), vals)


def scale(f: StepFunction, a: float) -> StepFunction:
    return _canonical(f._grid, [float(a) * v for v in f.values])


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
    m = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, denominator), min(m - 1, denominator - 1)))
    ticks = [0, *cuts, denominator]
    vals = []
    for _ in range(len(ticks) - 1):
        if value_pool is not None:
            v = float(rng.choice(value_pool))
        else:
            v = rng.uniform(0.0, vmax)
        if signed and rng.random() < 0.5:
            v = -v
        vals.append(v)
    return _canonical((denominator, ticks), vals)
