"""Two-sided bounds for the decomposition norm.

The norm of f is the infimum, over countable covers |f| <= sum_n g_n by
non-negative bounded pieces, of sum_n psi(n) * linf(g_n) * phi(l1/linf of g_n).
Pieces are interchangeable, so for a fixed finite set of pieces the optimal
order pairs the largest piece weight with the smallest psi(n): sorting the
weights descending and assigning n = 1, 2, ... is exact (rearrangement
argument), which prunes all assignment permutations.

Candidate covers are built from the layer-cake form of |f|: every candidate
groups consecutive layers, and a group of layers i..j collapses into the
single piece clamp(|f| - a_{j+1}, 0, a_i - a_{j+1}), whose cost depends only
on the value distribution.  The results are upper bounds, paired with the
rigorous lower bound psi(1) * lorentz, the Lorentz functional of lorentz_norm.
"exhaustive" is optimal over the covers made of full-width slabs of f*, under a
concave phi (every shape's): a piece's cost is the perspective of phi in the
heights it takes of the slabs, jointly concave, so a best cover gives each slab
whole to one piece, a set partition of the layers; that none beats the best
consecutive grouping is tested up to 8 layers, not proven.  Every
shape this package builds has phi(t)/t nonincreasing (the guarantees below
shapes._TABLE), so phi(t) >= t phi(1), and the functional is at least
phi(1) * l1(f): the plain-integral floor is never the better bound, but by
rounding.

Strategies: "singleton" covers |f| by itself, one piece and nothing else;
"layers" uses one piece per layer; "local_search" greedily merges adjacent
groups while the total cost strictly decreases (first improving merge in a
left-to-right scan, rescanned after each merge); "exhaustive" tries all
2^(k-1) consecutive groupings of k layers and is capped at 10 layers; "auto"
runs "exhaustive" up to the cap and "local_search" beyond it.  Every strategy
but "singleton" also considers the one piece and the layer split, so its
upper bound is never above either.

Group weights and qa_upper's lower bound read one _LayerTable.  A group's l1
is summed in integers and divided once: it comes from prefix sums, less the
exact error of each difference that rounds (see _LayerTable), so a weight
costs O(rounded terms).

The weight of a single layer is the layer's Lorentz term
(lorentz.layer_weights), so the layer split's weights are priced once, with
the table, and the lower bound sums them: the same float as lorentz_norm.

One optimizer, _search, runs every strategy over a layer table: any object
with layer_weights, the weights of its n single layers, and weight(i, j), the
weight of the group of layers i..j.  It sees a grouping only through its
group weights and a price for a list of them, given in descending order, so
that a price pairs the n-th weight with psi(n) as it reads them.  The greedy
keeps its current weights sorted and builds each candidate from them by
removing the two merged weights and inserting the merged one, not by a sort.
A price also gets a bound, the price that it must beat: the least one found so
far, the greedy's current total, or inf for a first price.  It may answer any
number above the bound once it can tell that its true price exceeds it, since
_search keeps a candidate only when it is strictly cheaper than one it holds;
so an early answer never wins or ties, and the result is the same as with every
price in full (branch-and-bound's bounding step, Land and Doig, 1960).
qa_upper prices _LayerTable's weights in floats (fsum of psi(n) * weight, inf
past the float range) and ignores the bound; the witness module prices its
log-domain table, for layers far beyond the float range, in logs, and answers
early with the largest term when that is above the bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from itertools import accumulate, repeat
from operator import itemgetter, mul, neg, sub

from . import stepfn
from .errors import NegativePiece, TooManyLayers
from .lorentz import fact_bound, layer_weights, lorentz_norm, nonneg_fsum, weighted_sup_bound
from .records import Record
from .shapes import ShapeFunction
from .stepfn import StepFunction

STRATEGIES = ("singleton", "layers", "local_search", "exhaustive", "auto")

_EXHAUSTIVE_CAP = 10


class Decomposition(Record):
    """A concrete cover; pieces are listed in assignment order (position = n)."""

    pieces: tuple
    cost: float

    def recomputed_cost(self, phi: ShapeFunction, psi: ShapeFunction) -> float:
        return nonneg_fsum(
            piece_cost(g, n + 1, phi, psi) for n, g in enumerate(self.pieces)
        )


class NormBounds(Record):
    """lower <= norm <= upper, with the lower bound's source and the cover.

    lower is psi(1) * lorentz_norm(f, phi).value and lower_source is always
    "lorentz".  ratio is upper / lower: 1.0 when both are 0, and inf when only
    lower is 0 or when upper is past the float range, which certifies no
    finite tightness (inf / inf would be nan).
    """

    lower: float
    upper: float
    lower_source: str
    upper_witness: Decomposition

    @property
    def ratio(self) -> float:
        return bound_ratio(self.upper, self.lower)


def bound_ratio(upper: float, lower: float) -> float:
    """upper / lower for upper >= lower >= 0: 1.0 for 0/0, and inf for x/0 or an
    infinite upper (inf / inf would be nan)."""
    if lower == 0.0:
        return 1.0 if upper == 0.0 else math.inf
    return math.inf if upper == math.inf else upper / lower


def piece_cost(g: StepFunction, n: int, phi: ShapeFunction, psi: ShapeFunction) -> float:
    """psi(n) * linf(g) * phi(l1(g)/linf(g)) for a non-negative piece at slot n."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("slot n must be a positive integer")
    if any(v < 0 for v in g.values):
        raise NegativePiece("decomposition pieces must be non-negative")
    return psi.eval(float(n)) * fact_bound(g, phi) if any(g.values) else 0.0


def qa_lower(f: StepFunction, phi: ShapeFunction, psi: ShapeFunction) -> float:
    """Rigorous lower bound psi(1) * lorentz_norm(f, phi).value.  By the
    guarantees below shapes._TABLE a cover's piece g costs at least psi(1)
    times the functional of g, which is subadditive, and the bound is at
    least phi(1) psi(1) l1(f), up to rounding."""
    return psi.eval(1.0) * lorentz_norm(f, phi).value


class _LayerTable:
    """Group weights and pieces over the layer cake of |f|.

    vals and den come from stepfn._layers(f), the layer cake: vals are its
    heights, empty for f == 0, and the ring measures are differences of its
    ticks over den.  weight(i, j) is the psi-free cost of collapsing layers
    i..j into one piece.  Its l1 is the sum of ring * fl(v - floor) over the
    layers, in exact integers: the rings in ticks, and every float as an
    integer multiple of 2^-shift, shift being the largest power-of-two
    exponent of the heights' denominators (the difference of two such floats
    rounds to a multiple of it).  The sum is not taken term by term: _mass
    holds the prefix sums of the scaled heights _sv times the rings, which
    give the exact differences v - floor, and each layer whose difference
    rounds then gives back its error err = -floor - (fl(v - floor) - v),
    exact by Fast2Sum since v >= floor.
    By Sterbenz's lemma no v <= 2 * floor rounds, so a bisection bounds the
    layers that can (none can where 2 * floor overflows).  Their errors come
    in runs: every such v is a multiple of u = ulp(v - floor), so v - floor
    is -floor modulo u, and the error takes one value across a binade of
    v - floor, but for the one binade where v - floor ties and rounds by v's
    parity.  So the loop keeps a running error and the first layer of its
    run, and scales an error to an integer, times the run's rings (from the
    prefix sums _above), once per run: the same integer sum, regrouped, and
    exact however the runs fall.  l1/linf is then one correctly rounded
    integer division, the same float as float(Fraction(l1) / Fraction(linf))
    over any common denominator.  The l1 uses the same rounded differences
    as the materialized piece, so costs recompute bit for bit from the
    pieces.

    layer_weights[k] is weight(k, k), computed once with the table.  A single
    layer's piece is its height on the top cum[k] ticks, so its l1/linf is
    cum[k] / den, one rounding, and its weight is the k-th term of the
    Lorentz sum (lorentz.layer_weights) bit for bit, and their fsum is
    lorentz_norm's value.
    """

    def __init__(self, f: StepFunction, phi: ShapeFunction):
        self.f = f
        self.phi = phi
        self._den, self.vals, cum = stepfn._layers(f)
        self.layer_weights = layer_weights(self.vals, self._den, cum, phi)
        self._above = above = [0, *cum]  # _above[i]: rings 0..i-1
        rings = map(sub, above[1:], above)
        self._shift, sv = stepfn._dyadic(self.vals)
        # _mass[i]: scaled heights times rings over layers 0..i-1
        self._mass = [0, *accumulate(map(mul, sv, rings))]
        self._sv = [*sv, 0]  # _sv[j + 1]: the scaled floor below layer j
        self._neg_heights = [-h for h in self.vals]  # ascending, for bisect
        layer = {v: l for l, v in enumerate(self.vals)}
        # each piece's layer by |value|; zero pieces one past the last layer
        rank = list(map(layer.get, map(abs, f.values), repeat(len(self.vals))))
        # _by_rank(by_layer): the pieces' values, each read off its layer (an
        # itemgetter of one index returns the bare item, not a 1-tuple)
        self._by_rank = (
            itemgetter(*rank) if len(rank) > 1 else lambda by_layer: (by_layer[rank[0]],)
        )

    def weight(self, i: int, j: int) -> float:
        vals, above, mass, shift = self.vals, self._above, self._mass, self._shift
        floor = vals[j + 1] if j + 1 < len(vals) else 0.0
        linf = vals[i] - floor
        num, d = linf.as_integer_ratio()
        top = num << (shift + 1 - d.bit_length())
        # l1 * den * 2^shift: the rings above i at the full height, then the
        # exact differences v - floor on i..j, less the error of each that
        # rounds; only the layers above 2 * floor can round (Sterbenz)
        l1 = top * above[i] + mass[j + 1] - mass[i] - self._sv[j + 1] * (above[j + 1] - above[i])
        hi = bisect_left(self._neg_heights, -2.0 * floor, i, j + 1)
        # one correction per run of equal errors, its err times the run's rings
        run, start = 0.0, i
        for l, v in enumerate(vals[i:hi], i):
            err = -floor - ((v - floor) - v)
            if err != run:
                if run:
                    num, d = run.as_integer_ratio()
                    l1 -= (num << (shift + 1 - d.bit_length())) * (above[l] - above[start])
                run, start = err, l
        if run:
            num, d = run.as_integer_ratio()
            l1 -= (num << (shift + 1 - d.bit_length())) * (above[hi] - above[start])
        return weighted_sup_bound(linf, l1 / (top * self._den), self.phi)

    def materialize(self, i: int, j: int) -> StepFunction:
        """The group piece on f's own grid, clamp(|f| - floor, 0, height), read
        off each piece's layer: the height on layers 0..i, vals[l] - floor on
        i+1..j, 0.0 below j; rounding is monotone, so these are the clamp's floats.
        """
        vals = self.vals
        floor = vals[j + 1] if j + 1 < len(vals) else 0.0
        height = vals[i] - floor
        by_layer = [height] * (i + 1) + [v - floor for v in vals[i + 1 : j + 1]]
        by_layer += [0.0] * (len(vals) - j)
        return stepfn._canonical(self.f._grid, self._by_rank(by_layer))


class _Memo(dict):
    """A table's weights by (i, j) group: the single layers' read off its
    layer_weights, every other computed by its weight(i, j) on first use."""

    def __init__(self, table):
        super().__init__(((k, k), w) for k, w in enumerate(table.layer_weights))
        self.weight = table.weight

    def __missing__(self, key):
        value = self[key] = self.weight(*key)
        return value


def _search(table, price, strategy: str) -> tuple:
    """Best consecutive grouping of the table's layers 0..n-1.

    The table gives the weight of each group of layers i..j (inclusive), and
    is asked for each at most once; price(ws, bound) prices a grouping from
    the list of its group weights, given in descending order, so a price reads
    the slot of each weight off its position.  bound is the price to beat: inf
    for the first candidate and for the greedy's start, then the least price
    so far, or the greedy's current total for a merge.  A price may answer
    any number above bound once its true price is known to exceed it; a
    candidate is kept only when strictly cheaper than the one held, so such an
    answer is never kept, and every answer kept is a true price.  The table
    and the price are all that the float and the log-domain searches differ
    in.  Every strategy lists each of its candidates once, and cost prices
    each against the best so far; the first of the cheapest wins.  The list
    holds the one piece, the layer split (but for "singleton" or one layer),
    then "exhaustive"'s every other grouping by ascending mask (bit p set: a
    group ends at layer p), or the greedy's end if it merged some layers but
    not all.  So a tie goes to the one piece, the layer split, the lowest mask.
    The greedy keeps its current weights sorted beside them, and a candidate
    merge is that sorted list less the two merged weights, with the merged
    group's weight inserted in order.  Equal weights are equal floats, or
    zeros of either sign that no price tells apart, so which of them a
    removal takes does not change the price.
    Returns (best price, best groups), the groups in slot order: weight
    descending, ties to the first layer.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    weights = _Memo(table)
    n = len(table.layer_weights)
    if strategy == "auto":
        strategy = "exhaustive" if n <= _EXHAUSTIVE_CAP else "local_search"
    if n == 0:
        return price([], math.inf), []

    def cost(groups, bound) -> float:
        return price(sorted([weights[g] for g in groups], reverse=True), bound)

    layers = [(k, k) for k in range(n)]
    candidates = [[(0, n - 1)]] if strategy == "singleton" or n == 1 else [[(0, n - 1)], layers]
    if strategy == "exhaustive":
        if n > _EXHAUSTIVE_CAP:
            raise TooManyLayers(
                f"{n} layers exceed the exhaustive cap {_EXHAUSTIVE_CAP}; use local_search"
            )
        for mask in range(1, (1 << (n - 1)) - 1):  # not the one piece or the layer split
            groups, start = [], 0
            for p in range(n - 1):
                if mask >> p & 1:
                    groups.append((start, p))
                    start = p + 1
            groups.append((start, n - 1))
            candidates.append(groups)
    elif strategy == "local_search":
        # one weight per current group, kept beside the groups, so that a
        # candidate merge is priced without looking its groups up again,
        # and the same weights sorted descending, for the price
        groups = layers
        ws = [weights[g] for g in groups]
        desc = sorted(ws, reverse=True)
        total = price(desc, math.inf)
        while len(groups) > 1:
            for idx in range(len(groups) - 1):
                merged = (groups[idx][0], groups[idx + 1][1])
                w = weights[merged]
                cand = desc.copy()
                cand.remove(ws[idx])
                cand.remove(ws[idx + 1])
                insort(cand, w, key=neg)
                t = price(cand, total)
                if t < total:
                    groups = groups[:idx] + [merged] + groups[idx + 2 :]
                    ws = ws[:idx] + [w] + ws[idx + 2 :]
                    desc, total = cand, t
                    break
            else:
                break
        if 1 < len(groups) < n:
            candidates.append(groups)

    best, total = candidates[0], cost(candidates[0], math.inf)
    for groups in candidates[1:]:
        t = cost(groups, total)
        if t < total:
            best, total = groups, t
    # every candidate lists its groups in layer order, and the sort is stable
    return total, sorted(best, key=lambda g: -weights[g])


def qa_upper(
    f: StepFunction,
    phi: ShapeFunction,
    psi: ShapeFunction,
    strategy: str = "layers",
) -> NormBounds:
    """Upper bound from the requested search strategy, with the lower bound attached."""
    table = _LayerTable(f, phi)
    lower = psi.eval(1.0) * nonneg_fsum(table.layer_weights)
    psi_at = [psi.eval(float(r + 1)) for r in range(len(table.vals))]

    def price(ws, bound) -> float:
        return nonneg_fsum(map(mul, psi_at, ws))

    best_total, best_groups = _search(table, price, strategy)
    pieces = tuple(table.materialize(i, j) for i, j in best_groups)
    return NormBounds(lower, best_total, "lorentz", Decomposition(pieces, best_total))


def qa_bounds(f: StepFunction, phi: ShapeFunction, psi: ShapeFunction) -> NormBounds:
    """Best available bounds: qa_upper with the "auto" strategy."""
    return qa_upper(f, phi, psi, strategy="auto")
