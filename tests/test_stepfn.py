import math
import pickle
import random
import re
from fractions import Fraction as F
from functools import reduce
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaspace import (
    FrozenInstanceError,
    SpecParseError,
    StepFunction,
    abs_,
    add,
    constant,
    distribution,
    indicator,
    l1_norm,
    l1_norm_exact,
    linf_norm,
    random_step_function,
    rearrange,
    scale,
)
from qaspace import stepfn
from qaspace.stepfn import _canonical, _distribution_exact, _ticks
from conftest import layer_corpus, random_functions, step_functions
from corpora import (
    EXTREME_VALUES,
    deep_corpus,
    edge_corpus,
    float_edge_corpus,
    json_edge_specs,
)

F0, F1 = F(0), F(1)


def three_layer():
    return StepFunction((F0, F(1, 4), F(1, 2), F1), (3.0, 1.0, 2.0))


class TestConstruction:
    def test_breakpoints_become_fractions(self):
        f = StepFunction((0, 0.5, 1), (2.0, 1.0))
        assert all(isinstance(b, F) for b in f.breakpoints)
        assert f.breakpoints == (F0, F(1, 2), F1)

    def test_needs_unit_interval(self):
        with pytest.raises(ValueError):
            StepFunction((F(1, 4), F1), (1.0,))
        with pytest.raises(ValueError):
            StepFunction((F0, F(1, 2)), (1.0,))

    def test_needs_increasing_breakpoints(self):
        with pytest.raises(ValueError):
            StepFunction((F0, F(1, 2), F(1, 2), F1), (1.0, 2.0, 3.0))

    def test_increasing_across_types_on_a_non_dyadic_grid(self):
        # 0.3333333333333333 lies just below 1/3 and 0.33333333333333337 just
        # above it; the grid's common denominator is 3 * 2^54
        with pytest.raises(ValueError, match="strictly increasing"):
            StepFunction((0, F(1, 3), 0.3333333333333333, 1), (1.0, 2.0, 3.0))
        f = StepFunction((0, F(1, 3), 0.33333333333333337, 1), (1.0, 2.0, 3.0))
        assert f.piece_measures()[1] == F(0.33333333333333337) - F(1, 3) > 0

    def test_needs_matching_lengths(self):
        with pytest.raises(ValueError):
            StepFunction((F0, F1), (1.0, 2.0))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            StepFunction((F0, F1), (math.inf,))
        with pytest.raises(ValueError):
            StepFunction((F0, F1), (math.nan,))

    # Fraction's own conversion raised a bare OverflowError (inf) or a
    # ValueError that named no argument (nan)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_get_the_modules_messages(self, bad):
        with pytest.raises(ValueError, match=r"^breakpoints must be finite$"):
            StepFunction((0, bad, 1), (1.0, 2.0))
        with pytest.raises(ValueError, match=r"^step functions live on \[0,1\]$"):
            three_layer().eval_at(bad)
        for a, b in ((0, bad), (bad, 1)):
            with pytest.raises(ValueError, match=r"^need 0 <= a < b <= 1$"):
                indicator(a, b)

    # Fraction and float read these as numbers: a string as a literal, a
    # bool as 0 or 1
    @pytest.mark.parametrize("build, message", [
        (lambda: StepFunction((0, "1/2", 1), (1.0, 2.0)), 'breakpoints: expected a number, got "1/2"'),
        (lambda: StepFunction((0, True), (1.0,)), "breakpoints: expected a number, got true"),
        (lambda: StepFunction((0, 1), ("2.5",)), 'values: expected a number, got "2.5"'),
        (lambda: StepFunction((0, 1), (b"2.5",)), 'values: expected a number, got "b\'2.5\'"'),
        (lambda: StepFunction((0, 1), (True,)), "values: expected a number, got true"),
        (lambda: constant(False), "values: expected a number, got false"),
        (lambda: indicator(0, "1/2", 2.0), 'b: expected a number, got "1/2"'),
        (lambda: indicator(False, 1), "a: expected a number, got false"),
        (lambda: indicator(0, 1, "2"), 'height: expected a number, got "2"'),
        (lambda: three_layer().eval_at("1/2"), 'x: expected a number, got "1/2"'),
        (lambda: three_layer().eval_at(True), "x: expected a number, got true"),
    ])
    def test_refuses_strings_and_bools(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_canonical_merges_equal_neighbours(self):
        f = StepFunction((F0, F(1, 4), F(1, 2), F1), (2.0, 2.0, 1.0))
        g = f.canonical()
        assert g.breakpoints == (F0, F(1, 2), F1)
        assert g.values == (2.0, 1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_canonical_matches_the_merging_loop(self, seed):
        # runs of +-0.0 and of repeated values; a run keeps its first value
        # (and so its sign) and the breakpoint where it starts
        rng = random.Random(seed)
        pool = (0.0, -0.0, 1.0, -1.0, 2.5, 5e-324)
        for _ in range(50):
            m = rng.randint(1, 30)
            values = [rng.choice(pool) for _ in range(m)]
            bps = [F(k * k, m * m) for k in range(m + 1)]
            got = _canonical(_ticks(bps), values)
            want_bps, want_vals = old_canonical(bps, values)
            assert got.breakpoints == want_bps
            assert list(map(repr, got.values)) == list(map(repr, want_vals))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_canonical_refuses_non_finite(self, bad):
        for values in ([bad], [1.0, bad], [bad, bad, 1.0], [0.0, -0.0, bad]):
            bps = [F(k, len(values)) for k in range(len(values) + 1)]
            with pytest.raises(ValueError, match="values must be finite"):
                _canonical(_ticks(bps), values)

    def test_eval_at(self):
        f = three_layer()
        assert f.eval_at(0) == 3.0
        assert f.eval_at(F(1, 4)) == 1.0
        assert f.eval_at(0.3) == 1.0
        assert f.eval_at(1) == 2.0
        with pytest.raises(ValueError):
            f.eval_at(1.5)

    def test_eval_at_every_breakpoint_and_at_one(self):
        # a piece holds its left end; 1 belongs to the last piece
        for f in (*deep_corpus(2), *layer_corpus(20, seed=3)):
            assert [f.eval_at(b) for b in f.breakpoints[:-1]] == list(f.values)
            assert f.eval_at(F1) == f.eval_at(1) == f.eval_at(1.0) == f.values[-1]

    def test_piece_measures_exact(self):
        assert three_layer().piece_measures() == (F(1, 4), F(1, 4), F(1, 2))


def old_canonical(breakpoints, values):
    """The merging loop that _canonical replaced, kept as its reference."""
    bps, vals = [breakpoints[0]], []
    for b, v in zip(breakpoints[1:], values):
        if vals and v == vals[-1]:
            bps[-1] = b
            continue
        vals.append(v)
        bps.append(b)
    return tuple(bps), tuple(vals)


# layered, deep, non-dyadic, extreme-valued and float-edge inputs
EXACT_CORPORA = {
    "layer": layer_corpus(200, seed=7),
    "deep": deep_corpus(4),
    "edge": edge_corpus(31),
    "edge-extreme": edge_corpus(32, value_pool=EXTREME_VALUES),
    "float-edge": float_edge_corpus(),
}


def fraction_measures(f):
    """Piece measures by Fraction differences, the reference for the ticks."""
    return [b - a for a, b in zip(f.breakpoints, f.breakpoints[1:])]


class TestExactMeasures:
    @pytest.mark.parametrize("name", EXACT_CORPORA)
    def test_norm_and_distribution_match_fraction_sums(self, name):
        for f in EXACT_CORPORA[name]:
            pairs = list(zip(f.values, fraction_measures(f)))
            assert l1_norm_exact(f) == sum(F(abs(v)) * m for v, m in pairs)
            for s in (0.0, *sorted({abs(v) for v in f.values})):
                want = sum((m for v, m in pairs if abs(v) > s), F0)
                assert _distribution_exact(f, s) == want

    @pytest.mark.parametrize("name", EXACT_CORPORA)
    def test_rearrange_matches_fraction_sums(self, name):
        for f in EXACT_CORPORA[name]:
            pairs = sorted(zip(map(abs, f.values), fraction_measures(f)), key=lambda p: -p[0])
            bps, vals = old_canonical([F0, *accumulate(m for _, m in pairs)], [v for v, _ in pairs])
            r = rearrange(f)
            assert r.breakpoints == bps and r.values == vals


class TestBuilders:
    def test_indicator(self):
        g = indicator(F(1, 4), F(1, 2), height=3.0)
        assert g.eval_at(F(1, 4)) == 3.0
        assert g.eval_at(0) == 0.0
        assert g.eval_at(F(3, 4)) == 0.0
        assert l1_norm_exact(g) == F(3, 4)

    # a zero height merges with the zero pieces around it, and the merged
    # piece keeps the first piece's value, so its sign
    @pytest.mark.parametrize("a, b, height, bps, values", [
        (F(1, 4), F(1, 2), 3.0, (F0, F(1, 4), F(1, 2), F1), (0.0, 3.0, 0.0)),
        (0, F(1, 2), 3.0, (F0, F(1, 2), F1), (3.0, 0.0)),
        (F(1, 4), 1, 3.0, (F0, F(1, 4), F1), (0.0, 3.0)),
        (0.25, 1.0, -2.0, (F0, F(1, 4), F1), (0.0, -2.0)),
        (F(1, 4), F(1, 2), 0.0, (F0, F1), (0.0,)),
        (F(1, 4), F(1, 2), -0.0, (F0, F1), (0.0,)),
        (F(1, 4), 1, -0.0, (F0, F1), (0.0,)),
        (0, F(1, 2), -0.0, (F0, F1), (-0.0,)),
        (0, 1, -0.0, (F0, F1), (-0.0,)),
    ])
    def test_indicator_equals_the_function_built_by_hand(self, a, b, height, bps, values):
        g, want = indicator(a, b, height), StepFunction(bps, values)
        assert (g.breakpoints, list(map(repr, g.values))) == (bps, list(map(repr, want.values)))

    def test_indicator_full_interval_is_constant(self):
        assert indicator(0, 1, height=2.0) == constant(2.0)

    def test_indicator_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            indicator(F(1, 2), F(1, 2))

    def test_constant(self):
        assert constant(5.0).values == (5.0,)


class TestNorms:
    def test_l1_exact(self):
        assert l1_norm_exact(three_layer()) == F(2)
        assert l1_norm(three_layer()) == 2.0

    def test_l1_uses_absolute_value(self):
        f = StepFunction((F0, F(1, 2), F1), (-3.0, 1.0))
        assert l1_norm_exact(f) == F(2)

    def test_linf(self):
        assert linf_norm(three_layer()) == 3.0
        assert linf_norm(StepFunction((F0, F(1, 2), F1), (-3.0, 1.0))) == 3.0


class TestDistribution:
    def test_hand_values(self):
        f = three_layer()
        assert distribution(f, 0.0) == 1.0
        assert distribution(f, 1.0) == 0.75
        assert distribution(f, 2.0) == 0.25
        assert distribution(f, 3.0) == 0.0

    # a NaN level answered 0.0, though it names no set
    def test_a_nan_level_is_refused_and_an_infinite_one_is_not(self):
        f = three_layer()
        with pytest.raises(ValueError, match="^the level must not be NaN$"):
            distribution(f, math.nan)
        assert distribution(f, math.inf) == 0.0
        assert distribution(f, -math.inf) == 1.0

    @given(step_functions(signed=True), st.floats(0.0, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_rearrangement(self, f, s):
        assert distribution(f, s) == distribution(rearrange(f), s)


class TestRearrange:
    def test_hand_case(self):
        r = rearrange(three_layer())
        assert r.values == (3.0, 2.0, 1.0)
        assert r.breakpoints == (F0, F(1, 4), F(3, 4), F1)

    @given(step_functions(signed=True))
    @example(StepFunction((F0, F(1, 64), F1), (1.7930279632133748, 5.945792950634114)))
    @example(
        StepFunction(
            (F0, F(1, 64), F(1, 32), F1),
            (3.0, 0.9851638668647811, 0.22175325674386498),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_and_idempotent(self, f):
        r = rearrange(f)
        assert all(a >= b for a, b in zip(r.values, r.values[1:]))
        assert rearrange(r) == r

    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_preserves_exact_norms(self, f):
        r = rearrange(f)
        assert l1_norm_exact(r) == l1_norm_exact(f)
        assert linf_norm(r) == linf_norm(f)


def layer_cake(f):
    """The layer cake of |f| read off rearrange(f) as README gives it:
    heights, levels, superlevel measures and rings."""
    r = rearrange(f)
    n = r.pieces - (r.values[-1] == 0)  # without f*'s zero level
    heights = r.values[:n]
    levels = tuple(a - b for a, b in zip(heights, (*heights[1:], 0.0)))
    return heights, levels, r.breakpoints[1 : n + 1], r.piece_measures()[:n]


def signed_layer_corpus():
    """Signed functions, some with 0.0 or -0.0 pieces (scale by -1 turns a
    0.0 piece into -0.0), on dyadic and non-dyadic grids."""
    quarters = (F0, F(1, 4), F(1, 2), F(3, 4), F1)
    layers = layer_corpus(200, seed=7)
    return [
        *random_functions(11, 300, signed=True),
        *layers,
        *(scale(f, -1.0) for f in layers),
        *edge_corpus(31),
        *float_edge_corpus(),
        StepFunction(quarters, (3.0, -0.0, 2.0, 0.0)),
        StepFunction(quarters, (-0.0, -1.5, 0.0, 1.5)),
        StepFunction(quarters, (2.5, -2.5, 1.0, -1.0)),
    ]


class TestLayerCake:
    def test_hand_case(self):
        heights, levels, measures, rings = layer_cake(three_layer())
        assert heights == (3.0, 2.0, 1.0)
        assert levels == (1.0, 1.0, 1.0)
        assert measures == (F(1, 4), F(3, 4), F1)
        assert rings == (F(1, 4), F(1, 2), F(1, 4))
        f = StepFunction((F0, F(1, 4), F(1, 2), F1), (-3.0, 0.0, 1.0))
        assert layer_cake(f) == ((3.0, 1.0), (2.0, 1.0), (F(1, 4), F(3, 4)), (F(1, 4), F(1, 2)))
        assert rearrange(f).values == (3.0, 1.0, 0.0)

    def test_zero_function_has_no_layers(self):
        for f in (constant(0.0), constant(-0.0), StepFunction((F0, F(1, 3), F1), (-0.0, 0.0))):
            r = rearrange(f)
            assert r.breakpoints == (F0, F1)
            assert [v.hex() for v in r.values] == ["0x0.0p+0"], f
            assert layer_cake(f) == ((), (), (), ())

    def test_zero_level_on_signed_corpus(self):
        # f* carries one zero level, as 0.0 also where f has only -0.0, just
        # where |f| vanishes on a set of positive measure, and then that set's
        # measure; above it the heights fall strictly, so every level is
        # positive.  The signed corpus holds both cases.
        zero_pieces = {True: 0, False: 0}
        for f in [three_layer(), *signed_layer_corpus()]:
            r = rearrange(f)
            heights, levels, measures, rings = layer_cake(f)
            zero_set = sum((m for v, m in zip(f.values, fraction_measures(f)) if v == 0), F0)
            assert (r.values[-1] == 0) == (zero_set > 0), f
            if zero_set:
                assert math.copysign(1.0, r.values[-1]) == 1.0, f
                assert r.piece_measures()[-1] == zero_set == F1 - measures[-1], f
            else:
                assert measures[-1] == F1, f
            assert min(heights) > 0 and min(levels) > 0, f
            assert sum(rings) == measures[-1], f
            zero_pieces[zero_set > 0] += 1
        assert min(zero_pieces.values()) > 50, zero_pieces

    @pytest.mark.parametrize("name", EXACT_CORPORA)
    def test_matches_fraction_reference(self, name):
        for f in EXACT_CORPORA[name]:
            mass = {}
            for v, m in zip(map(abs, f.values), fraction_measures(f)):
                if v > 0:
                    mass[v] = mass.get(v, F0) + m
            heights = sorted(mass, reverse=True)
            got = layer_cake(f)
            assert got[0] == tuple(heights), f
            assert got[2] == tuple(accumulate(mass[v] for v in heights)), f
            assert got[3] == tuple(mass[v] for v in heights), f
            assert all(type(m) is F for m in (*got[2], *got[3])), f


class TestArithmetic:
    def test_add_on_merged_grid(self):
        f = indicator(0, F(1, 2), height=1.0)
        g = indicator(F(1, 4), F(3, 4), height=2.0)
        h = add(f, g)
        assert h.eval_at(0) == 1.0
        assert h.eval_at(F(1, 4)) == 3.0
        assert h.eval_at(F(1, 2)) == 2.0
        assert h.eval_at(F(7, 8)) == 0.0

    @given(step_functions(signed=True), step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_add_pointwise(self, f, g):
        h = add(f, g)
        # fixed points, then the left end of every cell of the merged grid
        lefts = sorted({*f.breakpoints[:-1], *g.breakpoints[:-1]})
        for x in (F0, F(1, 7), F(1, 3), F(2, 3), F(63, 64), F1, *lefts):
            assert h.eval_at(x) == f.eval_at(x) + g.eval_at(x)

    def test_scale_and_abs(self):
        f = StepFunction((F0, F(1, 2), F1), (-2.0, 1.0))
        assert scale(f, -2.0).values == (4.0, -2.0)
        assert abs_(f).values == (2.0, 1.0)
        assert scale(f, 0.0) == constant(0.0)

    # float read these as numbers: a string as a literal, a bool as 0 or 1
    @pytest.mark.parametrize("build, message", [
        (lambda: scale(indicator(0, F(1, 2), 2.0), "3"), 'a: expected a number, got "3"'),
        (lambda: scale(indicator(0, F(1, 2), 2.0), True), "a: expected a number, got true"),
        (lambda: distribution(indicator(0, F(1, 2), 2.0), True), "s: expected a number, got true"),
        (lambda: distribution(indicator(0, F(1, 2), 2.0), "1"), 's: expected a number, got "1"'),
    ])
    def test_scale_and_distribution_refuse_strings_and_bools(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: scale(constant(10.0), 1e308),
            lambda: add(constant(1e308), constant(1e308)),
            lambda: indicator(0, F(1, 2), height=math.inf),
            lambda: indicator(0, F(1, 2), height=math.nan),
        ],
        ids=["scale-overflow", "add-overflow", "indicator-inf", "indicator-nan"],
    )
    def test_built_values_must_be_finite(self, build):
        # the grid these build on is trusted; the values are still checked
        with pytest.raises(ValueError, match="values must be finite"):
            build()


class TestJson:
    def test_roundtrip(self):
        f = three_layer()
        assert StepFunction.from_json(f.to_json()) == f

    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, f):
        assert StepFunction.from_json(f.to_json()) == f

    def test_rejects_junk(self):
        with pytest.raises(SpecParseError):
            StepFunction.from_json([1, 2])
        with pytest.raises(SpecParseError):
            StepFunction.from_json({"breakpoints": [0, 1], "values": [1.0], "x": 1})
        with pytest.raises(SpecParseError):
            StepFunction.from_json({"breakpoints": [0, 1]})
        with pytest.raises(SpecParseError):
            StepFunction.from_json({"breakpoints": [0, 0.5], "values": [1.0]})

    @pytest.mark.parametrize("spec, message", [
        ({"breakpoints": [0, True], "values": [1]}, "'breakpoints[1]': expected a number, got true"),
        ({"breakpoints": [0, 1], "values": ["2"]}, "'values[0]': expected a number, got \"2\""),
        ({"breakpoints": "01", "values": [1]}, "'breakpoints': expected a list, got \"01\""),
        ({"breakpoints": [0, [1]], "values": [1]}, "'breakpoints[1]': expected a number, got [1]"),
        ({"breakpoints": [0, 1], "values": [math.nan]}, "'values[0]': must be finite, got NaN"),
        ({"breakpoints": [0, 10**400], "values": [1]},
         "'breakpoints[1]': int too large to convert to float"),
        ({"values": [1], "breakpoints": [0, 1]}, None),
        ({"breakpoints": [0, 1]}, "'values': missing from the step function spec"),
        # echoing the value recursed past the interpreter's limit
        ({"breakpoints": [0, reduce(lambda v, _: [v], range(5000), [])], "values": [1]},
         "'breakpoints[1]': expected a number, got a value that nests too deeply to show"),
    ])
    def test_json_numbers_only(self, spec, message):
        # booleans and numeric strings were once read as numbers
        if message is None:
            assert StepFunction.from_json(spec) == StepFunction((F(0), F(1)), (1.0,))
            return
        with pytest.raises(SpecParseError) as info:
            StepFunction.from_json(spec)
        assert str(info.value) == message

    @pytest.mark.parametrize("bps, values", [
        ([0, 1], [1, 2]),
        ([0], []),
        ([], []),
        ([0.25, 1], [1]),
        ([0, 0.75], [1]),
        ([-0.5, 1], [1]),
        ([0, 0.5, 0.5, 1], [1, 2, 3]),
        ([0, 0.75, 0.5, 1], [1, 2, 3]),
    ])
    def test_refuses_a_bad_grid_as_the_constructor_does(self, bps, values):
        with pytest.raises(ValueError) as built:
            StepFunction(bps, values)
        with pytest.raises(SpecParseError) as read:
            StepFunction.from_json({"breakpoints": bps, "values": values})
        assert str(read.value) == str(built.value)


class TestIntegerGrid:
    """A function keeps its grid as integer ticks; from_json builds them from
    the floats, with no Fraction, and answers as the Fraction path does."""

    def test_json_ticks_are_the_ticks_of_the_fractions(self):
        for spec in json_edge_specs():
            den, ticks = StepFunction.from_json(spec)._grid
            assert (den, list(ticks)) == _ticks([F(b) for b in spec["breakpoints"]]), spec

    def test_json_function_equals_and_hashes_like_the_fraction_one(self):
        for spec in json_edge_specs():
            f = StepFunction.from_json(spec)
            g = StepFunction(tuple(map(F, spec["breakpoints"])), spec["values"])
            assert f == g and hash(f) == hash(g) and repr(f) == repr(g), spec
            assert hash(f) == hash((g.breakpoints, g.values))
            assert f.breakpoints == g.breakpoints and f.piece_measures() == g.piece_measures()
            assert all(f.eval_at(b) == g.eval_at(b) for b in g.breakpoints)

    def test_to_json_round_trips_the_float_edges(self):
        spec = {"breakpoints": [0.0, 5e-324, 0.5, 1 - 2**-53, 1.0],
                "values": [1.0, -0.0, 2.5, 5e-324]}
        back = StepFunction.from_json(spec).to_json()
        assert list(map(repr, back["breakpoints"])) == list(map(repr, spec["breakpoints"]))
        assert list(map(repr, back["values"])) == list(map(repr, spec["values"]))
        for spec in json_edge_specs():
            f = StepFunction.from_json(spec)
            assert f.to_json() == {"breakpoints": [float(b) for b in f.breakpoints],
                                   "values": list(f.values)}

    def test_from_json_builds_no_fraction(self, monkeypatch):
        class Counting(F):
            made = 0

            def __new__(cls, *args, **kwargs):
                Counting.made += 1
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(stepfn, "Fraction", Counting)
        fs = [StepFunction.from_json(spec) for spec in json_edge_specs()]
        assert Counting.made == 0
        fs[3].breakpoints  # the view is built on first read, by the patched name
        assert Counting.made == len(fs[3].values) + 1

    def test_frozen_and_picklable(self):
        f = StepFunction.from_json(json_edge_specs()[3])
        with pytest.raises(FrozenInstanceError):
            f.values = (1.0,)
        with pytest.raises(FrozenInstanceError):
            del f.values
        back = pickle.loads(pickle.dumps(f))
        assert back == f and back.breakpoints == f.breakpoints


class TestRandomGenerator:
    def test_deterministic(self):
        a = random_step_function(random.Random(5))
        b = random_step_function(random.Random(5))
        assert a == b

    def test_respects_pool_and_sign(self):
        rng = random.Random(9)
        f = random_step_function(rng, value_pool=(1.0, 2.0), signed=True)
        assert set(abs(v) for v in f.values) <= {1.0, 2.0}

    def test_canonical_output(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_step_function(rng, max_pieces=6)
            assert f == f.canonical()
