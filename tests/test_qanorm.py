import bisect
import math
import operator
import random
import struct
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from qaspace import (
    Decomposition,
    NegativePiece,
    NormBounds,
    ShapeFunction,
    StepFunction,
    TooManyLayers,
    WitnessSpec,
    add,
    alpha_beta,
    build_witness,
    constant,
    constant_one,
    identity,
    indicator,
    l1_norm,
    linf_norm,
    lorentz_norm,
    piece_cost,
    piecewise,
    psi_gamma,
    qa_bounds,
    qa_lower,
    qa_phi,
    qa_psi,
    qa_upper,
    rearrange,
    witness_qa_upper,
)
from qaspace import stepfn
from qaspace.logs import LOG_ZERO, logsumexp
from qaspace.lorentz import fact_bound, nonneg_fsum, weighted_sup_bound
from qaspace.qanorm import STRATEGIES, _LayerTable, _search
from qaspace.stepfn import abs_
from qaspace.witness import _LogLayerTable
from conftest import brute_force_upper, layer_corpus, random_functions, step_functions
from corpora import (
    EXTREME_VALUES,
    all_groups,
    deep_corpus,
    edge_corpus,
    float_edge_corpus,
    group_sample,
    json_edge_specs,
    tie_corpus,
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def lower_corpus():
    """Random, layered, non-dyadic, extreme-valued and deep inputs."""
    return [
        *random_functions(11, 300),
        *layer_corpus(100, seed=7),
        *edge_corpus(31),
        *edge_corpus(32, value_pool=EXTREME_VALUES),
        *deep_corpus(20),
    ]


def three_layer():
    return StepFunction((F(0), F(1, 4), F(1, 2), F(1)), (3.0, 1.0, 2.0))


class TestPieceCost:
    def test_indicator(self):
        g = indicator(0, F(1, 4), height=2.0)
        want = qa_psi().eval(3.0) * 2.0 * qa_phi().eval(0.25)
        assert piece_cost(g, 3, qa_phi(), qa_psi()) == want

    def test_zero_piece_is_free(self):
        assert piece_cost(constant(0.0), 1, qa_phi(), qa_psi()) == 0.0

    def test_slot_validation(self):
        g = indicator(0, F(1, 4))
        with pytest.raises(ValueError):
            piece_cost(g, 0, qa_phi(), qa_psi())
        with pytest.raises(ValueError):
            piece_cost(g, 1.5, qa_phi(), qa_psi())
        with pytest.raises(ValueError, match="^slot n must be a positive integer$"):
            piece_cost(g, True, qa_phi(), qa_psi())

    def test_rejects_negative_pieces(self):
        f = StepFunction((F(0), F(1, 2), F(1)), (-1.0, 1.0))
        with pytest.raises(NegativePiece):
            piece_cost(f, 1, qa_phi(), qa_psi())


REL = 1e-12  # the rounding slack of tests/test_acceptance.py

# every family as a phi and as a psi, in its default domain and in the other
EVERY_FAMILY = [
    (qa_phi(), qa_psi()),
    (alpha_beta(0.5, 0.7), psi_gamma(0.4)),
    (alpha_beta(1.0, 0.0), ShapeFunction("alpha_beta", alpha=0.3, beta=0.9, domain_kind="psi")),
    (identity(), identity("psi")),
    (constant_one(), constant_one("psi")),
    (piecewise([(0, 0), (0.25, 0.5), (1, 1)]), piecewise([(0, 0), (1, 1), (1000, 4)], "psi")),
    (ShapeFunction("qa_psi", domain_kind="phi"), ShapeFunction("qa_phi", domain_kind="psi")),
    (ShapeFunction("psi_gamma", exponent=0.5, domain_kind="phi"), psi_gamma(0.0)),
]
EVERY_FAMILY_IDS = [f"{phi.family}-{psi.family}" for phi, psi in EVERY_FAMILY]


def every_corpus():
    """Every corpus of tests/corpora.py, the JSON specs read as functions."""
    return [
        *random_functions(11, 300),
        *random_functions(12, 100, signed=True),
        *layer_corpus(200, seed=7),
        *deep_corpus(20),
        *float_edge_corpus(),
        *edge_corpus(31),
        *edge_corpus(32, value_pool=EXTREME_VALUES),
        *tie_corpus(),
        *map(StepFunction.from_json, json_edge_specs()),
    ]


class TestLower:
    def test_is_psi1_times_lorentz(self):
        f = three_layer()
        want = qa_psi().eval(1.0) * lorentz_norm(f, qa_phi()).value
        assert qa_lower(f, qa_phi(), qa_psi()) == want == 2.5623351446188085

    @pytest.mark.parametrize("phi, psi", EVERY_FAMILY, ids=EVERY_FAMILY_IDS)
    def test_is_the_lorentz_route_on_every_corpus(self, phi, psi):
        # the lower bound is the one route, whatever the strategy: singleton
        # prices least; the plain-integral floor sits below it, as phi(t) >=
        # t phi(1) (the guarantees below shapes._TABLE), up to rounding
        for f in every_corpus():
            want = psi.eval(1.0) * lorentz_norm(f, phi).value
            got = qa_upper(f, phi, psi, strategy="singleton")
            assert bits(qa_lower(f, phi, psi)) == bits(got.lower) == bits(want), f
            assert got.lower_source == "lorentz"
            assert phi.eval(1.0) * psi.eval(1.0) * l1_norm(f) <= want * (1.0 + REL), f


class TestUpper:
    def test_anchor_and_witness(self):
        f = three_layer()
        got = qa_upper(f, qa_phi(), qa_psi(), strategy="exhaustive")
        assert got.upper == 2.8109302162163283
        assert got.lower == 2.5623351446188085
        # the merged single piece wins here: growing slot prices beat
        # the layer split
        assert len(got.upper_witness.pieces) == 1
        assert got.upper_witness.cost == got.upper

    def test_witness_cost_recomputes_bitwise(self):
        f = three_layer()
        for strategy in ("layers", "local_search", "exhaustive"):
            got = qa_upper(f, qa_phi(), qa_psi(), strategy=strategy)
            assert got.upper_witness.recomputed_cost(qa_phi(), qa_psi()) == got.upper

    def test_witness_pieces_cover_the_function(self):
        f = three_layer()
        got = qa_upper(f, qa_phi(), qa_psi(), strategy="exhaustive")
        total = constant(0.0)
        for piece in got.upper_witness.pieces:
            total = add(total, piece)
        assert total == rearrange(f) or total == f

    def test_zero_function(self):
        mixed = StepFunction((F(0), F(1, 3), F(1)), (-0.0, 0.0))
        for f in (constant(0.0), constant(-0.0), mixed):
            got = qa_upper(f, qa_phi(), qa_psi())
            assert (bits(got.lower), bits(got.upper)) == (bits(0.0), bits(0.0))
            assert got.upper_witness.pieces == ()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            qa_upper(three_layer(), qa_phi(), qa_psi(), strategy="annealing")

    def test_unknown_strategy_in_the_log_domain(self):
        w = build_witness(WitnessSpec(qa_phi(), qa_psi(), N=4, c=0.5, p=1.0))
        with pytest.raises(ValueError):
            witness_qa_upper(w, qa_phi(), qa_psi(), strategy="annealing")

    def test_exhaustive_layer_cap(self):
        vals = tuple(float(k) for k in range(1, 13))
        bps = tuple(F(k, 12) for k in range(13))
        f = StepFunction(bps, vals)
        with pytest.raises(TooManyLayers):
            qa_upper(f, qa_phi(), qa_psi(), strategy="exhaustive")
        # local search still runs
        assert qa_upper(f, qa_phi(), qa_psi(), strategy="local_search").upper > 0.0

    def test_exhaustive_layer_cap_names_a_strategy_qa_upper_takes(self):
        f = StepFunction(tuple(F(k, 12) for k in range(13)), tuple(map(float, range(1, 13))))
        message = "12 layers exceed the exhaustive cap 10; use local_search"
        with pytest.raises(TooManyLayers, match=f"^{message}$"):
            qa_upper(f, qa_phi(), qa_psi(), strategy="exhaustive")
        assert "local_search" in STRATEGIES

    def test_auto_choice(self):
        vals = tuple(float(k) for k in range(1, 13))
        wide = StepFunction(tuple(F(k, 12) for k in range(13)), vals)
        for f, strategy in ((three_layer(), "exhaustive"), (wide, "local_search")):
            auto = qa_upper(f, qa_phi(), qa_psi(), strategy="auto")
            assert auto == qa_upper(f, qa_phi(), qa_psi(), strategy=strategy)
            assert auto == qa_bounds(f, qa_phi(), qa_psi())

    def test_singleton_is_the_one_piece_cover(self):
        corpus = [*random_functions(11, 100, signed=True), *layer_corpus(50, seed=7)]
        for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4))):
            for f in corpus:
                got = qa_upper(f, phi, psi, strategy="singleton")
                want = psi.eval(1.0) * fact_bound(abs_(f), phi)
                assert struct.pack("<d", got.upper) == struct.pack("<d", want)
                assert got.upper_witness.pieces == (abs_(f),)
                assert got.upper >= qa_upper(f, phi, psi, strategy="layers").upper

    @pytest.mark.parametrize("strategy", ["layers", "local_search", "exhaustive", "auto"])
    def test_a_tie_goes_to_the_one_piece(self, strategy):
        # under a constant psi the one piece (weight 1.5) and the layer split
        # (weights 0.5 and 1.0) both cost 1.5; the first of the cheapest wins,
        # and every pool lists the one piece first
        f = StepFunction((F(0), F(1, 2), F(1)), (2.0, 1.0))
        table = _LayerTable(f, identity())
        assert list(table.layer_weights) == [0.5, 1.0] and table.weight(0, 1) == 1.5
        got = qa_upper(f, identity(), constant_one("psi"), strategy=strategy)
        assert got.upper == 1.5
        assert [g.values for g in got.upper_witness.pieces] == [(2.0, 1.0)]

    def test_ratio_property(self):
        got = qa_bounds(three_layer(), qa_phi(), qa_psi())
        assert got.ratio == got.upper / got.lower

    @pytest.mark.parametrize("lower, upper, ratio", [
        (0.0, 0.0, 1.0), (0.0, 2.0, math.inf), (2.0, math.inf, math.inf),
        (math.inf, math.inf, math.inf), (1.0, 3.0, 3.0),
    ])
    def test_ratio_is_never_nan(self, lower, upper, ratio):
        # an upper past the float range certifies no finite tightness
        assert NormBounds(lower, upper, "lorentz", Decomposition((), upper)).ratio == ratio


class TestPieces:
    """Every witness piece is the clamp of |f| on f's grid, as the validating
    constructor builds it, bit for bit."""

    @pytest.mark.parametrize("strategy", ["layers", "local_search", "exhaustive", "auto"])
    def test_equal_the_validated_clamp(self, monkeypatch, strategy):
        built = {}
        materialize = _LayerTable.materialize

        def spy(table, i, j):
            g = materialize(table, i, j)
            built[id(g)] = (g, table, i, j)
            return g

        monkeypatch.setattr(_LayerTable, "materialize", spy)
        phi, psi = qa_phi(), qa_psi()
        pieces = 0
        for f in lower_corpus():
            built.clear()
            try:
                got = qa_upper(f, phi, psi, strategy=strategy)
            except TooManyLayers:
                continue
            for g in got.upper_witness.pieces:
                _, table, i, j = built[id(g)]
                vals, f_abs = table.vals, abs_(table.f)
                floor = vals[j + 1] if j + 1 < len(vals) else 0.0
                height = vals[i] - floor
                want = StepFunction(
                    f_abs.breakpoints, [min(max(v - floor, 0.0), height) for v in f_abs.values]
                ).canonical()
                assert g.breakpoints == want.breakpoints, (f, i, j)
                assert list(map(bits, g.values)) == list(map(bits, want.values)), (f, i, j)
                assert StepFunction(g.breakpoints, g.values) == g
                pieces += 1
        assert pieces > 500, pieces


class CountingTable:
    """A layer table that counts the groups it is asked for."""

    def __init__(self, layer_weights, weight):
        self.layer_weights = layer_weights
        self.read = weight
        self.asked = Counter()

    def weight(self, i, j):
        self.asked[i, j] += 1
        return self.read(i, j)


def float_price(psi, n):
    psi_at = [psi.eval(float(r + 1)) for r in range(n)]
    return lambda ws, bound: nonneg_fsum(map(operator.mul, psi_at, ws))


def log_price(psi, n):
    log_psi_at = [math.log(psi.eval(float(r + 1))) for r in range(n)]
    return lambda ws, bound: logsumexp(map(operator.add, log_psi_at, ws))


# what an early log price answers in place of its true price: the largest
# term, as witness_qa_upper's price does, or the least float above the bound
EARLY_ANSWERS = {
    "top": lambda top, bound: top,
    "next_above_bound": lambda top, bound: math.nextafter(bound, math.inf),
}


class EarlyLogPrice:
    """The log price of log_psi_at, but once the largest term is above the
    bound it answers early, by the rule answer(top, bound); counts those
    answers in early."""

    def __init__(self, log_psi_at, answer):
        self.log_psi_at = log_psi_at
        self.answer = answer
        self.early = 0

    @classmethod
    def of(cls, psi, n, answer):
        return cls([math.log(psi.eval(float(r + 1))) for r in range(n)], answer)

    def __call__(self, ws, bound):
        terms = list(map(operator.add, self.log_psi_at, ws))
        top = max(terms)
        if top > bound:
            self.early += 1
            return self.answer(top, bound)
        return logsumexp(terms)


def group_list_greedy(n, total):
    """The local search as a loop over group lists, each candidate priced by
    total(groups); returns (best total, best groups) over the one piece, the
    layer split and the greedy's end point, first strict minimum first."""
    layers = [(k, k) for k in range(n)]
    groups, cost = layers, total(layers)
    improved = True
    while improved and len(groups) > 1:
        improved = False
        for idx in range(len(groups) - 1):
            cand = groups[:idx] + [(groups[idx][0], groups[idx + 1][1])] + groups[idx + 2 :]
            t = total(cand)
            if t < cost:
                groups, cost = cand, t
                improved = True
                break
    best = None
    for groups in ([(0, n - 1)], layers, groups):
        t = total(groups)
        if best is None or t < best[0]:
            best = (t, groups)
    return best


class TestGreedy:
    """The weight-list local search ends where the group-list loop ends, at
    the same total bit for bit, under both pricings, and hands every price
    its weights in descending order."""

    @staticmethod
    def tables(log):
        """Seeded weight tables over 11 to 40 layers: grid values (so totals
        tie), some inf, and in the log domain some -inf."""
        rng = random.Random(1302 if log else 1301)
        for _ in range(60):
            n = rng.randint(11, 40)
            slope = rng.uniform(0.2, 1.1)
            weights = {}
            for i in range(n):
                for j in range(i, n):
                    u = rng.random()
                    w = round(4 * (j - i + 1) ** slope * rng.uniform(0.5, 1.5)) / 4
                    if log:
                        w = LOG_ZERO if u < 0.03 else math.log(w) if w else LOG_ZERO
                    weights[i, j] = math.inf if u > 0.97 else w
            yield n, weights

    def test_matches_the_group_list_loop(self):
        psi_at = [1.0 + math.log(r) for r in range(1, 41)]
        log_psi_at = [math.log(p) for p in psi_at]
        pricings = {
            False: lambda ws, bound: nonneg_fsum([p * w for p, w in zip(psi_at, ws)]),
            True: lambda ws, bound: logsumexp([p + w for p, w in zip(log_psi_at, ws)]),
        }
        ends, seen = set(), set()

        def descending(price):
            def checked(ws, bound):
                assert all(map(operator.ge, ws, ws[1:])), ws
                if len(set(ws)) < len(ws):
                    seen.add("tie")
                seen.update(w for w in ws if math.isinf(w))
                return price(ws, bound)

            return checked

        for log, price in pricings.items():
            for n, weights in self.tables(log):

                def total(groups):
                    return price(sorted([weights[g] for g in groups], reverse=True), math.inf)

                want_total, want_groups = group_list_greedy(n, total)
                table = CountingTable([weights[k, k] for k in range(n)], lambda i, j: weights[i, j])
                got_total, got_groups = _search(table, descending(price), "local_search")
                assert sorted(got_groups) == want_groups, (log, n)
                assert got_groups == sorted(want_groups, key=lambda g: -weights[g]), (log, n)
                assert bits(got_total) == bits(want_total), (log, n)
                assert set(table.asked.values()) <= {1}, (log, n)
                ends.add((log, 1 < len(got_groups) < n, math.isinf(got_total)))
        # both pricings reach groupings strictly between the one piece and
        # the layer split, and totals that are inf; the sorted lists that the
        # greedy edits hold equal and infinite weights
        assert {(log, True, False) for log in pricings} <= ends, ends
        assert any(end[2] for end in ends), ends
        assert seen == {"tie", math.inf, LOG_ZERO}, seen

    @pytest.mark.parametrize("answer", EARLY_ANSWERS)
    def test_a_log_price_that_exits_early_ends_at_the_same_grouping(self, answer):
        log_psi_at = [math.log(1.0 + math.log(r)) for r in range(1, 41)]
        full = lambda ws, bound: logsumexp([p + w for p, w in zip(log_psi_at, ws)])
        early = EarlyLogPrice(log_psi_at, EARLY_ANSWERS[answer])
        for n, weights in self.tables(True):
            table = CountingTable([weights[k, k] for k in range(n)], lambda i, j: weights[i, j])
            want_total, want_groups = _search(table, full, "local_search")
            got_total, got_groups = _search(table, early, "local_search")
            assert got_groups == want_groups, n
            assert bits(got_total) == bits(want_total), n
        assert early.early > 100, early.early


class TestSearchAsksOnce:
    """On every strategy, in both domains, _search asks its table for each
    group's weight at most once, and never for a single layer's, which it
    reads off layer_weights."""

    def test_each_group_at_most_once(self):
        float_tables = [
            (_LayerTable(f, phi), psi)
            for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4)))
            for f in (*layer_corpus(20, seed=7), *deep_corpus(2))
        ]
        log_tables = [
            (_LogLayerTable.from_witness(build_witness(WitnessSpec(phi, psi, N=n, c=0.5)), phi), psi)
            for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4)))
            for n in (2, 5, 8)
        ]
        asked = Counter()
        for log, tables in ((False, float_tables), (True, log_tables)):
            for inner, psi in tables:
                n = len(inner.layer_weights)
                price = (log_price if log else float_price)(psi, n)
                for strategy in STRATEGIES:
                    if strategy == "exhaustive" and n > 10:
                        continue
                    table = CountingTable(inner.layer_weights, inner.weight)
                    _search(table, price, strategy)
                    assert set(table.asked.values()) <= {1}, (log, strategy, table.asked)
                    assert not any(i == j for i, j in table.asked), (log, strategy)
                    asked[log, strategy] += len(table.asked)
        # every strategy asks for merged groups in both domains (at least the one piece)
        every = {(log, s) for log in (False, True) for s in STRATEGIES}
        assert {key for key, count in asked.items() if count} == every, asked

    def test_the_pool_prices_each_grouping_once(self):
        # exhaustive prices the 2^(n-1) consecutive groupings, layers the one
        # piece and the layer split (one grouping on one layer), singleton the
        # one piece; the pool once held the one piece and the layer split twice
        few_layers = [
            indicator(F(0), F(1, 3)),
            constant(2.5),
            StepFunction((F(0), F(1, 2), F(1)), (2.0, 1.0)),
        ]
        tables = [
            (False, _LayerTable(f, phi), psi)
            for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4)))
            for f in (*layer_corpus(20, seed=7), *few_layers)
        ]
        tables += [
            (True, _LogLayerTable.from_witness(build_witness(WitnessSpec(phi, psi, N=n, c=0.5)), phi), psi)
            for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4)))
            for n in (2, 5)
        ]
        tables.append((True, CountingTable([math.log(0.75)], None), qa_psi()))  # one log layer
        sizes = set()
        for log, table, psi in tables:
            n = len(table.layer_weights)
            priced = Counter()
            inner = (log_price if log else float_price)(psi, n)

            def price(ws, bound):
                priced[strategy] += 1
                return inner(ws, bound)

            for strategy in ("exhaustive", "layers", "singleton"):
                if n <= 10 or strategy != "exhaustive":
                    _search(table, price, strategy)
            want = {"exhaustive": 1 << (n - 1), "layers": 1 if n == 1 else 2, "singleton": 1}
            if n > 10:
                del want["exhaustive"]
            assert priced == want, (log, n, priced)
            sizes.add((log, min(n, 3)))
        # one layer, two and more in floats; one and more in logs
        assert sizes == {(False, 1), (False, 2), (False, 3), (True, 1), (True, 3)}, sizes

    @pytest.mark.parametrize("answer", EARLY_ANSWERS)
    def test_a_log_price_that_exits_early_asks_the_same_and_ends_the_same(self, answer):
        exits = 0
        for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4))):
            for n in (2, 5, 8):
                inner = _LogLayerTable.from_witness(build_witness(WitnessSpec(phi, psi, N=n, c=0.5)), phi)
                k = len(inner.layer_weights)
                for strategy in STRATEGIES:
                    if strategy == "exhaustive" and k > 10:
                        continue
                    full = CountingTable(inner.layer_weights, inner.weight)
                    want_total, want_groups = _search(full, log_price(psi, k), strategy)
                    early = EarlyLogPrice.of(psi, k, EARLY_ANSWERS[answer])
                    table = CountingTable(inner.layer_weights, inner.weight)
                    got_total, got_groups = _search(table, early, strategy)
                    assert got_groups == want_groups, (n, strategy)
                    assert bits(got_total) == bits(want_total), (n, strategy)
                    assert table.asked == full.asked, (n, strategy)
                    exits += early.early
        assert exits > 100, exits


class TestAgainstBruteForce:
    def test_exhaustive_matches_independent_enumerator(self):
        phi, psi = qa_phi(), qa_psi()
        for f in layer_corpus(count=12, seed=404):
            want = brute_force_upper(f, phi, psi)
            assert qa_upper(f, phi, psi, strategy="exhaustive").upper == want

    def test_local_search_never_beats_exhaustive(self):
        phi, psi = qa_phi(), qa_psi()
        for f in layer_corpus(count=12, seed=405):
            ex = qa_upper(f, phi, psi, strategy="exhaustive").upper
            ls = qa_upper(f, phi, psi, strategy="local_search").upper
            assert ls >= ex


def set_partitions(n):
    """Every set partition of layers 0..n-1 (Bell(n) of them), each a list of
    bitmasks, one per block."""
    parts = [[]]
    for bit in (1 << k for k in range(n)):
        parts = [*(p[:i] + [block | bit] + p[i + 1 :] for p in parts for i, block in enumerate(p)),
                 *(p + [bit] for p in parts)]
    return parts


def slab_weights(f, phi):
    """The psi-free cost of every set S of f*'s layers taken as one piece, by
    bitmask: the slab piece sum_{l in S} h_l 1{|f| >= vals[l]}, whose sup is H
    = sum h_l and whose l1 is L = sum h_l cum[l] / den, costs H phi(L / H); h_l
    is vals[l] - vals[l + 1], the last layer's floor 0.  In floats."""
    den, vals, cum = stepfn._layers(f)
    h = list(map(operator.sub, vals, [*vals[1:], 0.0]))
    sums, weights = [(0.0, 0.0)], [0.0]
    for mask in range(1, 1 << len(vals)):
        low = mask & -mask
        l = low.bit_length() - 1
        rest_h, rest_l = sums[mask ^ low]
        height, l1 = rest_h + h[l], rest_l + h[l] * (cum[l] / den)
        sums.append((height, l1))
        weights.append(height * phi.eval(min(l1 / height, 1.0)))
    return weights


SLAB_SHAPES = [
    (qa_phi(), qa_psi()),
    (alpha_beta(0.7, 0.75), psi_gamma(0.5)),
    (alpha_beta(1.0, 0.8), psi_gamma(0.2)),
    (piecewise([(0, 0), (0.1, 0.5), (0.4, 0.8), (1, 1)]), qa_psi()),
]


# Covers built from f*'s full-width slabs are set partitions of its layers (the
# cost is concave in how each slab is shared, so a best cover gives each slab
# to one piece); exhaustive searches the consecutive ones, and no other wins.
@pytest.mark.parametrize("phi, psi", SLAB_SHAPES)
def test_no_set_partition_of_the_layers_beats_exhaustive(phi, psi):
    partitions = {n: set_partitions(n) for n in range(2, 9)}
    cases = 0
    for f in [*layer_corpus(200, 7), *random_functions(11, 300)]:
        weights = slab_weights(f, phi)
        n = (len(weights) - 1).bit_length()
        if n not in partitions:
            continue
        psi_at = [psi.eval(float(r + 1)) for r in range(n)]
        best = min(sum(map(operator.mul, psi_at, sorted(map(weights.__getitem__, blocks),
                                                         reverse=True)))
                   for blocks in partitions[n])
        exhaustive = qa_upper(f, phi, psi, strategy="exhaustive").upper
        assert exhaustive * (1 - 1e-12) <= best <= exhaustive * (1 + 1e-12), f
        cases += 1
    assert cases == 380


def fraction_weight(table, rings, i, j):
    """Reference group weight: the l1 summed as Fractions, term by term."""
    vals = table.vals
    floor = vals[j + 1] if j + 1 < len(vals) else 0.0
    linf = vals[i] - floor
    total = F(0)
    for l in range(j + 1):
        ring_value = vals[max(l, i)] - floor
        total += F(ring_value) * rings[l]
    ratio = float(total / F(linf))
    return weighted_sup_bound(linf, ratio, table.phi)


class TestLayerWeights:
    """The integer group weights equal the Fraction reference bitwise."""

    @pytest.mark.parametrize(
        "corpus, groups, least",
        [
            (lambda: [*random_functions(11, 300), *layer_corpus(100, seed=7)], all_groups, 1000),
            (lambda: edge_corpus(31), all_groups, 1000),
            (lambda: edge_corpus(32, value_pool=EXTREME_VALUES), all_groups, 1000),
            (lambda: deep_corpus(4), group_sample, 1000),
            (float_edge_corpus, all_groups, 250),
            (tie_corpus, all_groups, 5000),
        ],
        ids=["random+layers", "non-dyadic-grids", "extreme-values", "deep", "float-edge", "ties"],
    )
    def test_matches_fraction_reference(self, corpus, groups, least):
        pairs = 0
        for phi in (qa_phi(), alpha_beta(0.5, 0.7)):
            for f in corpus():
                table = _LayerTable(abs_(f), phi)
                n = len(table.vals)
                rings = rearrange(table.f).piece_measures()[:n]  # without the zero level
                for i, j in groups(n):
                    got, want = table.weight(i, j), fraction_weight(table, rings, i, j)
                    assert struct.pack("<d", got) == struct.pack("<d", want), (f, i, j)
                    pairs += 1
        assert pairs > least, pairs

    def test_tie_corpus_ties_and_repeats_its_errors(self):
        # the corpus reaches what it is for: differences v - floor exactly half
        # an ulp from both neighbours, and layers whose error is -floor
        ties = floors = 0
        for f in tie_corpus():
            vals = _LayerTable(f, qa_phi()).vals
            for floor in vals:
                for v in vals:
                    if v <= 2.0 * floor:
                        break
                    d = v - floor
                    ties += abs(F(v) - F(floor) - F(d)) == F(math.ulp(d)) / 2
                    floors += d == v
        assert ties > 100 and floors > 1000, (ties, floors)


def merged_by_abs_corpus():
    """Signed functions, grids where abs_ merges runs (v beside -v, 0.0 beside
    -0.0), and f == 0 with either sign of zero."""
    quarters = tuple(F(k, 4) for k in range(5))
    return [
        *random_functions(11, 300, signed=True),
        *edge_corpus(31),
        *float_edge_corpus(),
        StepFunction(quarters, (2.5, -2.5, 1.0, -1.0)),
        StepFunction(quarters, (-1.5, 1.5, 0.0, -0.0)),
        StepFunction(quarters, (0.0, -0.0, 3.0, -0.0)),
        StepFunction(quarters, (-0.0, 0.0, -0.0, 0.0)),
        constant(0.0),
        constant(-0.0),
    ]


class TestLayerTableReadsF:
    """_LayerTable(f) reads the cake of |f| off f's own grid, with no abs_
    copy, and answers bitwise what _LayerTable(abs_(f)) answers."""

    def test_same_as_the_table_of_abs(self):
        pieces = 0
        for phi in (qa_phi(), alpha_beta(0.5, 0.7)):
            for f in merged_by_abs_corpus():
                got, want = _LayerTable(f, phi), _LayerTable(abs_(f), phi)
                assert list(map(bits, got.vals)) == list(map(bits, want.vals)), f
                # the lower bound's terms
                assert list(map(bits, got.layer_weights)) == list(map(bits, want.layer_weights)), f
                for i, j in all_groups(len(want.vals)):
                    assert bits(got.weight(i, j)) == bits(want.weight(i, j)), (f, i, j)
                    g, h = got.materialize(i, j), want.materialize(i, j)
                    assert g.breakpoints == h.breakpoints, (f, i, j)
                    assert list(map(bits, g.values)) == list(map(bits, h.values)), (f, i, j)
                    pieces += 1
        assert pieces > 10_000, pieces


def integer_weight(table, i, j):
    """Reference group weight: the integer formula of _LayerTable.weight."""
    vals, above, mass, shift = table.vals, table._above, table._mass, table._shift
    floor = vals[j + 1] if j + 1 < len(vals) else 0.0
    linf = vals[i] - floor
    num, d = linf.as_integer_ratio()
    top = num << (shift + 1 - d.bit_length())
    l1 = top * above[i] + mass[j + 1] - mass[i] - table._sv[j + 1] * (above[j + 1] - above[i])
    for l in range(i, bisect.bisect_left(table._neg_heights, -2.0 * floor, i, j + 1)):
        v = vals[l]
        err = -floor - ((v - floor) - v)
        if err:
            num, d = err.as_integer_ratio()
            l1 -= (num << (shift + 1 - d.bit_length())) * (above[l + 1] - above[l])
    return weighted_sup_bound(linf, l1 / (top * table._den), table.phi)


class TestLayerWeightsAreLorentzTerms:
    """A single layer's weight is its term of the Lorentz sum, bit for bit:
    what the layer split and the lower bound both read."""

    def test_equal_the_cake_terms_and_the_integer_formula(self):
        layers = 0
        for phi in (qa_phi(), alpha_beta(0.5, 0.7)):
            for f in (*merged_by_abs_corpus(), *float_edge_corpus(), *deep_corpus(4)):
                table = _LayerTable(f, phi)
                den, heights, cum = stepfn._layers(f)
                floors = [*heights[1:], 0.0]
                terms = [(a - b) * phi.eval(c / den) for a, b, c in zip(heights, floors, cum)]
                assert list(map(bits, table.layer_weights)) == list(map(bits, terms)), f
                for k, w in enumerate(table.layer_weights):
                    assert bits(w) == bits(integer_weight(table, k, k)), (f, k)
                value = nonneg_fsum(table.layer_weights)
                assert bits(lorentz_norm(f, phi).value) == bits(value), f
                layers += len(terms)
        assert layers > 2000, layers


class TestStructuralInequalities:
    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, f):
        phi, psi = qa_phi(), qa_psi()
        got = qa_upper(f, phi, psi, strategy="layers")
        slack = 1.0 + 1e-12
        base = phi.eval(1.0) * psi.eval(1.0)
        assert base * l1_norm(f) <= got.lower * slack + 1e-300
        assert got.lower <= got.upper * slack
        assert got.upper <= base * linf_norm(f) * slack

    @given(step_functions(signed=True), step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_quasi_triangle(self, f, g):
        phi, psi = qa_phi(), qa_psi()
        lhs = qa_lower(add(f, g), phi, psi)
        rhs = qa_upper(f, phi, psi, strategy="layers").upper + qa_upper(
            g, phi, psi, strategy="layers"
        ).upper
        assert lhs <= 4.0 * rhs * (1.0 + 1e-12)

    @given(step_functions(signed=True))
    @settings(max_examples=40, deadline=None)
    def test_rearrangement_invariant_bitwise(self, f):
        phi, psi = qa_phi(), qa_psi()
        r = rearrange(f)
        assert qa_lower(f, phi, psi) == qa_lower(r, phi, psi)
        assert (
            qa_upper(f, phi, psi, strategy="layers").upper
            == qa_upper(r, phi, psi, strategy="layers").upper
        )


class TestCollapsedRegimes:
    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_constant_psi_closes_the_gap(self, f):
        # with flat slot prices the layer split costs exactly the
        # Lorentz functional, so both bounds meet it
        psi1 = constant_one("psi")
        for phi in (qa_phi(), alpha_beta(0.5, 1.0)):
            got = qa_upper(f, phi, psi1, strategy="layers")
            lam = lorentz_norm(f, phi).value
            assert got.upper == pytest.approx(lam, rel=1e-12, abs=1e-300)
            assert got.lower == pytest.approx(lam, rel=1e-12, abs=1e-300)

    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_identity_phi_reduces_to_l1(self, f):
        for psi in (qa_psi(), psi_gamma(0.5)):
            got = qa_upper(f, identity(), psi, strategy="layers")
            want = psi.eval(1.0) * l1_norm(f)
            assert got.upper == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert got.lower == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestLogDomainMirror:
    def test_matches_float_search_on_moderate_input(self):
        vals = [3.0, 2.0, 1.0]
        rings = [F(1, 4), F(1, 2), F(1, 4)]
        lv = [math.log(v) for v in vals]
        lr = [math.log(float(r)) for r in rings]
        lm = [math.log(v * float(r)) for v, r in zip(vals, rings)]
        table = _LogLayerTable(lv, lr, lm, qa_phi())
        for strategy in ("exhaustive", "local_search"):
            got = math.exp(_search(table, log_price(qa_psi(), 3), strategy)[0])
            want = qa_upper(three_layer(), qa_phi(), qa_psi(), strategy=strategy).upper
            assert got == pytest.approx(want, rel=1e-12)
        lorentz = math.exp(logsumexp(table.layer_weights))
        assert lorentz == pytest.approx(lorentz_norm(three_layer(), qa_phi()).value, rel=1e-12)

    @pytest.mark.parametrize("answer", EARLY_ANSWERS)
    def test_a_log_price_that_exits_early_gives_the_same_bits(self, answer):
        vals = [3.0, 2.0, 1.0]
        rings = [F(1, 4), F(1, 2), F(1, 4)]
        lv = [math.log(v) for v in vals]
        lr = [math.log(float(r)) for r in rings]
        lm = [math.log(v * float(r)) for v, r in zip(vals, rings)]
        table = _LogLayerTable(lv, lr, lm, qa_phi())
        for strategy in STRATEGIES:
            want_total, want_groups = _search(table, log_price(qa_psi(), 3), strategy)
            got_total, got_groups = _search(table, EarlyLogPrice.of(qa_psi(), 3, EARLY_ANSWERS[answer]), strategy)
            assert got_groups == want_groups, strategy
            assert bits(got_total) == bits(want_total), strategy


class TestBeyondFloatRange:
    """Sums past the float range come out as inf, never as OverflowError."""

    F_HUGE = StepFunction((F(0), F(1, 2), F(1)), (1.7e308, 1e308))

    def test_overflowing_candidate_loses_to_a_finite_one(self):
        # the layer split's total overflows; the one-piece cover does not
        got = qa_bounds(self.F_HUGE, qa_phi(), qa_psi())
        assert got.upper == 1.6612069391259734e308
        assert len(got.upper_witness.pieces) == 1
        assert got.lower == lorentz_norm(self.F_HUGE, qa_phi()).value < got.upper

    def test_overflowing_norms_are_inf(self):
        phi = alpha_beta(0.5, 1.0)
        assert lorentz_norm(self.F_HUGE, phi).value == math.inf
        got = qa_bounds(self.F_HUGE, phi, qa_psi())
        assert got.lower == got.upper == math.inf
        assert got.upper_witness.recomputed_cost(phi, qa_psi()) == math.inf
