import json
import math
import operator
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaspace import (
    DomainError,
    IllegalSpec,
    NotInvertible,
    WitnessFunction,
    WitnessSpec,
    alpha_beta,
    build_witness,
    constant_one,
    identity,
    l1_norm_exact,
    lower_bound_value,
    lorentz_norm,
    piecewise,
    psi_gamma,
    qa_phi,
    qa_psi,
    qa_upper,
    witness_lorentz_norm,
    witness_qa_upper,
)
from qaspace.logs import LOG_ZERO, exp_or_inf, logsumexp
from qaspace.qanorm import STRATEGIES, _search
from qaspace import witness as witness_module
from qaspace.witness import _LogLayerTable
from corpora import all_groups, group_sample

PSI1 = constant_one("psi")


def sqrt_phi():
    return alpha_beta(0.5, 0.0)


def sqrt_witness(n=2):
    # gamma(t) = t^(-1/2) inverts in closed form, so every stored
    # quantity has a hand-checkable value
    return build_witness(WitnessSpec(sqrt_phi(), PSI1, N=n, c=0.5, p=1.0))


def qa_witness(n):
    return build_witness(WitnessSpec(qa_phi(), qa_psi(), N=n, c=0.5, p=1.0))


class TestSpecValidation:
    def test_parameter_ranges(self):
        with pytest.raises(IllegalSpec):
            WitnessSpec(qa_phi(), qa_psi(), N=1, c=0.5)
        with pytest.raises(IllegalSpec):
            WitnessSpec(qa_phi(), qa_psi(), N=2.5, c=0.5)
        with pytest.raises(IllegalSpec):
            WitnessSpec(qa_phi(), qa_psi(), N=2, c=1.0)
        with pytest.raises(IllegalSpec):
            WitnessSpec(qa_phi(), qa_psi(), N=2, c=0.5, p=0.0)
        with pytest.raises(IllegalSpec):
            WitnessSpec(qa_phi(), qa_psi(), N=2, c=0.5, mu1=0.6)

    @pytest.mark.parametrize("args, kwargs, message", [
        (("qa_phi", qa_psi(), 3, 0.5), {}, "phi must be a shape, got 'qa_phi'"),
        ((qa_phi(), "qa_psi", 3, 0.5), {}, "psi must be a shape, got 'qa_psi'"),
        ((qa_phi(), qa_psi(), 3, "0.5"), {},
         "the witness spec's 'c': expected a number, got \"0.5\""),
        ((qa_phi(), qa_psi(), 3, None), {}, "the witness spec's 'c': expected a number, got null"),
        ((qa_phi(), qa_psi(), 3, 0.5), {"p": True},
         "the witness spec's 'p': expected a number, got true"),
        ((qa_phi(), qa_psi(), 3, 0.5), {"mu1": "0.25"},
         "the witness spec's 'mu1': expected a number, got \"0.25\""),
        # ints past the float range
        ((qa_phi(), qa_psi(), 3, 10**400), {},
         "the witness spec's 'c': int too large to convert to float"),
        ((qa_phi(), qa_psi(), 3, 0.5, 10**400), {},
         "the witness spec's 'p': int too large to convert to float"),
        ((qa_phi(), qa_psi(), 3, 0.5), {"mu1": 10**400},
         "the witness spec's 'mu1': int too large to convert to float"),
    ])
    def test_parameters_of_the_wrong_type_are_refused_by_name(self, args, kwargs, message):
        with pytest.raises(IllegalSpec) as info:
            WitnessSpec(*args, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [501, 2_000_000_000])
    def test_n_above_the_cap_is_refused_before_any_work(self, n):
        # build_witness iterates 2N steps: N = 2e9 once grew to gigabytes
        class Unread:
            def eval(self, x):
                raise AssertionError("psi was evaluated")

        with pytest.raises(IllegalSpec, match=f"N is capped at 500, got {n}"):
            WitnessSpec(qa_phi(), Unread(), N=n, c=0.5)
        assert WitnessSpec(qa_phi(), qa_psi(), N=500, c=0.5).N == 500

    @pytest.mark.parametrize("psi, message", [
        (qa_phi(), "phi-kind shapes live on [0,1], got 3.0"),
        (piecewise([(0, 0), (1, 1), (2, 1.5)], "psi"),
         "piecewise shape sampled only up to 2.0, got 3.0"),
    ])
    def test_a_psi_that_stops_short_of_n_is_refused(self, psi, message):
        # N^3 psi(N) >= 2 psi(1) holds for every shape that reaches N, by (G1)
        with pytest.raises(DomainError) as info:
            WitnessSpec(qa_phi(), psi, N=3, c=0.5)
        assert str(info.value) == message

    def test_flat_ratio_is_rejected_at_build(self):
        with pytest.raises(NotInvertible):
            build_witness(WitnessSpec(identity(), qa_psi(), N=2, c=0.5))
        # identity's gamma is constant, so it does not decrease at a given mu1
        with pytest.raises(NotInvertible, match="^gamma is not strictly decreasing at mu1$"):
            build_witness(WitnessSpec(identity(), qa_psi(), 3, 0.5, mu1=0.25))
        # constant_one's gamma = 1/t decreases, but its heights stay equal
        with pytest.raises(NotInvertible, match="^heights failed to increase; phi not monotone"):
            build_witness(WitnessSpec(constant_one(), qa_psi(), 3, 0.5))

    def test_layer_count_enforced(self):
        w = sqrt_witness()
        with pytest.raises(IllegalSpec):
            WitnessFunction(w.log_mu[:-1], w.log_a, w.log_gamma, 2, 0.5, 1.0)


class TestBuildChecks:
    """build_witness's safety checks on each answer of log_gamma_inv.  No shape
    in the suite trips them, so a stand-in inverse does."""

    def test_a_measure_that_does_not_halve_is_refused(self, monkeypatch):
        monkeypatch.setattr(witness_module, "log_gamma_inv", lambda phi, target, log_hi: log_hi)
        message = "^measure sequence failed to halve; gamma too flat$"
        with pytest.raises(NotInvertible, match=message):
            qa_witness(2)

    def test_a_measure_off_its_ratio_target_is_refused(self, monkeypatch):
        # one more e-fold down halves the measure but misses log gamma's target
        inverse = witness_module.log_gamma_inv
        monkeypatch.setattr(witness_module, "log_gamma_inv",
                            lambda phi, target, log_hi: inverse(phi, target, log_hi) - 1.0)
        message = r"^recurrence residual \d\.\d{3}e-\d+ out of tolerance$"
        with pytest.raises(NotInvertible, match=message):
            qa_witness(2)


class TestClosedFormFamily:
    def test_measures(self):
        # growth e^(6 log 2) per step and gamma(t) = t^(-1/2) give
        # mu_j = 2^(-(1+12j))
        w = sqrt_witness()
        for j, lm in enumerate(w.log_mu):
            assert lm == pytest.approx(-(1 + 12 * j) * math.log(2.0), abs=1e-9)
        assert math.exp(w.log_mu[1]) == pytest.approx(2.0**-13, rel=1e-9)

    def test_heights(self):
        # a_j = 1 / (2 N sqrt(mu_j))
        w = sqrt_witness()
        assert w.log_a[0] == pytest.approx(-1.5 * math.log(2.0), abs=1e-12)
        for lm, la in zip(w.log_mu, w.log_a):
            assert la == pytest.approx(-math.log(4.0) - 0.5 * lm, abs=1e-9)

    def test_stored_ratio_targets_form_an_arithmetic_ladder(self):
        w = sqrt_witness()
        spec = WitnessSpec(sqrt_phi(), PSI1, N=2, c=0.5, p=1.0)
        step = spec.log_growth()
        for j, lg in enumerate(w.log_gamma):
            assert lg == w.log_gamma[0] + j * step

    def test_materializes(self):
        w = sqrt_witness()
        g = w.to_step_function()
        assert g.pieces == 5
        assert g.values[-1] == 0.0
        want_mass = sum(
            F(math.exp(la)) * F(math.exp(lm))
            for la, lm in zip(w.log_a, w.log_mu)
        )
        assert l1_norm_exact(g) == want_mass

    def test_matches_float_domain_search(self):
        w = sqrt_witness()
        g = w.to_step_function()
        got_up = witness_qa_upper(w, sqrt_phi(), PSI1)
        want_up = qa_upper(g, sqrt_phi(), PSI1, strategy="exhaustive").upper
        assert got_up == pytest.approx(want_up, rel=1e-12)
        got_lz = witness_lorentz_norm(w, sqrt_phi())
        assert got_lz == pytest.approx(
            lorentz_norm(g, sqrt_phi()).value, rel=1e-12
        )

    def test_lorentz_against_extended_precision(self):
        w = sqrt_witness()
        with mpmath.workdps(60):
            mus = [mpmath.mpf(2) ** -(1 + 12 * j) for j in range(4)]
            heights = [1 / (4 * mpmath.sqrt(m)) for m in mus]
            vals = list(reversed(heights))
            # cumulative measures of the rearrangement, deepest layer first
            cums = []
            acc = mpmath.mpf(0)
            for m in reversed(mus):
                acc += m
                cums.append(acc)
            lam = mpmath.mpf(0)
            for k, v in enumerate(vals):
                nxt = vals[k + 1] if k + 1 < len(vals) else mpmath.mpf(0)
                lam += (v - nxt) * mpmath.sqrt(cums[k])
            want = float(lam)
        assert witness_lorentz_norm(w, sqrt_phi()) == pytest.approx(want, rel=1e-9)


class TestDeepFamily:
    def test_anchors(self):
        uppers = {
            2: 1.7945134575869832,
            3: 2.096541868668349,
            8: 2.9169912566299976,
        }
        for n, want in uppers.items():
            w = qa_witness(n)
            assert witness_qa_upper(w, qa_phi(), qa_psi()) == pytest.approx(
                want, rel=1e-9
            )
            assert witness_lorentz_norm(w, qa_phi()) == pytest.approx(1.0, rel=1e-12)

    def test_lorentz_against_extended_precision(self):
        # replay the construction exactly in 80-digit arithmetic:
        # ratio targets are an arithmetic ladder, measures come from
        # inverting 1 - log t, heights from 1/(2 N phi(mu))
        w = qa_witness(2)
        with mpmath.workdps(80):
            n2 = 4
            growth = (3 * mpmath.log(2) + mpmath.log(1 + mpmath.log(2))) / mpmath.mpf("0.5")
            lg1 = mpmath.log(1 - mpmath.log(mpmath.mpf(1) / 2))
            mus = [mpmath.exp(1 - mpmath.exp(lg1 + j * growth)) for j in range(n2)]
            phis = [m * (1 - mpmath.log(m)) for m in mus]
            heights = [1 / (4 * p) for p in phis]
            vals = list(reversed(heights))
            cums = []
            acc = mpmath.mpf(0)
            for m in reversed(mus):
                acc += m
                cums.append(acc)
            lam = mpmath.mpf(0)
            for k, v in enumerate(vals):
                nxt = vals[k + 1] if k + 1 < len(vals) else mpmath.mpf(0)
                lam += (v - nxt) * cums[k] * (1 - mpmath.log(cums[k]))
            want = float(lam)
        assert witness_lorentz_norm(w, qa_phi()) == pytest.approx(want, rel=1e-9)

    def test_too_deep_to_materialize(self):
        with pytest.raises(DomainError):
            qa_witness(2).to_step_function()

    def test_invariants_across_sizes(self):
        for n in (2, 5, 8):
            spec = WitnessSpec(qa_phi(), qa_psi(), N=n, c=0.5, p=1.0)
            w = build_witness(spec)
            step = spec.log_growth()
            halving = math.log(2.0) - 1e-9
            for a, b in zip(w.log_mu, w.log_mu[1:]):
                assert b <= a - halving
            assert all(b > a for a, b in zip(w.log_a, w.log_a[1:]))
            for j, lm in enumerate(w.log_mu):
                target = w.log_gamma[0] + j * step
                err = abs(qa_phi().log_gamma_eval(lm) - target)
                assert err <= 1e-8 * max(1.0, abs(target))

    def test_flat_psi_upper_equals_lorentz_bitwise(self):
        for n in (2, 5, 8):
            w = build_witness(WitnessSpec(qa_phi(), PSI1, N=n, c=0.5, p=1.0))
            up = witness_qa_upper(w, qa_phi(), PSI1)
            assert up == witness_lorentz_norm(w, qa_phi())

    def test_upper_clears_the_guaranteed_floor(self):
        for n in range(2, 9):
            spec = WitnessSpec(qa_phi(), qa_psi(), N=n, c=0.5, p=1.0)
            w = build_witness(spec)
            assert witness_qa_upper(w, qa_phi(), qa_psi()) >= lower_bound_value(spec)

    def test_strategies_agree_on_small_builds(self):
        w = qa_witness(2)
        auto = witness_qa_upper(w, qa_phi(), qa_psi(), strategy="auto")
        ex = witness_qa_upper(w, qa_phi(), qa_psi(), strategy="exhaustive")
        loc = witness_qa_upper(w, qa_phi(), qa_psi(), strategy="local_search")
        assert auto == ex
        assert loc >= ex

    def test_bounds_past_the_float_range_are_inf(self):
        # the one piece's log cost is 1842.35 and the heights reach e^6131;
        # the grouped bound stays finite
        phi = alpha_beta(0.7, 0.75)
        w = build_witness(WitnessSpec(phi, qa_psi(), N=50, c=0.5))
        assert witness_qa_upper(w, phi, qa_psi(), strategy="singleton") == math.inf
        assert math.isfinite(witness_qa_upper(w, phi, qa_psi()))
        # with a flat phi the Lorentz norm is the top height
        assert witness_lorentz_norm(w, constant_one()) == math.inf
        assert witness_lorentz_norm(w, phi) == pytest.approx(1.0)


def per_term_log_weight(table, i, j):
    """Reference log group weight: every term with its own damping, as the
    weight was first written."""
    log_vals, log_rings, log_masses = table.log_vals, table.log_rings, table.log_masses
    lfloor = log_vals[j + 1] if j + 1 < len(log_vals) else LOG_ZERO
    terms = []
    for l in range(j + 1):
        m = max(l, i)
        base = log_masses[m] if l >= i else log_masses[i] + (log_rings[l] - log_rings[i])
        damp = math.log1p(-math.exp(lfloor - log_vals[m])) if lfloor > LOG_ZERO else 0.0
        terms.append(base + damp)
    log_l1 = logsumexp(terms)
    if log_l1 == LOG_ZERO:
        return LOG_ZERO
    # log(vals[i] - floor), the group's height
    log_height = log_vals[i]
    if lfloor > LOG_ZERO:
        log_height += math.log1p(-math.exp(lfloor - log_vals[i]))
    log_ratio = min(0.0, log_l1 - log_height)
    return log_l1 + table.phi.log_gamma_eval(log_ratio)


class TestLogLayerWeights:
    def test_the_log_sums_refuse_what_has_no_log(self):
        # the empty sum is 0
        with pytest.raises(ValueError, match="^logsumexp needs at least one value$"):
            logsumexp([])

    def test_match_the_per_term_reference_bitwise(self):
        tables = [
            (_LogLayerTable.from_witness(build_witness(WitnessSpec(phi, psi, N=n, c=0.5)), phi),
             all_groups)
            for phi in (qa_phi(), alpha_beta(0.5, 0.7))
            for psi in (qa_psi(), PSI1)
            for n in (2, 5, 10)
        ]
        phi = alpha_beta(0.7, 0.75)
        deep = build_witness(WitnessSpec(phi, qa_psi(), N=50, c=0.5))
        tables.append((_LogLayerTable.from_witness(deep, phi), group_sample))
        # a witness's rings shrink so fast that the terms below i vanish in
        # the sum; with rings of one size they weigh in
        rng = random.Random(3)
        for phi in (qa_phi(), alpha_beta(0.5, 0.7)):
            for _ in range(10):
                lv = sorted((rng.uniform(-5.0, 5.0) for _ in range(12)), reverse=True)
                lr = [rng.uniform(-3.0, -2.0) for _ in lv]
                lm = list(map(operator.add, lv, lr))
                tables.append((_LogLayerTable(lv, lr, lm, phi), all_groups))
        weights = 0
        for table, groups in tables:
            for i, j in groups(len(table.layer_weights)):
                got, want = table.weight(i, j), per_term_log_weight(table, i, j)
                assert got.hex() == want.hex(), (table.log_vals, i, j)
                weights += 1
        assert weights > 2000, weights


@st.composite
def log_terms(draw):
    """Non-empty lists of logs: finite ones up to 1e300 in magnitude, -inf,
    and repeats of drawn entries, so that the largest term can tie."""
    entry = st.floats(-1e300, 1e300) | st.floats(-50.0, 50.0) | st.just(LOG_ZERO)
    xs = draw(st.lists(entry, min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(xs), max_size=6))
    return draw(st.permutations(xs + repeats))


class TestLogSumExpBound:
    """logsumexp is never below its largest term, bit for bit: the fact that
    lets witness_qa_upper's price answer with its largest term."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(log_terms())
    @example([0.0])
    @example([1e300])
    @example([-1e300])
    @example([LOG_ZERO])
    @example([LOG_ZERO, LOG_ZERO])
    @example([LOG_ZERO, -1e300])
    @example([1e300, 1e300, 1e300])
    @example([-1e300, 1e300])
    @example([0.1] * 1000)
    @example([-745.0, 0.0, -745.0, 5e-324])
    def test_never_below_the_largest_term(self, xs):
        assert logsumexp(xs) >= max(xs)


class TestSharedLogTable:
    def test_one_table_for_the_norm_and_the_upper_bound(self, monkeypatch):
        built = []
        init = _LogLayerTable.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(_LogLayerTable, "__init__", counted)
        phi, psi = alpha_beta(0.6, 0.3), qa_psi()
        # a mu1 that no other test builds from, so no cached table is reused
        w = build_witness(WitnessSpec(phi, psi, N=6, c=0.45, mu1=0.2))
        lorentz = witness_lorentz_norm(w, phi)
        uppers = [witness_qa_upper(w, phi, psi, s) for s in ("auto", "local_search")]
        assert len(built) == 1
        assert lorentz == math.exp(logsumexp(built[0].layer_weights))
        assert lorentz <= min(uppers)

    def test_a_witness_given_lists_keeps_tuples_and_is_a_cache_key(self):
        w = qa_witness(3)
        again = WitnessFunction(list(w.log_mu), list(w.log_a), list(w.log_gamma), w.N, w.c, w.p)
        assert again == w and type(again.log_mu) is tuple
        assert witness_lorentz_norm(again, qa_phi()) == witness_lorentz_norm(w, qa_phi())
        assert witness_qa_upper(again, qa_phi(), qa_psi()) == witness_qa_upper(w, qa_phi(), qa_psi())


class TestEarlyPrice:
    def test_the_upper_bound_is_the_full_pricings_bit_for_bit(self):
        # witness_qa_upper's price answers early above its bound; a price
        # that always sums in full must find the same total
        for phi, psi in ((qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4)),
                         (alpha_beta(0.7, 0.75), qa_psi())):
            for n in (2, 3, 5, 8):
                w = build_witness(WitnessSpec(phi, psi, N=n, c=0.5))
                table = _LogLayerTable.from_witness(w, phi)
                log_psi_at = [math.log(psi.eval(float(r + 1))) for r in range(2 * n)]

                def full(ws, bound):
                    return logsumexp(map(operator.add, log_psi_at, ws))

                for strategy in STRATEGIES:
                    if strategy == "exhaustive" and 2 * n > 10:
                        continue
                    want = exp_or_inf(_search(table, full, strategy)[0])
                    got = witness_qa_upper(w, phi, psi, strategy)
                    assert got.hex() == want.hex(), (phi, psi, n, strategy)


class TestSerialization:
    def test_floor_value(self):
        # (2^c - 1)/8 psi(2) to 50 digits; 2.0**c - 1.0 cancelled at a small c,
        # to 0.0 from about c = 1e-16
        for c in (0.5, 1e-9, 1e-30):
            got = lower_bound_value(WitnessSpec(qa_phi(), qa_psi(), N=2, c=c, p=1.0))
            with mpmath.workdps(50):
                want = mpmath.expm1(c * mpmath.log(2)) / 8 * (1 + mpmath.log(2))
                assert abs(got - want) <= math.ulp(got), c

    def test_json_roundtrip(self):
        w = qa_witness(2)
        blob = json.loads(json.dumps(w.to_json()))
        again = WitnessFunction(
            tuple(blob["log_mu"]),
            tuple(blob["log_a"]),
            tuple(blob["log_gamma"]),
            blob["N"],
            blob["c"],
            blob["p"],
        )
        assert again == w

    def test_explicit_mu1(self):
        w = build_witness(WitnessSpec(qa_phi(), qa_psi(), N=2, c=0.5, mu1=0.25))
        assert w.log_mu[0] == math.log(0.25)
