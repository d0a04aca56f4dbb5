import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaspace import (
    DomainError,
    NonPositiveValue,
    NotInvertible,
    SequenceSpec,
    SpecParseError,
    alpha_beta,
    alpha_s,
    check_seq_conditions,
    constant_one,
    equivalence,
    gamma,
    gamma_exp,
    identity,
    iterated_log_profile,
    log_tau,
    omega_n,
    phi_s,
    piecewise,
    psi_gamma,
    qa_phi,
    qa_psi,
    reciprocal,
    sample_sequence,
    tau,
)
from qaspace.embeddings import _SEQUENCE_KEYS, _term_table, log_grid
from qaspace.shapes import log_gamma


class TestTau:
    def test_formula(self):
        t = 0.25
        phi, psi = qa_phi(), qa_psi()
        want = phi.eval(t) * psi.eval(1.0 + math.log(gamma(phi, t)))
        assert tau(phi, psi, t) == want

    def test_anchor(self):
        t = math.exp(1.0 - math.e)
        assert tau(qa_phi(), qa_psi(), t) == 0.8255604463977178

    def test_edges(self):
        assert tau(qa_phi(), qa_psi(), 0.0) == 0.0
        assert tau(qa_phi(), qa_psi(), 1.0) == 1.0
        with pytest.raises(DomainError):
            tau(qa_phi(), qa_psi(), 1.5)

    def test_flat_psi_collapses_to_phi(self):
        psi1 = constant_one("psi")
        for t in log_grid(1e-9, 1.0, 30):
            assert tau(qa_phi(), psi1, t) == qa_phi().eval(t)

    def test_identity_phi_prices_slot_one(self):
        # gamma == 1 keeps the slot argument at its floor
        for t in (0.1, 0.5, 1.0):
            assert tau(identity(), qa_psi(), t) == t

    @given(st.floats(1e-9, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_log_form_agrees(self, t):
        got = math.exp(log_tau(qa_phi(), qa_psi(), math.log(t)))
        assert got == pytest.approx(tau(qa_phi(), qa_psi(), t), rel=1e-12)

    def test_log_form_below_float_range(self):
        lt = -1e6
        got = log_tau(qa_phi(), qa_psi(), lt)
        want = qa_phi().log_eval(lt) + math.log(
            qa_psi().eval(1.0 + math.log(1.0 - lt))
        )
        assert got == want


class TestSequences:
    @pytest.mark.parametrize("spec", [
        {"kind": "reciprocal"},
        {"kind": "gamma_exp", "phi": {"family": "alpha_beta", "alpha": 0.5, "beta": 0.7}},
        {"kind": "samples", "points": [[1, 0.9], [2.5, 0.5], [10, 1e-3]]},
    ])
    def test_json_round_trip(self, spec):
        seq = SequenceSpec.from_json(spec)
        assert SequenceSpec.from_json(seq.to_json()) == seq
        assert seq.to_json() == SequenceSpec.from_json(spec, phi=qa_phi()).to_json()

    SPECS = (
        {"kind": "reciprocal"},
        {"kind": "gamma_exp", "phi": {"family": "alpha_beta", "alpha": 0.5, "beta": 0.7}},
        {"kind": "samples", "points": [[1, 0.9], [2.5, 0.5], [10, 1e-3]]},
    )

    @pytest.mark.parametrize("spec", SPECS)
    def test_hash_is_kept_by_equality_and_pickle(self, spec):
        seq = SequenceSpec.from_json(spec)
        twin = SequenceSpec.from_json(spec)
        assert twin == seq and twin is not seq and hash(twin) == hash(seq)
        back = pickle.loads(pickle.dumps(seq))
        assert back == seq and hash(back) == hash(seq)

    def test_pickled_hash_follows_the_loading_process(self):
        # string hashes differ between processes, so a pickle must not carry
        # the hash computed where it was dumped
        payload = pickle.dumps([SequenceSpec.from_json(spec) for spec in self.SPECS])
        code = (
            "import pickle, sys\n"
            "from qaspace import SequenceSpec\n"
            "back = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = [SequenceSpec.from_json(s) for s in {self.SPECS!r}]\n"
            "assert [hash(b) for b in back] == [hash(f) for f in fresh]\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], input=payload, env=env, check=True)

    def test_gamma_exp_json_takes_the_given_phi(self):
        assert SequenceSpec.from_json({"kind": "gamma_exp"}, qa_phi()) == gamma_exp(qa_phi())
        with pytest.raises(SpecParseError, match="'phi': missing from the gamma_exp"):
            SequenceSpec.from_json({"kind": "gamma_exp"})

    @pytest.mark.parametrize("spec, message", [
        ("reciprocal", 'sequence spec must be an object, got "reciprocal"'),
        ({"kind": "nope"}, "'kind': unknown sequence kind \"nope\""),
        ({"kind": "reciprocal", "phi": {"family": "qa_phi"}},
         "unknown keys for the reciprocal sequence spec: ['phi']"),
        ({"kind": "samples"}, "'points': missing from the samples sequence spec"),
        ({"kind": "samples", "points": [[1, 0.5], [2, False]]},
         "'points[1][1]': expected a number, got false"),
        ({"kind": "samples", "points": [[1, 0.5, 0], [2, 0.25]]},
         "'points[0]': expected an [x, y] pair, got [1, 0.5, 0]"),
        ({"kind": "samples", "points": [[1, 0.5], [2, 1.5]]},
         "'points': sample values must lie in (0,1]"),
        ({"kind": "gamma_exp", "phi": {"family": "alpha_beta", "alpha": "1", "beta": 1}},
         "'phi.alpha': expected a number, got \"1\""),
    ])
    def test_json_refusals_name_the_key_path(self, spec, message):
        with pytest.raises(SpecParseError) as info:
            SequenceSpec.from_json(spec, qa_phi())
        assert str(info.value) == message

    # each constructor parameter by the JSON key that carries it, with a value;
    # this phi has log gamma(1) > 0, so its gamma_exp sequence starts above 1
    PARAMS = {"phi": ("phi", alpha_beta(0.5, 0.9)),
              "points": ("samples", ((1.5, 0.9), (2.5, 0.5), (10.0, 1e-3)))}

    def taken(self, kind):
        """The constructor parameters of kind, from its JSON keys."""
        required, optional = _SEQUENCE_KEYS[kind]
        return dict(self.PARAMS[key] for key in (*required, *optional))

    def test_params_cover_every_field(self):
        names = {name for name, _ in self.PARAMS.values()}
        assert {f.name for f in fields(SequenceSpec)} == {"kind", *names}

    @pytest.mark.parametrize("kind", list(_SEQUENCE_KEYS))
    def test_parameters_the_kind_does_not_take_are_refused(self, kind):
        taken = self.taken(kind)
        for name, value in self.PARAMS.values():
            if name in taken:
                rest = {k: v for k, v in taken.items() if k != name}
                with pytest.raises(SpecParseError, match=f"^a {kind} sequence needs {name}$"):
                    SequenceSpec(kind, **rest)
            else:
                with pytest.raises(SpecParseError, match=f"^a {kind} sequence takes no {name}$"):
                    SequenceSpec(kind, **taken, **{name: value})

    @pytest.mark.parametrize("kind", list(_SEQUENCE_KEYS))
    def test_domain_start_is_derived_not_set(self, kind):
        with pytest.raises(TypeError, match="domain_start"):
            SequenceSpec(kind, **self.taken(kind), domain_start=1.0)

    @pytest.mark.parametrize("kind", list(_SEQUENCE_KEYS))
    def test_constructor_built_specs_round_trip(self, kind):
        seq = SequenceSpec(kind, **self.taken(kind))
        for back in (SequenceSpec.from_json(seq.to_json()), pickle.loads(pickle.dumps(seq))):
            assert back == seq and hash(back) == hash(seq)
            assert back.domain_start == seq.domain_start

    def test_gamma_exp_spec_is_the_factorys(self):
        phi = alpha_beta(0.5, 0.9)
        seq = SequenceSpec("gamma_exp", phi=phi)
        assert seq == gamma_exp(phi) and seq.domain_start == 1.129007998411907
        assert phi_s(phi, qa_psi(), seq, 0.01) == (1.424704826452518, 5)

    def test_reciprocal(self):
        s = reciprocal()
        assert s.value(4.0) == 0.25
        assert s.log_value(4.0) == -math.log(4.0)
        assert s.inverse(0.25) == 4.0
        with pytest.raises(DomainError):
            s.value(0.5)

    @pytest.mark.parametrize("seq", [
        reciprocal(), gamma_exp(qa_phi()), sample_sequence([(1, 0.9), (2, 0.5), (10, 1e-3)]),
    ])
    def test_nan_is_outside_the_domain(self, seq):
        for evaluate in (seq.value, seq.log_value):
            with pytest.raises(DomainError, match="got nan"):
                evaluate(math.nan)

    def test_gamma_exp_hits_exact_ratio_targets(self):
        phi = qa_phi()
        s = gamma_exp(phi)
        assert s.domain_start == 1.0
        for x in (1.0, 2.5, 7.0, 40.0):
            assert log_gamma(phi, s.log_value(x)) == pytest.approx(
                x - 1.0, rel=1e-11, abs=1e-11
            )

    def test_gamma_exp_starts_at_one(self):
        # x - 1 at the domain start can round past log gamma(1); s is 1 there
        grid = [round(0.05 * k, 2) for k in range(21)]
        for a in grid[1:]:
            for b in grid:
                s = gamma_exp(alpha_beta(a, b))
                if (a, b) == (1.0, 0.0):
                    # gamma == 1 is flat, so it has no inverse
                    with pytest.raises(NotInvertible):
                        s.log_value(s.domain_start)
                else:
                    assert s.log_value(s.domain_start) == 0.0, (a, b)

    def test_gamma_exp_inverse(self):
        phi = qa_phi()
        s = gamma_exp(phi)
        t = 1e-6
        assert s.inverse(t) == 1.0 + log_gamma(phi, math.log(t))
        # values above the first sequence entry clip to the domain start
        assert s.inverse(1.0) == 1.0

    def test_samples_interpolate_and_invert(self):
        s = sample_sequence([(1.0, 0.8), (2.0, 0.4), (4.0, 0.1)])
        assert s.value(1.5) == pytest.approx(0.6)
        assert s.value(3.0) == pytest.approx(0.25)
        assert s.inverse(0.6) == pytest.approx(1.5)
        with pytest.raises(DomainError):
            s.value(5.0)
        with pytest.raises(DomainError):
            s.inverse(0.05)

    def test_samples_keep_each_knot_and_stay_positive(self):
        # s0 + (s1 - s0) * 1 rounds 0.01 + (1e-200 - 0.01) to 0.0
        s = sample_sequence([(1, 0.9), (10, 0.01), (400, 1e-200)])
        assert (s.value(1.0), s.value(10.0), s.value(400.0)) == (0.9, 0.01, 1e-200)
        assert s.log_value(400.0) == math.log(1e-200)
        values = [s.value(x) for x in (*range(1, 401), math.nextafter(400.0, 0.0))]
        assert min(values) == 1e-200
        assert all(b <= a for a, b in zip(values, values[1:-1]))

    def test_samples_validation(self):
        with pytest.raises(Exception):
            sample_sequence([(1.0, 0.5)])
        with pytest.raises(Exception):
            sample_sequence([(1.0, 0.5), (1.0, 0.4)])
        with pytest.raises(Exception):
            sample_sequence([(1.0, 0.5), (2.0, 1.5)])

    def test_non_decreasing_samples_not_invertible(self):
        s = sample_sequence([(1.0, 0.5), (2.0, 0.5), (3.0, 0.2)])
        with pytest.raises(NotInvertible):
            s.inverse(0.3)


def brute_phi_s(phi, psi, seq, t, n_max):
    """phi_s's value and index from every term max{s_n, t} gamma(s_n) psi(n), n by n."""
    lt, top = math.log(t), log_gamma(phi, -math.inf)
    best = (math.inf, 0)
    for n in range(max(1, math.ceil(seq.domain_start - 1e-12)), n_max + 1):
        if seq.kind == "gamma_exp":
            if n - 1.0 > top:  # no s_n has gamma(s_n) = e^(n-1)
                break
            lg = n - 1.0  # log gamma(s_n), by the sequence's definition
            try:
                ls = seq.log_value(float(n))
            except NotInvertible:  # s_n below every float, or gamma constant
                ls = -math.inf
        else:
            try:
                ls = seq.log_value(float(n))
            except DomainError:  # past the last sample
                break
            lg = log_gamma(phi, ls)
        term = max(ls, lt) + (lg + math.log(psi.eval(float(n))))
        if term < best[0]:
            best = (term, n)
    return math.exp(best[0]), best[1]


class TestPhiS:
    @pytest.mark.parametrize("n_max", [1_000_001, 10**300])
    def test_n_max_above_the_cap_is_refused_before_the_table(self, n_max):
        # a reciprocal table is built out to n_max: 10^300 rows would never end
        _term_table.cache_clear()
        with pytest.raises(DomainError, match="n_max is capped at 1000000 terms"):
            phi_s(qa_phi(), qa_psi(), reciprocal(), 0.5, n_max=n_max)
        assert _term_table.cache_info().currsize == 0

    def test_zero(self):
        got = phi_s(qa_phi(), qa_psi(), reciprocal(), 0.0)
        assert got.value == 0.0 and got.n == 0

    def test_never_beats_any_single_term(self):
        phi, psi, seq = qa_phi(), qa_psi(), reciprocal()
        t = 0.01
        got = phi_s(phi, psi, seq, t)
        for n in (1, 2, 5, 17, 100, 1000):
            s_n = seq.value(float(n))
            term = max(s_n, t) * gamma(phi, s_n) * psi.eval(float(n))
            assert got.value <= term * (1.0 + 1e-12)

    def test_achieving_index_reported(self):
        phi, psi, seq = qa_phi(), qa_psi(), reciprocal()
        got = phi_s(phi, psi, seq, 0.01)
        s_n = seq.value(float(got.n))
        term = max(s_n, 0.01) * gamma(phi, s_n) * psi.eval(float(got.n))
        assert got.value == pytest.approx(term, rel=1e-12)

    def test_truncation_is_stable(self):
        phi, psi, seq = qa_phi(), qa_psi(), reciprocal()
        for t in (0.5, 0.01, 1e-3):
            a = phi_s(phi, psi, seq, t, n_max=10_000)
            b = phi_s(phi, psi, seq, t, n_max=20_000)
            assert a.value == b.value

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_s(qa_phi(), qa_psi(), reciprocal(), 1.5)

    def test_n_max_below_the_first_index(self):
        with pytest.raises(DomainError, match="n_max -5"):
            phi_s(qa_phi(), qa_psi(), reciprocal(), 0.5, n_max=-5)

    def test_gamma_exp_ends_where_a_bounded_ratio_tops_out(self):
        # gamma is at most 2, so only n = 1 (s_1 = 1) has an s_n with
        # gamma(s_n) = e^(n-1); later indices would price terms of no s_n
        phi = piecewise([(0, 0), (0.25, 0.5), (1, 1)])
        seq = gamma_exp(phi)
        assert phi_s(phi, qa_psi(), seq, 0.01, n_max=50) == (1.0, 1)
        assert _term_table(phi, qa_psi(), seq, 50)[1] == ((0.0, 0.0),)

    def test_gamma_exp_without_an_index_is_refused(self):
        # gamma stays below 1 = e^(1-1), so the sequence has no value at all
        phi = piecewise([(0, 0), (0.5, 0.3), (1, 0.4)])
        with pytest.raises(DomainError, match="no value at an index from 1 to 50"):
            phi_s(phi, qa_psi(), gamma_exp(phi), 0.01, n_max=50)

    def test_gamma_exp_table_ends_below_the_float_range(self):
        # log s_n = 1 - e^(n-1) for qa_phi: s_8 is below every float t, and from
        # n = 711 (e^710 overflows) log s_n itself is, so brute_phi_s takes -inf
        phi, psi = qa_phi(), qa_psi()
        seq = gamma_exp(phi)
        rows = _term_table(phi, psi, seq, 800)[1]
        assert len(rows) == 8
        assert rows[-1][0] < math.log(5e-324) <= rows[-2][0]
        for t in (5e-324, 1e-300, 1e-20, 0.01, 1.0):
            assert phi_s(phi, psi, seq, t, n_max=800) == brute_phi_s(phi, psi, seq, t, 800)

    @pytest.mark.parametrize("phi, psi, seq", [
        (qa_phi(), qa_psi(), gamma_exp(qa_phi())),
        (alpha_beta(0.5, 0.7), psi_gamma(0.4), gamma_exp(alpha_beta(0.5, 0.7))),
        (alpha_beta(1.0, 0.6), qa_psi(), gamma_exp(alpha_beta(1.0, 0.6))),
        (alpha_beta(1.0, 0.001), qa_psi(), gamma_exp(alpha_beta(1.0, 0.001))),
        (identity(), qa_psi(), gamma_exp(identity())),
        (qa_phi(), qa_psi(), reciprocal()),
        (alpha_beta(0.5, 0.7), psi_gamma(0.4), reciprocal()),
        (qa_phi(), psi_gamma(0.4),
         sample_sequence([(1, 0.9), (3, 0.5), (50, 1e-3), (290, 1e-30)])),
        (alpha_beta(0.5, 0.7), qa_psi(), sample_sequence([(1, 1.0), (20, 1e-6), (40, 1e-300)])),
    ])
    @pytest.mark.parametrize("t", [5e-324, 1e-300, 1e-20, 1e-3, 0.3, 1.0])
    def test_equals_the_least_term_over_every_index(self, phi, psi, seq, t):
        assert phi_s(phi, psi, seq, t, n_max=300) == brute_phi_s(phi, psi, seq, t, 300)

    def test_rising_sequence_is_refused(self):
        seq = sample_sequence([(1.0, 0.5), (2.0, 0.6), (3.0, 0.1)])
        with pytest.raises(DomainError, match="rises at index 2"):
            phi_s(qa_phi(), qa_psi(), seq, 0.01, n_max=3)

    def test_psi_sampled_short_is_refused_only_past_its_end(self):
        # psi ends at 10 and s_n = 1/n: t = 0.5 reads the terms up to k = 3,
        # t = 0.01 needs the one at n = 101, which psi cannot price
        phi, seq = qa_phi(), reciprocal()
        psi = piecewise([(0, 0), (1, 1), (10, 2)], kind="psi")
        assert phi_s(phi, psi, seq, 0.5, n_max=50) == brute_phi_s(phi, psi, seq, 0.5, 10)
        with pytest.raises(DomainError, match=r"sampled only up to 10\.0, got 11\.0"):
            phi_s(phi, psi, seq, 0.01, n_max=50)


class TestAlphaS:
    def test_gamma_exp_reproduces_tau_bitwise(self):
        phi, psi = qa_phi(), qa_psi()
        seq = gamma_exp(phi)
        for t in log_grid(1e-300, 1.0, 200):
            assert alpha_s(phi, psi, seq, t) == tau(phi, psi, t)

    def test_reciprocal_form(self):
        phi, psi = qa_phi(), qa_psi()
        t = 0.125
        assert alpha_s(phi, psi, reciprocal(), t) == phi.eval(t) * psi.eval(1.0 / t)

    def test_edges(self):
        assert alpha_s(qa_phi(), qa_psi(), reciprocal(), 0.0) == 0.0
        with pytest.raises(DomainError):
            alpha_s(qa_phi(), qa_psi(), reciprocal(), 2.0)


class TestSeqConditions:
    def test_gamma_exp_passes(self):
        phi, psi = qa_phi(), qa_psi()
        grid = [1.0 + 39.0 * i / 199 for i in range(200)]
        rep = check_seq_conditions(phi, psi, gamma_exp(phi), grid)
        assert rep.passed
        # consecutive ratio targets differ by one, so the step constant is e
        assert rep.step_ratio_constant == pytest.approx(math.e, rel=1e-9)

    def test_reciprocal_needs_a_long_grid(self):
        # the product phi(1/x) decays like log(x)/x: ten-fold decay
        # only shows up once the grid reaches past x ~ 60
        phi, psi1 = qa_phi(), constant_one("psi")
        short = check_seq_conditions(
            phi, psi1, reciprocal(), [1.0 + 39.0 * i / 99 for i in range(100)]
        )
        assert not short.product_tends_to_zero
        longer = [1.0 + 199.0 * i / 299 for i in range(300)]
        assert check_seq_conditions(phi, psi1, reciprocal(), longer).passed

    def test_non_decreasing_samples_flagged(self):
        s = sample_sequence([(1.0, 0.5), (2.0, 0.6), (3.0, 0.1)])
        rep = check_seq_conditions(
            qa_phi(), qa_psi(), s, [1.0, 1.5, 2.0, 2.5, 3.0]
        )
        assert not rep.monotone_decreasing
        assert not rep.passed

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_seq_conditions(qa_phi(), qa_psi(), reciprocal(), [1.0, 2.0])
        with pytest.raises(ValueError):
            check_seq_conditions(qa_phi(), qa_psi(), reciprocal(), [1.0, 3.0, 2.0])

    @pytest.mark.parametrize("xmax", [1_000_001.0, 1e308, math.inf])
    def test_long_step_ratio_scan_is_refused_before_any_term(self, monkeypatch, xmax):
        # one log_gamma per integer up to xmax: 1e308 of them would never end
        def unread(self, x):
            raise AssertionError("a term was evaluated")

        monkeypatch.setattr(SequenceSpec, "log_value", unread)
        with pytest.raises(DomainError, match="step-ratio scan is capped at 1000000 integers"):
            check_seq_conditions(qa_phi(), qa_psi(), reciprocal(), [1.0, 2.0, xmax])


class TestEquivalence:
    def test_identical_functions(self):
        rep = equivalence(math.sqrt, math.sqrt, 1e-6, 1.0)
        assert rep.ratio_min == rep.ratio_max == 1.0
        assert rep.spread == 1.0
        assert rep.equivalent is None

    def test_threshold_verdict(self):
        # the spread measures ratio variation: sqrt(t)/t swings by 100x
        # over [1e-4, 1], a constant multiple would not register at all
        f, g = math.sqrt, lambda t: t
        assert equivalence(f, g, 1e-4, 1.0, threshold=200.0).equivalent is True
        assert equivalence(f, g, 1e-4, 1.0, threshold=10.0).equivalent is False
        two = lambda t: 2.0 * math.sqrt(t)
        assert equivalence(f, two, 1e-4, 1.0, threshold=1.5).equivalent is True

    def test_grid_endpoints_exact(self):
        rep = equivalence(math.sqrt, math.sqrt, 1e-6, 0.5, points=17)
        assert rep.grid[0] == 1e-6 and rep.grid[-1] == 0.5
        assert len(rep.grid) == 17

    def test_rejects_non_positive_samples(self):
        with pytest.raises(NonPositiveValue):
            equivalence(lambda t: 0.0, math.sqrt, 1e-6, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            equivalence(math.sqrt, math.sqrt, 0.5, 0.1)
        with pytest.raises(DomainError, match="threshold is nan"):
            equivalence(math.sqrt, math.sqrt, 1e-6, 1.0, threshold=math.nan)


class TestIteratedLogProfile:
    def test_shallow_alpha_uses_double_log(self):
        prof = iterated_log_profile(0.5, 1.0, 1.0)
        t = 1e-6
        level1 = 1.0 - math.log(t)
        want = t**0.5 * level1 * (1.0 + math.log(level1))
        assert prof(t) == want

    def test_alpha_one_uses_triple_log(self):
        prof = iterated_log_profile(1.0, 1.0, 1.0)
        t = 1e-6
        level1 = 1.0 - math.log(t)
        level2 = 1.0 + math.log(level1)
        want = t * level1 * (1.0 + math.log(level2))
        assert prof(t) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            iterated_log_profile(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            iterated_log_profile(1.0, 0.0, 1.0)
        prof = iterated_log_profile(0.5, 0.0, 1.0)
        assert prof(0.0) == 0.0
        with pytest.raises(DomainError):
            prof(2.0)


class TestOmega:
    @staticmethod
    def witness():
        from qaspace import WitnessSpec, build_witness

        return build_witness(WitnessSpec(qa_phi(), qa_psi(), N=2, c=0.5, p=1.0))

    def test_same_shape_gives_one(self):
        assert omega_n(qa_phi(), qa_phi(), self.witness()) == 1.0

    def test_shrinking_shape_anchor(self):
        got = omega_n(alpha_beta(1.0, 0.1), qa_phi(), self.witness())
        assert got == pytest.approx(0.6225507482175058, rel=1e-9)

    def test_flat_shape_blows_up(self):
        assert omega_n(constant_one(), qa_phi(), self.witness()) == math.inf

    def test_linear_shape_peaks_at_shallowest_measure(self):
        # phi_x(t) = t has flat ratio 1, so the sup sits where phi's own
        # ratio is smallest, at the largest measure
        w = self.witness()
        got = omega_n(alpha_beta(1.0, 0.0), qa_phi(), w)
        want = math.exp(-min(qa_phi().log_gamma_eval(lm) for lm in w.log_mu))
        assert got == want
