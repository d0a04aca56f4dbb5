import contextlib
import functools
import json
import math
import os
import pickle
import re
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaspace import (
    DomainError,
    NonPositiveValue,
    NotInvertible,
    PhiSValue,
    SequenceSpec,
    SpecParseError,
    ToolkitError,
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
from qaspace.cli import main as cli_main
from qaspace.embeddings import _SEQUENCE_KEYS, _term_table, log_grid
from qaspace.errors import _number
from qaspace.shapes import log_gamma, log_gamma_inv


# gamma is at most 5, so the ladder gamma_exp(P) ends at x = 1 + log 5
P = piecewise([(0, 0), (0.1, 0.5), (1, 1)])
# (the phi priced, the phi whose ladder gives s_n): each ladder priced by another phi
MISMATCHED = [(alpha_beta(0.5, 0.5), qa_phi()), (P, qa_phi()), (qa_phi(), P)]
# what float() reads as a number but a profile refuses, each a ValueError naming it
TEXT_AND_BOOLS = ["0.5", b"0.5", bytearray(b"0.5"), True, False]


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

    # exp(log t) rounds one ulp past t for 71 of these t, and tau and log_tau
    # refused the shape's own last sample there
    def test_a_piecewise_phi_is_defined_up_to_its_last_sample(self):
        psi = qa_psi()
        for k in range(1, 1000):
            t = k / 1000
            phi = piecewise([(0, 0), (t, 0.5)])
            got = math.exp(log_tau(phi, psi, math.log(t)))
            assert got == pytest.approx(tau(phi, psi, t), rel=1e-12), t
        with pytest.raises(DomainError, match="^piecewise shape sampled only up to 0.34, got "):
            piecewise([(0, 0), (0.34, 0.5)]).log_eval(math.log(0.34) + 1e-12)

    def test_log_form_refuses_nan(self):
        with pytest.raises(DomainError, match="^argument nan outside domain$"):
            log_tau(qa_phi(), qa_psi(), math.nan)

    @pytest.mark.parametrize("t", TEXT_AND_BOOLS, ids=repr)
    def test_refuses_text_and_bools(self, t):
        with pytest.raises(ValueError, match="^t: expected a number, got "):
            tau(qa_phi(), qa_psi(), t)

    @pytest.mark.parametrize("log_t", ["-0.5", b"-0.5", True, False], ids=repr)
    def test_log_form_refuses_text_and_bools(self, log_t):
        with pytest.raises(ValueError, match="^log_t: expected a number, got "):
            log_tau(qa_phi(), qa_psi(), log_t)

    @pytest.mark.parametrize("log_t", [1e-9, 1.0, math.inf])
    def test_log_form_refuses_t_above_one(self, log_t):
        with pytest.raises(DomainError, match=r"^tau needs log_t <= 0$"):
            log_tau(qa_phi(), qa_psi(), log_t)

    # phi's log gamma at log t = -inf is inf for the first two, and psi's
    # guard refused it (DomainError: argument inf outside domain)
    @pytest.mark.parametrize("phi", [qa_phi(), alpha_beta(0.5, 0.7), identity()], ids=repr)
    def test_log_form_at_zero_is_minus_inf_for_every_phi(self, phi):
        assert log_tau(phi, qa_psi(), -math.inf) == -math.inf
        assert tau(phi, qa_psi(), 0.0) == 0.0

    def test_log_form_below_float_range(self):
        lt = -1e6
        got = log_tau(qa_phi(), qa_psi(), lt)
        want = qa_phi().log_eval(lt) + math.log(
            qa_psi().eval(1.0 + math.log(1.0 - lt))
        )
        assert got == want


class TestSequences:
    @pytest.mark.parametrize("seq", [reciprocal(), gamma_exp(qa_phi()),
                                     sample_sequence([(1, 0.9), (2.5, 0.5)])],
                             ids=["reciprocal", "gamma_exp", "samples"])
    @pytest.mark.parametrize("bad", TEXT_AND_BOOLS, ids=repr)
    def test_value_and_inverse_refuse_text_and_bools(self, seq, bad):
        for method, name in ((seq.value, "x"), (seq.log_value, "x"), (seq.inverse, "t")):
            with pytest.raises(ValueError, match=f"^{name}: expected a number, got "):
                method(bad)

    def test_value_and_inverse_read_ints_as_floats(self):
        seq = gamma_exp(qa_phi())
        assert seq.value(2) == seq.value(2.0) and seq.log_value(2) == seq.log_value(2.0)
        assert seq.inverse(1) == seq.inverse(1.0)

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
        assert set(SequenceSpec._fields) == {"kind", *names}

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

    def test_an_unknown_kind_is_refused(self):
        # the JSON reader refuses an unknown kind first, so only a constructor
        # call reaches this check
        with pytest.raises(SpecParseError, match="^unknown sequence kind 'bogus'$"):
            SequenceSpec("bogus")

    # the check looks the kind up in _SEQUENCE_KEYS, where an unhashable
    # kind would raise TypeError
    @pytest.mark.parametrize("kind", [["samples"], {"kind": "samples"}, None, 1.5])
    def test_a_kind_that_is_no_string_is_unknown(self, kind):
        with pytest.raises(SpecParseError, match=f"^unknown sequence kind {re.escape(repr(kind))}$"):
            SequenceSpec(kind)

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
            assert back.domain_end == seq.domain_end

    def ending(self, kind):
        """The constructor parameters of kind, with a ladder on P, which ends."""
        return {**self.taken(kind), **({"phi": P} if kind == "gamma_exp" else {})}

    @pytest.mark.parametrize("kind", list(_SEQUENCE_KEYS))
    def test_domain_end_is_derived_and_round_trips(self, kind):
        taken = self.ending(kind)
        seq = SequenceSpec(kind, **taken)
        end = seq.domain_end
        if "phi" in taken:  # the last x whose x - 1 is within phi's largest log gamma
            top = log_gamma(taken["phi"], -math.inf)
            assert end - 1.0 <= top < math.nextafter(end, math.inf) - 1.0
        else:  # the last sample's x, or none
            assert end == (taken["samples"][-1][0] if "samples" in taken else math.inf)
        for back in (SequenceSpec.from_json(seq.to_json()), pickle.loads(pickle.dumps(seq))):
            assert back.domain_end == seq.domain_end
        with pytest.raises(TypeError, match="domain_end"):
            SequenceSpec(kind, **taken, domain_end=1.0)

    def test_ladder_ends(self):
        # 1 + log 5 rounds up to 2.6094379124341005, past the ladder's last x
        assert gamma_exp(P).domain_end == math.nextafter(1.0 + math.log(5.0), 0.0)
        assert gamma_exp(qa_phi()).domain_end == gamma_exp(alpha_beta(0.5, 0.5)).domain_end
        assert gamma_exp(qa_phi()).domain_end == math.inf
        assert gamma_exp(identity()).domain_end == 1.0

    @pytest.mark.parametrize("kind", list(_SEQUENCE_KEYS))
    def test_past_the_end_is_a_domain_error_naming_x(self, kind):
        seq = SequenceSpec(kind, **self.ending(kind))
        end = seq.domain_end
        for evaluate in (seq.value, seq.log_value):
            evaluate(min(end, 1e6))
            for x in (math.nextafter(end, math.inf), end + 1.0, 2.0 * end):
                if x > end:  # nothing lies past an infinite end
                    message = re.escape(f"sequence ends at {end}, got {x!r}")
                    with pytest.raises(DomainError, match=f"{message}$"):
                        evaluate(x)

    def test_a_ladder_is_defined_up_to_its_end(self):
        seq = gamma_exp(P)
        assert seq.value(2.6) == 0.10106805736575207
        assert seq.log_value(seq.domain_end) == log_gamma_inv(P, math.log(5.0)) == math.log(0.1)
        message = r"^gamma_exp sequence ends at 2\.6094379124341, got 2\.7$"
        with pytest.raises(DomainError, match=message):
            seq.value(2.7)

    def test_a_ladder_inverts_only_its_own_values(self):
        # P's ladder ends at s = 0.1; every t below it would need an x past the end
        seq = gamma_exp(P)
        assert seq.inverse(0.1) == seq.domain_end
        for t in (0.0999999, 0.01):
            message = r"^gamma_exp sequence ends at 2\.6094379124341, got 2\.6094379124341005$"
            with pytest.raises(DomainError, match=message):
                seq.inverse(t)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, math.nan])
    @pytest.mark.parametrize("seq", [reciprocal(), gamma_exp(qa_phi()),
                                     sample_sequence([(1.0, 0.8), (2.0, 0.4)])],
                             ids=["reciprocal", "gamma_exp", "samples"])
    def test_inverse_refuses_t_outside_the_unit_interval(self, seq, t):
        with pytest.raises(DomainError, match=r"^sequence values live in \(0,1\]$"):
            seq.inverse(t)

    def test_inverse_refuses_t_above_a_ladders_first_value(self):
        # phi(1) = 0.75 < 1, so the ladder starts at x = 1 with s = 0.625, not at s = 1
        seq = gamma_exp(piecewise([(0, 0), (0.25, 0.5), (1, 0.75)]))
        assert seq.inverse(seq.value(1.0)) == 1.0
        with pytest.raises(DomainError, match=r"^0\.9 is above the sequence's first value$"):
            seq.inverse(0.9)

    # a value of the wrong type for each parameter, by the JSON key that carries it
    MISTYPED = {"phi": ("qa_phi", "'phi': expected a shape, got 'qa_phi'"),
                "points": (5, "'samples': expected a list, got 5")}

    @pytest.mark.parametrize("kind", list(_SEQUENCE_KEYS))
    def test_parameters_of_the_wrong_type_are_refused_by_name(self, kind):
        required, optional = _SEQUENCE_KEYS[kind]
        for key in (*required, *optional):
            name = self.PARAMS[key][0]
            value, message = self.MISTYPED[key]
            with pytest.raises(SpecParseError) as info:
                SequenceSpec(kind, **{**self.taken(kind), name: value})
            assert str(info.value) == message

    def test_samples_of_the_wrong_type_are_refused_by_index(self):
        for bad, shown in (("x", '"x"'), (True, "true"), (None, "null")):
            with pytest.raises(SpecParseError) as info:
                sample_sequence([(1, 0.5), (2, bad)])
            assert str(info.value) == f"'samples[1][1]': expected a number, got {shown}"

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

    @pytest.mark.parametrize("seq", [reciprocal(), sample_sequence([(1, 1), (2, 0.5)])],
                             ids=["reciprocal", "samples"])
    def test_an_x_within_the_start_slack_reads_as_the_start(self, seq):
        # the formulas read x as given: 1/x and the first chord rose above 1
        for x in (1 - 1e-13, math.nextafter(1.0, 0.0)):
            assert seq.value(x) == seq.value(1.0) == 1.0
            assert seq.log_value(x) == seq.log_value(1.0) == 0.0
        with pytest.raises(DomainError, match="sequence defined from 1.0"):
            seq.value(1 - 1e-11)

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
    lt = math.log(t)
    best = (math.inf, 0)
    for n in range(max(1, math.ceil(seq.domain_start - 1e-12)), n_max + 1):
        # a ladder has no s_n once e^(n-1) passes the largest gamma of its own phi
        if seq.phi is not None and n - 1.0 > log_gamma(seq.phi, -math.inf):
            break
        try:
            ls = seq.log_value(float(n))
        except NotInvertible:  # s_n below every float, or gamma constant
            ls = -math.inf
        except DomainError:  # past the last sample
            break
        # on phi's own ladder log gamma(s_n) = n - 1, by the ladder's definition
        lg = n - 1.0 if seq.phi == phi else log_gamma(phi, ls)
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

    @pytest.mark.parametrize("n_max", [50.5, 50.0, math.nan, True, "50"])
    def test_n_max_that_is_not_an_int_is_refused(self, n_max):
        with pytest.raises(DomainError, match="^n_max must be an integer, not "):
            phi_s(qa_phi(), qa_psi(), reciprocal(), 0.5, n_max=n_max)

    # the last table's n_max is not checked again: an == equal n_max of another
    # type, or one past the cap, must not pass for it
    @pytest.mark.parametrize("good, bad, message", [
        (1, True, "n_max must be an integer, not True"),
        (1000, 1000.0, "n_max must be an integer, not 1000.0"),
        (1000, 1_000_001, "n_max is capped at 1000000 terms"),
        (1_000_000, 1_000_001, "n_max is capped at 1000000 terms"),
    ], ids=repr)
    def test_a_bad_n_max_is_refused_right_after_a_good_one(self, good, bad, message):
        phi, psi = qa_phi(), qa_psi()
        seq = gamma_exp(phi)  # eight rows, whatever n_max
        want = phi_s(qa_phi(), psi, seq, 0.5, n_max=8)
        for t in (0.5, 0.0, "0.5"):
            assert phi_s(phi, psi, seq, 0.5, n_max=good) == want
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                phi_s(phi, psi, seq, t, n_max=bad)

    @pytest.mark.parametrize("family, a, b, g", [("qa_phi", 1.0, 1.0, 1.0),
                                                ("alpha_beta", 0.5, 0.7, 0.4),
                                                ("alpha_beta", 1.0, 0.6, 0.8)])
    @pytest.mark.parametrize("kind", ["gamma_exp", "reciprocal", "samples"])
    def test_the_term_is_picked_as_the_min_of_tuples(self, family, a, b, g, kind):
        # the table's least term before k against the term at k, as
        # min((value, row), (value, row)) picked it: the earlier row on a tie
        phi = qa_phi() if family == "qa_phi" else alpha_beta(a, b)
        psi = psi_gamma(g)
        seq = {"gamma_exp": gamma_exp(phi), "reciprocal": reciprocal(),
               "samples": sample_sequence([(1.0, 1.0), (2.0, 0.5), (3.0, 0.5), (6.0, 1e-9),
                                           (40.0, 1e-250)])}[kind]
        n_start, neg_log_s, bases, head, _ = _term_table(phi, psi, seq, 1000)
        for t in [*log_grid(1e-300, 1.0, 200), 0.5, 1e-9, 1e-250]:
            lt = math.log(t)
            k = bisect_right(neg_log_s, -lt)
            best, r = min(head[k], (lt + bases[k], k)) if k < len(bases) else head[k]
            got = phi_s(phi, psi, seq, t, n_max=1000)
            assert (got.value.hex(), got.n) == (math.exp(best).hex(), n_start + r)

    @pytest.mark.parametrize("seq, t, n", [
        (reciprocal(), 0.25, 4), (reciprocal(), 0.5, 2),
        (sample_sequence([(1.0, 1.0), (2.0, 0.5), (3.0, 0.5), (6.0, 0.25)]), 0.5, 2),
    ], ids=["1/4", "1/2", "flat samples"])
    def test_a_tie_goes_to_the_earlier_index(self, seq, t, n):
        # every term is max{s_n, t}: the term at k, t, ties the least before it, s_(k-1) = t
        assert phi_s(identity(), psi_gamma(0.0), seq, t, n_max=100) == (t, n)

    def test_n_max_below_the_first_index(self):
        with pytest.raises(DomainError, match="n_max -5"):
            phi_s(qa_phi(), qa_psi(), reciprocal(), 0.5, n_max=-5)

    def test_gamma_exp_ends_where_a_bounded_ratio_tops_out(self):
        # gamma is at most 2, so only n = 1 (s_1 = 1) has an s_n with
        # gamma(s_n) = e^(n-1); later indices would price terms of no s_n
        phi = piecewise([(0, 0), (0.25, 0.5), (1, 1)])
        seq = gamma_exp(phi)
        assert phi_s(phi, qa_psi(), seq, 0.01, n_max=50) == (1.0, 1)
        assert _term_table(phi, qa_psi(), seq, 50)[1:3] == ((-0.0,), (0.0,))  # -log s_1, base_1

    def test_a_ladder_priced_by_its_own_bounded_phi_ends_with_it(self):
        # gamma(s_3) = e^2 would pass gamma's largest value, 5
        assert len(_term_table(P, qa_psi(), gamma_exp(P), 50)[1]) == 2
        assert phi_s(P, qa_psi(), gamma_exp(P), 1e-12, n_max=50) == brute_phi_s(
            P, qa_psi(), gamma_exp(P), 1e-12, 50)

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
        neg_log_s = _term_table(phi, psi, seq, 800)[1]
        assert len(neg_log_s) == 8
        assert -neg_log_s[-1] < math.log(5e-324) <= -neg_log_s[-2]
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

    @pytest.mark.parametrize("phi, ladder_phi", MISMATCHED)
    @pytest.mark.parametrize("t", [10.0**-k for k in range(2, 13)])
    def test_a_ladder_is_priced_by_the_phi_given(self, phi, ladder_phi, t):
        # the ladder's s_n come from ladder_phi, each term's gamma from phi
        seq = gamma_exp(ladder_phi)
        got, want = phi_s(phi, qa_psi(), seq, t), brute_phi_s(phi, qa_psi(), seq, t, 10_000)
        assert got.value == pytest.approx(want[0], rel=1e-12) and got.n == want[1]

    def test_mismatched_ladder_answers(self):
        seq = gamma_exp(qa_phi())
        assert phi_s(alpha_beta(0.5, 0.5), qa_psi(), seq, 1e-3).value == pytest.approx(
            0.2338087657597536, rel=1e-12)
        assert phi_s(P, qa_psi(), seq, 1e-12).value == pytest.approx(1.3047189562170518e-11,
                                                                     rel=1e-12)

    @pytest.mark.parametrize("phi, ladder_phi", MISMATCHED)
    def test_a_phi_s_expression_prices_its_own_seq_by_its_phi(self, capsys, phi, ladder_phi):
        expr = {"kind": "phi_s", "phi": phi.to_json(), "psi": {"family": "qa_psi"},
                "seq": {"kind": "gamma_exp", "phi": ladder_phi.to_json()}}
        argv = ["equivalence", "--a", json.dumps(expr),
                "--b", json.dumps({"kind": "shape", "spec": {"family": "qa_phi"}}),
                "--tmin", "1e-12", "--tmax", "1e-2", "--points", "11"]
        assert cli_main(argv) == 0
        got = json.loads(capsys.readouterr().out)["result"]
        seq = gamma_exp(ladder_phi)
        want = equivalence(lambda t: brute_phi_s(phi, qa_psi(), seq, t, 10_000)[0],
                           qa_phi().eval, 1e-12, 1e-2, points=11)
        assert got["ratio_min"] == pytest.approx(want.ratio_min, rel=1e-12)
        assert got["ratio_max"] == pytest.approx(want.ratio_max, rel=1e-12)

    def test_rising_sequence_is_refused(self):
        seq = sample_sequence([(1.0, 0.5), (2.0, 0.6), (3.0, 0.1)])
        with pytest.raises(DomainError, match="rises at index 2"):
            phi_s(qa_phi(), qa_psi(), seq, 0.01, n_max=3)

    @pytest.mark.parametrize("t", TEXT_AND_BOOLS, ids=repr)
    def test_refuses_text_and_bools(self, t):
        with pytest.raises(ValueError, match="^t: expected a number, got "):
            phi_s(qa_phi(), qa_psi(), gamma_exp(qa_phi()), t)

    @pytest.mark.parametrize("family, a, b, g", [("qa_phi", 1.0, 1.0, 1.0),
                                                ("alpha_beta", 0.5, 0.7, 0.4),
                                                ("alpha_beta", 1.0, 0.6, 0.8)])
    def test_equal_objects_give_the_answers_of_the_same_objects(self, family, a, b, g):
        # the same objects reuse the last table from the second call on; two
        # equal copies, alternating, replace it on every call and so read the cache
        def key():
            phi = qa_phi() if family == "qa_phi" else alpha_beta(a, b)
            return phi, psi_gamma(g), gamma_exp(phi)

        grid, same, copies = log_grid(1e-300, 1.0, 60), key(), (key(), key())
        want = [phi_s(*same, t, n_max=500) for t in grid]
        got = [phi_s(*copies[i % 2], t, n_max=500) for i, t in enumerate(grid)]
        assert all(type(v) is PhiSValue for v in want + got)
        assert [(v.value.hex(), v.n) for v in got] == [(v.value.hex(), v.n) for v in want]

    def test_a_cleared_cache_leaves_no_table_to_reuse(self):
        phi, psi = alpha_beta(0.6, 0.3), psi_gamma(0.7)
        seq = gamma_exp(phi)
        phi_s(phi, psi, seq, 0.1, n_max=400)
        phi_s(phi, psi, seq, 0.2, n_max=400)
        _term_table.cache_clear()
        misses = _term_table.cache_info().misses
        phi_s(phi, psi, seq, 0.1, n_max=400)
        assert _term_table.cache_info().misses == misses + 1

    def test_two_keys_that_alternate_build_two_tables(self):
        # an equivalence of two phi_s expressions alternates two keys: the
        # cache holds both, so no table is built after the first two
        seq = reciprocal()
        keys = [(qa_phi(), qa_psi(), seq), (alpha_beta(0.6, 0.3), psi_gamma(0.7), seq)]
        _term_table.cache_clear()
        for i, t in enumerate(log_grid(1e-6, 1.0, 60)):
            phi_s(*keys[i % 2], t, n_max=500)
        assert _term_table.cache_info().misses == 2

    def test_a_table_that_raised_is_not_kept(self):
        seq = sample_sequence([(1.0, 0.5), (2.0, 0.6), (3.0, 0.1)])
        for _ in range(2):
            misses = _term_table.cache_info().misses
            with pytest.raises(DomainError, match="rises at index 2"):
                phi_s(qa_phi(), qa_psi(), seq, 0.01, n_max=3)
            assert _term_table.cache_info().misses == misses + 1

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

    @pytest.mark.parametrize("t", [0.05, 0.01])
    def test_a_t_below_the_ladders_last_value_is_refused(self, t):
        # psi is not priced at an x past the ladder's end
        with pytest.raises(DomainError, match="gamma_exp sequence ends at"):
            alpha_s(P, qa_psi(), gamma_exp(P), t)

    @pytest.mark.parametrize("t", TEXT_AND_BOOLS, ids=repr)
    def test_refuses_text_and_bools(self, t):
        with pytest.raises(ValueError, match="^t: expected a number, got "):
            alpha_s(qa_phi(), qa_psi(), gamma_exp(qa_phi()), t)

    def test_edges(self):
        assert alpha_s(qa_phi(), qa_psi(), reciprocal(), 0.0) == 0.0
        with pytest.raises(DomainError):
            alpha_s(qa_phi(), qa_psi(), reciprocal(), 2.0)


def _outcome(call, *args):
    """repr of call(*args), which tells every float's bits apart (0.0 from
    -0.0), or its error's type and message."""
    try:
        return repr(call(*args))
    except (ToolkitError, ValueError) as exc:
        return type(exc), str(exc)


def _guarded_check_x(seq, x):
    """SequenceSpec._check_x with the kind read at the call."""
    if type(x) is not float:
        x = float(_number(x, "x"))
    if not x >= seq.domain_start - 1e-12:
        raise DomainError(f"sequence defined from {seq.domain_start}, got {x!r}")
    if x > seq.domain_end:
        raise DomainError(
            f"{seq.kind.removesuffix('s')} sequence ends at {seq.domain_end}, got {x!r}")
    return max(x, seq.domain_start)


def _guarded_value(seq, x):
    """SequenceSpec.value dispatched on the kind at each call."""
    x = _guarded_check_x(seq, x)
    if seq.kind == "reciprocal":
        return 1.0 / x
    if seq.kind == "gamma_exp":
        return math.exp(_guarded_log_value(seq, x))
    pts = seq.samples
    for (x0, s0), (x1, s1) in zip(pts, pts[1:]):
        if x <= x1:
            s = s0 + (s1 - s0) * (x - x0) / (x1 - x0)
            return s1 if x == x1 else max(s, min(s0, s1))


def _guarded_log_value(seq, x):
    """SequenceSpec.log_value dispatched on the kind at each call, with the
    gamma_exp inverse through shapes.log_gamma_inv."""
    x = _guarded_check_x(seq, x)
    if seq.kind == "reciprocal":
        return -math.log(x)
    if seq.kind == "samples":
        return math.log(_guarded_value(seq, x))
    g1 = seq.phi.log_gamma_eval(0.0)
    return log_gamma_inv(seq.phi, g1 if x <= 1.0 + g1 else x - 1.0)


def _guarded_inverse(seq, t):
    """SequenceSpec.inverse dispatched on the kind at each call, with phi's
    log gamma through its guard and the answer through _check_x."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if not 0.0 < t <= 1.0:
        raise DomainError("sequence values live in (0,1]")
    if seq.kind == "reciprocal":
        return 1.0 / t
    if seq.kind == "gamma_exp":
        x = 1.0 + seq.phi.log_gamma_eval(math.log(t))
        if x < seq.domain_start - 1e-9:
            raise DomainError(f"{t!r} is above the sequence's first value")
        return _guarded_check_x(seq, max(x, seq.domain_start))
    pts = seq.samples
    ss = [s for _, s in pts]
    if any(not b < a for a, b in zip(ss, ss[1:])):
        raise NotInvertible("sample sequence is not strictly decreasing")
    if not ss[-1] <= t <= ss[0]:
        raise DomainError(f"{t!r} outside sampled range [{ss[-1]}, {ss[0]}]")
    for (x0, s0), (x1, s1) in zip(pts, pts[1:]):
        if t >= s1:
            return x0 + (x1 - x0) * (s0 - t) / (s0 - s1)


def _guarded_tau(phi, psi, t):
    """tau with t read and checked, and phi and psi through their guards."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if not 0.0 <= t <= 1.0:
        raise DomainError("tau needs t in [0,1]")
    if t == 0.0:
        return 0.0
    return phi.eval(t) * psi.eval(1.0 + max(0.0, phi.log_gamma_eval(math.log(t))))


def _guarded_alpha_s(phi, psi, seq, t):
    """alpha_s with t checked again by the guarded inverse, and psi through its guard."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if t == 0.0:
        return 0.0
    if not 0.0 < t <= 1.0:
        raise DomainError("alpha_s needs t in [0,1]")
    return phi.eval(t) * psi.eval(_guarded_inverse(seq, t))


def _guarded_phi_s(phi, psi, seq, t, n_max):
    """phi_s over _guarded_rows' row tuples, its term picked by a tuple min."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if t == 0.0:
        return PhiSValue(0.0, 0)
    if not 0.0 < t <= 1.0:
        raise DomainError("phi_s needs t in [0,1]")
    n_start, rows, head, cut = _guarded_rows(phi, psi, seq, n_max)
    if n_max < n_start:
        raise DomainError(f"n_max {n_max} is below the sequence's first index {n_start}")
    lt = math.log(t)
    k = bisect_right([-ls for ls, _ in rows], -lt)
    if k == len(rows) and cut is not None:
        raise cut
    if not rows:
        raise DomainError(f"the sequence has no value at an index from {n_start} to {n_max}")
    best, r = min(head[k], (lt + rows[k][1], k)) if k < len(rows) else head[k]
    return PhiSValue(math.exp(best), n_start + r)


@functools.cache  # phi_s asks for one key's rows at many t
def _guarded_rows(phi, psi, seq, n_max):
    """_term_table's loop with every call guarded, its rows kept as (log s_n,
    base_n) tuples and its head by a tuple min: (n_start, rows, head, cut)."""
    n_start = max(1, math.ceil(seq.domain_start - 1e-12))
    own = seq.phi == phi
    rows, head, cut = [], [(math.inf, 0)], None
    for n in range(n_start, n_max + 1):
        try:
            ls = _guarded_log_value(seq, float(n))
        except NotInvertible:
            ls = -math.inf
        except DomainError:
            break
        lg = n - 1.0 if own else log_gamma(phi, ls)
        if rows and ls > rows[-1][0]:
            raise DomainError(f"phi_s needs a non-increasing sequence, but s rises at index {n}")
        try:
            base = lg + math.log(psi.eval(float(n)))
        except DomainError as exc:
            cut = exc
            break
        head.append(min(head[-1], (ls + base, len(rows))))
        rows.append((ls, base))
        if ls < math.log(5e-324):
            break
    return n_start, rows, head, cut


def _guarded_term_table(phi, psi, seq, n_max):
    """_guarded_rows read as _term_table's columns."""
    n_start, rows, head, cut = _guarded_rows(phi, psi, seq, n_max)
    return n_start, tuple(-ls for ls, _ in rows), tuple(b for _, b in rows), tuple(head), cut


class TestRawFormulaPaths:
    """tau, alpha_s, SequenceSpec's value, log_value and inverse, phi_s from a
    cold and a warm table, and the term table itself check each argument
    once, call the family formulas where the guard would pass their
    argument, and call the formulas each sequence bound for its kind when it
    was built.  Each answers and refuses bit for bit as the guarded route
    does: every shape through its guard, the kind read at each call, the
    inverse checking t again and its answer through _check_x, and the term
    table built of row tuples with a tuple min."""

    # the benchmark's three key families, a flat ratio (no inverse, the -inf
    # sentinel), the degenerate ends and a ladder that ends (gamma at most 5),
    # so that a t below its last value is refused
    PHIS = [qa_phi(), alpha_beta(0.5, 0.7), alpha_beta(0.7, 0.75), alpha_beta(0.3, 0.0),
            alpha_beta(1.0, 0.4), alpha_beta(1.0, 0.9), alpha_beta(1.0, 0.0),
            identity(), constant_one(), P]
    # psi_gamma exponents, a psi sampled only up to 10 (the table's cut), a
    # phi-kind psi, which refuses every index past 1, and a flat psi, whose
    # terms all tie under constant_one's phi on the reciprocal ladder
    PSIS = [psi_gamma(0.3), psi_gamma(0.65), psi_gamma(1.0), qa_psi(),
            piecewise([(0, 0), (1, 1), (10, 2)], kind="psi"), qa_phi(), constant_one("psi")]
    SEQS = [reciprocal(), sample_sequence([(1, 1.0), (3, 0.2), (40, 1e-6)]),
            sample_sequence([(2.0000000000001, 0.9), (9, 0.1)]),  # starts just past 2
            sample_sequence([(1, 0.5), (2, 0.25), (3, 0.5)]),  # rises
            # its inverse is below 1 for t near 1, and 0 or below from t = 0.75
            # up, where a psi's guard refuses it
            sample_sequence([(-1, 1.0), (3, 0.2), (40, 1e-6)]),
            gamma_exp(qa_phi()), gamma_exp(alpha_beta(0.5, 0.7)),  # ladders priced by any phi
            # one row, the -inf sentinel: priced by a phi whose log gamma is
            # inf at -inf, its term is NaN, which never becomes the least
            gamma_exp(identity())]
    TS = [5e-324, 1e-300, 1e-20, 0.01, 0.3, 0.5, math.nextafter(1.0, 0.0), 1.0,
          0.0, -0.0, math.nan, math.inf, -math.inf, 2.0, 1, Fraction(1, 2), "0.5", True]

    def test_tau_and_alpha_s(self):
        for phi in self.PHIS:
            for psi in self.PSIS:
                for t in self.TS:
                    assert _outcome(tau, phi, psi, t) == _outcome(_guarded_tau, phi, psi, t), (
                        phi, psi, t)
                    for seq in [*self.SEQS, gamma_exp(phi)]:
                        want = _outcome(_guarded_alpha_s, phi, psi, seq, t)
                        assert _outcome(alpha_s, phi, psi, seq, t) == want, (phi, psi, seq, t)

    def xs(self, seq):
        start = seq.domain_start
        return [start, start - 1e-13, start - 1e-9, *map(float, range(1, 60)), 1e6,
                math.nan, math.inf, -math.inf, 0.0, 3, Fraction(3, 2), "2", True]

    def test_log_value_and_inverse(self):
        for seq in [*self.SEQS, *map(gamma_exp, self.PHIS)]:
            for x in self.xs(seq):
                assert _outcome(seq.log_value, x) == _outcome(_guarded_log_value, seq, x), (seq, x)
            for t in self.TS:
                assert _outcome(seq.inverse, t) == _outcome(_guarded_inverse, seq, t), (seq, t)

    def test_value(self):
        for seq in [*self.SEQS, *map(gamma_exp, self.PHIS)]:
            for x in self.xs(seq):
                assert _outcome(seq.value, x) == _outcome(_guarded_value, seq, x), (seq, x)

    def test_phi_s_from_a_cold_and_a_warm_table(self):
        for phi in self.PHIS:
            for psi in self.PSIS:
                for seq in [*self.SEQS, gamma_exp(phi)]:
                    for t in self.TS:
                        want = _outcome(_guarded_phi_s, phi, psi, seq, t, 120)
                        _term_table.cache_clear()
                        for _ in "cold", "warm":
                            got = _outcome(phi_s, phi, psi, seq, t, 120)
                            assert got == want, (phi, psi, seq, t)

    def test_term_table(self):
        def outcome(build, *args):
            try:
                *table, cut = build(*args)
            except DomainError as exc:
                return type(exc), str(exc)
            return repr(table), cut and (type(cut), str(cut))

        for phi in self.PHIS:
            for psi in self.PSIS:
                for seq in [*self.SEQS, gamma_exp(phi)]:
                    args = phi, psi, seq, 120
                    want = outcome(_guarded_term_table, *args)
                    assert outcome(_term_table.__wrapped__, *args) == want, args


class TestSeqConditions:
    def test_gamma_exp_passes(self):
        phi, psi = qa_phi(), qa_psi()
        grid = [1.0 + 39.0 * i / 199 for i in range(200)]
        rep = check_seq_conditions(phi, psi, gamma_exp(phi), grid)
        assert rep.passed
        # consecutive ratio targets differ by one, so the step constant is e
        assert rep.step_ratio_constant == pytest.approx(math.e, rel=1e-9)

    def test_check_seq_past_a_ladders_end_exits_2(self, capsys):
        argv = ["check-seq", "--seq", '{"kind": "gamma_exp"}', "--phi", json.dumps(P.to_json()),
                "--psi", json.dumps(qa_psi().to_json()), "--xmax", "10"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        message = "gamma_exp sequence ends at 2.6094379124341, got 2.628140703517588"
        assert json.loads(line)["error"] == {"type": "DomainError", "message": message}

    def test_a_step_ratio_past_the_float_range_is_infinite(self):
        # log gamma climbs by more than log(DBL_MAX) in one step: exp of that
        # step overflowed, and the scan raised OverflowError
        seq = gamma_exp(alpha_beta(0.999999, 1e-12))
        rep = check_seq_conditions(constant_one(), qa_psi(), seq, [2.0, 501.0, 1000.0])
        assert rep.step_ratio_constant == math.inf
        assert not rep.passed

    def test_a_grid_start_within_the_slack_is_the_sequence_start(self):
        # s(1 - 1e-13) was 1.0000000000001, which qa_phi refused as past 1
        phi, psi = qa_phi(), qa_psi()
        rep = check_seq_conditions(phi, psi, reciprocal(), [1 - 1e-13, 2, 3])
        want = check_seq_conditions(phi, psi, reciprocal(), [1.0, 2, 3])
        assert rep.grid[0] == 1 - 1e-13
        assert rep == type(want)(**{**want._asdict(), "grid": rep.grid})

    def test_a_grid_with_no_integer_step_has_no_step_ratio(self):
        rep = check_seq_conditions(qa_phi(), qa_psi(), reciprocal(), [1.0, 1.25, 1.5])
        assert rep.step_ratio_constant is None and not rep.passed

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
    def test_log_grid_caps_its_points(self):
        # the grid was built in full before any check: a huge points ran out
        # of memory (1,000,001 points still build quickly)
        with pytest.raises(DomainError) as info:
            log_grid(1e-6, 1.0, 1_000_001)
        assert str(info.value) == "a grid is capped at 1000000 points, got 1000001"

    # the ends were computed and then overwritten: the last was exp(lo + (hi -
    # lo)), which rounds one ulp past log(t_max) and raised OverflowError
    def test_log_grid_ends_at_the_largest_float_exactly(self):
        grid = log_grid(1e-30, sys.float_info.max, 5)
        assert len(grid) == 5
        assert grid[0] == 1e-30 and grid[-1] == sys.float_info.max
        assert all(a < b for a, b in zip(grid, grid[1:]))

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

    @pytest.mark.parametrize("a, b", [(1e300, 1e-300), (1e-310, 1e300)], ids=["inf", "zero"])
    def test_ratios_past_the_float_range_spread_infinitely(self, a, b):
        # every a/b overflows to inf or underflows to 0: the spread was
        # inf / inf = nan, or divided by zero, and so did the verdict
        rep = equivalence(lambda t: a, lambda t: b, 1e-6, 1.0, threshold=2.0)
        assert rep.ratio_min == rep.ratio_max == a / b
        assert rep.spread == math.inf and rep.equivalent is False

    def test_grid_endpoints_exact(self):
        rep = equivalence(math.sqrt, math.sqrt, 1e-6, 0.5, points=17)
        assert rep.grid[0] == 1e-6 and rep.grid[-1] == 0.5
        assert len(rep.grid) == 17

    def test_rejects_non_positive_samples(self):
        with pytest.raises(NonPositiveValue):
            equivalence(lambda t: 0.0, math.sqrt, 1e-6, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0], ids=repr)
    def test_each_sample_that_is_not_positive_and_finite_is_refused(self, bad):
        with pytest.raises(NonPositiveValue) as info:
            equivalence(lambda t: bad, lambda t: 0.5, 0.25, 1.0, points=3)
        assert str(info.value) == f"need positive finite samples, got {bad!r}/0.5 at t=0.25"
        with pytest.raises(NonPositiveValue) as info:
            equivalence(lambda t: 0.5, lambda t: bad, 0.25, 1.0, points=3)
        assert str(info.value) == f"need positive finite samples, got 0.5/{bad!r} at t=0.25"

    def test_equal_arguments_give_equal_grids(self):
        first = log_grid(1e-9, 1.0, 30)
        assert list(log_grid(1e-9, 1.0, 30)) == list(first)
        assert list(log_grid(1e-9, 0.5, 30)) != list(first)
        assert list(log_grid(1e-9, 1.0, 30)) == list(first)

    def test_points_of_another_type_are_refused(self):
        log_grid(1e-9, 1.0, 200)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            log_grid(1e-9, 1.0, 200.0)
        with pytest.raises(ValueError, match="points=True"):
            log_grid(1e-9, 1.0, True)
        log_grid(1e-9, 1.0, 2)
        with pytest.raises(ValueError, match="points=True"):
            log_grid(1e-9, 1.0, True)

    def test_a_grid_that_raised_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="points=5"):
                log_grid(0.5, 0.5000000000000001, 5)
            assert len(log_grid(1e-9, 1.0, 5)) == 5

    def test_a_caller_cannot_change_a_later_grid(self):
        grid = log_grid(1e-9, 1.0, 5)
        want = [x.hex() for x in grid]
        with contextlib.suppress(TypeError, AttributeError):
            grid[0] = 0.5
        with contextlib.suppress(TypeError, AttributeError):
            grid.append(2.0)
        assert [x.hex() for x in log_grid(1e-9, 1.0, 5)] == want
        rep = equivalence(math.sqrt, math.sqrt, 1e-9, 1.0, points=5)
        assert [x.hex() for x in rep.grid] == want

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

    # each product overflowed, and the profile raised OverflowError
    def test_past_the_float_range_against_mpmath(self):
        import mpmath

        with mpmath.workdps(60):
            t = mpmath.mpf(1e-300)
            level1 = 1 - mpmath.log(t)
            want = t * level1**200 * (1 + mpmath.log(1 + mpmath.log(level1)))
            assert want > 1e268
            got = iterated_log_profile(1.0, 200.0, 1.0)(1e-300)
            assert abs(got - want) <= 1e-12 * want
            t = mpmath.mpf(0.1)
            level1 = 1 - mpmath.log(t)
            assert t**0.5 * level1**1e308 * (1 + mpmath.log(level1)) > sys.float_info.max
        assert iterated_log_profile(0.5, 1e308, 1.0)(0.1) == math.inf

    # beta log L and exponent log(last) overflowed with opposite signs, and
    # the profile answered nan for a value past the float range either way
    @pytest.mark.parametrize("beta, exponent, want", [(1e308, -1e308, math.inf),
                                                      (-1e308, 1e308, 0.0)])
    def test_log_terms_overflowing_with_opposite_signs_against_mpmath(self, beta, exponent, want):
        import mpmath

        with mpmath.workdps(60):
            t = mpmath.mpf(1e-300)
            level1 = 1 - mpmath.log(t)
            log_value = (mpmath.log(t) / 2 + beta * mpmath.log(level1)
                         + exponent * mpmath.log(1 + mpmath.log(level1)))
            if want:
                assert log_value > mpmath.log(sys.float_info.max)
            else:  # below half the least subnormal, so 0.0
                assert log_value < mpmath.log(mpmath.mpf(5e-324) / 2)
        assert iterated_log_profile(0.5, beta, exponent)(1e-300) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            iterated_log_profile(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            iterated_log_profile(1.0, 0.0, 1.0)
        prof = iterated_log_profile(0.5, 0.0, 1.0)
        assert prof(0.0) == 0.0
        with pytest.raises(DomainError):
            prof(2.0)

    # float(t) read text and bools: profile("0.5") answered 0.9258341663288155
    @pytest.mark.parametrize("t", TEXT_AND_BOOLS, ids=repr)
    def test_the_profile_refuses_text_and_bools(self, t):
        with pytest.raises(ValueError, match="^t: expected a number, got "):
            iterated_log_profile(1.0, 0.5, 1.0)(t)

    # a NaN beta or exponent was taken, and the profile answered nan
    @pytest.mark.parametrize("alpha, beta, exponent", [
        (0.5, math.nan, 1.0), (1.0, 1.0, math.nan), (0.5, math.inf, 1.0), (1.0, 1.0, -math.inf),
    ])
    def test_a_beta_or_exponent_that_is_not_finite_is_refused(self, alpha, beta, exponent):
        with pytest.raises(ValueError, match="^beta and exponent must be finite$"):
            iterated_log_profile(alpha, beta, exponent)


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
