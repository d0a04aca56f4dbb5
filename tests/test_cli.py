import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaspace import (
    StepFunction,
    lorentz_norm,
    equivalence,
    iterated_log_profile,
    qa_phi,
    qa_psi,
    qa_upper,
    rearrange,
    tau,
    witness_qa_upper,
)
from qaspace import cli
from qaspace.cli import main

F3 = '{"breakpoints": [0, 0.25, 0.5, 1], "values": [3, 1, 2]}'
QA_PHI = '{"family": "qa_phi"}'
QA_PSI = '{"family": "qa_psi"}'


PHI, PSI = json.loads(QA_PHI), json.loads(QA_PSI)


def equivalence_argv(expr_a):
    """equivalence of expr_a against qa_phi over a short grid."""
    return [
        "equivalence", "--a", json.dumps(expr_a),
        "--b", json.dumps({"kind": "shape", "spec": PHI}),
        "--tmin", "1e-6", "--tmax", "0.5", "--points", "5",
    ]


def run_cli(*args, env_extra=None, check=True):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", "from qaspace.cli import main; raise SystemExit(main())", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def lib_three_layer():
    return StepFunction.from_json(json.loads(F3))


class TestRearrange:
    def test_roundtrip(self):
        proc = run_cli("rearrange", "--input", F3)
        out = json.loads(proc.stdout)
        assert out["config"]["subcommand"] == "rearrange"
        got = StepFunction.from_json(out["result"])
        assert got == rearrange(lib_three_layer())

    def test_deterministic_bytes(self):
        a = run_cli("rearrange", "--input", F3).stdout
        b = run_cli("rearrange", "--input", F3).stdout
        assert a == b

    def test_reads_file_input(self, tmp_path):
        src = tmp_path / "f.json"
        src.write_text(F3)
        proc = run_cli("rearrange", "--input", str(src))
        assert StepFunction.from_json(json.loads(proc.stdout)["result"]) == rearrange(
            lib_three_layer()
        )


class TestLorentzNorm:
    def test_value(self):
        proc = run_cli("lorentz-norm", "--phi", QA_PHI, "--input", F3)
        out = json.loads(proc.stdout)
        assert out["result"]["value"] == 2.5623351446188085
        assert out["result"]["value"] == lorentz_norm(lib_three_layer(), qa_phi()).value


class TestQaBounds:
    def test_matches_library(self):
        proc = run_cli(
            "qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI,
            "--input", F3, "--strategy", "exhaustive",
        )
        out = json.loads(proc.stdout)["result"]
        want = qa_upper(lib_three_layer(), qa_phi(), qa_psi(), strategy="exhaustive")
        assert out["lower"] == want.lower
        assert out["upper"] == want.upper

    def test_local_alias(self):
        proc = run_cli(
            "qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI,
            "--input", F3, "--strategy", "local",
        )
        assert json.loads(proc.stdout)["result"]["upper"] > 0.0

    def test_qa_phi_as_psi_weight_is_alpha_beta_one_one(self, capsys):
        # qa_phi is the a = b = 1 member of alpha_beta, so as a psi weight it
        # holds its maximum past t = 1 and the bounds stay ordered
        f5 = '{"breakpoints": [0, 0.2, 0.4, 0.6, 0.8, 1], "values": [5, 4, 3, 2, 1]}'
        outputs = []
        for psi in ('{"family": "qa_phi"}', '{"family": "alpha_beta", "alpha": 1, "beta": 1}'):
            assert main(["qa-bounds", "--phi", QA_PHI, "--psi", psi, "--input", f5]) == 0
            outputs.append(capsys.readouterr().out)
        # the config echoes each psi spec; everything from the result on is the same bytes
        qa_out, ab_out = (out[out.index('"result"'):] for out in outputs)
        assert qa_out == ab_out
        result = json.loads(outputs[0])["result"]
        assert result["upper"] == result["lower"] == 4.173414090547444


class TestTauCurve:
    args = (
        "tau", "--phi", QA_PHI, "--psi", QA_PSI,
        "--tmin", "1e-12", "--tmax", "1", "--points", "50",
    )

    def test_csv_schema(self):
        lines = run_cli(*self.args).stdout.splitlines()
        assert lines[0].startswith("# config:")
        json.loads(lines[0].split("# config:", 1)[1])
        assert lines[1] == "t,tau,phi,ratio"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 50
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts) and len(set(ts)) == 50
        assert ts[0] == 1e-12 and ts[-1] == 1.0

    def test_values_match_library(self):
        lines = run_cli(*self.args).stdout.splitlines()
        for row in (lines[2], lines[-1]):
            t, tv = row.split(",")[:2]
            assert float(tv) == tau(qa_phi(), qa_psi(), float(t))

    def test_deterministic_bytes(self):
        assert run_cli(*self.args).stdout == run_cli(*self.args).stdout

    def test_json_variant(self):
        out = json.loads(run_cli(*self.args, "--out", "json").stdout)
        assert len(out["result"]["rows"]) == 50


class TestCheckSeq:
    def test_passing_report(self):
        proc = run_cli(
            "check-seq", "--seq", '{"kind": "gamma_exp"}',
            "--phi", QA_PHI, "--psi", QA_PSI,
            "--xmin", "1", "--xmax", "40", "--points", "200",
        )
        rep = json.loads(proc.stdout)["result"]
        assert rep["passed"] is True
        assert rep["step_ratio_constant"] == pytest.approx(math.e, rel=1e-9)

    def test_samples_reaching_a_tiny_value(self, capsys):
        # the last knot's sample used to interpolate to 0.0 and fail in log
        seq = {"kind": "samples", "points": [[1, 0.9], [10, 0.01], [400, 1e-200]]}
        assert main(["check-seq", "--seq", json.dumps(seq), "--phi", QA_PHI, "--psi", QA_PSI,
                     "--xmin", "1", "--xmax", "400", "--points", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["monotone_decreasing"] is True
        assert main(equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI, "seq": seq})) == 0


class TestEquivalence:
    def test_matches_library(self):
        proc = run_cli(
            "equivalence",
            "--a", '{"kind": "tau", "phi": {"family": "alpha_beta", "alpha": 0.5, "beta": 1}, "psi": {"family": "psi_gamma", "gamma": 1}}',
            "--b", '{"kind": "iterated_log", "alpha": 0.5, "beta": 1, "exponent": 1}',
            "--tmin", "1e-12", "--tmax", "1e-3", "--points", "100",
            "--threshold", "10",
        )
        out = json.loads(proc.stdout)["result"]
        from qaspace import alpha_beta, psi_gamma

        want = equivalence(
            lambda t: tau(alpha_beta(0.5, 1.0), psi_gamma(1.0), t),
            iterated_log_profile(0.5, 1.0, 1.0),
            1e-12, 1e-3, points=100, threshold=10.0,
        )
        assert out["ratio_min"] == want.ratio_min
        assert out["ratio_max"] == want.ratio_max
        assert out["equivalent"] is True


class TestWitness:
    def test_report(self):
        proc = run_cli(
            "witness", "--phi", QA_PHI, "--psi", QA_PSI,
            "--c", "0.5", "--N", "2",
        )
        out = json.loads(proc.stdout)["result"]
        assert set(out) == {
            "log_mu", "log_a", "lorentz_norm", "qa_upper", "lower_bound", "ratios",
        }
        from qaspace import WitnessSpec, build_witness

        w = build_witness(WitnessSpec(qa_phi(), qa_psi(), N=2, c=0.5, p=1.0))
        assert out["qa_upper"] == witness_qa_upper(w, qa_phi(), qa_psi())
        assert out["ratios"]["qa_upper_over_lower_bound"] > 1.0


class TestOmega:
    def test_report(self):
        proc = run_cli(
            "omega", "--phi-x", '{"family": "alpha_beta", "alpha": 1, "beta": 0.1}',
            "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "2",
        )
        out = json.loads(proc.stdout)["result"]
        assert out["omega_N"] == pytest.approx(0.6225507482175058, rel=1e-9)
        assert out["normalized"] == out["omega_N"] / out["psi_at_N"]


class TestSelftest:
    def test_seed_seven_passes(self):
        proc = run_cli("selftest", "--seed", "7")
        out = json.loads(proc.stdout)["result"]
        assert out["passed"] is True
        assert all(fam["failures"] == 0 for fam in out["families"])
        assert [(fam["name"], fam["runs"]) for fam in out["families"]] == [
            ("rearrangement-equimeasurable", 30),
            ("lorentz-rearrangement-invariant", 25),
            ("bounds-sandwich", 25),
            ("upper-equals-witness-cost", 20),
            ("psi-one-collapse", 25),
            ("quasi-triangle", 25),
            ("tau-compositional", 40),
            ("witness-build", 2),
        ]

    def test_deterministic_bytes(self):
        a = run_cli("selftest", "--seed", "7").stdout
        assert a == run_cli("selftest", "--seed", "7").stdout

    def test_a_failing_sample_exits_one(self, monkeypatch, capsys):
        # the check still draws its sample, so the other families see the
        # same rng stream and pass
        table = list(cli._INVARIANTS)
        name, runs, check = table[2]
        table[2] = (name, runs, lambda rng, i: check(rng, i) and i != 0)
        monkeypatch.setattr(cli, "_INVARIANTS", table)
        assert main(["selftest", "--seed", "7"]) == 1
        out = json.loads(capsys.readouterr().out)["result"]
        assert out["passed"] is False
        assert {fam["name"]: fam["failures"] for fam in out["families"] if fam["failures"]} == {
            "bounds-sandwich": 1
        }


class TestErrors:
    def test_unknown_flag(self):
        proc = run_cli("rearrange", "--input", F3, "--frobnicate", check=False)
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("transmogrify", check=False)
        assert proc.returncode == 2

    def test_bad_shape_family(self):
        proc = run_cli(
            "qa-bounds", "--phi", '{"family": "nope"}', "--psi", QA_PSI,
            "--input", F3, check=False,
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecParseError"

    def test_malformed_json(self):
        proc = run_cli("rearrange", "--input", '{"breakpoints": [0, 1]', check=False)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["type"]

    def test_bad_grid(self):
        proc = run_cli(
            "tau", "--phi", QA_PHI, "--psi", QA_PSI,
            "--tmin", "0.5", "--tmax", "0.1", check=False,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["check-seq", "--seq", '{"kind": "samples"}', "--phi", QA_PHI,
              "--psi", QA_PSI], "'points'"),
            (equivalence_argv({"kind": "shape"}), "'spec'"),
            (equivalence_argv({"kind": "tau", "psi": PSI}), "'phi'"),
            (equivalence_argv({"kind": "tau", "phi": PHI}), "'psi'"),
            (equivalence_argv({"kind": "alpha_s", "phi": PHI, "psi": PSI}), "'seq'"),
            (equivalence_argv({"kind": "iterated_log", "beta": 1, "exponent": 1}), "'alpha'"),
            (equivalence_argv({"kind": "iterated_log", "alpha": 0.5, "exponent": 1}), "'beta'"),
            (equivalence_argv({"kind": "iterated_log", "alpha": 0.5, "beta": 1}), "'exponent'"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal"}, "n_max": -5}), "n_max -5"),
            (["check-seq", "--seq", '{"kind": "samples", "points": 5}', "--phi", QA_PHI,
              "--psi", QA_PSI], "'points'"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal"}, "n_max": None}), "'n_max'"),
            (equivalence_argv({"kind": "iterated_log", "alpha": None, "beta": 1,
                               "exponent": 1}), "'alpha'"),
            (["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI,
              "--psi", QA_PSI, "--points", "1"], "at least 3 points"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal"}, "n_max": 2.9}),
             "'n_max': 2.9 is not a whole number"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI, "seq": {
                "kind": "samples", "points": [[1, 0.5], [2, 0.6], [3, 0.1]]}}), "rises at index 2"),
            (["lorentz-norm", "--phi", '{"family": "piecewise", "points": [[0, 0], [0.5, NaN], [1, 1]]}',
              "--input", '{"breakpoints": [0, 0.5, 1], "values": [2, 1]}'], "must be finite"),
            (["lorentz-norm", "--phi",
              '{"family": "piecewise", "points": [[0, 0], [0.5, Infinity], [1, Infinity]]}',
              "--input", '{"breakpoints": [0, 0.5, 1], "values": [2, 1]}'], "must be finite"),
            (["lorentz-norm", "--phi", QA_PHI, "--input",
              '{"breakpoints": [0, 1e999], "values": [1]}'], "Infinity"),
            (["lorentz-norm", "--phi", QA_PHI, "--input",
              '{"breakpoints": [0, 1%s], "values": [1]}' % ("0" * 400)], "too large"),
            (["lorentz-norm", "--phi", '{"family": "alpha_beta", "alpha": 1%s, "beta": 1}' % ("0" * 400),
              "--input", F3], "too large"),
            (["tau", "--phi", '{"family": "piecewise", "points": [[0, 0], [0.5, 0], [1, 0]]}',
              "--psi", QA_PSI, "--tmin", "0.6", "--tmax", "0.9", "--points", "3"],
             "after (0, 0) must be positive"),
            (["witness", "--phi", QA_PHI, "--psi",
              '{"family": "piecewise", "points": [[0, 0], [50, 0]], "domain": "psi"}',
              "--c", "0.5", "--N", "4"], "after (0, 0) must be positive"),
            (["lorentz-norm", "--phi", '{"family": "piecewise", "points": [[0, 0], [1, 0]]}',
              "--input", F3], "after (0, 0) must be positive"),
            (["lorentz-norm", "--phi", QA_PHI, "--input",
              '{"breakpoints": ["0", "1"], "values": [1]}'],
             '\'breakpoints[0]\': expected a number, got "0"'),
        ],
    )
    def test_bad_specs_exit_2_with_one_json_line(self, capsys, argv, names):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert names in json.loads(lines[0])["error"]["message"]

    # JSON numbers only, and only the keys a kind allows: each of these once
    # exited 0 (or 2 with another error type), taking a bool, a string or a
    # foreign key as if it were meant
    @pytest.mark.parametrize(
        "argv, kind, message",
        [
            (["rearrange", "--input",
              '{"breakpoints": [false, "0.5", true], "values": [true, "2"]}'],
             "SpecParseError", "'breakpoints[0]': expected a number, got false"),
            (["rearrange", "--input", '{"breakpoints": "01", "values": [1]}'],
             "SpecParseError", "'breakpoints': expected a list, got \"01\""),
            (["rearrange", "--input", '{"breakpoints": [0, 1], "values": [true]}'],
             "SpecParseError", "'values[0]': expected a number, got true"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal"}, "n_max": True}),
             "SpecParseError", "'n_max': expected a number, got true"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal"}, "n_max": "50"}),
             "SpecParseError", "'n_max': expected a number, got \"50\""),
            (equivalence_argv({"kind": "iterated_log", "alpha": "0.5", "beta": 1,
                               "exponent": 1}),
             "SpecParseError", "'alpha': expected a number, got \"0.5\""),
            (["lorentz-norm", "--phi", '{"family": "alpha_beta", "alpha": "0.5", "beta": 1}',
              "--input", F3], "SpecParseError", "'alpha': expected a number, got \"0.5\""),
            (["lorentz-norm", "--phi",
              '{"family": "piecewise", "points": [[0, 0], [0.5, true], [1, 1]]}',
              "--input", F3], "SpecParseError", "'points[1][1]': expected a number, got true"),
            (["check-seq", "--seq", '{"kind": "reciprocal", "phi": {"family": "nope"}}',
              "--phi", QA_PHI, "--psi", QA_PSI],
             "SpecParseError", "unknown keys for the reciprocal sequence spec: ['phi']"),
            (equivalence_argv({"kind": "alpha_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal", "points": [[1, 0.5], [2, 0.25]]}}),
             "SpecParseError", "'seq': unknown keys for the reciprocal sequence spec: ['points']"),
            (equivalence_argv({"kind": "alpha_s", "phi": PHI, "psi": PSI, "seq": "reciprocal"}),
             "SpecParseError", "'seq': sequence spec must be an object, got \"reciprocal\""),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "samples", "points": [[1, 0.5], [True, 0.25]]}}),
             "SpecParseError", "'seq.points[1][0]': expected a number, got true"),
            (equivalence_argv({"kind": "tau", "phi": PHI, "psi": PSI, "bogus": 1}),
             "SpecParseError", "unknown keys for the tau expression spec: ['bogus']"),
            # falsifying examples of the exit-contract properties below
            (["rearrange", "--input", '{"breakpoints": [0, 0.015625, true], "values": [0.0, 0.0]}'],
             "SpecParseError", "'breakpoints[2]': expected a number, got true"),
            (equivalence_argv({"kind": "shape", "spec": {"family": "alpha_beta", "alpha": 0.5,
                                                         "beta": 1}, "bogus": 1}),
             "SpecParseError", "unknown keys for the shape expression spec: ['bogus']"),
            (equivalence_argv({"kind": "phi_s", "phi": PHI, "psi": PSI,
                               "seq": {"kind": "reciprocal"}, "n_max": 1e300}),
             "DomainError", "n_max is capped at 1000000 terms"),
            # the grid step is (xmax - xmin) * (i / (points - 1)): the product
            # with i first overflowed to inf and was refused as a bad grid
            (["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", QA_PSI,
              "--xmax", "1e308", "--points", "5"], "DomainError",
             "the step-ratio scan is capped at 1000000 integers; the grid runs from 1 to 1e+308"),
            (["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "2000000000"],
             "IllegalSpec", "N is capped at 500, got 2000000000"),
            (["omega", "--phi-x", QA_PHI, "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5",
              "--N", "501"], "IllegalSpec", "N is capped at 500, got 501"),
        ],
    )
    def test_malformed_specs_name_their_key_path(self, capsys, argv, kind, message):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == {"type": kind, "message": message}

    # argparse reads "inf" and "nan" as floats: each non-finite grid or
    # threshold flag is refused by name, before it can break a grid or turn
    # a verdict false (equivalence with --threshold nan exited 0)
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            *((["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", QA_PSI,
                "--points", "5"], flag) for flag in ("xmin", "xmax")),
            *((["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "1e-6", "--tmax", "0.5",
                "--points", "5"], flag) for flag in ("tmin", "tmax")),
            *((equivalence_argv({"kind": "shape", "spec": PHI}), flag)
              for flag in ("tmin", "tmax", "threshold")),
        ],
    )
    def test_non_finite_flags_are_refused_by_name(self, capsys, argv, flag, value):
        assert main([*argv, f"--{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        want = f"--{flag} must be finite, got {float(value)!r}"
        assert json.loads(line)["error"] == {"type": "DomainError", "message": want}

    def test_main_in_process(self, capsys):
        code = main(["qa-bounds", "--phi", '{"family": "nope"}', "--psi", QA_PSI, "--input", F3])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpecParseError"


# JSON tokens that no grid or value may carry: NaN, +-1.8e308 (inf once
# parsed) and non-numbers; and tokens that are odd but fine as values
BAD_TOKENS = ("NaN", "1.8e308", "-1.8e308", '"x"', "null", "[]", "{}", "true")
ODD_TOKENS = ("5e-324", "-5e-324", "2.5e-310", "-0.0")
GRID_FAULTS = ("repeated", "reversed", "not from 0 to 1", "wrong length", "bad breakpoint")
INPUT_PREFIXES = [
    ["rearrange"],
    ["lorentz-norm", "--phi", QA_PHI],
    *(["qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI, "--strategy", s]
      for s in ("auto", "layers", "local", "exhaustive")),
]


@st.composite
def function_texts(draw):
    """(JSON text of a step function, whether it must be refused): often with
    one grid fault, and values that include NaN, overflow, subnormals and
    non-numbers."""
    m = draw(st.integers(1, 6))
    cuts = draw(st.lists(st.integers(1, 63), min_size=m - 1, max_size=m - 1, unique=True))
    bps = ["0", *(repr(c / 64) for c in sorted(cuts)), "1"]
    value = st.one_of(
        st.floats(-8.0, 8.0, allow_nan=False).map(repr),
        st.sampled_from(ODD_TOKENS),
        st.sampled_from(BAD_TOKENS),
    )
    vals = draw(st.lists(value, min_size=m, max_size=m))
    fault = draw(st.sampled_from((None, *GRID_FAULTS)))
    if fault == "repeated":
        i = draw(st.integers(0, m - 1))
        bps[i + 1] = bps[i]
    elif fault == "reversed":
        bps.reverse()
    elif fault == "not from 0 to 1":
        end = draw(st.sampled_from((0, -1)))
        bps[end] = draw(st.sampled_from(("-0.5", "0.25", "0.75", "1.5", "5e-324")))
    elif fault == "wrong length":
        vals = vals[:-1] if draw(st.booleans()) else [*vals, "1.0"]
    elif fault == "bad breakpoint":
        bps[draw(st.integers(0, m))] = draw(st.sampled_from(BAD_TOKENS))
    text = '{"breakpoints": [%s], "values": [%s]}' % (", ".join(bps), ", ".join(vals))
    return text, fault is not None or any(v in BAD_TOKENS for v in vals)


# the keys each spec kind allows besides its tag (and a shape's "domain"),
# written out here as the contract the decoders must keep
SHAPE_KEYS = {"qa_phi": (), "qa_psi": (), "identity": (), "constant_one": (),
              "alpha_beta": ("alpha", "beta"), "psi_gamma": ("gamma",), "piecewise": ("points",)}
SEQUENCE_KEYS = {"reciprocal": (), "gamma_exp": ("phi",), "samples": ("points",)}
EXPRESSION_KEYS = {"shape": ("spec",), "tau": ("phi", "psi"), "phi_s": ("phi", "psi", "seq", "n_max"),
                   "alpha_s": ("phi", "psi", "seq"), "iterated_log": ("alpha", "beta", "exponent")}
# a well-formed value for every key, so that a foreign key is the only fault
KEY_VALUES = {"alpha": 0.5, "beta": 1, "gamma": 0.5, "points": [[1, 0.5], [2, 0.25]],
              "phi": PHI, "psi": PSI, "spec": PHI, "seq": {"kind": "reciprocal"},
              "n_max": 50, "exponent": 1}
PHI_SPECS = [PHI, {"family": "alpha_beta", "alpha": 0.5, "beta": 1}, {"family": "identity"},
             {"family": "piecewise", "points": [[0, 0], [0.25, 0.5], [1, 1]]}]
PSI_SPECS = [PSI, {"family": "psi_gamma", "gamma": 0.5}, {"family": "constant_one", "domain": "psi"}]
SAMPLES = {"kind": "samples", "points": [[1, 0.9], [10, 0.01], [400, 1e-200]]}
SEQUENCE_SPECS = [{"kind": "reciprocal"}, {"kind": "gamma_exp"}, SAMPLES,
                  {"kind": "gamma_exp", "phi": {"family": "alpha_beta", "alpha": 0.5, "beta": 0.7}}]
EXPRESSION_SPECS = [
    {"kind": "shape", "spec": PHI_SPECS[1]},
    {"kind": "tau", "phi": PHI_SPECS[1], "psi": PSI_SPECS[1]},
    {"kind": "phi_s", "phi": PHI, "psi": PSI, "seq": {"kind": "reciprocal"}, "n_max": 50},
    {"kind": "phi_s", "phi": PHI, "psi": PSI, "seq": SAMPLES},
    {"kind": "alpha_s", "phi": PHI, "psi": PSI, "seq": {"kind": "gamma_exp"}},
    {"kind": "iterated_log", "alpha": 0.5, "beta": 1, "exponent": 1},
]
WITNESS = ["--c", "0.5", "--N", "2"]
CHECK_SEQ = ["--xmax", "5", "--points", "3"]
GRID = ["--tmin", "1e-6", "--tmax", "0.5", "--points", "3"]
# every subcommand slot that reads a spec: argv with the spec's text for "S"
SLOTS = [
    (["lorentz-norm", "--phi", "S", "--input", F3], PHI_SPECS),
    (["qa-bounds", "--phi", "S", "--psi", QA_PSI, "--input", F3], PHI_SPECS),
    (["qa-bounds", "--phi", QA_PHI, "--psi", "S", "--input", F3], PSI_SPECS),
    (["tau", "--phi", "S", "--psi", QA_PSI, *GRID, "--out", "json"], PHI_SPECS),
    (["tau", "--phi", QA_PHI, "--psi", "S", *GRID, "--out", "json"], PSI_SPECS),
    (["check-seq", "--seq", "S", "--phi", QA_PHI, "--psi", QA_PSI, *CHECK_SEQ], SEQUENCE_SPECS),
    (["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", "S", "--psi", QA_PSI,
      *CHECK_SEQ], PHI_SPECS),
    (["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", "S",
      *CHECK_SEQ], PSI_SPECS),
    (["equivalence", "--a", "S", "--b", json.dumps(EXPRESSION_SPECS[0]), *GRID],
     EXPRESSION_SPECS),
    (["equivalence", "--a", json.dumps(EXPRESSION_SPECS[0]), "--b", "S", *GRID],
     EXPRESSION_SPECS),
    (["witness", "--phi", "S", "--psi", QA_PSI, *WITNESS], PHI_SPECS),
    (["witness", "--phi", QA_PHI, "--psi", "S", *WITNESS], PSI_SPECS),
    (["omega", "--phi-x", "S", "--phi", QA_PHI, "--psi", QA_PSI, *WITNESS], PHI_SPECS),
    (["omega", "--phi-x", QA_PHI, "--phi", "S", "--psi", QA_PSI, *WITNESS], PHI_SPECS),
]


def _nodes(node, path=()):
    """(path, node) for node and everything nested in it."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _foreign_keys(node: dict) -> list:
    """The keys that belong to another kind of node's type, but not to its own."""
    for tag, table in (("family", SHAPE_KEYS), ("kind", SEQUENCE_KEYS), ("kind", EXPRESSION_KEYS)):
        if node.get(tag) in table:
            every = {key for keys in table.values() for key in keys}
            return sorted(every - set(table[node[tag]]))
    raise AssertionError(node)


def _faults(path, node) -> list:
    """Every replacement of node that the decoders must refuse: a bool, a numeric
    string, null, a string where a list belongs, wrong nesting, and unknown or
    foreign keys."""
    if isinstance(node, dict):
        out = [{**node, "bogus": 1}, [node]]
        out += [{**node, key: KEY_VALUES[key]} for key in _foreign_keys(node)]
        return out + (["x"] if path else [])  # a bare string names a file
    if isinstance(node, list):
        out = ["01", 1, {}, [node]]
        if node and all(isinstance(item, list) for item in node):
            out.append([x for item in node for x in item])
        return out
    if isinstance(node, str):
        return [True, 1, "nope", [node]]
    return [True, False, "0.5", None, [node], {}]


def _replaced(spec, path, value):
    if not path:
        return value
    spec = copy.deepcopy(spec)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return spec


@st.composite
def spec_argvs(draw):
    """(argv, whether its spec is malformed): a well-formed spec in a slot of a
    subcommand that reads it, often with one fault somewhere inside."""
    template, specs = draw(st.sampled_from(SLOTS))
    spec = draw(st.sampled_from(specs))
    malformed = draw(st.booleans())
    if malformed:
        path, node = draw(st.sampled_from(list(_nodes(spec))))
        spec = _replaced(spec, path, draw(st.sampled_from(_faults(path, node))))
    return [json.dumps(spec) if arg == "S" else arg for arg in template], malformed


class TestExitContract:
    """User grids are validated in full: every input exits 0, or 2 with one
    JSON error line on stderr, and a malformed one always exits 2."""

    @given(st.sampled_from(INPUT_PREFIXES), function_texts())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_function_inputs_exit_0_or_2(self, prefix, case):
        text, malformed = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*prefix, "--input", text])
        if code == 0 and not malformed:
            assert err.getvalue() == ""
            json.loads(out.getvalue())
            return
        assert code == 2, (code, text)
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])["error"]) == {"type", "message"}

    @given(spec_argvs())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_shape_sequence_and_expression_specs_exit_0_or_2(self, case):
        argv, malformed = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0 and not malformed:
            assert err.getvalue() == ""
            json.loads(out.getvalue())
            return
        assert code == 2, (code, argv)
        assert out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        error = json.loads(line)["error"]
        # a well-formed spec may still fail in the answer, but never in the decoder
        assert (error["type"] == "SpecParseError") == malformed, (error, argv)


class TestOutputRouting:
    def test_output_file(self, tmp_path):
        dest = tmp_path / "out.json"
        proc = run_cli("lorentz-norm", "--phi", QA_PHI, "--input", F3, "--output", str(dest))
        assert proc.stdout == ""
        assert json.loads(dest.read_text())["result"]["value"] == 2.5623351446188085

    def test_out_dir_env(self, tmp_path):
        run_cli(
            "lorentz-norm", "--phi", QA_PHI, "--input", F3,
            "--output", "routed.json",
            env_extra={"QASPACE_OUT_DIR": str(tmp_path)},
        )
        assert (tmp_path / "routed.json").exists()


class TestBeyondFloatRange:
    HUGE = '{"breakpoints": [0, 0.5, 1], "values": [1.7e308, 1e308]}'
    SQRT_LOG = '{"family": "alpha_beta", "alpha": 0.5, "beta": 1}'

    def test_overflowing_candidate_loses_to_a_finite_one(self, capsys):
        assert main(["qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI, "--input", self.HUGE]) == 0
        out = json.loads(capsys.readouterr().out)["result"]
        assert out["upper"] == 1.6612069391259734e308
        assert math.isfinite(out["lower"])

    def test_overflowing_sums_print_as_infinity(self, capsys):
        argv = ["--phi", self.SQRT_LOG, "--input", self.HUGE]
        assert main(["qa-bounds", *argv, "--psi", QA_PSI]) == 0
        text = capsys.readouterr().out
        assert '"lower": Infinity' in text and '"upper": Infinity' in text
        assert main(["lorentz-norm", *argv]) == 0
        assert '"value": Infinity' in capsys.readouterr().out
