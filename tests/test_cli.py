import contextlib
import copy
import importlib
import inspect
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qaspace
from qaspace import (
    SequenceSpec,
    StepFunction,
    lorentz_norm,
    equivalence,
    iterated_log_profile,
    parse_shape,
    phi_s,
    psi_gamma,
    qa_phi,
    qa_psi,
    qa_upper,
    rearrange,
    tau,
    witness_qa_upper,
)
from qaspace import cli, embeddings, selftest, shapes
from qaspace.cli import OUT_DIR_VAR, main
from qaspace.errors import SHOW_LENGTH

F3 = '{"breakpoints": [0, 0.25, 0.5, 1], "values": [3, 1, 2]}'
QA_PHI = '{"family": "qa_phi"}'
QA_PSI = '{"family": "qa_psi"}'


PHI, PSI = json.loads(QA_PHI), json.loads(QA_PSI)
PIECEWISE_PHI = '{"family": "piecewise", "points": [[0, 0], [0.34, 0.5]]}'


def equivalence_argv(expr_a):
    """equivalence of expr_a against qa_phi over a short grid."""
    return [
        "equivalence", "--a", json.dumps(expr_a),
        "--b", json.dumps({"kind": "shape", "spec": PHI}),
        "--tmin", "1e-6", "--tmax", "0.5", "--points", "5",
    ]


def tree_env(**extra):
    """This process's environment and extra, with the qaspace under test
    first on PYTHONPATH: a child interpreter runs this tree however the
    suite was started."""
    src = os.path.dirname(os.path.dirname(qaspace.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **extra, "PYTHONPATH": path}


def run_cli(*args, env_extra=None, check=True):
    proc = subprocess.run(
        [sys.executable, "-c", "from qaspace.cli import main; raise SystemExit(main())", *args],
        capture_output=True,
        text=True,
        env=tree_env(**(env_extra or {})),
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

    def test_exhaustive_cap_names_a_strategy_the_flag_takes(self, capsys):
        f12 = json.dumps({"breakpoints": [k / 16 for k in range(12)] + [1],
                          "values": list(range(1, 13))})
        argv = ["qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI, "--input", f12, "--strategy"]
        assert main([*argv, "exhaustive"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "TooManyLayers",
            "message": "12 layers exceed the exhaustive cap 10; use --strategy local",
        }
        assert main([*argv, "local"]) == 0  # the value the advice names is taken
        assert json.loads(capsys.readouterr().out)["config"]["strategy"] == "local"

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

    # exp(log 0.34) is 0.3400000000000001, past the last sample: this exited 2
    def test_a_piecewise_phi_up_to_its_last_sample(self, capsys):
        argv = ["tau", "--phi", PIECEWISE_PHI, "--psi", QA_PSI,
                "--tmin", "0.01", "--tmax", "0.34", "--points", "3"]
        assert main(argv) == 0
        t, tv = capsys.readouterr().out.splitlines()[-1].split(",")[:2]
        phi = parse_shape(json.loads(PIECEWISE_PHI))
        assert (float(t), float(tv)) == (0.34, tau(phi, qa_psi(), 0.34))


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

    # xmin + (xmax - xmin) * 1.0 rounds past xmax for each pair: a grid that
    # ends at a sequence's last sample, or a ladder's end, stepped past it
    @pytest.mark.parametrize("xmin, xmax", [(2.98, 7.53), (3.64, 7.88), (1.81, 6.8)])
    @pytest.mark.parametrize("points", ["3", "200"])
    def test_grid_ends_at_xmax(self, capsys, xmin, xmax, points):
        seq = {"kind": "samples", "points": [[xmin, 0.9], [5, 0.5], [xmax, 0.1]]}
        assert main(["check-seq", "--seq", json.dumps(seq), "--phi", QA_PHI, "--psi", QA_PSI,
                     "--xmin", str(xmin), "--xmax", str(xmax), "--points", points]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["xmax"] == xmax

    def test_grid_ends_at_a_ladders_end(self, capsys):
        phi = {"family": "piecewise", "points": [[0, 0], [0.1, 0.5], [1, 1]]}
        end = SequenceSpec.from_json({"kind": "gamma_exp"}, parse_shape(phi)).domain_end
        assert main(["check-seq", "--seq", '{"kind": "gamma_exp"}', "--phi", json.dumps(phi),
                     "--psi", QA_PSI, "--xmax", repr(end), "--points", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["xmax"] == end


    # log gamma falls past expm1's range along the ladder's second chord: the
    # inverse overflowed, and this exited 1 with a traceback
    def test_a_ladder_past_expm1s_range(self, capsys):
        phi = {"family": "piecewise", "points": [[0, 0], [1e-320, 1e-13], [1, 2e-13]]}
        assert main(["check-seq", "--seq", '{"kind": "gamma_exp"}', "--phi", json.dumps(phi),
                     "--psi", QA_PSI, "--xmin", "1", "--xmax", "700", "--points", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["monotone_decreasing"] is True


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

    def test_a_piecewise_phi_up_to_its_last_sample(self, capsys):
        phi = json.loads(PIECEWISE_PHI)
        argv = ["equivalence", "--a", json.dumps({"kind": "tau", "phi": phi, "psi": PSI}),
                "--b", json.dumps({"kind": "shape", "spec": phi}),
                "--tmin", "0.01", "--tmax", "0.34", "--points", "3"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["ratio_min"] > 1.0

    def test_a_phi_s_without_n_max_echoes_phi_s_default(self, capsys):
        expr = {"kind": "phi_s", "phi": PHI, "psi": PSI, "seq": {"kind": "reciprocal"}}
        assert main(equivalence_argv(expr)) == 0
        echo = json.loads(capsys.readouterr().out)["config"]["a"]["n_max"]
        assert echo == inspect.signature(phi_s).parameters["n_max"].default == 10_000


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

    def test_a_floor_that_rounds_to_zero_gives_infinite_ratios(self, capsys):
        # 2^c rounds to 1 at c = 1e-30, so (2.0**c - 1)/8 psi(N) rounds to 0.0,
        # and upper / floor exited 1 with ZeroDivisionError; expm1(c log 2)
        # keeps the floor positive, and the ratios are Infinity from the upper bound
        argv = ["witness", "--phi", '{"family": "alpha_beta", "alpha": 0.1, "beta": 0.5}',
                "--psi", '{"family": "psi_gamma", "gamma": 1e-12}', "--c", "1e-30", "--N", "20"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "NaN" not in text and '"qa_upper_over_lower_bound": Infinity' in text
        result = json.loads(text)["result"]
        assert result["qa_upper"] == math.inf
        assert result["lower_bound"] == pytest.approx(math.log(2.0) / 8.0 * 1e-30
                                                      * psi_gamma(1e-12)(20.0), rel=1e-12)


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
        table = list(selftest._INVARIANTS)
        name, runs, check = table[2]
        table[2] = (name, runs, lambda rng, i: check(rng, i) and i != 0)
        monkeypatch.setattr(selftest, "_INVARIANTS", table)
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

    # a log range one ulp wide gave 5 points, 4 of them equal, and exit 0
    @pytest.mark.parametrize("head", [
        ["tau", "--phi", QA_PHI, "--psi", QA_PSI],
        ["equivalence", "--a", json.dumps({"kind": "tau", "phi": PHI, "psi": PSI}),
         "--b", json.dumps({"kind": "shape", "spec": PHI})],
    ])
    def test_log_range_too_narrow_for_its_points(self, capsys, head):
        argv = [*head, "--tmin", "0.5", "--tmax", "0.5000000000000001", "--points", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = ("need 0 < t_min < t_max and at least two points that strictly increase, "
                "got t_min=0.5, t_max=0.5000000000000001, points=5")
        assert json.loads(captured.err) == {"error": {"type": "ValueError", "message": want}}

    # phi(1e-30) underflows to 0.0: tau / phi raised ZeroDivisionError and this
    # exited 1 with a traceback; equivalence already refused the same pair
    def test_tau_refuses_a_phi_that_underflows(self, capsys):
        phi = {"family": "piecewise", "points": [[0, 0], [0.5, 1e-300]]}
        tail = ["--tmin", "1e-30", "--tmax", "0.5", "--points", "5"]
        assert main(["tau", "--phi", json.dumps(phi), "--psi", QA_PSI, *tail]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = "the ratio tau/phi needs phi(t) > 0, got 0.0 at t=1e-30"
        assert captured.err == json.dumps(
            {"error": {"message": want, "type": "NonPositiveValue"}}) + "\n"
        assert main(["equivalence", "--a", json.dumps({"kind": "tau", "phi": phi, "psi": PSI}),
                     "--b", json.dumps({"kind": "shape", "spec": phi}), *tail]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NonPositiveValue"

    # the grid's last point was computed before it was pinned to --tmax:
    # exp(log 1e-30 + (log tmax - log 1e-30)) rounds past the largest float,
    # and this exited 1 with an OverflowError traceback
    def test_a_grid_ending_at_the_largest_float_exits_2(self, capsys):
        argv = ["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "1e-30",
                "--tmax", repr(sys.float_info.max), "--points", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": {"type": "DomainError",
                                              "message": "tau needs t in [0,1]"}}

    # an OSError quoted the whole path it was given: 100,000 characters made a
    # 100,079-byte stderr line; a message of SHOW_LENGTH or fewer is kept whole
    @pytest.mark.parametrize("flag", ["--input", "--output"])
    @pytest.mark.parametrize("length", [10, 100_000])
    def test_an_os_error_names_at_most_a_cut_path(self, capsys, monkeypatch, tmp_path, flag,
                                                   length):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUT_DIR_VAR, raising=False)
        path = os.path.join("missing", "x" * length)
        with pytest.raises(OSError) as info:
            open(path, "w")
        whole = str(info.value)
        argv = {"--input": ["rearrange", "--input", path],
                "--output": ["rearrange", "--input", F3, "--output", path]}[flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        message = whole if len(whole) <= SHOW_LENGTH else whole[: SHOW_LENGTH - 3] + "..."
        assert json.loads(line) == {"error": {"type": type(info.value).__name__,
                                              "message": message}}
        assert len(line) < 400
        assert list(tmp_path.iterdir()) == []

    # an empty range, and one an ulp wide, whose grid repeats a point, were
    # refused as "x_grid must be at least 3 strictly increasing points", which
    # named no flag and not where the grid starts
    @pytest.mark.parametrize("xmin, xmax, start", [("0", "0.5", 1.0), ("5", "3", 5.0),
                                                   ("1", "1.0000000000000002", 1.0)])
    def test_check_seq_empty_range_names_xmax(self, capsys, xmin, xmax, start):
        for points in (3, 200):
            argv = ["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI,
                    "--psi", QA_PSI, "--xmin", xmin, "--xmax", xmax, "--points", str(points)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            want = (f"--xmax must exceed the grid's start {start!r} (the larger of --xmin and the "
                    f"sequence's first x) by room for --points {points} strictly increasing "
                    f"points, got {float(xmax)!r}")
            assert json.loads(captured.err) == {"error": {"type": "DomainError", "message": want}}

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
            # the JSON reader recursed past the interpreter's limit and exited 1
            (["rearrange", "--input", "[" * 5000 + "]" * 5000],
             "--input: the JSON nests too deeply to read"),
            # the sample's y/t rounds to 0, where the message once said only "math domain error"
            (["witness", "--phi", QA_PHI, "--psi",
              '{"family": "piecewise", "points": [[0, 0], [1, 5e-324], [2, 5e-324]], "domain": "psi"}',
              "--c", "0.5", "--N", "4"], "bad piecewise spec: piecewise sample (2.0, 5e-324) has y/t"),
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
            # a sample's y/t overflows to inf: the ladder's inverse raised OverflowError
            # and each of these exited 1 with a traceback
            (equivalence_argv({"kind": "phi_s", "phi": {"family": "piecewise", "points": [
                [0, 0], [5e-324, 1], [1, 1]]}, "psi": PSI, "seq": {"kind": "gamma_exp"}}),
             "SpecParseError", "'phi': bad piecewise spec: piecewise sample (5e-324, 1.0)"
             " has y/t above the largest float"),
            (["check-seq", "--seq", '{"kind": "gamma_exp"}', "--phi",
              '{"family": "piecewise", "points": [[0, 0], [0.5, 1e308], [1, 1.7e308]]}',
              "--psi", QA_PSI], "SpecParseError",
             "bad piecewise spec: piecewise sample (0.5, 1e+308) has y/t above the largest float"),
            # the product overflowed: this exited 1 with a traceback
            (equivalence_argv({"kind": "iterated_log", "alpha": 0.5, "beta": 1e308,
                               "exponent": 1}), "NonPositiveValue",
             "need positive finite samples, got inf/1.4815510557964273e-05 at t=1e-06"),
            # no sample after the origin: the shape was built, and refused every t > 0
            (["lorentz-norm", "--phi", '{"family": "piecewise", "points": [[0, 0]]}',
              "--input", F3], "SpecParseError",
             "bad piecewise spec: piecewise needs a sample after (0, 0)"),
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
            # the witness numbers are named as flags, not as the spec's parameters
            *((["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "3"], flag)
              for flag in ("c", "p", "mu1")),
            *((["omega", "--phi-x", QA_PHI, "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5",
                "--N", "3"], flag) for flag in ("c", "p", "mu1")),
        ],
    )
    def test_non_finite_flags_are_refused_by_name(self, capsys, argv, flag, value):
        assert main([*argv, f"--{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        want = f"--{flag} must be finite, got {float(value)!r}"
        assert json.loads(line)["error"] == {"type": "DomainError", "message": want}

    # every subcommand takes its flags in full: each abbreviation here was read as the
    # flag it begins (rearrange's --out as --output wrote the report to a file named
    # json), and witness's --out, which took only json and changed nothing, is gone
    @pytest.mark.parametrize(
        "argv",
        [
            ["rearrange", "--input", F3, "--out", "json"],
            ["lorentz-norm", "--phi", QA_PHI, "--input", F3, "--outp", "-"],
            ["qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI, "--input", F3, "--strat", "local"],
            ["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "0.1", "--tmax", "0.5",
             "--point", "3"],
            ["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", QA_PSI,
             "--point", "3"],
            [*equivalence_argv({"kind": "shape", "spec": PHI}), "--thresh", "2"],
            ["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "4", "--mu", "0.1"],
            ["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "4",
             "--out", "json"],
            ["omega", "--phi-x", QA_PHI, "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "4",
             "--mu", "0.1"],
            ["selftest", "--se", "7"],
        ],
    )
    def test_abbreviated_flags_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: qaspace {argv[0]} ")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
        assert list(tmp_path.iterdir()) == []

    # a 150-deep spec was decoded and its error quoted 300 brackets; a
    # 100,000-item list, or object, was quoted whole on one stderr line
    @pytest.mark.parametrize("text, message", [
        ("[" * 150 + "]" * 150, "--input: the JSON nests too deeply to read"),
        (json.dumps([1] * 100_000), "step function spec must be an object, got "
         + json.dumps([1] * 100)[:197] + "..."),
        (json.dumps({"breakpoints": [0, 1], "values": [1],
                     **{f"k{i:06}": 0 for i in range(100_000)}}),
         "unknown keys for the step function spec: "
         + str([f"k{i:06}" for i in range(100)])[:197] + "..."),
    ], ids=["150-deep", "100000-item list", "100000-key object"])
    def test_deep_or_long_specs_get_a_short_message(self, capsys, text, message):
        assert main(["rearrange", "--input", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": "SpecParseError", "message": message}}
        assert len(captured.err) < 400

    # the linear grid was built in full before any check: a huge --points
    # ran out of memory (1,000,001 points still build quickly)
    def test_check_seq_caps_its_grid_points(self, capsys):
        argv = ["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", QA_PSI,
                "--xmax", "2e6", "--points", "1000001"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": {
            "type": "DomainError", "message": "a grid is capped at 1000000 points, got 1000001"}}

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


# ROADMAP item 17's pool of float edges, and 0.5 and 10, so that a spec
# with one edge among ordinary values gets past its checks
FLOAT_EDGES = (5e-324, 1e-300, 1e-30, 1e-12, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1e300,
               sys.float_info.max, 0.0, -0.0, -5e-324, -1.0, -sys.float_info.max, 0.5, 10.0)
# half of the numbers are edges in (0, 1], which most parameters need; a
# float flag may also be non-finite, which argparse reads
UNIT_EDGES = st.sampled_from([x for x in FLOAT_EDGES if 0 < x <= 1])
EDGE = st.one_of(UNIT_EDGES, st.sampled_from(FLOAT_EDGES))
FLAG_FLOAT = st.one_of(UNIT_EDGES, st.sampled_from((*FLOAT_EDGES, math.inf, -math.inf, math.nan)))
# the work caps have their own tests: a small N, n_max and grid keep each argv quick
INT_CAPS = {"N": 10, "points": 20, "n_max": 20}


@st.composite
def edge_pairs(draw):
    """[x, y] pairs with edge coordinates and increasing x, often after (0, 0)
    and often with y in order, so that some are valid samples."""
    xs = sorted(set(draw(st.lists(EDGE, min_size=1, max_size=4))))
    ys = draw(st.lists(EDGE, min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):
        ys.sort(reverse=draw(st.booleans()))
    pairs = [[x, y] for x, y in zip(xs, ys)]
    return [[0.0, 0.0], *pairs] if draw(st.booleans()) else pairs


@st.composite
def edge_step_functions(draw):
    cuts = sorted(set(draw(st.lists(st.sampled_from([x for x in FLOAT_EDGES if 0 < x < 1]),
                                    max_size=3))))
    values = draw(st.lists(EDGE, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return {"breakpoints": [0.0, *cuts, 1.0], "values": values}


def edge_value(key):
    """A value for a spec key: a nested spec, a whole number, pairs or an edge."""
    if key in ("phi", "psi", "spec"):
        return edge_specs("family", shapes._KEYS)
    if key == "seq":
        return edge_specs("kind", embeddings._SEQUENCE_KEYS)
    if key == "points":
        return edge_pairs()
    return st.sampled_from(range(-1, INT_CAPS[key] + 1)) if key in INT_CAPS else EDGE


@st.composite
def edge_specs(draw, tag, kinds):
    """A spec of any kind in kinds (kind -> (required keys, optional keys)),
    with every required key and some optional ones; a shape's domain is left
    to its flag (TestExitContract's specs test a conflicting one)."""
    kind = draw(st.sampled_from(sorted(kinds)))
    required, optional = kinds[kind]
    keys = [*required, *(key for key in optional if key != "domain" and draw(st.booleans()))]
    return {tag: kind, **{key: draw(edge_value(key)) for key in keys}}


# each JSON flag's specs; a new JSON flag needs an entry here
JSON_FLAGS = {
    "phi": edge_specs("family", shapes._KEYS),
    "phi-x": edge_specs("family", shapes._KEYS),
    "psi": edge_specs("family", shapes._KEYS),
    "seq": edge_specs("kind", embeddings._SEQUENCE_KEYS),
    "a": edge_specs("kind", cli._EXPRESSION_KEYS),
    "b": edge_specs("kind", cli._EXPRESSION_KEYS),
    "input": edge_step_functions(),
}


def flag_values(name):
    """The text of a value for the flag, from its argparse keywords."""
    keywords = cli._FLAGS[name][0]
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is float:
        return FLAG_FLOAT.map(repr)
    if keywords.get("type") is int:
        return st.sampled_from(range(-1, INT_CAPS[name] + 1)).map(str)
    return JSON_FLAGS[name].map(json.dumps)


@st.composite
def edge_argvs(draw):
    """An argv of any subcommand but selftest (its own tests run it): every
    required flag and some optional ones but --output, each as "--flag value"
    or "--flag=value"."""
    name = draw(st.sampled_from([sub for sub in cli._SUBCOMMANDS if sub != "selftest"]))
    argv = [name]
    for flag in cli._SUBCOMMANDS[name][2].split():
        if cli._FLAGS[flag][0].get("required") or draw(st.booleans()):
            value = draw(flag_values(flag))
            argv += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
    return argv


def _no_nan(token):
    assert token != "NaN", "NaN in the report"
    return float(token)


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

    # 1,000 argvs take about 5 s on a 2-vCPU host
    @given(edge_argvs())
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    # a grid end computed past the float range raised OverflowError (exit 1),
    # and a subnormal alpha printed a NaN step ratio (exit 0)
    @example(["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "1e-30",
              "--tmax", "1.7976931348623157e308", "--points", "2"])
    @example(["check-seq", "--seq", '{"kind": "reciprocal"}',
              "--phi", '{"family": "alpha_beta", "alpha": 5e-324, "beta": 1.0}',
              "--psi", '{"family": "psi_gamma", "gamma": 0.9}', "--xmin", "1e-300",
              "--xmax", "10.0"])
    def test_edge_numbers_exit_0_without_nan_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, usage = main(argv), False
            except SystemExit as exc:  # argparse refuses the argv with its usage
                code, usage = exc.code, True
        text = out.getvalue()
        if code == 0:
            assert err.getvalue() == ""
            if text.startswith("# config: "):  # tau's CSV
                config, _, *rows = text.splitlines()
                json.loads(config.removeprefix("# config: "), parse_constant=_no_nan)
                assert not any(math.isnan(float(x)) for row in rows for x in row.split(","))
            else:
                json.loads(text, parse_constant=_no_nan)
            return
        assert code == 2, (code, argv)
        assert text == ""
        if usage:
            assert err.getvalue().startswith(f"usage: qaspace {argv[0]} "), argv
            return
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)["error"]) == {"type", "message"}


class TestOutputRouting:
    def test_output_file(self, tmp_path):
        dest = tmp_path / "out.json"
        proc = run_cli("lorentz-norm", "--phi", QA_PHI, "--input", F3, "--output", str(dest))
        assert proc.stdout == ""
        assert json.loads(dest.read_text())["result"]["value"] == 2.5623351446188085

    # in process, where a line tracer (tools/unexecuted.py) sees the file read
    # and the file write that the subprocess tests run
    def test_spec_file_and_output_file_in_process(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv(OUT_DIR_VAR, raising=False)
        spec, dest = tmp_path / "f.json", tmp_path / "out.json"
        spec.write_text(F3)
        assert main(["lorentz-norm", "--phi", QA_PHI, "--input", str(spec),
                     "--output", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["lorentz-norm", "--phi", QA_PHI, "--input", F3]) == 0
        inline = json.loads(capsys.readouterr().out)
        assert json.loads(dest.read_text())["result"] == inline["result"]

    def test_out_dir_env(self, tmp_path):
        run_cli(
            "lorentz-norm", "--phi", QA_PHI, "--input", F3,
            "--output", "routed.json",
            env_extra={"QASPACE_OUT_DIR": str(tmp_path)},
        )
        assert (tmp_path / "routed.json").exists()

    # an --output that cannot be written is refused like any other input
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["rearrange", "--input", '{"breakpoints": [0, 1], "values": [1]}'], "x.json"),
            (["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "1e-6", "--tmax", "0.5",
              "--points", "5"], "x.csv"),
        ],
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv, name):
        dest = tmp_path / "missing" / name
        assert main([*argv, "--output", str(dest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"]["type"] == "FileNotFoundError"
        assert not dest.parent.exists()


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

    def test_a_step_ratio_past_the_float_range_prints_infinity(self, capsys):
        # this exited 1 with an OverflowError traceback
        seq = {"kind": "gamma_exp", "phi": {"family": "alpha_beta", "alpha": 0.999999,
                                            "beta": 1e-12}}
        assert main(["check-seq", "--seq", json.dumps(seq), "--phi", '{"family": "constant_one"}',
                     "--psi", QA_PSI, "--xmin", "2", "--xmax", "1000", "--points", "3"]) == 0
        text = capsys.readouterr().out
        assert '"step_ratio_constant": Infinity' in text
        assert json.loads(text)["result"]["passed"] is False


# a shape expression through (0, 0) and (1, y)
LINE = '{"kind": "shape", "spec": {"family": "piecewise", "points": [[0, 0], [1, %s]]}}'


class TestNoNaN:
    """A report prints Infinity or null where a quotient has no finite value."""

    def test_a_ratio_over_an_infinite_upper_prints_infinity(self, capsys):
        # both bounds overflow, and inf / inf printed "ratio": NaN
        argv = ["qa-bounds", "--phi", '{"family": "constant_one"}',
                "--psi", '{"family": "alpha_beta", "alpha": 1e-300, "beta": 1}',
                "--input", '{"breakpoints": [0, 0.109375, 1], "values": [5e-324, -1e+308]}']
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "NaN" not in text and '"ratio": Infinity' in text
        out = json.loads(text)["result"]
        assert out["lower"] == out["upper"] == out["ratio"] == math.inf

    @pytest.mark.parametrize("a, b", [
        ('{"kind": "shape", "spec": {"family": "constant_one"}}', LINE % "1e-300"),
        (LINE % "1e-300", LINE % "1e300"),
    ], ids=["inf", "zero"])
    def test_a_spread_past_the_float_range_prints_infinity(self, capsys, a, b):
        # every ratio overflowed (spread NaN) or underflowed (ZeroDivisionError)
        argv = ["equivalence", "--a", a, "--b", b, "--tmin", "1e-10", "--tmax", "1e-9",
                "--points", "3"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "NaN" not in text and '"spread": Infinity' in text

    def test_a_grid_with_no_integer_step_prints_null(self, capsys):
        # [1, 1.5] spans no step n -> n + 1: this printed "step_ratio_constant": NaN
        argv = ["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", QA_PSI,
                "--xmin", "1", "--xmax", "1.5", "--points", "5"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "NaN" not in text and '"step_ratio_constant": null' in text
        assert json.loads(text)["result"]["passed"] is False


# one argv per subcommand, drawn as the cli workload draws them
ENTRY_F = '{"breakpoints": [0, 0.125, 0.5, 0.75, 1], "values": [-4.5, 0, 7.25, 1.5]}'
ENTRY_PHI = '{"family": "alpha_beta", "alpha": 0.75, "beta": 0.8}'
ENTRY_PSI = '{"family": "psi_gamma", "gamma": 0.5}'
ENTRY_WITNESS = ["--phi", ENTRY_PHI, "--psi", ENTRY_PSI, "--c", "0.700", "--N", "4"]
ENTRY_ARGVS = {
    "rearrange": ["--input", ENTRY_F],
    "lorentz-norm": ["--phi", ENTRY_PHI, "--input", ENTRY_F],
    "qa-bounds": ["--phi", ENTRY_PHI, "--psi", ENTRY_PSI, "--input", ENTRY_F],
    "tau": ["--phi", ENTRY_PHI, "--psi", ENTRY_PSI, "--tmin", "1e-30", "--tmax", "0.5",
            "--points", "50"],
    "check-seq": ["--seq", '{"kind": "gamma_exp"}', "--phi", ENTRY_PHI, "--psi", ENTRY_PSI,
                  "--points", "50"],
    "equivalence": ["--a", json.dumps({"kind": "tau", "phi": json.loads(ENTRY_PHI),
                                       "psi": json.loads(ENTRY_PSI)}),
                    "--b", json.dumps({"kind": "alpha_s", "phi": json.loads(ENTRY_PHI),
                                       "psi": json.loads(ENTRY_PSI),
                                       "seq": {"kind": "gamma_exp"}}),
                    "--tmin", "1e-30", "--tmax", "0.3", "--points", "50"],
    "witness": ENTRY_WITNESS,
    "omega": ["--phi-x", '{"family": "alpha_beta", "alpha": 0.9, "beta": 0.2}', *ENTRY_WITNESS],
    "selftest": ["--seed", "7"],
}

# after running main in-process (stdout discarded), print the exit status and
# every qaspace submodule loaded; runpy.run_module is what `python -m` calls
FOOTPRINT = """
import contextlib, io, runpy, sys
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("qaspace", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("qaspace.")))
"""


def fresh_python(*args):
    """A fresh interpreter with the qaspace under test first on its path."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=tree_env(), check=False)


class TestEntryPoint:
    """`python -m qaspace`, through the package's __init__ and __main__."""

    @pytest.mark.parametrize("sub", list(ENTRY_ARGVS))
    def test_module_run_prints_what_main_prints(self, capsys, sub):
        argv = [sub, *ENTRY_ARGVS[sub]]
        proc = fresh_python("-m", "qaspace", *argv)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out.encode())

    # in process, where a line tracer (tools/unexecuted.py) sees the guards
    # that the subprocess tests run; run_module is what `python -m` calls
    @pytest.mark.parametrize("module", ["qaspace", "qaspace.cli"])
    def test_module_guard_runs_main_in_process(self, capsys, monkeypatch, module):
        argv = ["rearrange", "--input", F3]
        monkeypatch.setattr(sys, "argv", [module, *argv])
        with warnings.catch_warnings():  # qaspace.cli is imported already: runpy warns
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exited:
                runpy.run_module(module, run_name="__main__")
        out = capsys.readouterr().out
        assert (exited.value.code, main(argv)) == (0, 0)
        assert out == capsys.readouterr().out

    def test_bare_import_loads_no_submodule(self):
        code = "import sys, qaspace; print(*[m for m in sys.modules if m.startswith('qaspace.')])"
        proc = fresh_python("-c", code)
        assert (proc.returncode, proc.stdout.split()) == (0, [])

    @pytest.mark.parametrize(
        "sub, unloaded",
        [
            ("rearrange", {"shapes", "lorentz", "qanorm", "embeddings", "witness", "selftest"}),
            *((sub, {"stepfn", "lorentz", "qanorm", "witness", "selftest"})
              for sub in ("tau", "check-seq", "equivalence")),
        ],
    )
    def test_a_subcommand_loads_only_its_modules(self, sub, unloaded):
        proc = fresh_python("-c", FOOTPRINT, sub, *ENTRY_ARGVS[sub])
        code, *loaded = proc.stdout.decode().split()
        assert code == "0", proc.stderr
        assert {m.removeprefix("qaspace.") for m in loaded}.isdisjoint(unloaded), loaded

    def test_no_subcommand_imports_dataclasses(self):
        # dataclasses, and the inspect it imports, cost a CLI process about 5 ms
        script = "\n".join([
            "import contextlib, io, json, sys",
            "from qaspace.cli import main",
            "for argv in json.loads(sys.argv[1]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ])
        argvs = [[sub, *argv] for sub, argv in ENTRY_ARGVS.items()]
        proc = fresh_python("-c", script, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_bounds_records_built_by_position_compile_no_binder(self):
        # a record compiles its signature binder only when built by keyword or
        # with a default; the records of every bounds op are built by position
        script = "\n".join([
            "import contextlib, io, json, sys",
            "from qaspace.cli import main",
            "from qaspace import Decomposition, LorentzNorm, NormBounds",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert main(json.loads(sys.argv[1])) == 0",
            "print(json.dumps([c.__name__ for c in (NormBounds, Decomposition, LorentzNorm)",
            "                  if '_binder' in c.__dict__]))",
        ])
        argv = ["qa-bounds", *ENTRY_ARGVS["qa-bounds"]]
        proc = fresh_python("-c", script, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


# the package's exported names, each loaded from its home module on first use
PUBLIC = [
    "AssumptionReport", "Decomposition", "DomainError", "EmptyInput", "EquivalenceReport",
    "FrozenInstanceError", "IllegalSpec", "LorentzNorm", "NegativePiece", "NonPositiveValue",
    "NormBounds", "NotInvertible", "PhiSValue", "SeqConditionReport", "SequenceSpec",
    "ShapeFunction", "SpecParseError", "StepFunction", "TooManyLayers", "ToolkitError",
    "WitnessFunction", "WitnessSpec", "ZeroFunction", "abs_", "add",
    "alpha_beta", "alpha_s", "build_witness", "check_assumptions", "check_seq_conditions",
    "constant", "constant_one", "distribution", "equivalence", "fact_bound", "fundamental",
    "gamma", "gamma_exp", "gamma_inv", "identity", "indicator", "is_concave",
    "is_quasiconcave", "iterated_log_profile", "l1_norm", "l1_norm_exact",
    "least_concave_majorant", "linf_norm", "log_tau", "lorentz_norm", "lower_bound_value",
    "omega_n", "parse_shape", "phi_s", "piece_cost", "piecewise", "psi_gamma",
    "qa_bounds", "qa_lower", "qa_phi", "qa_psi", "qa_upper", "random_step_function",
    "rearrange", "reciprocal", "sample_sequence", "scale", "shape_to_json", "tau",
    "witness_lorentz_norm", "witness_qa_upper",
]


# in a fresh interpreter: the submodules a bare import loads, qaspace.stepfn,
# and what `from qaspace import *` binds
LAZY_SURFACE = """
import json, sys, qaspace
loaded = [m for m in sys.modules if m.startswith("qaspace.")]
stepfn = qaspace.stepfn.__name__
ns = {}
exec("from qaspace import *", ns)
print(json.dumps({"loaded": loaded, "stepfn": stepfn, "star": sorted(set(ns) - {"__builtins__"})}))
"""


class TestPackageSurface:
    def test_all_is_pinned(self):
        assert qaspace.__all__ == PUBLIC

    def test_each_name_is_its_home_modules_object(self):
        for name in PUBLIC:
            obj = getattr(qaspace, name)
            assert obj.__module__.startswith("qaspace."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_no_library_module_restates_its_names(self):
        # the package's export table is the one list of public names
        for path in Path(qaspace.__file__).parent.glob("*.py"):
            if path.name != "__init__.py":
                assert not re.search(r"^__all__\b", path.read_text(), re.MULTILINE), path.name

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(qaspace))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            qaspace.no_such_name
        with pytest.raises(ImportError):
            from qaspace import no_such_name  # noqa: F401

    def test_a_module_read_imports_it_on_first_use(self, monkeypatch):
        # as in a fresh interpreter, where the package's __getattr__ imports
        # it (test_names_load_on_first_use reads qaspace.stepfn there)
        monkeypatch.delattr(qaspace, "logs")
        monkeypatch.delitem(sys.modules, "qaspace.logs")
        logs = qaspace.logs
        assert logs.__name__ == "qaspace.logs" and sys.modules["qaspace.logs"] is logs

    def test_names_load_on_first_use(self):
        proc = fresh_python("-c", LAZY_SURFACE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"loaded": [], "stepfn": "qaspace.stepfn", "star": PUBLIC}
