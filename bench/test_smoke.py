"""Tiny-size smoke test of the benchmark harness.  No timing gate.

    python -m pytest bench/test_smoke.py -q

It checks the shape of the result and the harness mechanics, not the library's
answers: a library defect that fails an output check shows up in `failed`,
which this test only bounds by `attempted`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()
SPEC = run.load_spec()

import harness  # noqa: E402
from quality import quality_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_metrics(name, trace):
    out, record = run.run_one(name, seed=3, seconds=0.0, trace=trace, spec=SPEC, tiny=True)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"] for m in SPEC[kind]}
    assert set(out["metrics"]) <= wanted
    if not trace:
        assert set(out["metrics"]) == wanted
        assert all(m["value"] > 0 for m in out["metrics"].values())
    else:
        assert record["spans"] and "trace.op_ref_p50" in out["metrics"]
        # the probe cycles of the other workloads stay out of this run's verdict
        assert set(record["probes"]) == set(NAMES) - {name}
    assert out["attempted"] == len(record["ops"])
    assert out["failed"] == sum(record["failures"].values())
    json.dumps(out)


def _draw(workload, n):
    return [(inp.payload, inp.props) for inp in map(workload.input, range(n))]


@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_for_a_seed(name):
    a, b, c = WORKLOADS[name](5, tiny=True), WORKLOADS[name](5, tiny=True), WORKLOADS[name](6, tiny=True)
    n = 2 * a.cycle
    drawn = _draw(a, n)
    assert drawn == _draw(b, n)
    assert drawn != _draw(c, n)


@pytest.mark.parametrize("name", [n for n in NAMES if n != "cli"])
def test_in_process_inputs_are_fresh(name):
    drawn = [json.dumps(p, default=repr) for p, _ in _draw(WORKLOADS[name](5, tiny=True), 24)]
    assert len(set(drawn)) == len(drawn)


def test_failure_tag_is_the_check_class():
    rec = harness.OpRecord(0, {}, 1.0, 0.0, "lower-above-upper: lower 1.0 above upper")
    assert rec.tag == "lower-above-upper" and not rec.ok
    assert harness.OpRecord(0, {}, 1.0, 0.0).tag is None


def test_quality_metrics_repeat_bitwise():
    first, second = quality_metrics(tiny=True), quality_metrics(tiny=True)
    assert {k: v.hex() for k, v in first.items()} == {k: v.hex() for k, v in second.items()}


def test_self_time_subtracts_direct_children():
    tr = harness.Tracer()
    tr.spans = [
        ["op", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["b", 50, 90, 0, 0],
        ["b.inner", 60, 70, 2, 0],
    ]
    assert tr.self_times() == [30, 30, 30, 10]
    assert tr.summary()["b"] == {"calls": 1, "total_ns": 40, "self_ns": 30}


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
