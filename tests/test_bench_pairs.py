"""The verdict rule of tools/bench_pairs.py, on pairs made up here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"ops_per_kref": "higher", "op_ref_p50": "lower"}


def side(ops, p50, attempted=1000):
    return {"attempted": attempted, "metrics": {"ops_per_kref": ops, "op_ref_p50": p50}}


def pairs(first, second, names=("base", "head")):
    return [{"seed": i, names[0]: a, names[1]: b} for i, (a, b) in enumerate(zip(first, second))]


BASE = [side(100.0 + i, 1.0 + i / 100) for i in range(10)]
# the same code, 2% above and below the base in turn
COPY = [side((100.0 + i) * (1.02 if i % 2 else 1 / 1.02), 1.0 + i / 100) for i in range(10)]
AA = pairs(BASE, COPY, ("base", "copy"))


def test_the_aa_spread_is_the_largest_relative_difference_of_the_copy():
    rows = bench_pairs.summary(pairs(BASE, BASE), BETTER, AA)
    assert rows["ops_per_kref"]["aa_spread"] == pytest.approx(0.02, rel=1e-12)
    assert rows["op_ref_p50"]["aa_spread"] == 0.0 and rows["attempted"]["aa_spread"] == 0.0


@pytest.mark.parametrize("factors, want", [
    ([1.10] * 10, "win"),
    ([1.10] * 7 + [0.999] * 3, "within noise"),  # +6.8% in the median, better in 7 of 10
    ([1.01] * 10, "within noise"),  # better in every pair, by less than the spread
    ([0.90] * 10, "loss"),
])
def test_a_verdict_needs_the_spread_and_the_share_of_pairs(factors, want):
    head = [side(b["metrics"]["ops_per_kref"] * f, b["metrics"]["op_ref_p50"])
            for b, f in zip(BASE, factors)]
    row = bench_pairs.summary(pairs(BASE, head), BETTER, AA)["ops_per_kref"]
    assert row["verdict"] == want, row


def test_a_lower_is_better_metric_wins_when_it_falls():
    head = [side(b["metrics"]["ops_per_kref"], b["metrics"]["op_ref_p50"] * 0.8) for b in BASE]
    spread = [side(b["metrics"]["ops_per_kref"], b["metrics"]["op_ref_p50"] * 1.05) for b in BASE]
    rows = bench_pairs.summary(pairs(BASE, head), BETTER, pairs(BASE, spread, ("base", "copy")))
    assert rows["op_ref_p50"]["verdict"] == "win"
    assert rows["op_ref_p50"]["head_wins"] == 10 and rows["op_ref_p50"]["head_losses"] == 0


def test_a_median_of_zero_is_within_noise():
    zero = [side(0.0, 1.0) for _ in BASE]
    row = bench_pairs.summary(pairs(zero, BASE), BETTER, pairs(zero, zero, ("base", "copy")))
    row = row["ops_per_kref"]
    assert row["change"] is None and row["aa_spread"] == 0.0
    assert row["verdict"] == "within noise" and row["head_wins"] == 10


def test_every_pair_is_followed_by_its_aa_pair(monkeypatch, tmp_path):
    spec = {"run_seconds": 15, "end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()]}
    calls = []

    def run(copy, workload, seed, seconds):
        calls.append((copy.name, seed))
        return side(100.0, 1.0)

    monkeypatch.setattr(bench_pairs, "git", lambda *args: json.dumps(spec).encode())
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: rev)
    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["B", "H", "--workload", "profiles", "--seeds", "1", "2",
                             "--out", str(out)]) == 0
    assert calls == [("base", 1), ("head", 1), ("base", 1), ("copy", 1),
                     ("head", 2), ("base", 2), ("copy", 2), ("base", 2)]
    record = json.loads(out.read_text())["workloads"]["profiles"]
    assert [p["first"] for p in record["aa_pairs"]] == ["base", "copy"]
    assert record["medians"]["ops_per_kref"]["verdict"] == "within noise"
