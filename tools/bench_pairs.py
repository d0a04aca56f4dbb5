"""Run benchmark A/B pairs between two revisions and write them to one JSON file.

    python3 tools/bench_pairs.py BASE HEAD --workload cli --seeds 2801 2802 \\
        --workload bounds-small --seeds 2811 2812 --out BENCH_28.json

Each revision is exported with `git archive` into its own temporary
directory, so the pairs never run the working tree.  For each workload and
seed, `bench/run.py --workload W --seed S --seconds T --trace 0` runs once on
each side, one run at a time, T being the `run_seconds` of the base's
BENCHMARK.json; the first pair of each workload runs the base first, and the
side that goes first alternates from pair to pair.  The file holds every pair,
each side's median of every metric and of the ops attempted (so a metric that
grows with the op count, such as peak_rss_mb, can be read against it), how
many pairs the head won and lost on each end-to-end metric, the base's
interquartile range, and the host and Python version.  Standard library only;
run it from inside the repository.

Each pair is followed by an A/A pair with the same seed: the base against a
second export of itself (the "copy"), the side that goes first alternating
as in the pairs, so both kinds share the host's state.  A metric's A/A
spread is the largest |copy / base - 1| over its A/A pairs (a base run that
reads 0 has no relative difference and is left out), and each end-to-end
metric gets one verdict by one rule:

    win           the head's median is better than the base's by more than
                  the A/A spread, and the head is better in at least 90% of
                  the pairs;
    loss          it is worse by more than the A/A spread, and the head is
                  worse in at least 90% of the pairs;
    within noise  otherwise, and always where the base's median is 0.

The verdicts are printed beside the medians, one line per metric, and kept
in the file.  They are read beside BENCHMARK.json's bounds, never in place
of them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """Write rev's tree under into; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def run(copy: Path, workload: str, seed: int, seconds: int) -> dict:
    """One bench/run.py run in copy: correct, attempted, failed and each metric's value."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} printed nothing: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {"exit": proc.returncode, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


# the share of the pairs that a win or a loss needs on its side (module docstring)
VERDICT_SHARE = 0.9


def values(pairs: list, side: str, name: str) -> list:
    return [p[side][name] if name == "attempted" else p[side]["metrics"][name] for p in pairs]


def verdict(row: dict, better: str, pairs: int) -> str:
    """The module docstring's rule on an end-to-end metric's row."""
    spread, change = row["aa_spread"], row["change"] or 0.0
    gain = change if better == "higher" else -change
    need = VERDICT_SHARE * pairs
    if gain > spread and row["head_wins"] >= need:
        return "win"
    if -gain > spread and row["head_losses"] >= need:
        return "loss"
    return "within noise"


def summary(pairs: list, better: dict, aa_pairs: list) -> dict:
    """Per metric, and for the ops attempted: each side's median, the head's
    relative change, the base's interquartile range, the A/A spread, and for
    an end-to-end metric the pairs the head won and lost, and the verdict."""
    out = {}
    for name in ("attempted", *pairs[0]["base"]["metrics"]):
        base, head = values(pairs, "base", name), values(pairs, "head", name)
        row = {"base": statistics.median(base), "head": statistics.median(head)}
        row["change"] = row["head"] / row["base"] - 1.0 if row["base"] else None
        if len(base) > 1:
            q1, _, q3 = statistics.quantiles(base, n=4)
            row["base_iqr"] = q3 - q1
        row["aa_spread"] = max((abs(c / b - 1.0) for b, c in zip(
            values(aa_pairs, "base", name), values(aa_pairs, "copy", name)) if b), default=0.0)
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            row["head_wins"] = sum(sign * (h - b) > 0 for b, h in zip(base, head))
            row["head_losses"] = sum(sign * (h - b) < 0 for b, h in zip(base, head))
            row["verdict"] = verdict(row, better[name], len(pairs))
        out[name] = row
    return out


def verdict_line(workload: str, name: str, row: dict, pairs: int) -> str:
    """One metric's medians, pairs, A/A spread and verdict, as printed."""
    change = "" if row["change"] is None else f" ({row['change']:+.1%})"
    return (f"{workload} {name}: {row['base']:.4g} -> {row['head']:.4g}{change}; "
            f"head better in {row['head_wins']} of {pairs}, worse in {row['head_losses']}; "
            f"A/A spread {row['aa_spread']:.1%}: {row['verdict']}")


def run_pair(copies: dict, sides: tuple, i: int, workload: str, seed: int, seconds: int) -> dict:
    """One pair of runs of the two copies named in sides, the first of them
    going first on an even i."""
    order = sides if i % 2 == 0 else sides[::-1]
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        pair[side] = run(copies[side], workload, seed, seconds)
        print(f"{workload} seed {seed} {side}: "
              f"{json.dumps(pair[side]['metrics'], sort_keys=True)}", file=sys.stderr)
    return pair


def host() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": model,
            "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of bench/run.py; repeat, each with its --seeds")
    parser.add_argument("--seeds", action="append", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds list after each --workload")

    spec = json.loads(git("show", f"{args.base}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "python": sys.version, "host": host(), "workloads": {}}
    lines = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {side: Path(tmp, side) for side in ("base", "head", "copy")}
        for side, rev in (("base", args.base), ("head", args.head)):
            record[side] = {"rev": rev, "commit": export(rev, copies[side])}
        export(args.base, copies["copy"])
        for workload, seeds in zip(args.workload, args.seeds):
            pairs, aa_pairs = [], []
            for i, seed in enumerate(seeds):
                pairs.append(run_pair(copies, ("base", "head"), i, workload, seed, seconds))
                aa_pairs.append(run_pair(copies, ("base", "copy"), i, workload, seed, seconds))
            medians = summary(pairs, better, aa_pairs)
            record["workloads"][workload] = {"pairs": pairs, "aa_pairs": aa_pairs,
                                             "medians": medians}
            lines += [verdict_line(workload, name, medians[name], len(pairs))
                      for name in medians if name in better]
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
