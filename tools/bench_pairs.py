"""Run benchmark A/B pairs between two revisions and write them to one JSON file.

    python3 tools/bench_pairs.py BASE HEAD --workload cli --seeds 2801 2802 \\
        --workload bounds-small --seeds 2811 2812 --out BENCH_28.json

Each revision is exported with `git archive` into its own temporary
directory, so the pairs never run the working tree.  For each workload and
seed, `bench/run.py --workload W --seed S --seconds T --trace 0` runs once on
each side, one run at a time, T being the `run_seconds` of the base's
BENCHMARK.json; the first pair of each workload runs the base first, and the
side that goes first alternates from pair to pair.  The file holds every pair,
each side's median of every metric, how many pairs the head won on each
end-to-end metric, the base's interquartile range, and the host and Python
version.  Standard library only; run it from inside the repository.
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


def summary(pairs: list, better: dict) -> dict:
    """Per metric: each side's median, the head's relative change, the base's
    interquartile range, and for an end-to-end metric the pairs the head won."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        row = {"base": statistics.median(base), "head": statistics.median(head)}
        row["change"] = row["head"] / row["base"] - 1.0 if row["base"] else None
        if len(base) > 1:
            q1, _, q3 = statistics.quantiles(base, n=4)
            row["base_iqr"] = q3 - q1
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            row["head_wins"] = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        out[name] = row
    return out


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
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {side: Path(tmp, side) for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", args.head)):
            record[side] = {"rev": rev, "commit": export(rev, copies[side])}
        for workload, seeds in zip(args.workload, args.seeds):
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(copies[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'], sort_keys=True)}", file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs, "medians": summary(pairs, better)}
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
