"""Print each workload's head medians across every BENCH_*.json, oldest first.

    python3 tools/bench_trajectory.py

Each BENCH_<n>.json, as tools/bench_pairs.py writes it, compares one change
with its parent, so a drift spread over many changes passes every one of
them.  This script reads the files of the repository root in the numeric
order of n and prints, per workload, one row per file: the head medians of
ops_per_kref and peak_rss_mb and the head median of the ops attempted, with
"-" where a file has no such median (the files before BENCH_32.json record
no ops attempted).  Standard library only.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each column's median and its format
COLUMNS = {"ops_per_kref": "{:,.1f}", "peak_rss_mb": "{:.2f}", "attempted": "{:,.0f}"}


def bench_files(root: Path) -> list:
    """The BENCH_<n>.json files in root, by n."""
    paths = [p for p in root.glob("BENCH_*.json") if p.stem[len("BENCH_"):].isdigit()]
    return sorted(paths, key=lambda p: int(p.stem[len("BENCH_"):]))


def cell(medians: dict, name: str) -> str:
    head = medians.get(name, {}).get("head")
    return "-" if head is None else COLUMNS[name].format(head)


def trajectory(paths) -> dict:
    """{workload: [(file name, ops_per_kref, peak_rss_mb, attempted), ...]}, as text."""
    rows = {}
    for path in paths:
        for workload, data in json.loads(path.read_text())["workloads"].items():
            cells = (cell(data["medians"], name) for name in COLUMNS)
            rows.setdefault(workload, []).append((path.name, *cells))
    return rows


def main() -> int:
    for workload, rows in sorted(trajectory(bench_files(ROOT)).items()):
        print(workload)
        print(f"  {'file':<14}" + "".join(f"{name:>14}" for name in COLUMNS))
        for name, *cells in rows:
            print(f"  {name:<14}" + "".join(f"{c:>14}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
