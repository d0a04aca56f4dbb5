"""qaspace benchmark: one workload per run, or every workload with --workload all.

    python3 bench/run.py --workload bounds-small --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the repository root (any directory works; paths are resolved from
this file).  The library is imported from ../src, never from an installed
copy.  With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it reports the per-layer metrics.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A human-readable table goes to standard error, with the failed ops per failure
tag, and the full run record (per-op input properties and timings, reference
timings, span summary with self times, and for traced runs the spans
themselves) to .bench_out/ at the repository root.  Each run pins itself, and
so its child processes, to one CPU.
See RATIONALE.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# setup_s is reported in seconds on a host where the reference routine
# (harness.reference_ms) takes this long; see RATIONALE.md
REF_NOMINAL_MS = 2.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import qaspace from this checkout's src/; exit with status 1 when it is
    not there or another copy shadows it."""
    if not (SRC / "qaspace" / "__init__.py").is_file():
        sys.exit(f"bench: no qaspace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qaspace

    if Path(qaspace.__file__).resolve().parent != SRC / "qaspace":
        sys.exit(f"bench: qaspace imported from {qaspace.__file__}, not from {SRC}")


class SetupTimer:
    """Wall time of a fresh interpreter that imports qaspace and qaspace.cli.

    Each sample runs between three timings of the reference routine on either
    side, on the one CPU the run is pinned to (see main).
    """

    def __init__(self):
        from workloads import cli_env

        self.cmd = [sys.executable, "-c", "import qaspace, qaspace.cli"]
        self.env = cli_env()
        subprocess.run(self.cmd, env=self.env, check=True)  # writes the bytecode cache once
        self.samples: list = []  # (seconds, reference ms around them)

    def __call__(self):
        from harness import reference_ms

        refs = [reference_ms() for _ in range(3)]
        t0 = perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        seconds = perf_counter() - t0
        refs += [reference_ms() for _ in range(3)]
        self.samples.append((seconds, statistics.median(refs)))

    def nominal_seconds(self) -> list:
        """Each sample scaled by REF_NOMINAL_MS over the reference time around it."""
        return [sec * REF_NOMINAL_MS / ref for sec, ref in self.samples]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def span_metric(tracer, name: str):
    """`<span>.us_p50`, `<span>_ms_p50`, ...: p50 of the spans named <span>
    or <span>.<outcome>, in the unit the name gives."""
    from harness import p50

    for suffix, scale in (("us_p50", 1e3), ("ms_p50", 1e6)):
        if name.endswith(suffix):
            base = name[: -len(suffix) - 1]
            durs = [end - start for n, start, end, _, _ in tracer.spans
                    if n == base or n.startswith(base + ".")]
            return p50(durs) / scale if durs else None
    return None


def layer_metrics(workload, tracer, records, names) -> dict:
    """Every per-layer metric this workload's spans and counts define."""
    out = {k: v for k, v in workload.counts(records, tracer).items() if k in names}
    for name in names:
        if name not in out:
            value = span_metric(tracer, name)
            if value is not None:
                out[name] = value
    return out


def trace_metrics(tracer, records) -> dict:
    from harness import p50

    ops = [i for i, rec in enumerate(tracer.spans) if rec[0] == "op"]
    own = tracer.self_times()
    return {
        "trace.op_ref_p50": p50([r.ref_units for r in records]),
        "trace.op_self_us_p50": p50([own[i] for i in ops]) / 1e3,
        "trace.spans_per_op": len(tracer.spans) / len(ops),
        "host.ref_ms_p50": p50([r.ref_ms for r in records]),
    }


def raw_times(records, setup) -> dict:
    """Wall-clock figures of the run, for the record and the table only."""
    from harness import p50, p90

    ms = [r.ms for r in records]
    return {"ops_per_s": 1e3 * len(ms) / sum(ms), "op_ms_p50": p50(ms), "op_ms_p90": p90(ms),
            "ref_ms_p50": p50([r.ref_ms for r in records]),
            "setup_wall_s_p50": p50([sec for sec, _ in setup.samples])}


def failures(records) -> dict:
    """Failed ops per failure tag."""
    return dict(Counter(r.tag for r in records if not r.ok))


def notes(records) -> dict:
    """Passed ops per note a check left, such as a gap within its slack."""
    return dict(Counter(r.props["note"] for r in records if r.ok and "note" in r.props))


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict,
            tiny: bool = False) -> tuple:
    """One run of one workload; returns (result dict, run record)."""
    from harness import NullTracer, Tracer, measure, p50, p90
    from quality import quality_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny=tiny)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        setup = SetupTimer()
        records, refs = measure(workload, seconds, NullTracer(), side_task=setup)
        rss = peak_rss_mb(children=workload.spawns_children)
        times = [r.ref_units for r in records]
        metrics = {
            "ops_per_kref": 1e3 * len(times) / sum(times),
            "op_ref_p50": p50(times),
            "op_ref_p90": p90(times),
            "setup_s": p50(setup.nominal_seconds()),
            "peak_rss_mb": rss,
            **quality_metrics(tiny=tiny),
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
        record["raw"] = raw_times(records, setup)
        record["setup_samples"] = setup.samples
    else:
        wanted = [m["name"] for m in spec["per_layer"]]
        tracer = Tracer()
        records, refs = measure(workload, seconds, tracer)
        metrics = trace_metrics(tracer, records)
        metrics.update(layer_metrics(workload, tracer, records, wanted))
        record["spans_summary"] = tracer.summary()
        record["spans"] = tracer.spans
        # layers this workload does not drive: one traced cycle of each other
        # workload, kept apart from this run's ops and verdict
        record["probes"] = {}
        for other, cls in WORKLOADS.items():
            if other != name:
                probe, probe_tracer = cls(seed, tiny=tiny), Tracer()
                probe_records, _ = measure(probe, 0.0, probe_tracer)
                for key, value in layer_metrics(probe, probe_tracer, probe_records,
                                                wanted).items():
                    metrics.setdefault(key, value)
                record["probes"][other] = {
                    "attempted": len(probe_records), "failures": failures(probe_records),
                    "spans_summary": probe_tracer.summary()}
    missing = [m for m in wanted if m not in metrics]
    if missing and not tiny:
        raise RuntimeError(f"metrics without samples: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum(not r.ok for r in records)
    out = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted if m in metrics},
    }
    record.update(out)
    record["failures"] = failures(records)
    record["notes"] = notes(records)
    record["references"] = {"at_s": refs.at, "ms": refs.ms}
    record["ops"] = [{"index": r.index, "ms": r.ms, "mid_s": r.mid_s, "ref_ms": r.ref_ms,
                      "error": r.error, "props": r.props} for r in records]
    return out, record


def table(spec: dict, out: dict, fails: dict, passed_notes: dict) -> str:
    better = {m["name"]: m.get("better", "") for m in spec["end_to_end"] + spec["per_layer"]}
    arrows = {"lower": "lower is better", "higher": "higher is better", "": ""}
    lines = []
    for name, m in out["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:>16.6g} {m['unit']:8s} {arrows[better[name]]}")
    ratio = out["failed"] / out["attempted"] if out["attempted"] else float("nan")
    lines.append(f"  {'fail_ratio':48s} {ratio:>16.6g} {'ratio':8s} lower is better"
                 f"  ({out['failed']} of {out['attempted']} ops)")
    for tag, n in sorted(fails.items()):
        lines.append(f"    failed {tag}: {n} ops")
    for note, n in sorted(passed_notes.items()):
        lines.append(f"    passed with {note}: {n} ops")
    return "\n".join(lines)


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def run_all(seed: int, seconds: int, spec: dict) -> int:
    """Every workload untraced, then traced, each in its own process; then
    whether each known defect that no workload reaches still reproduces."""
    from workloads import KNOWN_DEFECTS, probe_known_defects

    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, check=False, text=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                status = 1
                break
            record = json.loads(record_path(name, seed, trace).read_text())
            results.append((json.loads(proc.stdout.strip().splitlines()[-1]),
                            record["failures"], record["notes"]))
        if len(results) < 2:
            continue
        (plain, *plain_tags), (traced, *traced_tags) = results
        overhead = (traced["metrics"]["trace.op_ref_p50"]["value"]
                    / plain["metrics"]["op_ref_p50"]["value"] - 1.0)
        print(f"{name}: {w['why']}")
        print(table(spec, plain, *plain_tags))
        print(f"  {'tracing overhead (traced/untraced op p50 - 1)':48s} {overhead:>16.6g} ratio")
        print("  per-layer (traced run):")
        print(table(spec, traced, *traced_tags))
        status |= 0 if plain["correct"] and traced["correct"] else 1
    for tag, reproduces in probe_known_defects().items():
        state = "still reproduces" if reproduces else "no longer reproduces"
        print(f"known defect {tag}: {state} ({KNOWN_DEFECTS[tag]})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    # the host's vCPUs need not be in the same speed state: pinned to one CPU,
    # the ops, the reference routine and every child process run on the same one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    OUT_DIR.mkdir(exist_ok=True)
    dest = record_path(args.workload, args.seed, args.trace)
    dest.write_text(json.dumps(record))
    print(f"{args.workload} seed {args.seed} trace {args.trace} (record: {dest})", file=sys.stderr)
    print(table(spec, out, record["failures"], record["notes"]), file=sys.stderr)
    if "raw" in record:
        print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()),
              file=sys.stderr)
    for op in [op for op in record["ops"] if op["error"]][:5]:
        print(f"  FAILED op {op['index']}: {op['error']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
