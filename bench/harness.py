"""Timing loop, span recorder and statistics shared by every workload.

Standard library only.  A run is a closed loop with one client: the next op
starts when the previous one has returned and its output has been checked.
Only the op itself is timed; input drawing and output checks sit outside the
timed span.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, perf_counter_ns

_NO_SPAN = contextlib.nullcontext()

# seconds between two timings of the reference routine during a run
REF_EVERY_S = 0.1
# seconds between two calls of measure's side task
SIDE_EVERY_S = 1.5


def reference_ms() -> float:
    """Time one pass of a fixed pure-Python routine that uses no qaspace code.

    The host this benchmark was built on switches between speed states up to
    1.7x apart, for seconds to minutes at a time, so raw op times of two runs
    of the same code can differ by that much.  An op's time divided by the
    reference time taken around it stays put across those states.  Never
    change this routine: every figure in reference units depends on it.
    """
    t0 = perf_counter_ns()
    acc = Fraction(0)
    xs = []
    for i in range(1, 300):
        acc += Fraction(i, 2 * i + 1)
        xs.append(math.log(i) * math.exp(-i / 300.0))
    xs.sort()
    json.dumps({str(i): x for i, x in enumerate(xs)})
    return (perf_counter_ns() - t0) / 1e6


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False
    op = None

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """In-memory span recorder.

    Each span is [name, start_ns, end_ns, parent_index, op_id]; parent_index
    is -1 for a root span.  The context yields the record, so a caller can
    rename the span by the call's outcome.  Spans stay in memory until the run
    writes them out.
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def self_times(self) -> list:
        """Per span: duration minus the part its direct children cover (ns)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def summary(self) -> dict:
        """name -> calls, total and self time (ns), for the run record."""
        out: dict = {}
        for rec, own in zip(self.spans, self.self_times()):
            row = out.setdefault(rec[0], {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += rec[2] - rec[1]
            row["self_ns"] += own
        return out


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def gmean(values) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


@dataclass
class OpRecord:
    index: int
    props: dict
    ms: float
    mid_s: float  # perf_counter at the middle of the op
    error: str | None = None  # "<tag>: <detail>"
    ref_ms: float = math.nan  # median of the three reference timings nearest mid_s

    @property
    def ref_units(self) -> float:
        return self.ms / self.ref_ms

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def tag(self) -> str | None:
        """The failure class: the exception type, or the tag of a failed check."""
        return None if self.error is None else self.error.split(":", 1)[0]


def same_bits(a, b) -> bool:
    """Bitwise equality of two outputs; floats compare by their hex form."""
    return _canon(a) == _canon(b)


def _canon(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    return x


class References:
    """Timings of the reference routine taken during a run."""

    def __init__(self):
        self.at: list = []  # perf_counter when each timing started
        self.ms: list = []

    def take(self):
        self.at.append(perf_counter())
        self.ms.append(reference_ms())

    def near(self, t: float) -> float:
        """Median of the three reference timings nearest the moment t."""
        j = bisect_left(self.at, t)
        idx = sorted(range(max(0, j - 2), min(len(self.at), j + 2)),
                     key=lambda k: abs(self.at[k] - t))[:3]
        return statistics.median(self.ms[k] for k in idx)


def measure(workload, seconds: float, tracer, side_task=None) -> tuple:
    """Run ops of `workload` until `seconds` have passed and a whole number of
    input cycles, at least `workload.min_cycles`, is done.

    Returns one OpRecord per op and the run's References.  `side_task`, if
    given, runs between ops at most every SIDE_EVERY_S, so that its own
    timings sample the whole run rather than one moment of it.

    Each op is timed alone.  Between ops, at most every REF_EVERY_S, the
    reference routine is timed too; each record gets the median of the three
    reference timings nearest its midpoint.  With a live tracer the op runs
    under an "op" span and the workload's separate per-layer calls follow
    under a "layers" span.  Outputs are checked after the op.
    """
    deadline = perf_counter() + seconds
    records = []
    refs = References()
    side_at = -math.inf
    i = 0
    while perf_counter() < deadline or i % workload.cycle or i < workload.min_cycles * workload.cycle:
        if side_task is not None and perf_counter() >= side_at + SIDE_EVERY_S:
            side_at = perf_counter()
            side_task()
        if not refs.at or perf_counter() >= refs.at[-1] + REF_EVERY_S:
            refs.take()
        inp = workload.input(i)
        tracer.op = i
        out = None
        error = None
        t0 = perf_counter_ns()
        try:
            with tracer.span("op"):
                out = workload.run(inp, tracer)
        except Exception as exc:  # the loop must survive a failing op and count it
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
        ms = (t1 - t0) / 1e6
        if error is None:
            try:
                if tracer.enabled:
                    with tracer.span("layers"):
                        workload.layers(inp, out, tracer)
                error = workload.check(inp, out)
            except Exception as exc:  # a raising check or layer call is a failure
                error = f"{type(exc).__name__}: {exc}"
        records.append(OpRecord(i, inp.props, ms, (t0 + t1) / 2e9, error))
        i += 1
    refs.take()
    for r in records:
        r.ref_ms = refs.near(r.mid_s)
    return records, refs
