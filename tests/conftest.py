"""Shared generators and the independent decomposition-cost oracle."""

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from qaspace import StepFunction, abs_
from qaspace.lorentz import weighted_sup_bound

from corpora import layer_corpus, random_functions  # noqa: F401

# breakpoints live on this grid so exact arithmetic stays cheap
_DEN = 64


@st.composite
def step_functions(draw, max_pieces=8, signed=False, vmax=8.0):
    m = draw(st.integers(1, max_pieces))
    cuts = draw(
        st.lists(st.integers(1, _DEN - 1), max_size=m - 1, unique=True)
    )
    bps = [Fraction(0), *sorted(Fraction(c, _DEN) for c in cuts), Fraction(1)]
    vals = draw(
        st.lists(
            st.floats(0.0, vmax, allow_nan=False, allow_infinity=False),
            min_size=len(bps) - 1,
            max_size=len(bps) - 1,
        )
    )
    if signed:
        flips = draw(
            st.lists(st.booleans(), min_size=len(vals), max_size=len(vals))
        )
        vals = [-v if f else v for v, f in zip(vals, flips)]
    return StepFunction(tuple(bps), tuple(vals))


def brute_force_upper(f, phi, psi):
    """Minimum decomposition cost by direct enumeration of layer groupings.

    Re-derives the layer table from scratch and walks every way of cutting
    the layers into consecutive groups, so it shares no search code with the
    library; the float expressions mirror the library's exactly, which is
    what makes bit-for-bit agreement a meaningful check.
    """
    fa = abs_(f)
    rings = {}
    for v, m in zip(fa.values, fa.piece_measures()):
        if v > 0.0:
            rings[v] = rings.get(v, Fraction(0)) + m
    vals = sorted(rings, reverse=True)
    ring = [rings[v] for v in vals]
    n = len(vals)
    if n == 0:
        return 0.0
    psi_at = [psi.eval(float(r + 1)) for r in range(n)]
    best = math.inf
    all_cuts = itertools.chain.from_iterable(
        itertools.combinations(range(1, n), k) for k in range(n)
    )
    for cuts in all_cuts:
        bounds = [0, *cuts, n]
        weights = []
        for a, b in zip(bounds, bounds[1:]):
            i, j = a, b - 1
            floor = vals[j + 1] if j + 1 < n else 0.0
            linf = vals[i] - floor
            l1 = Fraction(0)
            for l in range(j + 1):
                l1 += Fraction(vals[max(l, i)] - floor) * ring[l]
            ratio = float(l1 / Fraction(linf))
            weights.append(weighted_sup_bound(linf, ratio, phi))
        total = math.fsum(
            p * w for p, w in zip(psi_at, sorted(weights, reverse=True))
        )
        if total < best:
            best = total
    return best


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows[nodeid.split("::")[-1]] = status
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(rows):
        flag = "PASS" if rows[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{flag}  {name}")
