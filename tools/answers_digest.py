"""Print one sha256 per group of qaspace answers, to show which answers moved.

    python3 tools/answers_digest.py
    python3 tools/answers_digest.py --check tests/answers_digest.txt

The answers are computed by the qaspace package of the checkout this script
sits in, on fixed seeded inputs: the step-function operations (rearrange,
l1_norm_exact, distribution at fixed levels, and the canonical forms of abs_,
scale and add) on random_functions(11, 500) and both edge_corpus sets, the
functions read from json_edge_specs() (breakpoints, to_json, rearrange and
l1_norm_exact), the corpora random_functions(11, 500) and
layer_corpus(200, seed=7) from tests/corpora.py (their layer cakes, read
off rearrange: heights, rounded levels and superlevel measures), the 50-200
layer functions of deep_corpus(20) for the long searches, the two edge_corpus sets
(non-dyadic grids, and values from 5e-324 to 1.7e308), the bounds engine's
group weights (every group of layer_corpus(200, seed=7) and
float_edge_corpus(), and the group_sample of deep_corpus(4)), every group of
tie_corpus(), where the rounded differences tie, the groups every strategy
picks on TIE_INPUT, where the one piece and the layer split cost the same, a
grid of witness specs and two deep ones (their upper bounds, Lorentz norms and
log-domain group weights), every shape family in both domains on fixed
argument grids (with the error of each malformed shape spec, and the repr and
value at 2.0, or the error, of the two psi families built with their default
domain), the growth-condition report (check_assumptions) of each of those
shapes as phi at each candidate p of a fixed grid and as psi, the profiles
of three phi shapes on a gamma_exp, a
reciprocal and a sampled sequence (also with a psi sampled only up to 10),
iterated-log profiles, two of whose products leave the float range and two
whose log terms overflow with opposite signs, a
fixed list of CLI argvs, among them ranges too narrow for their points (exit code, argparse's SystemExit code for a
refused command line, or the type and message of an exception that escapes
main; stdout and stderr), `selftest` at three
seeds, lorentz_norm, qa_bounds and rearrange on functions that are only
0.0 and -0.0 or carry -0.0 pieces, the ladders gamma_exp(phi) priced by another phi
and by their own (phi_s, the ladder's values around where it ends, its
inverse and alpha_s at and below its last value, and `check-seq` past that
end), the echo of accepted specs of every type
(step function, shape in both domains, the three sequence kinds and the five
expression kinds, the last two read through `check-seq` and `equivalence`),
the error type each malformed spec gets, and the error (type and message)
of each library constructor call that passes a parameter its shape family or
sequence kind does not take, or leaves out one it needs, or that passes one
of the wrong type (text or a bool to a step-function builder, `scale`,
`distribution`, `fundamental`, a shape builder, `log_gamma_inv`,
`check_seq_conditions`, the sample checks, `check_assumptions`,
`iterated_log_profile`, `equivalence` or `random_step_function` among them),
a witness `c` or `p` that is not finite, a witness function's `c` or `p`
that is text or a bool, two neighbouring samples at one abscissa for the
sample checks, or a number
past the float range (a call-time int among them: `tau`, `alpha_s`, `scale`,
`gamma` and `distribution`), or asks `log_tau` for log t = -inf, or builds the piecewise shape with no sample after
the origin, and of each step-function
constructor, `indicator` and `eval_at` call given a number that is not
finite, and of the two witness specs that build_witness refuses.  Every float is
hashed through repr, every Fraction exactly, so a digest stays the same only
if every answer in its group is bitwise the same.  Run it in two checkouts and
diff the output.  Standard library only, so it runs under any interpreter
the package supports.

With --check FILE it compares its groups with FILE, this script's saved
output: it prints both platform lines, names each group that moved (or is
in one only) and exits 1 if any did, whatever the platforms.

The first line is the platform fingerprint (the Python implementation and
version, platform.libc_ver() and the machine): the hashes rest on the host's
libm.  tests/answers_digest.txt is this script's output, committed, and
tests/test_answers_digest.py runs the script and names every group that moved.
A change that moves answers regenerates the file,

    python3 tools/answers_digest.py > tests/answers_digest.txt

and declares the moved groups.  On another fingerprint that test fails and
asks for the file to be regenerated there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpora import (  # noqa: E402
    EXTREME_VALUES,
    all_groups,
    deep_corpus,
    edge_corpus,
    float_edge_corpus,
    group_sample,
    json_edge_specs,
    layer_corpus,
    random_functions,
    tie_corpus,
)
from qaspace import embeddings, fundamental, lorentz_norm, qa_bounds, qa_upper  # noqa: E402
from qaspace.cli import main as cli_main  # noqa: E402
from qaspace.embeddings import SequenceSpec  # noqa: E402
from qaspace.errors import ToolkitError  # noqa: E402
from qaspace.qanorm import _LayerTable  # noqa: E402
from qaspace.shapes import (  # noqa: E402
    _TABLE,
    ShapeFunction,
    alpha_beta,
    check_assumptions,
    constant_one,
    gamma,
    identity,
    is_concave,
    is_quasiconcave,
    least_concave_majorant,
    log_gamma_inv,
    parse_shape,
    piecewise,
    psi_gamma,
    qa_phi,
    qa_psi,
)
from qaspace.stepfn import (  # noqa: E402
    StepFunction,
    abs_,
    add,
    constant,
    distribution,
    indicator,
    l1_norm_exact,
    random_step_function,
    rearrange,
    scale,
)
from qaspace.witness import (  # noqa: E402
    WitnessFunction,
    WitnessSpec,
    _LogLayerTable,
    build_witness,
    witness_lorentz_norm,
    witness_qa_upper,
)

SHAPE_PAIRS = [(qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4))]
UPPER_STRATEGIES = ("singleton", "layers", "local_search", "exhaustive", "auto")
DEEP_STRATEGIES = ("layers", "local_search", "auto")
DIST_LEVELS = (0.0, 5e-324, 1e-300, 0.5, 2.0, 7.5, 1e300)
SCALE_FACTORS = (2.0, -0.5, 0.0, 1e-300, 1e300)
WITNESS_PHIS = (qa_phi(), alpha_beta(0.5, 0.7), alpha_beta(0.8, 0.3))
WITNESS_PSIS = (qa_psi(), psi_gamma(0.4))
WITNESS_GRID = [
    (phi, psi, n, c)
    for phi in WITNESS_PHIS
    for psi in WITNESS_PSIS
    for n in range(2, 11)
    for c in (0.5, 0.7, 0.9)
]
# 100 and 400 layers; qa_phi's measures leave the float range before N = 50
WITNESS_DEEP = [(alpha_beta(0.7, 0.75), qa_psi(), n, 0.5) for n in (50, 200)]

# every family in both domains, with the parameters at and inside their edges
SHAPES = [
    *(ShapeFunction("alpha_beta", alpha=a, beta=b, domain_kind=kind)
      for a, b in ((0.5, 0.7), (1.0, 1.0), (1.0, 0.6), (1.0, 0.0), (0.3, 0.0), (0.8, 0.3))
      for kind in ("phi", "psi")),
    *(ShapeFunction("psi_gamma", exponent=g, domain_kind=kind)
      for g in (0.0, 0.4, 1.0) for kind in ("psi", "phi")),
    *(ShapeFunction(family, domain_kind=kind)
      for family in ("qa_phi", "qa_psi", "identity", "constant_one")
      for kind in ("phi", "psi")),
    piecewise([(0, 0), (0.25, 0.5), (0.5, 0.75), (1, 1)]),
    piecewise([(0, 0), (0.5, 1.0), (1, 1.5)], kind="psi"),
    piecewise([(0, 0), (1, 1), (4, 2), (10, 2.5)], kind="psi"),
    # log gamma falls from 706.9 to -29.2 along the second chord: expm1 of a
    # target less its anchor, times the anchor's ratio, leaves the float range
    piecewise([(0, 0), (1e-320, 1e-13), (1, 2e-13)]),
]
ASSUMPTION_CS = (0.05, 0.25, 0.5, 0.75, 0.95)
ASSUMPTION_PS = (1e-6, 0.01, 0.1, 1 / math.e, 0.5, 1.0)
EVAL_ARGS = (-0.0, 0.0, 5e-324, 1e-300, 1e-9, 0.1, 0.25, 1 / math.e, 0.5, 0.9, 1.0,
             1.5, math.e, 10.0, 1e10, 1e300, -1e-9, -1.7e308, math.inf, math.nan)
LOG_ARGS = (-0.0, 0.0, -1.7e308, -1e300, -1e15, -1e9, -745.0, -40.0, -3.0, -1.0, -0.5,
            -1e-9, 1e-9, 0.5, 1.0, 2.0, 50.0, 1e300, -math.inf, math.inf, math.nan)
# the float-range edge of qa_phi (709.78...) lies between 709.5 and 710.0; 0.2,
# 0.6, -0.3 and -1.0 fall inside the segments of the piecewise SHAPES
INV_TARGETS = (-1.0, -0.3, 0.0, 1e-9, 0.2, 0.5, 0.6, 1.0, 3.0, 40.0, 700.0, 709.0, 709.5,
               710.0, 1e5)
INV_LOG_HI = {"phi": (0.0, -3.0), "psi": (0.0, -3.0, 2.0)}
BAD_SPECS = [
    "qa_phi",
    {},
    {"family": "nope"},
    {"family": ["qa_phi"]},
    {"family": "qa_phi", "alpha": 1.0},
    {"family": "qa_psi", "gamma": 1.0},
    {"family": "identity", "points": []},
    {"family": "alpha_beta", "alpha": 0.5},
    {"family": "alpha_beta", "alpha": "x", "beta": 0.5},
    {"family": "alpha_beta", "alpha": 0.0, "beta": 0.5},
    {"family": "alpha_beta", "alpha": 2.0, "beta": 0.5},
    {"family": "alpha_beta", "alpha": 0.5, "beta": -0.1},
    {"family": "alpha_beta", "alpha": 0.5, "beta": 0.5, "gamma": 1},
    {"family": "psi_gamma"},
    {"family": "psi_gamma", "gamma": 1.5},
    {"family": "psi_gamma", "gamma": [1]},
    {"family": "piecewise"},
    {"family": "piecewise", "points": []},
    {"family": "piecewise", "points": 5},
    {"family": "piecewise", "points": [[0, 0, 1]]},
    {"family": "piecewise", "points": [[0.1, 0], [1, 1]]},
    {"family": "piecewise", "points": [[0, 0], [0.5, 1], [0.5, 1.2]]},
    {"family": "piecewise", "points": [[0, 0], [0.5, -1]]},
    {"family": "piecewise", "points": [[0, 0], [0.5, 1], [1, 0.5]]},
    {"family": "piecewise", "points": [[0, 0], [0.5, 0.1], [1, 1]]},
    {"family": "piecewise", "points": [[0, 0], [0.5, 1], [2, 1.5]]},
    # y/t of the last sample underflows to 0
    {"family": "piecewise", "points": [[0, 0], [1, 5e-324], [2, 5e-324]], "domain": "psi"},
    {"family": "qa_phi", "domain": "theta"},
    {"family": "qa_phi", "domain": ["phi"]},
    {"family": "alpha_beta", "alpha": "x", "beta": 0.5, "domain": "theta"},
]
PROFILE_PHIS = (qa_phi(), alpha_beta(0.5, 0.7), alpha_beta(1.0, 0.6))
PROFILE_TS = (5e-324, 1e-300, 1e-100, 1e-20, 1e-6, 0.01, 0.2, 0.5, 1.0)
# decreasing, and reaching below 1e-200 only past PROFILE_N_MAX
PROFILE_SAMPLES = ((1.0, 0.9), (10.0, 0.01), (400.0, 1e-200))
PROFILE_N_MAX = 300
# sampled only up to 10: phi_s answers a t only while s_n < t for some n <= 10
PROFILE_SAMPLED_PSI = piecewise([(0, 0), (1, 1), (10, 2)], kind="psi")
# gamma is at most 5 for LADDER_P, so its ladder ends at 1 + log 5; each pair is
# (the phi priced, the phi whose ladder gamma_exp(phi) supplies s_n)
LADDER_P = piecewise([(0, 0), (0.1, 0.5), (1, 1)])
LADDER_PAIRS = [(alpha_beta(0.5, 0.5), qa_phi()), (qa_phi(), LADDER_P), (LADDER_P, qa_phi()),
                (LADDER_P, LADDER_P)]
LADDER_XS = (2.0, 2.6, 2.7, 5.0)
# the ladder's last value is 0.1: t at it and below it, for its inverse and alpha_s
LADDER_INVERSE_TS = (0.1, 0.0999999, 0.01)
LADDER_ALPHA_TS = (0.05, 0.01)
# (alpha, beta, exponent) and t: the first two products overflow, the next two
# log terms overflow with opposite signs, the last is a control
ITERATED_LOGS = [((1.0, 200, 1), 1e-300), ((0.5, 1e308, 1), 0.1),
                 ((0.5, 1e308, -1e308), 1e-300), ((0.5, -1e308, 1e308), 1e-300),
                 ((0.5, 1, 1), 0.1)]
PROFILE_PAIRS = [
    *((phi, psi) for phi in PROFILE_PHIS for psi in WITNESS_PSIS),
    *((phi, PROFILE_SAMPLED_PSI) for phi in PROFILE_PHIS),
]

QA_PHI = '{"family": "qa_phi"}'
QA_PSI = '{"family": "qa_psi"}'
F3 = '{"breakpoints": [0, 0.25, 0.5, 1], "values": [3, 1, 2]}'
F12 = json.dumps({
    "breakpoints": [k / 12 for k in range(13)],
    "values": [0.5 + 0.75 * k for k in (3, 11, 0, 7, 5, 9, 1, 10, 2, 8, 4, 6)],
})
CLI_ARGVS = [
    ["rearrange", "--input", F3],
    ["rearrange", "--input", F3, "--out", "json"],  # a flag rearrange does not take
    ["lorentz-norm", "--phi", QA_PHI, "--input", F3],
    *(
        ["qa-bounds", "--phi", QA_PHI, "--psi", QA_PSI, "--input", f, "--strategy", s]
        for f in (F3, F12)
        for s in ("auto", "layers", "local", "exhaustive")
    ),
    ["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "1e-9", "--tmax", "0.5",
     "--points", "20"],
    ["check-seq", "--seq", '{"kind": "gamma_exp"}', "--phi", QA_PHI, "--psi", QA_PSI,
     "--points", "20"],
    # empty ranges: --xmax at or below the sequence's start, and below --xmin;
    # then a range one ulp wide, too narrow for its 200 points
    *(["check-seq", "--seq", '{"kind": "reciprocal"}', "--phi", QA_PHI, "--psi", QA_PSI,
       "--xmin", xmin, "--xmax", xmax, "--points", points]
      for xmin, xmax, points in (("0", "0.5", "3"), ("5", "3", "3"),
                                 ("1", "1.0000000000000002", "200"))),
    # a log range one ulp wide, too narrow for its 5 points
    ["tau", "--phi", QA_PHI, "--psi", QA_PSI, "--tmin", "0.5", "--tmax", "0.5000000000000001",
     "--points", "5"],
    ["equivalence", "--a", json.dumps({"kind": "tau", "phi": {"family": "qa_phi"},
                                       "psi": {"family": "qa_psi"}}),
     "--b", json.dumps({"kind": "shape", "spec": {"family": "qa_phi"}}),
     "--tmin", "1e-6", "--tmax", "0.5", "--points", "20"],
    ["equivalence", "--a", json.dumps({"kind": "tau", "phi": {"family": "qa_phi"},
                                       "psi": {"family": "qa_psi"}}),
     "--b", json.dumps({"kind": "shape", "spec": {"family": "qa_phi"}}),
     "--tmin", "0.5", "--tmax", "0.5000000000000001", "--points", "5"],
    ["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "4"],
    ["omega", "--phi-x", '{"family": "identity"}', "--phi", QA_PHI, "--psi", QA_PSI,
     "--c", "0.5", "--N", "3"],
    ["selftest", "--seed", "7"],
    # a step ratio past the float range, and a phi(t) that underflows to 0
    ["check-seq", "--seq", json.dumps({"kind": "gamma_exp", "phi": {
        "family": "alpha_beta", "alpha": 0.999999, "beta": 1e-12}}),
     "--phi", '{"family": "constant_one"}', "--psi", QA_PSI, "--xmin", "2", "--xmax", "1000",
     "--points", "3"],
    ["tau", "--phi", json.dumps({"family": "piecewise", "points": [[0, 0], [0.5, 1e-300]]}),
     "--psi", QA_PSI, "--tmin", "1e-30", "--tmax", "0.5", "--points", "5"],
    # non-finite witness numbers, refused as flags
    ["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "nan", "--N", "3"],
    ["omega", "--phi-x", QA_PHI, "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "3",
     "--mu1", "inf"],
]
LADDER_ARGV = ["check-seq", "--seq", '{"kind": "gamma_exp"}', "--phi",
               json.dumps(LADDER_P.to_json()), "--psi", QA_PSI, "--xmax", "10"]
SELFTEST_SEEDS = (0, 7, 123)
# the one piece and the layer split both cost 1.5: weights (1.5,) and (1.0, 0.5)
TIE_INPUT = StepFunction((0, Fraction(1, 2), 1), (2.0, 1.0))
TIE_SHAPES = (identity(), constant_one("psi"))
# the psi families built without a domain_kind, each by family name
DEFAULT_DOMAIN_SHAPES = [("qa_psi", {}), ("psi_gamma", {"exponent": 0.4})]
# build_witness refuses these: the heights of constant_one stay equal, and
# identity's gamma is constant, so not decreasing at mu1
WITNESS_REFUSALS = [WitnessSpec(constant_one(), qa_psi(), 3, 0.5),
                    WitnessSpec(identity(), qa_psi(), 3, 0.5, mu1=0.25)]


def _equal_pieces(*values) -> StepFunction:
    """values on len(values) equal pieces, adjacent equal values not merged."""
    m = len(values)
    return StepFunction(tuple(Fraction(k, m) for k in range(m + 1)), values)


# +-0.0 only, then -0.0 pieces beside zero, positive and negative ones
ZERO_FUNCTIONS = [
    constant(0.0),
    constant(-0.0),
    _equal_pieces(0.0, -0.0),
    _equal_pieces(-0.0, 0.0, -0.0),
    _equal_pieces(-0.0, -0.0, -0.0, -0.0),
    _equal_pieces(3.0, -0.0, 2.0),
    _equal_pieces(-0.0, 1.0),
    _equal_pieces(1.0, -0.0),
    _equal_pieces(-0.0, -1.5, 0.0, 1.5),
    _equal_pieces(2.0, -2.0, -0.0, 0.0, 2.0),
    _equal_pieces(-0.0, 5e-324, 0.0, -5e-324, 1.7e308),
    StepFunction((0, Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), 1), (-0.0, 0.25, -0.0, -0.25)),
]

QA = {"family": "qa_phi"}
QA_PSI_SPEC = {"family": "qa_psi"}
SAMPLES = {"kind": "samples", "points": [[1, 0.9], [10, 0.01], [400, 1e-200]]}
FUNCTION_SPECS = [
    {"breakpoints": [0, 1], "values": [2]},
    {"breakpoints": [0, 0.25, 0.5, 1], "values": [3, -1, 2.5]},
    {"breakpoints": [0.0, 1e-300, 1.0], "values": [-0.0, 5e-324]},
    {"breakpoints": [0, 0.1, 0.7, 1], "values": [1.7e308, 0, -1e-300]},
]
# read in both domains; the last two carry their own
SHAPE_SPECS = [
    QA,
    QA_PSI_SPEC,
    {"family": "identity"},
    {"family": "constant_one"},
    {"family": "alpha_beta", "alpha": 0.5, "beta": 1},
    {"family": "alpha_beta", "alpha": 1, "beta": 0.0},
    {"family": "psi_gamma", "gamma": 0.4},
    {"family": "psi_gamma", "gamma": 1},
    {"family": "piecewise", "points": [[0, 0], [0.25, 0.5], [1, 1]]},
    {"family": "qa_phi", "domain": "psi"},
    {"family": "piecewise", "points": [[0, 0], [1, 1], [4, 2.5]], "domain": "psi"},
]
SEQUENCE_SPECS = [
    {"kind": "reciprocal"},
    {"kind": "gamma_exp"},
    {"kind": "gamma_exp", "phi": {"family": "alpha_beta", "alpha": 0.5, "beta": 0.7}},
    SAMPLES,
    {"kind": "samples", "points": [[1.5, 1], [3, 0.5]]},
]
EXPRESSION_SPECS = [
    {"kind": "shape", "spec": {"family": "alpha_beta", "alpha": 0.5, "beta": 1}},
    {"kind": "tau", "phi": QA, "psi": {"family": "psi_gamma", "gamma": 0.4}},
    {"kind": "phi_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "reciprocal"}, "n_max": 50},
    {"kind": "phi_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "gamma_exp"}},
    {"kind": "phi_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": SAMPLES, "n_max": 300.0},
    {"kind": "alpha_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "gamma_exp"}},
    {"kind": "alpha_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": SAMPLES},
    {"kind": "iterated_log", "alpha": 0.5, "beta": 1, "exponent": 1},
]
BAD_FUNCTION_SPECS = [
    [[0, 1], [1]],
    {"breakpoints": [0, 1]},
    {"breakpoints": [0, 1], "values": [1], "bogus": 0},
    {"breakpoints": [False, "0.5", True], "values": [True, "2"]},
    {"breakpoints": "01", "values": [1]},
    {"breakpoints": [0, 1], "values": 1},
    {"breakpoints": [0, 1], "values": [None]},
    {"breakpoints": [0, [1]], "values": [1]},
    {"breakpoints": [0, math.inf], "values": [1]},
    {"breakpoints": [0, 1], "values": [math.nan]},
    {"breakpoints": [0, 0.5], "values": [1]},
]
BAD_SHAPE_SPECS = [
    {"family": True},
    {"family": "alpha_beta", "alpha": "0.5", "beta": 1},
    {"family": "alpha_beta", "alpha": True, "beta": 1},
    {"family": "psi_gamma", "gamma": False},
    {"family": "piecewise", "points": [[0, 0], [0.5, True], [1, 1]]},
    {"family": "piecewise", "points": [[0, 0], ["0.5", "0.75"], [1, 1]]},
    {"family": "piecewise", "points": "01"},
    {"family": "piecewise", "points": [[0, 0], [[0.5], 0.75], [1, 1]]},
]
BAD_SEQUENCE_SPECS = [
    ["reciprocal"],
    {"kind": "nope"},
    {"kind": "reciprocal", "bogus": 1},
    {"kind": "reciprocal", "phi": {"family": "nope"}},
    {"kind": "reciprocal", "points": [[1, 0.5], [2, 0.25]]},
    {"kind": "gamma_exp", "phi": "qa_phi"},
    {"kind": "samples", "points": [[1, 0.5], [2, True]]},
    {"kind": "samples", "points": [["1", 0.5], [2, 0.25]]},
    {"kind": "samples", "points": [[1, 0.5, 0], [2, 0.25]]},
    {"kind": "samples", "points": "01"},
]
BAD_EXPRESSION_SPECS = [
    {"kind": True},
    {"kind": "tau", "phi": QA, "psi": QA_PSI_SPEC, "bogus": 1},
    {"kind": "tau", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "reciprocal"}},
    {"kind": "shape", "spec": QA, "phi": QA},
    {"kind": "shape", "spec": [QA]},
    {"kind": "phi_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "reciprocal"}, "n_max": True},
    {"kind": "phi_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "reciprocal"}, "n_max": "50"},
    {"kind": "phi_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": {"kind": "reciprocal"}, "n_max": 2.5},
    {"kind": "alpha_s", "phi": QA, "psi": QA_PSI_SPEC, "seq": "reciprocal"},
    {"kind": "alpha_s", "phi": QA, "psi": QA_PSI_SPEC,
     "seq": {"kind": "samples", "points": [[1, 0.5], [2, "0.25"]]}},
    {"kind": "iterated_log", "alpha": "0.5", "beta": 1, "exponent": 1},
    {"kind": "iterated_log", "alpha": 0.5, "beta": [1], "exponent": 1},
]

# a valid set of parameters for each shape family and sequence kind, and a
# value for every parameter that some other family or kind takes
SHAPE_PARAMS = {"alpha_beta": {"alpha": 0.5, "beta": 0.7}, "psi_gamma": {"exponent": 0.4},
                "piecewise": {"points": ((0, 0), (0.5, 0.75), (1, 1))}}
SHAPE_EXTRAS = {"alpha": 0.3, "beta": 0.3, "exponent": 0.3, "points": ((0, 0), (1, 1))}
SEQUENCE_PARAMS = {"reciprocal": {}, "gamma_exp": {"phi": qa_phi()},
                   "samples": {"samples": ((1, 0.5), (2, 0.25))}}
SEQUENCE_EXTRAS = {"phi": qa_phi(), "samples": ((1, 0.5), (2, 0.25)), "domain_start": 0.5}
BAD_CONSTRUCTORS = [
    *((ShapeFunction, (family,), {**SHAPE_PARAMS.get(family, {}), name: value})
      for family in _TABLE
      for name, value in SHAPE_EXTRAS.items()
      if name not in SHAPE_PARAMS.get(family, {})),
    *((SequenceSpec, (kind,), {**params, name: value})
      for kind, params in SEQUENCE_PARAMS.items()
      for name, value in SEQUENCE_EXTRAS.items()
      if name not in params),
    (SequenceSpec, ("gamma_exp",), {}),
    (SequenceSpec, ("samples",), {}),
]
# constructor calls that pass a parameter of the wrong type
MISTYPED_CONSTRUCTORS = [
    (SequenceSpec, ("gamma_exp",), {"phi": "qa_phi"}),
    (SequenceSpec, ("samples",), {"samples": ((1, 0.5), (2, "x"))}),
    (SequenceSpec, ("samples",), {"samples": 5}),
    (ShapeFunction, ("alpha_beta",), {"alpha": "0.5", "beta": 1}),
    (ShapeFunction, ("alpha_beta",), {"alpha": 0.5, "beta": True}),
    (ShapeFunction, ("psi_gamma",), {"exponent": [0.5], "domain_kind": "psi"}),
    (ShapeFunction, ("piecewise",), {"points": 5}),
    (ShapeFunction, ("piecewise",), {"points": ((0, 0), ("0.5", 0.75), (1, 1))}),
    (WitnessSpec, ("qa_phi", qa_psi(), 3, 0.5), {}),
    (WitnessSpec, (qa_phi(), "qa_psi", 3, 0.5), {}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, "0.5"), {}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, 0.5), {"mu1": "0.25"}),
    (StepFunction, ((0, "1/2", 1), (1.0, 2.0)), {}),
    (StepFunction, ((0, True), (1.0,)), {}),
    (StepFunction, ((0, 1), ("2.5",)), {}),
    (StepFunction, ((0, 1), (True,)), {}),
    (indicator, (0, "1/2", 2.0), {}),
    (constant, (True,), {}),
    (scale, (indicator(0, 0.5, 2.0), "3"), {}),
    (scale, (indicator(0, 0.5, 2.0), True), {}),
    (distribution, (indicator(0, 0.5, 2.0), True), {}),
    (fundamental, (qa_phi(), "0.5"), {}),
    (alpha_beta, ("0.5", 0.5), {}),
    (alpha_beta, (True, 0.5), {}),
    (alpha_beta, (10**400, 1), {}),
    (psi_gamma, ("1",), {}),
    # calls that read a number with a bare float(), or not at all, before the
    # two input rules of errors.py covered them
    (log_gamma_inv, (qa_phi(), "2"), {}),
    (log_gamma_inv, (qa_phi(), True), {}),
    (embeddings.check_seq_conditions,
     (qa_phi(), qa_psi(), embeddings.reciprocal(), ["1", "2", "3"]), {}),
    (least_concave_majorant, ([(0, 0), ("0.5", 0.5), (1, 0.75)],), {}),
    (is_concave, ([(0, 0), ("0.5", 0.5), (1, 0.75)],), {}),
    (is_quasiconcave, ([(0, 0), (0.5, True)],), {}),
    (check_assumptions, (qa_phi(), qa_psi(), ["0.5"], [1.0]), {}),
    (check_assumptions, (qa_phi(), qa_psi(), [0.5], [True]), {}),
    (embeddings.iterated_log_profile, ("1", "0.5", True), {}),
    (embeddings.equivalence, (qa_phi(), qa_psi(), True, 0.5), {}),
    (embeddings.equivalence, (qa_phi(), qa_psi(), 0.1, 0.5), {"threshold": True}),
    (random_step_function, (random.Random(1),), {"vmax": "10"}),
    (random_step_function, (random.Random(1),), {"value_pool": ["2.5"]}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, math.nan), {}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, 0.5), {"p": math.inf}),
    # a witness function's c and p, read by no rule before the record rule;
    # and samples with two neighbours at one abscissa (a ZeroDivisionError)
    (WitnessFunction, ([0.0] * 4, [0.0] * 4, [0.0] * 4, 2, "0.5", True), {}),
    (is_concave, ([(0, 0), (0.0, 0.5)],), {}),
    (is_concave, ([(0, 0), (-0.0, 0.5)],), {}),
    (is_quasiconcave, ([(0, 0), (0.0, 0.5)],), {}),
]
# constructor calls whose numbers leave the float range: a sample ratio y/t
# that underflows to 0 or overflows to inf, and an int past the largest float;
# and the piecewise shape with no sample after the origin
OUT_OF_RANGE_CONSTRUCTORS = [
    (ShapeFunction, ("piecewise",),
     {"points": ((0, 0), (1, 5e-324), (2, 5e-324)), "domain_kind": "psi"}),
    (ShapeFunction, ("piecewise",), {"points": ((0, 0), (2, 5e-324)), "domain_kind": "psi"}),
    *((ShapeFunction, ("piecewise",), {"points": ((0, 0),), "domain_kind": kind})
      for kind in ("phi", "psi")),
    (ShapeFunction, ("piecewise",), {"points": ((0, 0), (5e-324, 1.0), (1, 1.0))}),
    (ShapeFunction, ("piecewise",), {"points": ((0, 0), (0.5, 1e308), (1, 1.7e308))}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, 10**400), {}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, 0.5, 10**400), {}),
    (WitnessSpec, (qa_phi(), qa_psi(), 3, 0.5), {"mu1": 10**400}),
    # call-time ints past the float range, which ended in a bare OverflowError
    # or were read exactly (distribution's level); and log_tau at log t = -inf
    (embeddings.tau, (qa_phi(), qa_psi(), 10**400), {}),
    (embeddings.alpha_s, (qa_phi(), qa_psi(), embeddings.gamma_exp(qa_phi()), -10**400), {}),
    (scale, (indicator(0, 0.5, 2.0), 10**400), {}),
    (gamma, (qa_phi(), 10**400), {}),
    (distribution, (indicator(0, 0.5, 2.0), 10**400), {}),
    *((embeddings.log_tau, (phi, qa_psi(), -math.inf), {})
      for phi in (qa_phi(), alpha_beta(0.5, 0.7), identity())),
]
# step-function calls given a breakpoint or abscissa that is not finite
NON_FINITE_STEPFN_CALLS = [
    call
    for x in (math.inf, -math.inf, math.nan)
    for call in ((StepFunction, ((0, x, 1), (1.0, 2.0)), {}),
                 (indicator, (0, x), {}),
                 (indicator, (x, 1), {}),
                 (StepFunction((0, 1), (1.0,)).eval_at, (x,), {}))
]


def _fn(f) -> tuple:
    return tuple(str(b) for b in f.breakpoints), f.values


def _cake(f) -> tuple:
    """The layer cake of f, read off f* = rearrange(f): its heights (f*'s values
    without the zero level), their rounded differences, the measures of the
    superlevel sets (f*'s breakpoints after 0) and f* itself."""
    g = rearrange(f)
    n = g.pieces - (g.values[-1] == 0)
    heights = g.values[:n]
    levels = tuple(a - b for a, b in zip(heights, (*heights[1:], 0.0)))
    return heights, levels, tuple(map(str, g.breakpoints[1:n + 1])), _fn(g)


def _bounds(b) -> tuple:
    return b.lower, b.upper, b.lower_source, tuple(_fn(g) for g in b.upper_witness.pieces)


def _answer(compute, errors=ToolkitError) -> tuple:
    """compute()'s answer, or the error it raised, as a record."""
    try:
        return ("ok", compute())
    except errors as exc:
        return ("error", type(exc).__name__, str(exc))


def _shape_answer(compute) -> tuple:
    # a formula used outside its range can also fail in the math module
    return _answer(compute, (ToolkitError, ArithmeticError, ValueError))


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse's refusal of the command line
            code = exc.code
        except Exception as exc:  # a crash: its type and message stand in for the code
            code = type(exc).__name__, str(exc)
    return code, out.getvalue(), err.getvalue()


def groups():
    """(group name, list of answer records) in a fixed order."""
    edges = [*edge_corpus(31), *edge_corpus(32, value_pool=EXTREME_VALUES)]
    yield "stepfn", list(map(_stepfn, [*random_functions(11, 500), *edges]))
    yield "stepfn.json", list(map(_json_stepfn, json_edge_specs()))
    corpus = [*random_functions(11, 500), *layer_corpus(200, seed=7)]
    yield "nested_form", list(map(_cake, corpus))
    yield "lorentz_norm", [_lorentz(f, phi) for phi, _ in SHAPE_PAIRS for f in corpus]
    for strategy in UPPER_STRATEGIES:
        yield f"qa_upper.{strategy}", [
            _answer(lambda: _bounds(qa_upper(f, phi, psi, strategy=strategy)))
            for phi, psi in SHAPE_PAIRS
            for f in corpus
        ]
    yield "qa_bounds", [
        _answer(lambda: _bounds(qa_bounds(f, phi, psi)))
        for phi, psi in SHAPE_PAIRS
        for f in corpus
    ]
    yield "weights", [
        *(_weights(f, phi, all_groups) for phi, _ in SHAPE_PAIRS
          for f in [*layer_corpus(200, seed=7), *float_edge_corpus()]),
        *(_weights(f, phi, group_sample) for phi, _ in SHAPE_PAIRS for f in deep_corpus(4)),
    ]
    yield "weights.ties", [
        _weights(f, phi, all_groups) for phi, _ in SHAPE_PAIRS for f in tie_corpus()
    ]
    yield "qa_upper.ties", [
        _bounds(qa_upper(TIE_INPUT, *TIE_SHAPES, strategy=strategy))
        for strategy in UPPER_STRATEGIES
    ]
    phi, psi = SHAPE_PAIRS[0]
    yield "qa_upper.deep", [
        _bounds(qa_upper(f, phi, psi, strategy=strategy))
        for f in deep_corpus(20)
        for strategy in DEEP_STRATEGIES
    ]
    yield "qa_bounds.edge", [
        _bounds(qa_bounds(f, phi, psi))
        for phi, psi in SHAPE_PAIRS
        for f in edges
    ]
    yield "witness_qa_upper", [
        _answer(lambda: _witness_upper(*spec, strategy))
        for spec in WITNESS_GRID
        for strategy in UPPER_STRATEGIES
    ]
    yield "witness_qa_upper.deep", [
        _answer(lambda: _witness_upper(*spec, strategy), (ToolkitError, ArithmeticError))
        for spec in WITNESS_DEEP
        for strategy in UPPER_STRATEGIES
        if strategy != "exhaustive"
    ]
    yield "witness_lorentz_norm", [
        _answer(lambda: witness_lorentz_norm(_witness(*spec), spec[0]))
        for spec in [*WITNESS_GRID, *WITNESS_DEEP]
    ]
    yield "witness.weights", [
        *(_answer(lambda: _log_weights(*spec, all_groups)) for spec in WITNESS_GRID),
        *(_answer(lambda: _log_weights(*spec, group_sample)) for spec in WITNESS_DEEP),
    ]
    yield "shapes", [
        *map(_shape, SHAPES),
        *(_shape_answer(lambda: parse_shape(spec).to_json()) for spec in BAD_SPECS),
        *(_shape_answer(lambda: _default_domain(family, params))
          for family, params in DEFAULT_DOMAIN_SHAPES),
    ]
    yield "assumptions", [
        *(_answer(lambda: repr(check_assumptions(shape, qa_psi(), ASSUMPTION_CS, [p])))
          for shape in SHAPES for p in ASSUMPTION_PS),
        *(_answer(lambda: repr(check_assumptions(qa_phi(), shape, ASSUMPTION_CS, ASSUMPTION_PS)))
          for shape in SHAPES),
    ]
    yield "profiles", [
        *(_profile(phi, psi, seq)
          for phi, psi in PROFILE_PAIRS
          for seq in (embeddings.gamma_exp(phi), embeddings.reciprocal(),
                      embeddings.sample_sequence(PROFILE_SAMPLES))),
        *(_answer(lambda: embeddings.iterated_log_profile(*params)(t),
                  (ToolkitError, ArithmeticError))
          for params, t in ITERATED_LOGS),
    ]
    yield "cli", [_cli(argv) for argv in CLI_ARGVS]
    yield "selftest", [_cli(["selftest", "--seed", str(seed)]) for seed in SELFTEST_SEEDS]
    yield "zeros", [
        *(_fn(rearrange(f)) for f in ZERO_FUNCTIONS),
        *(_lorentz(f, phi) for phi, _ in SHAPE_PAIRS for f in ZERO_FUNCTIONS),
        *(_bounds(qa_bounds(f, phi, psi)) for phi, psi in SHAPE_PAIRS for f in ZERO_FUNCTIONS),
    ]
    yield "specs", [
        *(StepFunction.from_json(spec).to_json() for spec in FUNCTION_SPECS),
        *(_shape_echo(spec, kind) for spec in SHAPE_SPECS[:-2] for kind in ("phi", "psi")),
        *(_shape_echo(spec, None) for spec in SHAPE_SPECS[-2:]),
        *(_seq_cli(json.dumps(spec), "seq") for spec in SEQUENCE_SPECS),
        *(_expr_cli(json.dumps(spec), "a") for spec in EXPRESSION_SPECS),
    ]
    yield "specs.refused", [
        *(_refused(lambda: StepFunction.from_json(spec)) for spec in BAD_FUNCTION_SPECS),
        *(_refused(lambda: parse_shape(spec)) for spec in BAD_SHAPE_SPECS),
        *(_seq_cli(json.dumps(spec), None) for spec in BAD_SEQUENCE_SPECS),
        *(_expr_cli(json.dumps(spec), None) for spec in BAD_EXPRESSION_SPECS),
        *(_answer(lambda: repr(cls(*args, **kwargs)), (ToolkitError, TypeError))
          for cls, args, kwargs in BAD_CONSTRUCTORS),
        # a mistyped parameter may fail in any way; the error is the record
        *(_answer(lambda: repr(cls(*args, **kwargs)), Exception)
          for cls, args, kwargs in [*MISTYPED_CONSTRUCTORS, *OUT_OF_RANGE_CONSTRUCTORS,
                                    *NON_FINITE_STEPFN_CALLS]),
        *(_answer(lambda: repr(build_witness(spec))) for spec in WITNESS_REFUSALS),
    ]
    yield "profiles.ladders", [
        *(_ladder_phi_s(phi, ladder_phi) for phi, ladder_phi in LADDER_PAIRS),
        *(_answer(lambda: evaluate(x))
          for evaluate in (embeddings.gamma_exp(LADDER_P).value,
                           embeddings.gamma_exp(LADDER_P).log_value)
          for x in LADDER_XS),
        *(_answer(lambda: embeddings.gamma_exp(LADDER_P).inverse(t)) for t in LADDER_INVERSE_TS),
        *(_answer(lambda: embeddings.alpha_s(LADDER_P, qa_psi(), embeddings.gamma_exp(LADDER_P), t))
          for t in LADDER_ALPHA_TS),
        _cli(LADDER_ARGV),
    ]


def _shape(shape) -> tuple:
    return (
        repr(shape),
        shape.to_json(),
        tuple(_shape_answer(lambda: shape.eval(t)) for t in EVAL_ARGS),
        tuple(_shape_answer(lambda: shape.log_eval(x)) for x in LOG_ARGS),
        tuple(_shape_answer(lambda: shape.log_gamma_eval(x)) for x in LOG_ARGS),
        tuple(
            _shape_answer(lambda: log_gamma_inv(shape, y, log_hi=hi))
            for hi in INV_LOG_HI[shape.domain_kind]
            for y in INV_TARGETS
        ),
    )


def _default_domain(family, params) -> tuple:
    shape = ShapeFunction(family, **params)
    return repr(shape), shape.eval(2.0)


def _shape_echo(spec, kind) -> tuple:
    shape = parse_shape(spec, expected_kind=kind)
    return repr(shape), shape.to_json()


def _refused(decode) -> tuple:
    """The error type decode() raises; ("accepted",) if it raises none."""
    try:
        decode()
    except Exception as exc:  # a malformed spec may fail in any way; its type is the record
        return ("error", type(exc).__name__)
    return ("accepted",)


def _seq_cli(text, role):
    return _spec_cli(["check-seq", "--seq", text, "--phi", QA_PHI, "--psi", QA_PSI,
                      "--xmin", "1", "--xmax", "3", "--points", "3"], role)


def _expr_cli(text, role):
    return _spec_cli(["equivalence", "--a", text, "--b", json.dumps({"kind": "shape", "spec": QA}),
                      "--tmin", "1e-6", "--tmax", "0.5", "--points", "3"], role)


def _spec_cli(argv, role):
    """The config echo of argv's spec under role; with role None, the error
    type the CLI reports for it (("accepted",) if it exits 0)."""
    try:
        code, out, err = _cli(argv)
    except Exception as exc:  # an escaped exception is recorded like a reported one
        return ("error", "escaped", type(exc).__name__)
    if role is not None:
        return json.dumps(json.loads(out)["config"][role], sort_keys=True)
    return ("accepted",) if code == 0 else ("error", code, json.loads(err)["error"]["type"])


def _profile(phi, psi, seq) -> tuple:
    """The profiles of (phi, psi) on seq, each phi_s from a cold table."""
    phi_s = []
    for t in PROFILE_TS:
        embeddings._term_table.cache_clear()
        phi_s.append(_answer(lambda: embeddings.phi_s(phi, psi, seq, t, n_max=PROFILE_N_MAX)))
    xs = [seq.domain_start + 40.0 * i / 19 for i in range(20)]
    return (
        seq.domain_start,
        tuple(phi_s),
        tuple(_answer(lambda: embeddings.tau(phi, psi, t)) for t in PROFILE_TS),
        tuple(_answer(lambda: embeddings.alpha_s(phi, psi, seq, t)) for t in PROFILE_TS),
        _answer(lambda: embeddings.check_seq_conditions(phi, psi, seq, xs)),
    )


def _ladder_phi_s(phi, ladder_phi) -> tuple:
    """phi_s of (phi, qa_psi) on the ladder of ladder_phi, each from a cold table."""
    seq = embeddings.gamma_exp(ladder_phi)
    out = []
    for t in PROFILE_TS:
        embeddings._term_table.cache_clear()
        out.append(_answer(lambda: embeddings.phi_s(phi, qa_psi(), seq, t)))
    return tuple(out)


def _stepfn(f) -> tuple:
    """f's step-function answers; add pairs f with its reversal, so that the
    grids merge, and scale may overflow."""
    g = StepFunction(tuple(1 - b for b in reversed(f.breakpoints)), f.values[::-1])
    return (
        _fn(rearrange(f)),
        str(l1_norm_exact(f)),
        tuple(distribution(f, s) for s in DIST_LEVELS),
        _fn(abs_(f)),
        tuple(_answer(lambda: _fn(scale(f, a)), ValueError) for a in SCALE_FACTORS),
        _answer(lambda: _fn(add(f, g)), ValueError),
    )


def _json_stepfn(spec) -> tuple:
    """The function read from a JSON spec: its breakpoints, its JSON, its
    rearrangement and its exact l1."""
    f = StepFunction.from_json(spec)
    return _fn(f), f.to_json(), _fn(rearrange(f)), str(l1_norm_exact(f))


def _weights(f, phi, groups) -> tuple:
    """The bounds engine's group weights of |f| over groups(layer count)."""
    table = _LayerTable(abs_(f), phi)
    return tuple(table.weight(i, j) for i, j in groups(len(table.vals)))


def _lorentz(f, phi) -> tuple:
    v = lorentz_norm(f, phi)
    return v.value, v.jump_part, v.integral_part


def _witness(phi, psi, n, c):
    return build_witness(WitnessSpec(phi=phi, psi=psi, N=n, c=c))


def _witness_upper(phi, psi, n, c, strategy) -> float:
    return witness_qa_upper(_witness(phi, psi, n, c), phi, psi, strategy=strategy)


def _log_weights(phi, psi, n, c, groups) -> tuple:
    """The log-domain group weights of a witness over groups(layer count)."""
    table = _LogLayerTable.from_witness(_witness(phi, psi, n, c), phi)
    return tuple(table.weight(i, j) for i, j in groups(len(table.layer_weights)))


def fingerprint() -> str:
    """The platform line: the hashes hold only where it reads the same."""
    libc = " ".join(filter(None, platform.libc_ver())) or "unknown libc"
    return (f"# platform: {platform.python_implementation()} {platform.python_version()},"
            f" {libc}, {platform.machine()}")


def lines():
    """One line per group: its name, its record count and the sha256 of its records."""
    for name, records in groups():
        digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
        yield f"{name:<24} {len(records):>5} {digest}"


def moved_groups(saved) -> list:
    """The names of the groups whose line in saved (this script's output less
    its platform line) differs from this checkout's, or is on one side only."""
    want = {line.split()[0]: line for line in saved}
    got = {line.split()[0]: line for line in lines()}
    return [name for name in {**want, **got} if want.get(name) != got.get(name)]


def check(path) -> int:
    """Compare with the saved output at path: 1 if a group moved, else 0."""
    platform_line, *saved = Path(path).read_text(encoding="utf-8").splitlines()
    moved = moved_groups(saved)
    print(f"saved: {platform_line}")
    print(f"here:  {fingerprint()}")
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(moved)} group(s) moved" if moved else f"all {len(saved)} groups match")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One sha256 per group of qaspace answers.")
    parser.add_argument("--check", metavar="FILE", help="compare with FILE, this script's"
                        " saved output, and exit 1 if a group moved")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    print(fingerprint())
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
