"""Print one sha256 per group of qaspace answers, to show which answers moved.

    python3 tools/answers_digest.py

The answers are computed by the qaspace package of the checkout this script
sits in, on fixed seeded inputs: the corpora random_functions(11, 500) and
layer_corpus(200, seed=7) from tests/corpora.py, the 50-200 layer functions of
deep_corpus(20) for the long searches, a grid of witness specs, and a fixed
list of CLI argvs (exit code, stdout and stderr).  Every float is hashed through repr, every
Fraction exactly, so a digest stays the same only if every answer in its
group is bitwise the same.  Run it in two checkouts and diff the output.
Standard library only; takes no options.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpora import deep_corpus, layer_corpus, random_functions  # noqa: E402
from qaspace import lorentz_norm, nested_form, qa_bounds, qa_upper  # noqa: E402
from qaspace.cli import main as cli_main  # noqa: E402
from qaspace.errors import ToolkitError  # noqa: E402
from qaspace.shapes import alpha_beta, psi_gamma, qa_phi, qa_psi  # noqa: E402
from qaspace.witness import WitnessSpec, build_witness, witness_qa_upper  # noqa: E402

SHAPE_PAIRS = [(qa_phi(), qa_psi()), (alpha_beta(0.5, 0.7), psi_gamma(0.4))]
UPPER_STRATEGIES = ("singleton", "layers", "local_search", "exhaustive", "auto")
DEEP_STRATEGIES = ("layers", "local_search", "auto")
WITNESS_PHIS = (qa_phi(), alpha_beta(0.5, 0.7), alpha_beta(0.8, 0.3))
WITNESS_PSIS = (qa_psi(), psi_gamma(0.4))

QA_PHI = '{"family": "qa_phi"}'
QA_PSI = '{"family": "qa_psi"}'
F3 = '{"breakpoints": [0, 0.25, 0.5, 1], "values": [3, 1, 2]}'
F12 = json.dumps({
    "breakpoints": [k / 12 for k in range(13)],
    "values": [0.5 + 0.75 * k for k in (3, 11, 0, 7, 5, 9, 1, 10, 2, 8, 4, 6)],
})
CLI_ARGVS = [
    ["rearrange", "--input", F3],
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
    ["equivalence", "--a", json.dumps({"kind": "tau", "phi": {"family": "qa_phi"},
                                       "psi": {"family": "qa_psi"}}),
     "--b", json.dumps({"kind": "shape", "spec": {"family": "qa_phi"}}),
     "--tmin", "1e-6", "--tmax", "0.5", "--points", "20"],
    ["witness", "--phi", QA_PHI, "--psi", QA_PSI, "--c", "0.5", "--N", "4"],
    ["omega", "--phi-x", '{"family": "identity"}', "--phi", QA_PHI, "--psi", QA_PSI,
     "--c", "0.5", "--N", "3"],
    ["selftest", "--seed", "7"],
]


def _fn(f) -> tuple:
    return tuple(str(b) for b in f.breakpoints), f.values


def _bounds(b) -> tuple:
    return b.lower, b.upper, b.lower_source, tuple(_fn(g) for g in b.upper_witness.pieces)


def _answer(compute) -> tuple:
    """compute()'s answer, or the error it raised, as a record."""
    try:
        return ("ok", compute())
    except ToolkitError as exc:
        return ("error", type(exc).__name__, str(exc))


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def groups():
    """(group name, list of answer records) in a fixed order."""
    corpus = [*random_functions(11, 500), *layer_corpus(200, seed=7)]
    yield "nested_form", [
        (nf.heights, nf.levels, tuple(str(m) for m in nf.measures), _fn(nf.reconstruct()))
        for nf in map(nested_form, corpus)
    ]
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
    phi, psi = SHAPE_PAIRS[0]
    yield "qa_upper.deep", [
        _bounds(qa_upper(f, phi, psi, strategy=strategy))
        for f in deep_corpus(20)
        for strategy in DEEP_STRATEGIES
    ]
    yield "witness_qa_upper", [
        _answer(lambda: _witness_upper(phi, psi, n, c, strategy))
        for phi in WITNESS_PHIS
        for psi in WITNESS_PSIS
        for n in range(2, 11)
        for c in (0.5, 0.7, 0.9)
        for strategy in UPPER_STRATEGIES
    ]
    yield "cli", [_cli(argv) for argv in CLI_ARGVS]


def _lorentz(f, phi) -> tuple:
    v = lorentz_norm(f, phi)
    return v.value, v.jump_part, v.integral_part


def _witness_upper(phi, psi, n, c, strategy) -> float:
    w = build_witness(WitnessSpec(phi=phi, psi=psi, N=n, c=c))
    return witness_qa_upper(w, phi, psi, strategy=strategy)


def main() -> int:
    for name, records in groups():
        digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
        print(f"{name:<24} {len(records):>5} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
