"""Batch command-line front-end.

Subcommands map one-to-one onto the library modules: `rearrange`,
`lorentz-norm`, `qa-bounds`, `tau`, `check-seq`, `equivalence`, `witness`,
`omega`, and `selftest`.  Structured results are JSON with sorted keys,
curves are CSV; every run echoes its fully resolved configuration so output
files are self-describing and byte-reproducible.

Shape and function arguments accept either inline JSON or a path to a JSON
file.  Exit codes: 0 success, 1 invariant failure (selftest), 2 bad usage or
invalid specs.

Each subcommand, and each spec decoder, imports the library module it runs
when it runs, so one CLI process loads only the modules its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial
from typing import Callable, NamedTuple

from .errors import DomainError, SpecParseError, ToolkitError
from .errors import spec_kind, spec_number, spec_read, spec_whole

OUT_DIR_VAR = "QASPACE_OUT_DIR"

_STRATEGY_ALIASES = {
    "layers": "layers",
    "local": "local_search",
    "exhaustive": "exhaustive",
    "auto": "auto",
}


class _Profile(NamedTuple):
    """A positive function of t for `equivalence`, with its expression's echo."""

    fn: Callable
    echo: dict

    def to_json(self) -> dict:
        return self.echo


# the JSON keys of each expression kind besides "kind": (required, optional)
_EXPRESSION_KEYS = {
    "shape": (("spec",), ()),
    "tau": (("phi", "psi"), ()),
    "phi_s": (("phi", "psi", "seq"), ("n_max",)),
    "alpha_s": (("phi", "psi", "seq"), ()),
    "iterated_log": (("alpha", "beta", "exponent"), ()),
}


def _shape(obj, domain: str):
    from .shapes import parse_shape

    return parse_shape(obj, domain)


def _expression(obj) -> _Profile:
    from . import embeddings

    kind = spec_kind(obj, "expression", "kind", _EXPRESSION_KEYS)
    if kind == "shape":
        sh = spec_read(obj, "spec", _shape, "phi")
        return _Profile(sh.eval, {"kind": "shape", "spec": sh.to_json()})
    if kind == "iterated_log":
        params = {key: spec_read(obj, key, spec_number) for key in ("alpha", "beta", "exponent")}
        return _Profile(embeddings.iterated_log_profile(**params), {"kind": kind, **params})
    phi = spec_read(obj, "phi", _shape, "phi")
    psi = spec_read(obj, "psi", _shape, "psi")
    echo = {"kind": kind, "phi": phi.to_json(), "psi": psi.to_json()}
    if kind == "tau":
        return _Profile(lambda t: embeddings.tau(phi, psi, t), echo)
    seq = spec_read(obj, "seq", embeddings.SequenceSpec.from_json, phi)
    echo["seq"] = seq.to_json()
    if kind == "alpha_s":
        return _Profile(lambda t: embeddings.alpha_s(phi, psi, seq, t), echo)
    n_max = echo["n_max"] = spec_read(obj, "n_max", spec_whole) if "n_max" in obj else 10_000
    return _Profile(lambda t: embeddings.phi_s(phi, psi, seq, t, n_max=n_max).value, echo)


# the float flags that must be finite: argparse reads "inf" and "nan" as
# floats, and downstream they break a grid or a comparison without naming the flag
_FINITE_FLAGS = ("xmin", "xmax", "tmin", "tmax", "threshold")


def _check_finite(args):
    for dest in _FINITE_FLAGS:
        value = vars(args).get(dest)
        if value is not None and not math.isfinite(value):
            raise DomainError(f"--{dest} must be finite, got {value!r}")


def _step_function(obj, args):
    from .stepfn import StepFunction

    return StepFunction.from_json(obj)


def _sequence(obj, args):
    from .embeddings import SequenceSpec

    return SequenceSpec.from_json(obj, args.phi)


# each spec argument's decoder, given the arguments decoded before it
_SPEC_ARGS = {
    "phi": lambda obj, args: _shape(obj, "phi"),
    "psi": lambda obj, args: _shape(obj, "psi"),
    "input": _step_function,
    "seq": _sequence,
    "a": lambda obj, args: _expression(obj),
    "b": lambda obj, args: _expression(obj),
    "phi_x": lambda obj, args: _shape(obj, "phi"),
}


def _decode_specs(args):
    """Replace each JSON spec argument (inline, or the file it names) by the
    object it decodes to; phi comes first, since a gamma_exp sequence without
    its own phi takes it."""
    for dest, decode in _SPEC_ARGS.items():
        text = vars(args).get(dest)
        if text is None:
            continue
        try:
            if text.strip().startswith(("{", "[")):
                obj = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
        except RecursionError:
            flag = "--" + dest.replace("_", "-")
            raise SpecParseError(f"{flag}: the JSON nests too deeply to read") from None
        setattr(args, dest, decode(obj, args))


def _config(args) -> dict:
    """The resolved configuration a report echoes: every argument but the
    output routing, each decoded spec as its to_json echo."""
    return {
        key: value.to_json() if hasattr(value, "to_json") else value
        for key, value in vars(args).items()
        if key not in ("run", "out", "output")
    }


def _emit(args, text: str):
    text = text if text.endswith("\n") else text + "\n"
    dest = getattr(args, "output", None)
    if dest in (None, "-"):
        sys.stdout.write(text)
        return
    base = os.environ.get(OUT_DIR_VAR)
    if base and not os.path.isabs(dest):
        dest = os.path.join(base, dest)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(args, result: dict):
    text = json.dumps({"config": _config(args), "result": result}, sort_keys=True, indent=2)
    _emit(args, text)


# ---------------------------------------------------------------- subcommands


def _cmd_rearrange(args) -> int:
    from . import stepfn

    _emit_json(args, stepfn.rearrange(args.input).to_json())
    return 0


def _cmd_lorentz(args) -> int:
    from . import lorentz

    _emit_json(args, asdict(lorentz.lorentz_norm(args.input, args.phi)))
    return 0


def _cmd_qa_bounds(args) -> int:
    from . import qanorm

    strategy = _STRATEGY_ALIASES[args.strategy]
    bounds = qanorm.qa_upper(args.input, args.phi, args.psi, strategy=strategy)
    result = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "ratio": bounds.ratio,
        "lower_source": bounds.lower_source,
        "witness": [g.to_json() for g in bounds.upper_witness.pieces],
    }
    _emit_json(args, result)
    return 0


def _cmd_tau(args) -> int:
    from . import embeddings

    rows = []
    for t in embeddings.log_grid(args.tmin, args.tmax, args.points):
        tv, pv = embeddings.tau(args.phi, args.psi, t), args.phi.eval(t)
        rows.append({"t": t, "tau": tv, "phi": pv, "ratio": tv / pv})
    if args.out == "json":
        _emit_json(args, {"rows": rows})
        return 0
    lines = ["# config: " + json.dumps(_config(args), sort_keys=True), "t,tau,phi,ratio"]
    lines += [f"{r['t']!r},{r['tau']!r},{r['phi']!r},{r['ratio']!r}" for r in rows]
    _emit(args, "\n".join(lines))
    return 0


def _cmd_check_seq(args) -> int:
    from . import embeddings

    if args.points < 3:
        raise DomainError(f"check-seq needs at least 3 points, got {args.points}")
    xmin = args.xmin = max(args.xmin, args.seq.domain_start)
    xs = [xmin + (args.xmax - xmin) * (i / (args.points - 1)) for i in range(args.points)]
    xs[-1] = args.xmax  # pinned, as log_grid pins its ends: the product can round past it
    report = embeddings.check_seq_conditions(args.phi, args.psi, args.seq, xs)
    result = {**asdict(report), "passed": report.passed}
    del result["grid"]
    _emit_json(args, result)
    return 0


def _cmd_equivalence(args) -> int:
    from . import embeddings

    report = embeddings.equivalence(
        args.a.fn, args.b.fn, args.tmin, args.tmax, args.points, threshold=args.threshold
    )
    result = {**asdict(report), "spread": report.spread}
    del result["grid"]
    _emit_json(args, result)
    return 0


def _witness_from_args(args):
    from . import witness

    spec = witness.WitnessSpec(args.phi, args.psi, args.N, args.c, args.p, args.mu1)
    return spec, witness.build_witness(spec)


def _cmd_witness(args) -> int:
    from . import witness

    spec, w = _witness_from_args(args)
    lor = witness.witness_lorentz_norm(w, spec.phi)
    upper = witness.witness_qa_upper(w, spec.phi, spec.psi)
    floor = witness.lower_bound_value(spec)
    psi_n = spec.psi.eval(float(spec.N))
    result = {
        "log_mu": list(w.log_mu),
        "log_a": list(w.log_a),
        "lorentz_norm": lor,
        "qa_upper": upper,
        "lower_bound": floor,
        "ratios": {
            "qa_upper_over_lower_bound": upper / floor,
            "qa_upper_over_lorentz_norm": upper / lor,
            "qa_upper_over_psi_at_N": upper / psi_n,
        },
    }
    _emit_json(args, result)
    return 0


def _cmd_omega(args) -> int:
    from . import embeddings

    spec, w = _witness_from_args(args)
    value = embeddings.omega_n(args.phi_x, spec.phi, w)
    psi_n = spec.psi.eval(float(spec.N))
    result = {
        "omega_N": value,
        "psi_at_N": psi_n,
        "normalized": value / psi_n,
    }
    _emit_json(args, result)
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    families = selftest.run(args.seed)
    passed = not any(family["failures"] for family in families)
    _emit_json(args, {"families": families, "passed": passed})
    return 0 if passed else 1


# --------------------------------------------------------------------- wiring


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--output", default=None, help="file path, or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaspace",
        description="Lorentz and decomposition-space calculator for step functions on [0,1]",
        allow_abbrev=False,
    )
    # subcommands take their flags in full too: argparse would read --out as --output
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=strict)

    p = sub.add_parser("rearrange", help="decreasing rearrangement of a step function")
    p.add_argument("--input", required=True, help="step function JSON (inline or path)")
    _add_output(p)
    p.set_defaults(run=_cmd_rearrange)

    p = sub.add_parser("lorentz-norm", help="exact Lorentz norm")
    p.add_argument("--phi", required=True)
    p.add_argument("--input", required=True)
    _add_output(p)
    p.set_defaults(run=_cmd_lorentz)

    p = sub.add_parser("qa-bounds", help="two-sided decomposition-norm bounds")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_ALIASES), default="auto")
    _add_output(p)
    p.set_defaults(run=_cmd_qa_bounds)

    p = sub.add_parser("tau", help="comparison profile over a log grid")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", choices=["csv", "json"], default="csv")
    _add_output(p)
    p.set_defaults(run=_cmd_tau)

    p = sub.add_parser("check-seq", help="sequence conditions for the profile calculus")
    p.add_argument("--seq", required=True, help='{"kind": reciprocal|gamma_exp|samples, ...}')
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--xmin", type=float, default=1.0)
    p.add_argument("--xmax", type=float, default=40.0)
    p.add_argument("--points", type=int, default=200)
    _add_output(p)
    p.set_defaults(run=_cmd_check_seq)

    p = sub.add_parser("equivalence", help="ratio statistics of two profiles")
    p.add_argument("--a", required=True, help="expression JSON (inline or path)")
    p.add_argument("--b", required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--threshold", type=float, default=None)
    _add_output(p)
    p.set_defaults(run=_cmd_equivalence)

    def add_witness_args(p_):
        p_.add_argument("--phi", required=True)
        p_.add_argument("--psi", required=True)
        p_.add_argument("--c", type=float, required=True)
        p_.add_argument("--p", type=float, default=1.0)
        p_.add_argument("--N", type=int, required=True)
        p_.add_argument("--mu1", type=float, default=None)

    p = sub.add_parser("witness", help="build the extremal function and its bounds")
    add_witness_args(p)
    _add_output(p)
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("omega", help="fundamental-function obstruction on a witness")
    p.add_argument("--phi-x", required=True, dest="phi_x")
    add_witness_args(p)
    _add_output(p)
    p.set_defaults(run=_cmd_omega)

    p = sub.add_parser("selftest", help="run the randomized invariant suite")
    p.add_argument("--seed", type=int, default=0)
    _add_output(p)
    p.set_defaults(run=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        _decode_specs(args)
        return args.run(args)
    except (ToolkitError, ValueError, OSError, json.JSONDecodeError) as exc:
        diagnostic = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
