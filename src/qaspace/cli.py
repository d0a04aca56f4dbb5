"""Batch command-line front-end.

Subcommands map one-to-one onto the library modules: `rearrange`,
`lorentz-norm`, `qa-bounds`, `tau`, `check-seq`, `equivalence`, `witness`,
`omega`, and `selftest`.  Structured results are JSON with sorted keys,
curves are CSV; every run echoes its fully resolved configuration so output
files are self-describing and byte-reproducible.

Shape and function arguments accept either inline JSON or a path to a JSON
file.  Each subcommand returns its result, and `main` alone writes it and
picks the exit code: 0 success, 1 invariant failure (selftest), 2 bad usage
or invalid specs.

Each subcommand, and each spec decoder, imports the library module it runs
when it runs, so one CLI process loads only the modules its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

from .errors import DomainError, NonPositiveValue, SpecParseError, TooManyLayers, ToolkitError
from .errors import _cut, nests_deeper, spec_kind, spec_number, spec_read, spec_whole

OUT_DIR_VAR = "QASPACE_OUT_DIR"


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
    n_max = echo["n_max"] = (spec_read(obj, "n_max", spec_whole) if "n_max" in obj
                             else embeddings._N_MAX_DEFAULT)
    return _Profile(lambda t: embeddings.phi_s(phi, psi, seq, t, n_max=n_max).value, echo)


def _step_function(obj, args):
    from .stepfn import StepFunction

    return StepFunction.from_json(obj)


def _sequence(obj, args):
    from .embeddings import SequenceSpec

    return SequenceSpec.from_json(obj, args.phi)


def _config(args) -> dict:
    """The resolved configuration a report echoes: every argument but the
    output routing, each decoded spec as its to_json echo."""
    return {
        key: value.to_json() if hasattr(value, "to_json") else value
        for key, value in vars(args).items()
        if key not in ("out", "output")
    }


def _report(args, result: dict) -> str:
    """The text of a result: its rows as CSV under --out csv, else the JSON
    report; each starts from the resolved configuration."""
    config = _config(args)
    if vars(args).get("out") == "csv":
        rows = result["rows"]
        lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(rows[0])]
        lines += [",".join(map(repr, row.values())) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps({"config": config, "result": result}, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- subcommands


def _cmd_rearrange(args) -> dict:
    from . import stepfn

    return stepfn.rearrange(args.input).to_json()


def _cmd_lorentz(args) -> dict:
    from . import lorentz

    return lorentz.lorentz_norm(args.input, args.phi)._asdict()


def _cmd_qa_bounds(args) -> dict:
    from . import qanorm

    strategy = "local_search" if args.strategy == "local" else args.strategy
    try:
        bounds = qanorm.qa_upper(args.input, args.phi, args.psi, strategy=strategy)
    except TooManyLayers as exc:  # its advice names the library's strategy, not the flag's value
        raise TooManyLayers(str(exc).replace("use local_search", "use --strategy local")) from None
    return {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "ratio": bounds.ratio,
        "lower_source": bounds.lower_source,
        "witness": [g.to_json() for g in bounds.upper_witness.pieces],
    }


def _cmd_tau(args) -> dict:
    from . import embeddings

    rows = []
    for t in embeddings.log_grid(args.tmin, args.tmax, args.points):
        tv, pv = embeddings.tau(args.phi, args.psi, t), args.phi.eval(t)
        if not pv > 0.0:  # phi(t) underflowed: the ratio tau/phi is undefined
            raise NonPositiveValue(f"the ratio tau/phi needs phi(t) > 0, got {pv!r} at t={t!r}")
        rows.append({"t": t, "tau": tv, "phi": pv, "ratio": tv / pv})
    return {"rows": rows}


def _cmd_check_seq(args) -> dict:
    from . import embeddings

    if args.points < 3:
        raise DomainError(f"check-seq needs at least 3 points, got {args.points}")
    embeddings._check_points(args.points)
    xmin = args.xmin = max(args.xmin, args.seq.domain_start)
    # the ends are exact, as log_grid's: the interior's last product can round past --xmax
    n = args.points - 1
    interior = [xmin + (args.xmax - xmin) * (i / n) for i in range(1, n)]
    xs = [xmin, *interior, args.xmax]
    if not all(a < b for a, b in zip(xs, xs[1:])):  # an empty range, or one ulps wide
        raise DomainError(f"--xmax must exceed the grid's start {xmin!r} (the larger of --xmin "
                          f"and the sequence's first x) by room for --points {args.points} "
                          f"strictly increasing points, got {args.xmax!r}")
    report = embeddings.check_seq_conditions(args.phi, args.psi, args.seq, xs)
    result = {**report._asdict(), "passed": report.passed}
    del result["grid"]
    return result


def _cmd_equivalence(args) -> dict:
    from . import embeddings

    report = embeddings.equivalence(
        args.a.fn, args.b.fn, args.tmin, args.tmax, args.points, threshold=args.threshold
    )
    result = {**report._asdict(), "spread": report.spread}
    del result["grid"]
    return result


def _witness_from_args(args):
    from . import witness

    spec = witness.WitnessSpec(args.phi, args.psi, args.N, args.c, args.p, args.mu1)
    return spec, witness.build_witness(spec)


def _cmd_witness(args) -> dict:
    from . import witness
    from .qanorm import bound_ratio

    spec, w = _witness_from_args(args)
    lor = witness.witness_lorentz_norm(w, spec.phi)
    upper = witness.witness_qa_upper(w, spec.phi, spec.psi)
    floor = witness.lower_bound_value(spec)
    psi_n = spec.psi.eval(float(spec.N))
    return {
        "log_mu": list(w.log_mu),
        "log_a": list(w.log_a),
        "lorentz_norm": lor,
        "qa_upper": upper,
        "lower_bound": floor,
        "ratios": {  # a floor that rounds to 0 (a tiny c) gives inf
            "qa_upper_over_lower_bound": bound_ratio(upper, floor),
            "qa_upper_over_lorentz_norm": bound_ratio(upper, lor),
            "qa_upper_over_psi_at_N": bound_ratio(upper, psi_n),
        },
    }


def _cmd_omega(args) -> dict:
    from . import embeddings

    spec, w = _witness_from_args(args)
    value = embeddings.omega_n(args.phi_x, spec.phi, w)
    psi_n = spec.psi.eval(float(spec.N))
    return {
        "omega_N": value,
        "psi_at_N": psi_n,
        "normalized": value / psi_n,
    }


def _cmd_selftest(args) -> dict:
    from . import selftest

    families = selftest.run(args.seed)
    return {"families": families, "passed": not any(family["failures"] for family in families)}


# --------------------------------------------------------------------- wiring


def _finite(option, value, args):
    # argparse reads "inf" and "nan" as floats, and downstream they break a
    # grid or a comparison without naming the flag
    if not math.isfinite(value):
        raise DomainError(f"{option} must be finite, got {value!r}")
    return value


def _spec(decode, option, text, args):
    """Read a JSON spec flag, inline or the file it names, through decode,
    which gets the JSON and the arguments read before it.  JSON that nests
    deeper than errors.SPEC_DEPTH is refused before decode sees it."""
    try:
        if text.strip().startswith(("{", "[")):
            obj = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        deep = nests_deeper(obj)
    except RecursionError:  # CPython 3.11's reader stops near 1,000 levels
        deep = True
    if deep:
        raise SpecParseError(f"{option}: the JSON nests too deeply to read")
    return decode(obj, args)


_PHI = ({"required": True}, partial(_spec, lambda obj, args: _shape(obj, "phi")))
_EXPRESSION = partial(_spec, lambda obj, args: _expression(obj))

# each flag once, as (argparse keywords, its reader after parsing or None).
# _decode_specs runs the readers in this order: a non-finite float is reported
# before any spec is read, and --phi is read before --seq (a gamma_exp
# sequence without its own phi takes it)
_FLAGS = {
    "xmin": ({"type": float, "default": 1.0}, _finite),
    "xmax": ({"type": float, "default": 40.0}, _finite),
    "tmin": ({"type": float, "required": True}, _finite),
    "tmax": ({"type": float, "required": True}, _finite),
    "threshold": ({"type": float, "default": None}, _finite),
    "c": ({"type": float, "required": True}, _finite),
    "p": ({"type": float, "default": 1.0}, _finite),
    "mu1": ({"type": float, "default": None}, _finite),
    "phi": _PHI,
    "psi": ({"required": True}, partial(_spec, lambda obj, args: _shape(obj, "psi"))),
    "input": ({"required": True, "help": "step function JSON (inline or path)"},
              partial(_spec, _step_function)),
    "seq": ({"required": True, "help": '{"kind": reciprocal|gamma_exp|samples, ...}'},
            partial(_spec, _sequence)),
    "a": ({"required": True, "help": "expression JSON (inline or path)"}, _EXPRESSION),
    "b": ({"required": True}, _EXPRESSION),
    "phi-x": _PHI,
    "points": ({"type": int, "default": 200}, None),
    "strategy": ({"choices": ["auto", "exhaustive", "layers", "local"], "default": "auto"}, None),
    "out": ({"choices": ["csv", "json"], "default": "csv"}, None),
    "N": ({"type": int, "required": True}, None),
    "seed": ({"type": int, "default": 0}, None),
    "output": ({"default": None, "help": "file path, or - for stdout"}, None),
}


def _decode_specs(args):
    """Run each flag's reader on its parsed value: check the floats that must
    be finite, and replace each JSON spec by the object it decodes to."""
    for name, (_, read) in _FLAGS.items():
        dest = name.replace("-", "_")
        value = vars(args).get(dest)
        if read is not None and value is not None:
            setattr(args, dest, read("--" + name, value, args))


# each subcommand's (run function, help, _FLAGS names in usage order)
_SUBCOMMANDS = {
    "rearrange": (_cmd_rearrange, "decreasing rearrangement of a step function", "input"),
    "lorentz-norm": (_cmd_lorentz, "exact Lorentz norm", "phi input"),
    "qa-bounds": (_cmd_qa_bounds, "two-sided decomposition-norm bounds", "phi psi input strategy"),
    "tau": (_cmd_tau, "comparison profile over a log grid", "phi psi tmin tmax points out"),
    "check-seq": (_cmd_check_seq, "sequence conditions for the profile calculus",
                  "seq phi psi xmin xmax points"),
    "equivalence": (_cmd_equivalence, "ratio statistics of two profiles",
                    "a b tmin tmax points threshold"),
    "witness": (_cmd_witness, "build the extremal function and its bounds", "phi psi c p N mu1"),
    "omega": (_cmd_omega, "fundamental-function obstruction on a witness",
              "phi-x phi psi c p N mu1"),
    "selftest": (_cmd_selftest, "run the randomized invariant suite", "seed"),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an argument it does not take with its
    own usage, which names its flags (the top-level usage names none)."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return args, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaspace",
        description="Lorentz and decomposition-space calculator for step functions on [0,1]",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubcommandParser)
    for name, (_, help_, flags) in _SUBCOMMANDS.items():
        # subcommands take their flags in full too: argparse would read --out as --output
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag in [*flags.split(), "output"]:  # every subcommand takes --output, last
            p.add_argument("--" + flag, **_FLAGS[flag][0])
    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its result to stdout or --output (a
    relative path under $QASPACE_OUT_DIR when set).  Returns 0, 1 for a
    selftest that failed, or 2 with one JSON error line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        _decode_specs(args)
        result = _SUBCOMMANDS[args.subcommand][0](args)
        text = _report(args, result)
        if args.output in (None, "-"):
            sys.stdout.write(text)
        else:  # join keeps an absolute path as it is
            with open(os.path.join(os.environ.get(OUT_DIR_VAR, ""), args.output), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
    except (ToolkitError, ValueError, OSError) as exc:
        # an OSError quotes the path it was given, which may be any length
        message = _cut(str(exc)) if isinstance(exc, OSError) else str(exc)
        diagnostic = {"error": {"type": type(exc).__name__, "message": message}}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 2
    return 1 if args.subcommand == "selftest" and not result["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
