"""Batch command-line front-end.

Subcommands map one-to-one onto the library modules: `rearrange`,
`lorentz-norm`, `qa-bounds`, `tau`, `check-seq`, `equivalence`, `witness`,
`omega`, and `selftest`.  Structured results are JSON with sorted keys,
curves are CSV; every run echoes its fully resolved configuration so output
files are self-describing and byte-reproducible.

Shape and function arguments accept either inline JSON or a path to a JSON
file.  Exit codes: 0 success, 1 invariant failure (selftest), 2 bad usage or
invalid specs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import embeddings, lorentz, qanorm, shapes, stepfn, witness as witness_mod
from .errors import DomainError, SpecParseError, ToolkitError
from .shapes import log_gamma, parse_shape, shape_to_json
from .stepfn import StepFunction

OUT_DIR_VAR = "QASPACE_OUT_DIR"

_STRATEGY_ALIASES = {
    "layers": "layers",
    "local": "local_search",
    "exhaustive": "exhaustive",
    "auto": "auto",
}


def _load_json_arg(text: str):
    """Inline JSON if the argument looks like it, else a file path."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _shape_arg(text: str, kind: str) -> shapes.ShapeFunction:
    return parse_shape(_load_json_arg(text), expected_kind=kind)


def _function_arg(text: str) -> StepFunction:
    return StepFunction.from_json(_load_json_arg(text))


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        raise SpecParseError(f"{what} needs a {key!r} key")
    return obj[key]


def _convert(convert, value, key: str, what: str):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecParseError(f"{what} has a malformed {key!r}: {exc}") from exc


def _whole(value) -> int:
    """int(value), refusing a float with a fractional part instead of truncating it."""
    n = int(value)
    if isinstance(value, float) and n != value:
        raise ValueError(f"{value!r} is not a whole number")
    return n


def _seq_arg(text: str, phi: shapes.ShapeFunction | None) -> embeddings.SequenceSpec:
    obj = _load_json_arg(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ToolkitError("sequence spec must be an object with a 'kind' key")
    kind = obj["kind"]
    extra = set(obj) - {"kind", "phi", "points"}
    if extra:
        raise ToolkitError(f"unknown sequence spec keys: {sorted(extra)}")
    if kind == "reciprocal":
        return embeddings.reciprocal()
    if kind == "gamma_exp":
        base = parse_shape(obj["phi"], expected_kind="phi") if "phi" in obj else phi
        if base is None:
            raise ToolkitError("gamma_exp sequence needs a phi (inline or via --phi)")
        return embeddings.gamma_exp(base)
    if kind == "samples":
        points = _require(obj, "points", "samples sequence")
        return _convert(embeddings.sample_sequence, points, "points", "samples sequence")
    raise ToolkitError(f"unknown sequence kind {kind!r}")


def _seq_echo(seq: embeddings.SequenceSpec) -> dict:
    out: dict = {"kind": seq.kind}
    if seq.phi is not None:
        out["phi"] = shape_to_json(seq.phi)
    if seq.samples is not None:
        out["points"] = [list(p) for p in seq.samples]
    return out


def _expr_arg(text: str):
    """A positive function of t for `equivalence`: (callable, echo dict)."""
    obj = _load_json_arg(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ToolkitError("expression must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "shape":
        sh = parse_shape(_require(obj, "spec", "shape expression"), expected_kind="phi")
        return sh.eval, {"kind": "shape", "spec": shape_to_json(sh)}
    if kind in ("tau", "phi_s", "alpha_s"):
        what = f"{kind} expression"
        phi = parse_shape(_require(obj, "phi", what), expected_kind="phi")
        psi = parse_shape(_require(obj, "psi", what), expected_kind="psi")
        echo = {"kind": kind, "phi": shape_to_json(phi), "psi": shape_to_json(psi)}
        if kind == "tau":
            return (lambda t: embeddings.tau(phi, psi, t)), echo
        seq = _seq_arg(json.dumps(_require(obj, "seq", what)), phi)
        echo["seq"] = _seq_echo(seq)
        if kind == "phi_s":
            n_max = _convert(_whole, obj.get("n_max", 10_000), "n_max", what)
            echo["n_max"] = n_max
            return (lambda t: embeddings.phi_s(phi, psi, seq, t, n_max=n_max).value), echo
        return (lambda t: embeddings.alpha_s(phi, psi, seq, t)), echo
    if kind == "iterated_log":
        what = "iterated_log expression"
        a, b, g = (
            _convert(float, _require(obj, key, what), key, what)
            for key in ("alpha", "beta", "exponent")
        )
        fn = embeddings.iterated_log_profile(a, b, g)
        return fn, {"kind": "iterated_log", "alpha": a, "beta": b, "exponent": g}
    raise ToolkitError(f"unknown expression kind {kind!r}")


def _emit(args, text: str):
    dest = getattr(args, "output", None)
    if dest in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    base = os.environ.get(OUT_DIR_VAR)
    if base and not os.path.isabs(dest):
        dest = os.path.join(base, dest)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _emit_json(args, config: dict, result: dict):
    _emit(args, json.dumps({"config": config, "result": result}, sort_keys=True, indent=2))


def _decomposition_json(dec: qanorm.Decomposition) -> list:
    return [g.to_json() for g in dec.pieces]


# ---------------------------------------------------------------- subcommands


def _cmd_rearrange(args) -> int:
    f = _function_arg(args.input)
    g = stepfn.rearrange(f)
    config = {"subcommand": "rearrange", "input": f.to_json()}
    _emit_json(args, config, g.to_json())
    return 0


def _cmd_lorentz(args) -> int:
    phi = _shape_arg(args.phi, "phi")
    f = _function_arg(args.input)
    val = lorentz.lorentz_norm(f, phi)
    config = {
        "subcommand": "lorentz-norm",
        "phi": shape_to_json(phi),
        "input": f.to_json(),
    }
    result = {
        "value": val.value,
        "jump_part": val.jump_part,
        "integral_part": val.integral_part,
    }
    _emit_json(args, config, result)
    return 0


def _cmd_qa_bounds(args) -> int:
    phi = _shape_arg(args.phi, "phi")
    psi = _shape_arg(args.psi, "psi")
    f = _function_arg(args.input)
    bounds = qanorm.qa_upper(f, phi, psi, strategy=_STRATEGY_ALIASES[args.strategy])
    config = {
        "subcommand": "qa-bounds",
        "phi": shape_to_json(phi),
        "psi": shape_to_json(psi),
        "strategy": args.strategy,
        "input": f.to_json(),
    }
    result = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "ratio": bounds.ratio,
        "lower_source": bounds.lower_source,
        "witness": _decomposition_json(bounds.upper_witness),
    }
    _emit_json(args, config, result)
    return 0


def _cmd_tau(args) -> int:
    phi = _shape_arg(args.phi, "phi")
    psi = _shape_arg(args.psi, "psi")
    grid = embeddings.log_grid(args.tmin, args.tmax, args.points)
    config = {
        "subcommand": "tau",
        "phi": shape_to_json(phi),
        "psi": shape_to_json(psi),
        "tmin": args.tmin,
        "tmax": args.tmax,
        "points": args.points,
    }
    if args.out == "csv":
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        lines.append("t,tau,phi,ratio")
        for t in grid:
            tv, pv = embeddings.tau(phi, psi, t), phi.eval(t)
            lines.append(f"{t!r},{tv!r},{pv!r},{tv / pv!r}")
        _emit(args, "\n".join(lines))
    else:
        rows = []
        for t in grid:
            tv, pv = embeddings.tau(phi, psi, t), phi.eval(t)
            rows.append({"t": t, "tau": tv, "phi": pv, "ratio": tv / pv})
        _emit_json(args, config, {"rows": rows})
    return 0


def _cmd_check_seq(args) -> int:
    phi = _shape_arg(args.phi, "phi")
    psi = _shape_arg(args.psi, "psi")
    seq = _seq_arg(args.seq, phi)
    if args.points < 3:
        raise DomainError(f"check-seq needs at least 3 points, got {args.points}")
    xmin = max(args.xmin, seq.domain_start)
    xs = [
        xmin + (args.xmax - xmin) * i / (args.points - 1) for i in range(args.points)
    ]
    report = embeddings.check_seq_conditions(phi, psi, seq, xs)
    config = {
        "subcommand": "check-seq",
        "phi": shape_to_json(phi),
        "psi": shape_to_json(psi),
        "seq": _seq_echo(seq),
        "xmin": xmin,
        "xmax": args.xmax,
        "points": args.points,
    }
    result = {
        "monotone_decreasing": report.monotone_decreasing,
        "tends_to_zero": report.tends_to_zero,
        "product_tends_to_zero": report.product_tends_to_zero,
        "product_tail_start": report.product_tail_start,
        "product_tail_monotone": report.product_tail_monotone,
        "step_ratio_constant": report.step_ratio_constant,
        "passed": report.passed,
    }
    _emit_json(args, config, result)
    return 0


def _cmd_equivalence(args) -> int:
    fn_a, echo_a = _expr_arg(args.a)
    fn_b, echo_b = _expr_arg(args.b)
    report = embeddings.equivalence(
        fn_a, fn_b, args.tmin, args.tmax, args.points, threshold=args.threshold
    )
    config = {
        "subcommand": "equivalence",
        "a": echo_a,
        "b": echo_b,
        "tmin": args.tmin,
        "tmax": args.tmax,
        "points": args.points,
        "threshold": args.threshold,
    }
    result = {
        "ratio_min": report.ratio_min,
        "ratio_max": report.ratio_max,
        "spread": report.spread,
        "equivalent": report.equivalent,
    }
    _emit_json(args, config, result)
    return 0


def _witness_from_args(args):
    phi = _shape_arg(args.phi, "phi")
    psi = _shape_arg(args.psi, "psi")
    spec = witness_mod.WitnessSpec(
        phi=phi, psi=psi, N=args.N, c=args.c, p=args.p, mu1=args.mu1
    )
    return spec, witness_mod.build_witness(spec)


def _cmd_witness(args) -> int:
    spec, w = _witness_from_args(args)
    lor = witness_mod.witness_lorentz_norm(w, spec.phi)
    upper = witness_mod.witness_qa_upper(w, spec.phi, spec.psi)
    floor = witness_mod.lower_bound_value(spec)
    psi_n = spec.psi.eval(float(spec.N))
    config = {
        "subcommand": "witness",
        "phi": shape_to_json(spec.phi),
        "psi": shape_to_json(spec.psi),
        "N": spec.N,
        "c": spec.c,
        "p": spec.p,
        "mu1": spec.mu1,
    }
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
    _emit_json(args, config, result)
    return 0


def _cmd_omega(args) -> int:
    spec, w = _witness_from_args(args)
    phi_x = _shape_arg(args.phi_x, "phi")
    value = embeddings.omega_n(phi_x, spec.phi, w)
    psi_n = spec.psi.eval(float(spec.N))
    config = {
        "subcommand": "omega",
        "phi_x": shape_to_json(phi_x),
        "phi": shape_to_json(spec.phi),
        "psi": shape_to_json(spec.psi),
        "N": spec.N,
        "c": spec.c,
        "p": spec.p,
        "mu1": spec.mu1,
    }
    result = {
        "omega_N": value,
        "psi_at_N": psi_n,
        "normalized": value / psi_n,
    }
    _emit_json(args, config, result)
    return 0


# ------------------------------------------------------------------ selftest


def _random_fn(rng: random.Random, signed: bool = False) -> StepFunction:
    return stepfn.random_step_function(rng, max_pieces=8, signed=signed)


def _inv_rearrangement(rng) -> tuple:
    fails = 0
    runs = 30
    for _ in range(runs):
        f = _random_fn(rng, signed=True)
        g = stepfn.rearrange(f)
        ok = stepfn.l1_norm_exact(f) == stepfn.l1_norm_exact(g)
        ok = ok and stepfn.linf_norm(f) == stepfn.linf_norm(g)
        levels = sorted({abs(v) for v in f.values} | {0.0})
        mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        for s in levels + mids:
            ok = ok and stepfn.distribution(f, s) == stepfn.distribution(g, s)
        ok = ok and all(a >= b for a, b in zip(g.values, g.values[1:]))
        fails += not ok
    return runs, fails


def _inv_lorentz_rearranged(rng) -> tuple:
    phi = shapes.qa_phi()
    fails = 0
    runs = 25
    for _ in range(runs):
        f = _random_fn(rng, signed=True)
        a = lorentz.lorentz_norm(f, phi).value
        b = lorentz.lorentz_norm(stepfn.rearrange(f), phi).value
        fails += a != b
    return runs, fails


def _inv_sandwich(rng) -> tuple:
    phi, psi = shapes.qa_phi(), shapes.qa_psi()
    scale = phi.eval(1.0) * psi.eval(1.0)
    fails = 0
    runs = 25
    for _ in range(runs):
        f = _random_fn(rng)
        b = qanorm.qa_bounds(f, phi, psi)
        lo = scale * stepfn.l1_norm(f)
        hi = scale * stepfn.linf_norm(f)
        ok = lo <= b.lower * (1 + 1e-12) and b.lower <= b.upper <= hi * (1 + 1e-12)
        fails += not ok
    return runs, fails


def _inv_witness_cost(rng) -> tuple:
    phi, psi = shapes.qa_phi(), shapes.qa_psi()
    fails = 0
    runs = 20
    for _ in range(runs):
        f = _random_fn(rng, signed=True)
        b = qanorm.qa_bounds(f, phi, psi)
        fails += b.upper_witness.recomputed_cost(phi, psi) != b.upper
    return runs, fails


def _inv_psi_one(rng) -> tuple:
    phi, one = shapes.qa_phi(), shapes.constant_one("psi")
    fails = 0
    runs = 25
    for _ in range(runs):
        f = _random_fn(rng)
        b = qanorm.qa_upper(f, phi, one, strategy="layers")
        lam = lorentz.lorentz_norm(f, phi).value
        ref = max(lam, b.upper, b.lower)
        tol = 1e-9 * max(ref, 1e-300)
        ok = abs(b.upper - lam) <= tol and abs(b.lower - lam) <= tol
        fails += not ok
    return runs, fails


def _inv_quasi_triangle(rng) -> tuple:
    phi, psi = shapes.qa_phi(), shapes.qa_psi()
    fails = 0
    runs = 25
    for _ in range(runs):
        f, g = _random_fn(rng, signed=True), _random_fn(rng, signed=True)
        s = stepfn.add(f, g)
        lhs = qanorm.qa_lower(s, phi, psi)
        rhs = qanorm.qa_bounds(f, phi, psi).upper + qanorm.qa_bounds(g, phi, psi).upper
        fails += lhs > 4.0 * rhs * (1 + 1e-12)
    return runs, fails


def _inv_tau_identity(rng) -> tuple:
    phi, psi = shapes.qa_phi(), shapes.qa_psi()
    fails = 0
    runs = 0
    for _ in range(40):
        t = math.exp(rng.uniform(math.log(1e-15), 0.0))
        runs += 1
        expected = phi.eval(t) * psi.eval(1.0 + max(0.0, log_gamma(phi, math.log(t))))
        fails += embeddings.tau(phi, psi, t) != expected
    return runs, fails


def _inv_witness_build(rng) -> tuple:
    phi, psi = shapes.qa_phi(), shapes.qa_psi()
    fails = 0
    runs = 0
    for n in (2, 3):
        runs += 1
        spec = witness_mod.WitnessSpec(phi=phi, psi=psi, N=n, c=0.5, p=1.0)
        w = witness_mod.build_witness(spec)
        ok = all(
            b <= a - math.log(2.0) + 1e-9 for a, b in zip(w.log_mu, w.log_mu[1:])
        )
        norm = math.log(2.0 * n)
        ok = ok and all(
            la == -norm - phi.log_eval(lm) for la, lm in zip(w.log_a, w.log_mu)
        )
        lor = witness_mod.witness_lorentz_norm(w, phi)
        upper = witness_mod.witness_qa_upper(w, phi, psi)
        ok = ok and psi.eval(1.0) * lor <= upper * (1 + 1e-12)
        ok = ok and upper >= witness_mod.lower_bound_value(spec)
        fails += not ok
    return runs, fails


_INVARIANTS = [
    ("rearrangement-equimeasurable", _inv_rearrangement),
    ("lorentz-rearrangement-invariant", _inv_lorentz_rearranged),
    ("bounds-sandwich", _inv_sandwich),
    ("upper-equals-witness-cost", _inv_witness_cost),
    ("psi-one-collapse", _inv_psi_one),
    ("quasi-triangle", _inv_quasi_triangle),
    ("tau-compositional", _inv_tau_identity),
    ("witness-build", _inv_witness_build),
]


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    families = []
    total_fails = 0
    for name, fn in _INVARIANTS:
        runs, fails = fn(rng)
        total_fails += fails
        families.append({"name": name, "runs": runs, "failures": fails})
    config = {"subcommand": "selftest", "seed": args.seed}
    result = {"families": families, "passed": total_fails == 0}
    _emit_json(args, config, result)
    return 0 if total_fails == 0 else 1


# --------------------------------------------------------------------- wiring


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--output", default=None, help="file path, or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaspace",
        description="Lorentz and decomposition-space calculator for step functions on [0,1]",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

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
    p.add_argument("--out", choices=["json"], default="json")
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
        return args.run(args)
    except (ToolkitError, ValueError, OSError, json.JSONDecodeError) as exc:
        diagnostic = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
