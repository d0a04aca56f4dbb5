"""Calculator toolkit for Lorentz-type and decomposition-type function norms.

The package works with step functions on [0,1] held with exact rational
breakpoints, a small family of concave shape functions and index weights,
and three layers of machinery on top:

- `lorentz`: exact Lorentz norms through the layer representation;
- `qanorm`: certified two-sided bounds on the decomposition quasi-norm,
  searching over groupings of the layers of |f|;
- `embeddings` and `witness`: the comparison profiles (tau, phi_s, alpha_s)
  that govern embeddings between the two scales, and the log-domain
  construction of extremal functions that separate them.

Everything is pure and deterministic; the `qaspace` CLI exposes each piece
as a batch subcommand.

`import qaspace` loads none of these modules: each exported name imports
its home module on first use (PEP 562), so a CLI process that runs one
subcommand compiles only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each library module, and the names the package exports from it
_EXPORTS = {
    "embeddings": (
        "EquivalenceReport",
        "PhiSValue",
        "SeqConditionReport",
        "SequenceSpec",
        "alpha_s",
        "check_seq_conditions",
        "equivalence",
        "gamma_exp",
        "iterated_log_profile",
        "log_tau",
        "omega_n",
        "phi_s",
        "reciprocal",
        "sample_sequence",
        "tau",
    ),
    "errors": (
        "DomainError",
        "EmptyInput",
        "FrozenInstanceError",
        "IllegalSpec",
        "NegativePiece",
        "NonPositiveValue",
        "NotInvertible",
        "SpecParseError",
        "TooManyLayers",
        "ToolkitError",
        "ZeroFunction",
    ),
    "logs": (),
    "lorentz": ("LorentzNorm", "fact_bound", "fundamental", "lorentz_norm"),
    "qanorm": ("Decomposition", "NormBounds", "piece_cost", "qa_bounds", "qa_lower", "qa_upper"),
    "records": (),
    "shapes": (
        "AssumptionReport",
        "ShapeFunction",
        "alpha_beta",
        "check_assumptions",
        "constant_one",
        "gamma",
        "gamma_inv",
        "identity",
        "is_concave",
        "is_quasiconcave",
        "least_concave_majorant",
        "parse_shape",
        "piecewise",
        "psi_gamma",
        "qa_phi",
        "qa_psi",
        "shape_to_json",
    ),
    "stepfn": (
        "StepFunction",
        "abs_",
        "add",
        "constant",
        "distribution",
        "indicator",
        "l1_norm",
        "l1_norm_exact",
        "linf_norm",
        "random_step_function",
        "rearrange",
        "scale",
    ),
    "witness": (
        "WitnessFunction",
        "WitnessSpec",
        "build_witness",
        "lower_bound_value",
        "witness_lorentz_norm",
        "witness_qa_upper",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a library module, or an exported name's home module, on first
    read; the name is then a plain global."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
