"""The two input rules for a number, checked from one table.

A number passed at call time is read by errors._number: text, bytes, a
bytearray or a bool, which float() and Fraction() would read as numbers, is a
ValueError that names the argument.  A record's parameter is read by
errors.spec_param, as its JSON form would be: the same values are an
IllegalSpec that names the record and the parameter.  A JSON spec reader
(parse_shape) and SequenceSpec's samples raise their documented
SpecParseError, which names the key path.

Each row feeds each wrong value into one numeric argument of a callable that
the package exports (or, under EXTRA_ROWS, of a function that one of them
reaches), and test_every_export_is_in_the_table_or_reads_no_number fails
when an export is in neither ROWS nor READS_NO_NUMBER.
"""

import json
import random

import pytest

import qaspace
from qaspace import (
    IllegalSpec,
    SequenceSpec,
    ShapeFunction,
    SpecParseError,
    StepFunction,
    WitnessSpec,
    alpha_beta,
    alpha_s,
    check_assumptions,
    check_seq_conditions,
    constant,
    distribution,
    equivalence,
    fundamental,
    gamma,
    gamma_inv,
    indicator,
    is_concave,
    is_quasiconcave,
    iterated_log_profile,
    least_concave_majorant,
    log_tau,
    parse_shape,
    phi_s,
    piecewise,
    psi_gamma,
    qa_phi,
    qa_psi,
    random_step_function,
    reciprocal,
    sample_sequence,
    scale,
    tau,
)
from qaspace.shapes import log_gamma_inv

WRONG = ["0.5", b"0.5", bytearray(b"0.5"), True]
PHI, PSI, F = qa_phi(), qa_psi(), indicator(0, 0.5, 2.0)
CALL = (ValueError, "{}: ")  # errors._number
RECORD = (IllegalSpec, "the {}: ")  # errors.spec_param; the owner is in the name
SPEC = (SpecParseError, "{}: ")  # a JSON reader's key path

# (export, argument, the call with the value x, rule, the name its message gives)
ROWS = [
    ("SequenceSpec", "samples", lambda x: SequenceSpec("samples", samples=((1, 0.5), (2, x))),
     SPEC, "'samples[1][1]'"),
    ("alpha_s", "t", lambda x: alpha_s(PHI, PSI, reciprocal(), x), CALL, "t"),
    ("check_seq_conditions", "x_grid",
     lambda x: check_seq_conditions(PHI, PSI, reciprocal(), [1.0, 2.0, x]), CALL, "x_grid"),
    ("equivalence", "t_min", lambda x: equivalence(PHI, PSI, x, 0.5), CALL, "t_min"),
    ("equivalence", "t_max", lambda x: equivalence(PHI, PSI, 0.1, x), CALL, "t_max"),
    ("equivalence", "threshold",
     lambda x: equivalence(PHI, PSI, 0.1, 0.5, threshold=x), CALL, "threshold"),
    ("iterated_log_profile", "alpha", lambda x: iterated_log_profile(x, 0.5, 1.0), CALL, "alpha"),
    ("iterated_log_profile", "beta", lambda x: iterated_log_profile(1.0, x, 1.0), CALL, "beta"),
    ("iterated_log_profile", "exponent",
     lambda x: iterated_log_profile(1.0, 0.5, x), CALL, "exponent"),
    ("log_tau", "log_t", lambda x: log_tau(PHI, PSI, x), CALL, "log_t"),
    ("phi_s", "t", lambda x: phi_s(PHI, PSI, reciprocal(), x), CALL, "t"),
    ("sample_sequence", "pairs", lambda x: sample_sequence([(1, 0.5), (2, x)]),
     SPEC, "'samples[1][1]'"),
    ("tau", "t", lambda x: tau(PHI, PSI, x), CALL, "t"),
    ("fundamental", "t", lambda x: fundamental(PHI, x), CALL, "t"),
    ("ShapeFunction", "alpha", lambda x: ShapeFunction("alpha_beta", alpha=x, beta=0.5),
     RECORD, "alpha_beta family's 'alpha'"),
    ("ShapeFunction", "beta", lambda x: ShapeFunction("alpha_beta", alpha=0.5, beta=x),
     RECORD, "alpha_beta family's 'beta'"),
    ("ShapeFunction", "exponent", lambda x: ShapeFunction("psi_gamma", exponent=x),
     RECORD, "psi_gamma family's 'exponent'"),
    ("ShapeFunction", "points",
     lambda x: ShapeFunction("piecewise", points=((0, 0), (x, 0.5), (1, 1))),
     RECORD, "piecewise family's 'points[1][0]'"),
    ("alpha_beta", "alpha", lambda x: alpha_beta(x, 0.5), RECORD, "alpha_beta family's 'alpha'"),
    ("alpha_beta", "beta", lambda x: alpha_beta(0.5, x), RECORD, "alpha_beta family's 'beta'"),
    ("psi_gamma", "exponent", lambda x: psi_gamma(x), RECORD, "psi_gamma family's 'exponent'"),
    ("piecewise", "points", lambda x: piecewise([(0, 0), (0.5, x)]),
     RECORD, "piecewise family's 'points[1][1]'"),
    ("check_assumptions", "c_candidates",
     lambda x: check_assumptions(PHI, PSI, [x], [1.0]), CALL, "c_candidates"),
    ("check_assumptions", "p_candidates",
     lambda x: check_assumptions(PHI, PSI, [0.5], [x]), CALL, "p_candidates"),
    ("gamma", "t", lambda x: gamma(PHI, x), CALL, "t"),
    ("gamma_inv", "y", lambda x: gamma_inv(PHI, x), CALL, "y"),
    ("is_concave", "samples", lambda x: is_concave([(0, 0), (x, 0.5)]), CALL, "samples"),
    ("is_quasiconcave", "samples", lambda x: is_quasiconcave([(0, 0), (0.5, x)]), CALL, "samples"),
    ("least_concave_majorant", "samples",
     lambda x: least_concave_majorant([(0, 0), (x, 0.5)]), CALL, "samples"),
    ("parse_shape", "obj", lambda x: parse_shape({"family": "alpha_beta", "alpha": x, "beta": 1}),
     SPEC, "'alpha'"),
    ("StepFunction", "breakpoints", lambda x: StepFunction((0, x, 1), (1.0, 2.0)),
     CALL, "breakpoints"),
    ("StepFunction", "values", lambda x: StepFunction((0, 1), (x,)), CALL, "values"),
    # constant(c) is StepFunction((0, 1), (c,)), whose message names its values
    ("constant", "c", lambda x: constant(x), CALL, "values"),
    ("distribution", "s", lambda x: distribution(F, x), CALL, "s"),
    ("indicator", "a", lambda x: indicator(x, 1), CALL, "a"),
    ("indicator", "b", lambda x: indicator(0, x), CALL, "b"),
    ("indicator", "height", lambda x: indicator(0, 1, x), CALL, "height"),
    ("random_step_function", "vmax",
     lambda x: random_step_function(random.Random(1), vmax=x), CALL, "vmax"),
    ("random_step_function", "value_pool",
     lambda x: random_step_function(random.Random(1), value_pool=[x]), CALL, "value_pool"),
    ("scale", "a", lambda x: scale(F, x), CALL, "a"),
    ("WitnessSpec", "c", lambda x: WitnessSpec(PHI, PSI, 3, x), RECORD, "witness spec's 'c'"),
    ("WitnessSpec", "p", lambda x: WitnessSpec(PHI, PSI, 3, 0.5, x), RECORD, "witness spec's 'p'"),
    ("WitnessSpec", "mu1", lambda x: WitnessSpec(PHI, PSI, 3, 0.5, mu1=x),
     RECORD, "witness spec's 'mu1'"),
]
# functions that an export reaches, with a number of their own
EXTRA_ROWS = [
    ("shapes.log_gamma_inv", "target", lambda x: log_gamma_inv(PHI, x), CALL, "target"),
    ("iterated_log_profile(...)", "t", lambda x: iterated_log_profile(1.0, 0.5, 1.0)(x), CALL, "t"),
]
READS_NO_NUMBER = {
    # the error types, which take a message
    "DomainError", "EmptyInput", "FrozenInstanceError", "IllegalSpec", "NegativePiece",
    "NonPositiveValue", "NotInvertible", "SpecParseError", "TooManyLayers", "ToolkitError",
    "ZeroFunction",
    # result records, which hold what the library computed and check nothing
    "AssumptionReport", "Decomposition", "EquivalenceReport", "LorentzNorm", "NormBounds",
    "PhiSValue", "SeqConditionReport", "WitnessFunction",
    # piece_cost's one number is the slot n, an integer with its own reader
    "piece_cost",
    # functions of shapes, sequences, step functions, specs and built witnesses alone
    "abs_", "add", "build_witness", "constant_one", "fact_bound", "gamma_exp", "identity",
    "l1_norm", "l1_norm_exact", "linf_norm", "lorentz_norm", "lower_bound_value", "omega_n",
    "qa_bounds", "qa_lower", "qa_phi", "qa_psi", "qa_upper", "rearrange", "reciprocal",
    "shape_to_json", "witness_lorentz_norm", "witness_qa_upper",
}


@pytest.mark.parametrize("value", WRONG, ids=repr)
@pytest.mark.parametrize("call, rule, name", [
    pytest.param(call, rule, name, id=f"{export}.{argument}")
    for export, argument, call, rule, name in ROWS + EXTRA_ROWS
])
def test_text_bytes_and_bools_are_refused_by_the_rule_of_their_kind(call, rule, name, value):
    error, prefix = rule
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    shown = json.dumps(value, default=repr)
    assert str(info.value) == f"{prefix.format(name)}expected a number, got {shown}"


def test_every_export_is_in_the_table_or_reads_no_number():
    exports = {name for names in qaspace._EXPORTS.values() for name in names}
    tabled = {export for export, *_ in ROWS}
    assert not tabled & READS_NO_NUMBER
    assert tabled | READS_NO_NUMBER == exports, (
        f"in neither list: {sorted(exports - tabled - READS_NO_NUMBER)}; "
        f"not exported: {sorted((tabled | READS_NO_NUMBER) - exports)}")
