"""The frozen-record contract, class by class (qaspace.records.Record).

Each of the eleven record classes, StepFunction among them, builds by position
and by keyword, prints the dataclass repr (the answers digest stores records as
repr text), compares and hashes by its field tuple, refuses assignment and
deletion, pickles, and binds its arguments with the checks and TypeError texts
of a Python signature.
"""

import pickle
from fractions import Fraction

import pytest

from qaspace import (
    AssumptionReport,
    Decomposition,
    EquivalenceReport,
    FrozenInstanceError,
    LorentzNorm,
    NormBounds,
    SeqConditionReport,
    SequenceSpec,
    ShapeFunction,
    StepFunction,
    WitnessFunction,
    WitnessSpec,
    qa_phi,
    qa_psi,
)
from qaspace.records import Record

PIECE = StepFunction((Fraction(0), Fraction(1)), (1.0,))
QA_PHI_REPR = ("ShapeFunction(family='qa_phi', alpha=None, beta=None, exponent=None, "
               "points=None, domain_kind='phi')")
QA_PSI_REPR = ("ShapeFunction(family='qa_psi', alpha=None, beta=None, exponent=None, "
               "points=None, domain_kind='psi')")
DECOMPOSITION_REPR = ("Decomposition(pieces=(StepFunction(breakpoints=(Fraction(0, 1), "
                      "Fraction(1, 1)), values=(1.0,)),), cost=1.0)")

# each class: its field values in order, and the repr of the record they build
CASES = {
    ShapeFunction: (
        ("alpha_beta", 0.5, 1.0, None, None, "phi"),
        "ShapeFunction(family='alpha_beta', alpha=0.5, beta=1.0, exponent=None, points=None, "
        "domain_kind='phi')",
    ),
    AssumptionReport: (
        (0.5, 1.0, True, 2.0, True),
        "AssumptionReport(c=0.5, p=1.0, phi_ratio_monotone=True, psi_square_constant=2.0, "
        "psi_square_bounded=True)",
    ),
    SequenceSpec: (
        ("samples", None, ((1.0, 0.5), (2.0, 0.25))),
        "SequenceSpec(kind='samples', phi=None, samples=((1.0, 0.5), (2.0, 0.25)))",
    ),
    SeqConditionReport: (
        (True, True, False, None, False, 1.5, (1.0, 2.0, 3.0)),
        "SeqConditionReport(monotone_decreasing=True, tends_to_zero=True, "
        "product_tends_to_zero=False, product_tail_start=None, product_tail_monotone=False, "
        "step_ratio_constant=1.5, grid=(1.0, 2.0, 3.0))",
    ),
    EquivalenceReport: (
        (0.5, 2.0, (0.125, 0.25), None),
        "EquivalenceReport(ratio_min=0.5, ratio_max=2.0, grid=(0.125, 0.25), equivalent=None)",
    ),
    Decomposition: (((PIECE,), 1.0), DECOMPOSITION_REPR),
    NormBounds: (
        (0.75, 1.0, "lorentz", Decomposition((PIECE,), 1.0)),
        f"NormBounds(lower=0.75, upper=1.0, lower_source='lorentz', "
        f"upper_witness={DECOMPOSITION_REPR})",
    ),
    LorentzNorm: (
        (1.0, 0.25, 0.75),
        "LorentzNorm(value=1.0, jump_part=0.25, integral_part=0.75)",
    ),
    WitnessSpec: (
        (qa_phi(), qa_psi(), 4, 0.5, 1.0, None),
        f"WitnessSpec(phi={QA_PHI_REPR}, psi={QA_PSI_REPR}, N=4, c=0.5, p=1.0, mu1=None)",
    ),
    WitnessFunction: (
        ((-1.0, -2.0, -3.0, -4.0), (0.5, 1.5, 2.5, 3.5), (0.25, 0.5, 0.75, 1.0), 2, 0.5, 1.0),
        "WitnessFunction(log_mu=(-1.0, -2.0, -3.0, -4.0), log_a=(0.5, 1.5, 2.5, 3.5), "
        "log_gamma=(0.25, 0.5, 0.75, 1.0), N=2, c=0.5, p=1.0)",
    ),
    StepFunction: (
        ((Fraction(0), Fraction(1)), (1.0,)),
        "StepFunction(breakpoints=(Fraction(0, 1), Fraction(1, 1)), values=(1.0,))",
    ),
}
CLASSES = list(CASES)
# each class: a field, and another value for it that the class accepts
CHANGED = {
    ShapeFunction: ("alpha", 0.25),
    AssumptionReport: ("c", 0.25),
    SequenceSpec: ("samples", ((1.0, 0.5), (2.0, 0.125))),
    SeqConditionReport: ("step_ratio_constant", 3.0),
    EquivalenceReport: ("equivalent", True),
    Decomposition: ("cost", 2.0),
    NormBounds: ("lower", 0.5),
    LorentzNorm: ("jump_part", 0.5),
    WitnessSpec: ("N", 5),
    WitnessFunction: ("p", 0.5),
    StepFunction: ("values", (2.0,)),
}


def build(cls, by_keyword=False):
    values = CASES[cls][0]
    return cls(**dict(zip(cls._fields, values))) if by_keyword else cls(*values)


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(CLASSES) == set(CHANGED)


@pytest.mark.parametrize("cls", CLASSES)
class TestRecord:
    def test_repr_is_the_pinned_literal(self, cls):
        assert repr(build(cls)) == CASES[cls][1]

    def test_positional_and_keyword_construction_agree(self, cls):
        rec = build(cls)
        assert build(cls, by_keyword=True) == rec
        assert rec._astuple() == CASES[cls][0]
        assert rec._asdict() == dict(zip(cls._fields, CASES[cls][0]))

    def test_equal_fields_give_equal_records_and_the_field_tuple_hash(self, cls):
        a, b = build(cls), build(cls, by_keyword=True)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(CASES[cls][0])
        assert a != CASES[cls][0]  # a record is not its tuple

    def test_a_changed_field_gives_an_unequal_record(self, cls):
        rec = build(cls)
        name, value = CHANGED[cls]
        other = cls(**{**rec._asdict(), name: value})
        assert other != rec and getattr(other, name) == value

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        rec = build(cls)
        for name in cls._fields:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(rec, name, None)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(rec, name)
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
            rec.extra = 1
        assert repr(rec) == CASES[cls][1]

    def test_pickle_round_trip(self, cls):
        rec = build(cls)
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and hash(back) == hash(rec) and repr(back) == repr(rec)

    def test_an_unknown_keyword_is_refused_in_cpythons_text(self, cls):
        with pytest.raises(TypeError) as info:
            cls(*CASES[cls][0], domain_start=0.5)
        assert str(info.value) == (
            f"{cls.__qualname__}.__init__() got an unexpected keyword argument 'domain_start'"
        )


def test_a_step_function_keeps_its_slots():
    f = build(StepFunction)
    assert not hasattr(f, "__dict__") and not hasattr(f, "_hash")
    assert hash(f) == f._hash == hash(f._astuple())  # its slot caches the hash on first use


def test_frozen_instance_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(FrozenInstanceError):
        PIECE.values = ()


# a plain function with each class's signature, named as its __init__: CPython
# words the binding errors of both
def sequence_init(self, kind, phi=None, samples=None):
    pass


def lorentz_init(self, value, jump_part, integral_part):
    pass


def witness_init(self, phi, psi, N, c, p=1.0, mu1=None):
    pass


def shape_init(self, family, alpha=None, beta=None, exponent=None, points=None,
               domain_kind=None):
    pass


sequence_init.__qualname__ = "SequenceSpec.__init__"
lorentz_init.__qualname__ = "LorentzNorm.__init__"
witness_init.__qualname__ = "WitnessSpec.__init__"
shape_init.__qualname__ = "ShapeFunction.__init__"
REFERENCES = {SequenceSpec: sequence_init, LorentzNorm: lorentz_init, WitnessSpec: witness_init,
              ShapeFunction: shape_init}
BAD_CALLS = [
    ((), {}),
    ((1.0,), {}),
    ((1.0, 2.0), {}),
    ((1.0,) * 7, {}),
    ((1.0,) * 7, {"nope": 1}),
    ((1.0,), {"nope": 1, "kind": 2}),
    ((1.0, 2.0), {"phi": 1, "value": 2, "jump_part": 3}),
    ((1.0, 2.0), {"jump_part": 3, "psi": 4}),
    ((), {"integral_part": 1.0, "samples": 1, "mu1": 2}),
    ((), {"c": 1, "p": 2}),
]


@pytest.mark.parametrize("cls", list(REFERENCES))
@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_binding_errors_read_as_a_signatures(cls, args, kwargs):
    try:
        REFERENCES[cls](None, *args, **kwargs)
    except TypeError as exc:
        want = str(exc)
    else:
        return  # the signature binds these; what the record then checks is its own
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    assert str(info.value) == want
