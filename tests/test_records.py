"""The seven records behave as the frozen dataclasses they replaced: the
same repr, equality, hash, immutability, keywords, defaults, validation
messages, pickling and copying, and pattern matching."""

import copy
import inspect
import pickle

import pytest

from equicolor.closed_forms import (
    GammaResult,
    Params,
    ThresholdCase,
    ThresholdResult,
    Trichotomy,
    gamma,
    threshold_kronecker,
)
from equicolor.errors import ParameterDomainError
from equicolor.grid import Coloring, VerificationReport, Violation, ViolationKind
from equicolor.oracle import OracleBudget

_IMBALANCE = Violation(ViolationKind.IMBALANCE, "x")

# One instance per type, with its repr as the dataclasses printed it.
GOLDEN = [
    (Params(3, 7, 2), "Params(m=3, n=7, r=2)"),
    (gamma(Params(3, 7, 2)),
     "GammaResult(value=5, trichotomy=<Trichotomy.LESS: 'less'>, residue=2)"),
    (threshold_kronecker(Params(3, 7, 2)),
     "ThresholdResult(value=5, case=<ThresholdCase.RESIDUE_SMALL_GAP: 'residue-small-gap'>,"
     " theta=None, gamma=GammaResult(value=5, trichotomy=<Trichotomy.LESS: 'less'>,"
     " residue=2))"),
    (threshold_kronecker(Params(3, 5, 1)),
     "ThresholdResult(value=3, case=<ThresholdCase.OTHERWISE: 'otherwise'>, theta=5,"
     " gamma=GammaResult(value=4, trichotomy=<Trichotomy.LESS: 'less'>, residue=1))"),
    (Coloring(2, 2, (((1, 1), (2, 2)), ((1, 2),), ((2, 1),))),
     "Coloring(m=2, n=2, classes=(((1, 1), (2, 2)), ((1, 2),), ((2, 1),)))"),
    (_IMBALANCE, "Violation(kind=<ViolationKind.IMBALANCE: 'imbalance'>, detail='x')"),
    (VerificationReport(False, (_IMBALANCE,)),
     "VerificationReport(valid=False, violations=(Violation(kind="
     "<ViolationKind.IMBALANCE: 'imbalance'>, detail='x'),))"),
    (OracleBudget(), "OracleBudget(max_vertices=24, max_k=1000, node_limit=10000000)"),
]
RECORDS = [record for record, _ in GOLDEN]
IDS = [type(record).__name__ for record in RECORDS]

FIELDS = {
    Params: ("m", "n", "r"),
    GammaResult: ("value", "trichotomy", "residue"),
    ThresholdResult: ("value", "case", "theta", "gamma"),
    Coloring: ("m", "n", "classes"),
    Violation: ("kind", "detail"),
    VerificationReport: ("valid", "violations"),
    OracleBudget: ("max_vertices", "max_k", "node_limit"),
}


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_every_type_has_a_golden_instance():
    assert {type(record) for record in RECORDS} == set(FIELDS)


@pytest.mark.parametrize("record, text", GOLDEN, ids=IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_fields_are_equal_and_hash_as_their_tuple(record):
    twin = type(record)(*_values(record))
    assert twin == record and not twin != record
    assert twin is not record
    assert hash(record) == hash(twin) == hash(_values(record))
    assert len({record, twin}) == 1


def test_a_changed_field_is_unequal():
    assert Params(3, 7, 2) != Params(3, 7, 3)
    assert not Params(3, 7, 2) == Params(2, 7, 3)
    assert OracleBudget(node_limit=5) != OracleBudget()
    assert Violation(ViolationKind.IMBALANCE, "y") != _IMBALANCE


def test_records_of_different_types_never_compare_equal():
    assert Params(24, 1000, 10**7) != OracleBudget(24, 1000, 10**7)
    assert not Params(24, 1000, 10**7) == OracleBudget(24, 1000, 10**7)
    assert Coloring(3, 7, 2) != Params(3, 7, 2)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_no_record_equals_its_plain_tuple(record):
    assert record != _values(record)
    assert _values(record) != record
    assert not record == _values(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = FIELDS[type(record)][0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_keyword_construction(record):
    names = FIELDS[type(record)]
    assert type(record)(**dict(zip(names, _values(record)))) == record


def test_oracle_budget_defaults():
    assert _values(OracleBudget()) == (24, 1000, 10_000_000)
    assert OracleBudget(node_limit=7) == OracleBudget(24, 1000, 7)
    assert OracleBudget(5) == OracleBudget(max_vertices=5, max_k=1000, node_limit=10_000_000)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Params(0, 7, 2), "m must be >= 1, got 0"),
        (lambda: Params(3, "7", 2), "n must be an int, got '7'"),
        (lambda: Params(3, 7, True), "r must be an int, got True"),
        (lambda: OracleBudget(max_vertices=0), "OracleBudget.max_vertices must be >= 1, got 0"),
        (lambda: OracleBudget(max_k=2.0), "OracleBudget.max_k must be an int, got 2.0"),
        (lambda: OracleBudget(node_limit=-1), "OracleBudget.node_limit must be >= 1, got -1"),
    ],
)
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ParameterDomainError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert again == record and type(again) is type(record)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("cls", list(FIELDS), ids=[cls.__name__ for cls in FIELDS])
def test_match_args_and_signature_name_the_fields(cls):
    assert cls.__match_args__ == FIELDS[cls]
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]


def test_positional_patterns_bind_the_fields():
    match threshold_kronecker(Params(3, 7, 2)):
        case ThresholdResult(5, ThresholdCase.RESIDUE_SMALL_GAP, None,
                             GammaResult(5, Trichotomy.LESS, residue)):
            assert residue == 2
        case _:
            pytest.fail("no pattern matched")
