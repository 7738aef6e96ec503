"""The result records and the parsed expression nodes are immutable values:
equal fields give equal records with equal hashes, and no field can be
reassigned. They are NamedTuples, which cost next to nothing to define
when the package is imported."""

import pytest

from beckring import dsl, rings, solvers, theorems

RECORDS = [
    cls
    for module in (dsl, rings, solvers, theorems)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__
]


def test_every_record_is_listed():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted([
        "ZmodAtom", "QuotAtom", "ANAtom", "ProductExpr", "NilradicalProfile",
        "Clique", "CliqueSplit", "Coloring", "SZero",
        "OmegaPrediction", "FactorColoring", "ChiBounds", "ZnFormula", "NilFactor",
        "NilBound", "ANConditionResult", "ReducedCheck", "FamilyReport",
    ])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(cls):
    fields = tuple(range(len(cls._fields)))
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != cls(*fields[:-1], -1)
    body = ", ".join(f"{name}={value}" for name, value in zip(cls._fields, fields))
    assert repr(a) == f"{cls.__name__}({body})"
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, -1)

