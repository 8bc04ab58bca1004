"""Record types: reprs, immutability, hashing, validation, pickling.

``k in length_set`` and the distinct tokens of two equal atom tables are
pinned by test_invariants and test_factor.
"""

import pickle

import pytest

from factorlab import (
    AtomTable,
    FactorSet,
    Numerical,
    Pattern,
    descriptor_from_json,
    descriptor_to_json,
    factorizations,
    length_set,
    make_factorization,
)
from test_models import FP22, N23, PROD


def test_descriptor_reprs_name_their_fields():
    assert repr(N23) == "Numerical(generators=(2, 3))"
    assert repr(FP22.exceptional[0]) == (
        "Pattern(entries=(('exact', 1), ('atLeast', 1)))")
    assert repr(PROD).startswith(
        "Product(factors=(Numerical(generators=(2, 3)), "
        "FinitelyPrimaryValue(rank=2, exponent=1, exceptional=())), ")


def test_record_fields_cannot_be_assigned():
    fs = factorizations(N23, 12)
    for record, field in ((N23, "generators"), (FP22.exceptional[0], "entries"),
                          (fs.all[0], "length"), (length_set(fs), "lengths")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())


def test_descriptors_are_dict_keys():
    table = {N23: "n23", FP22: "fp22", PROD: "product"}
    assert table[Numerical(generators=(2, 3))] == "n23"
    assert table[descriptor_from_json(descriptor_to_json(PROD))] == "product"
    assert len({Pattern((("exact", 1),)), Pattern((("exact", 1),))}) == 1


def test_factor_set_rejects_an_unsorted_list():
    table = AtomTable(descriptor=N23, atoms=(2, 3))
    long, short = (make_factorization(table, [(0, 3)]),
                   make_factorization(table, [(1, 2)]))
    with pytest.raises(ValueError, match="sorted by length"):
        FactorSet(descriptor=N23, element=6, table=table, all=(long, short))


@pytest.mark.parametrize("desc,element", [(N23, 30), (FP22, (5, 4)),
                                          (PROD, ((12, (2, 2)), (1,)))],
                         ids=["numerical", "fp-value", "product"])
def test_factor_set_pickles_with_its_distance_table(desc, element):
    fs = factorizations(desc, element)
    table = fs.distance_table
    back = pickle.loads(pickle.dumps(fs))
    assert back.descriptor == desc
    assert back.element == fs.element
    assert back.table.atoms == fs.table.atoms
    assert back.table.token == fs.table.token
    assert back.all == fs.all
    assert back.distance_table == table
    assert back.spans == fs.spans
