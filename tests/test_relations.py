"""Equal-length relation pairs and the built-in verification scenarios."""

import pytest

from factorlab import (
    Affine,
    AssertionFailure,
    enumerate_equal_length_relations,
    is_relation_atom,
    relation_atoms,
    verify_interval_relations,
    verify_unique_representation,
)
from factorlab import factor, invariants, models, relations
from factorlab.errors import BudgetExceeded
from test_models import FP21, N23, SUM

AFF3 = Affine(dim=2, generators=((2, 0), (1, 1), (0, 2)))


def test_numerical_has_only_diagonal_pairs():
    pairs, info = enumerate_equal_length_relations(N23, 6)
    assert info["lengthBound"] == 6
    assert pairs
    assert all(p.left == p.right for p in pairs)
    assert relation_atoms(N23, 6)[0] == []


@pytest.mark.parametrize("desc", [N23, AFF3, SUM], ids=["N23", "AFF3", "SUM"])
def test_enumeration_raises_past_the_budget(desc):
    pairs, info = enumerate_equal_length_relations(desc, 3)
    members = invariants.enumerate_elements(desc, info["weightBound"])
    top = max(len(factor.factorizations(desc, el).all) for el in members)
    at_top, _ = enumerate_equal_length_relations(desc, 3, budget=top)
    assert [p.profile() for p in at_top] == [p.profile() for p in pairs]
    with pytest.raises(BudgetExceeded):
        enumerate_equal_length_relations(desc, 3, budget=top - 1)


def test_affine_square_swap_is_a_relation_atom():
    found, info = relation_atoms(AFF3, 4)
    profiles = {p.profile() for p in found}
    assert len(profiles) == len(found)
    swaps = [p for p in found if p.element == (2, 2)]
    assert len(swaps) == 1
    swap = swaps[0]
    # the swap pair: (1,1)+(1,1) against (2,0)+(0,2)
    doc = swap.to_json(AFF3)
    sides = {tuple(sorted(map(tuple, (a for a, _ in doc["left"])))),
             tuple(sorted(map(tuple, (a for a, _ in doc["right"]))))}
    assert sides == {((1, 1),), ((0, 2), (2, 0))}
    assert swap.equal_length
    assert is_relation_atom(AFF3, swap)


def test_doubled_pair_is_not_an_atom():
    found, _ = relation_atoms(AFF3, 4)
    base = found[0]
    doubled = relations.pair_product(AFF3, base, base)
    assert not is_relation_atom(AFF3, doubled)


def test_identity_pair_is_not_an_atom():
    pairs, _ = enumerate_equal_length_relations(AFF3, 2)
    ident = [p for p in pairs if p.left.length == 0]
    assert ident
    assert not is_relation_atom(AFF3, ident[0])


def test_fp_requires_explicit_weight_bound():
    with pytest.raises(ValueError):
        enumerate_equal_length_relations(FP21, 3)
    pairs, info = enumerate_equal_length_relations(FP21, 3, weight_bound=6)
    assert info["weightBound"] == 6
    assert pairs


def test_pair_product_multiplies_componentwise():
    found, _ = relation_atoms(AFF3, 4)
    p = found[0]
    sq = relations.pair_product(AFF3, p, p)
    assert sq.element == models.multiply(AFF3, p.element, p.element)
    assert sq.left.length == 2 * p.left.length
    assert sq.equal_length


# ---------------------------------------------------------------------------
# scenario: interval length sets from a three-generator sumset


def test_interval_scenario_passes():
    report = verify_interval_relations(6)
    assert report["kMax"] == 6
    assert report["kAtomMax"] == 4
    assert all(c["ok"] for c in report["checks"])
    labels = {c["check"] for c in report["checks"]}
    assert labels == {
        "unit-absorbs-either-gap-power-into-interval",
        "gap-powers-are-never-intervals",
        "one-separates-the-gap-powers",
        "interval-pair-is-a-relation-atom",
    }


def test_interval_scenario_records_relation_atoms():
    report = verify_interval_relations(4, k_atom_max=2)
    assert report["relationAtoms"]
    atom_checks = [
        c for c in report["checks"] if c["check"] == "interval-pair-is-a-relation-atom"
    ]
    assert {c["k"] for c in atom_checks} == {1, 2}


def test_interval_scenario_rejects_bad_k():
    with pytest.raises(ValueError):
        verify_interval_relations(0)


# ---------------------------------------------------------------------------
# scenario: unique representation forcing wide gaps


def test_unique_representation_scenario_passes():
    report = verify_unique_representation()
    assert report["difference"] == 10
    assert report["kMax"] == 5
    for row in report["rows"]:
        assert len(row["representations"]) == 2
        assert row["separation"] >= 10 * row["k"]


def test_unique_representation_scenario_scales():
    report = verify_unique_representation(difference=8, k_max=3)
    assert [row["k"] for row in report["rows"]] == [1, 2, 3]


def test_unique_representation_rejects_small_difference():
    with pytest.raises(ValueError):
        verify_unique_representation(difference=3)


def test_assertion_failure_carries_context():
    try:
        raise AssertionFailure("claim failed", {"k": 3})
    except AssertionFailure as exc:
        assert exc.context == {"k": 3}
        assert "claim failed" in str(exc)
