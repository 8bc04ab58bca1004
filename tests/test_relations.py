"""Equal-length relation pairs and the built-in verification scenarios."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import (
    Affine,
    AssertionFailure,
    enumerate_equal_length_relations,
    is_relation_atom,
    relation_atoms,
    verify_interval_relations,
    verify_unique_representation,
)
from factorlab import factor, invariants, models
from factorlab.errors import BudgetExceeded
from test_fibers import AFF_SUM
from test_length_table import SUM_PROD
from test_models import FP21, N23, NUMERICAL, PROD, SUM, affine_and_top, sumset_generators
from test_search import fp_value_models

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
    # relation_atoms streams the same fibers without the pair list
    found, _ = relation_atoms(desc, 3, budget=top)
    assert [p.profile() for p in found] == [
        p.profile() for p in pairs if p.left != p.right and is_relation_atom(desc, p)]
    with pytest.raises(BudgetExceeded):
        relation_atoms(desc, 3, budget=top - 1)


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


def doubled(desc, pair):
    """The square of a pair, over the pair's own atoms."""
    def twice(z):
        return factor.Factorization(tuple((i, 2 * m) for i, m in z.counts),
                                    2 * z.length)

    return pair._replace(element=models.multiply(desc, pair.element, pair.element),
                         left=twice(pair.left), right=twice(pair.right))


def test_doubled_pair_is_not_an_atom():
    found, _ = relation_atoms(AFF3, 4)
    base = found[0]
    assert not is_relation_atom(AFF3, doubled(AFF3, base))


def test_identity_pair_is_not_an_atom():
    pairs, _ = enumerate_equal_length_relations(AFF3, 2)
    ident = [p for p in pairs if p.left.length == 0]
    assert ident
    assert not is_relation_atom(AFF3, ident[0])


# Recorded with the sub-multiset scan that `brute_is_relation_atom` keeps.
N7_10_12_15_ATOMS = [
    (22, [[7, 1], [15, 1]], [[10, 1], [12, 1]]),
    (50, [[7, 2], [12, 3]], [[10, 5]]),
    (55, [[7, 1], [12, 4]], [[10, 4], [15, 1]]),
    (60, [[10, 3], [15, 2]], [[12, 5]]),
    (60, [[7, 3], [12, 2], [15, 1]], [[10, 6]]),
    (70, [[7, 4], [12, 1], [15, 2]], [[10, 7]]),
    (72, [[7, 1], [10, 2], [15, 3]], [[12, 6]]),
    (80, [[7, 5], [15, 3]], [[10, 8]]),
    (84, [[7, 2], [10, 1], [15, 4]], [[12, 7]]),
    (96, [[7, 3], [15, 5]], [[12, 8]]),
]


def test_golden_atoms_of_a_four_generator_numerical_monoid():
    desc = models.Numerical(generators=(7, 10, 12, 15))
    found, info = relation_atoms(desc, 25, 200)
    assert info == {"lengthBound": 25, "weightBound": 200}
    docs = [p.to_json(desc) for p in found]
    assert [(d["element"], d["left"], d["right"]) for d in docs] == N7_10_12_15_ATOMS


def test_fp_requires_explicit_weight_bound():
    with pytest.raises(ValueError):
        enumerate_equal_length_relations(FP21, 3)
    pairs, info = enumerate_equal_length_relations(FP21, 3, weight_bound=6)
    assert info["weightBound"] == 6
    assert pairs


def key(pair):
    return pair.element, pair.left.counts, pair.right.counts


def check_atoms_against_oracle(desc, length_bound, weight_bound=None):
    """is_relation_atom agrees with the sub-multiset scan on every pair and
    its square, and relation_atoms lists the off-diagonal pairs the scan
    accepts, in enumeration order."""
    pairs, _ = enumerate_equal_length_relations(desc, length_bound, weight_bound)
    for p in pairs:
        for q in (p, doubled(desc, p)):
            assert is_relation_atom(desc, q) == bruteforce.brute_is_relation_atom(
                desc, q), key(q)
    found, _ = relation_atoms(desc, length_bound, weight_bound)
    assert [key(p) for p in found] == [
        key(p) for p in pairs
        if p.left != p.right and bruteforce.brute_is_relation_atom(desc, p)]


@settings(max_examples=30, deadline=None)
@given(st.one_of(NUMERICAL, affine_and_top().map(lambda case: case[0])),
       st.integers(1, 3))
def test_numerical_and_affine_atoms_match_oracle(desc, length_bound):
    check_atoms_against_oracle(desc, length_bound)


@settings(max_examples=20, deadline=None)
@given(fp_value_models(), st.integers(1, 3))
def test_fp_value_atoms_match_oracle(desc, length_bound):
    check_atoms_against_oracle(desc, length_bound, 10 - 2 * desc.rank)


@settings(max_examples=60, deadline=None)
@given(st.sets(sumset_generators, min_size=2, max_size=4), st.integers(1, 4),
       st.integers(0, 10))
def test_sumset_atoms_match_oracle(gens, length_bound, weight_bound):
    desc = models.Sumset(generators=tuple(sorted(gens)))
    check_atoms_against_oracle(desc, length_bound, weight_bound)


@pytest.mark.parametrize("desc", [SUM, PROD, SUM_PROD, AFF_SUM],
                         ids=["SUM", "PROD", "SUM_PROD", "AFF_SUM"])
def test_fixed_atoms_match_oracle(desc):
    check_atoms_against_oracle(desc, 3, 6)


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
    for k_atom_max in (0, 4):
        with pytest.raises(ValueError, match="k_atom_max must lie in"):
            verify_interval_relations(3, k_atom_max)


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
    with pytest.raises(ValueError, match="k_max must be at least 1"):
        verify_unique_representation(k_max=0)


def test_assertion_failure_carries_context():
    try:
        raise AssertionFailure("claim failed", {"k": 3})
    except AssertionFailure as exc:
        assert exc.context == {"k": 3}
        assert "claim failed" in str(exc)
