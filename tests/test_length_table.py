"""The length table against the brute-force factorization oracle."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import aamp, factor, invariants, models
from factorlab.errors import BudgetExceeded
from test_models import (AFF, FP21, FP22, N23, NUMERICAL, PROD, SUM, SUMSETS,
                         affine_models, products)

SUM_PROD = models.Product(factors=(SUM, N23), free_rank=1)

FIXED = [
    (N23, 16),
    (AFF, 7),
    (FP21, 6),
    (FP22, 8),
    (SUM, 6),
    (PROD, 5),
    (SUM_PROD, 5),
]
FIXED_IDS = ["N23", "AFF", "FP21", "FP22", "SUM", "PROD", "SUM_PROD"]


def check_against_oracle(desc, bound):
    table, warnings = invariants.length_table(desc, bound)
    assert warnings == []
    assert [row.element for row in table] == bruteforce.brute_members(desc, bound)
    for row in table:
        zs = bruteforce.brute_factorizations(desc, row.element)
        lengths = {sum(m for _, m in z) for z in zs}
        assert row.lengths.lengths == tuple(sorted(lengths)), row.element
        assert row.count == len(zs), row.element


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_fixed_models_match_oracle(desc, bound):
    check_against_oracle(desc, bound)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=11), min_size=1, max_size=4))
def test_numerical_models_match_oracle(gens):
    check_against_oracle(models.Numerical(generators=tuple(sorted(gens))), 24)


@settings(max_examples=20, deadline=None)
@given(affine_models(max_dim=2))
def test_affine_models_match_oracle(desc):
    check_against_oracle(desc, 7)


@settings(max_examples=25, deadline=None)
@given(SUMSETS, st.integers(0, 9))
def test_sumset_models_match_oracle(desc, bound):
    check_against_oracle(desc, bound)


@settings(max_examples=15, deadline=None)
@given(products(), st.integers(0, 6))
def test_product_models_match_oracle(desc, bound):
    check_against_oracle(desc, bound)


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_overflow_exactly_where_enumeration_raises(desc, bound):
    """A member is a row exactly when its enumeration fits the budget and
    is warned about exactly when it raises, both in weight order."""
    counts = {row.count for row in invariants.length_table(desc, bound)[0]}
    budgets = sorted({n for c in counts for n in (c - 1, c)})
    members = invariants.enumerate_elements(desc, bound)
    for budget in budgets:
        table, warnings = invariants.length_table(desc, bound, budget)
        fits, raises = [], []
        for el in members:
            try:
                fits.append((el, len(factor.factorizations(desc, el, budget).all)))
            except BudgetExceeded:
                raises.append({"element": models.element_to_json(desc, el),
                               "error": "budget-exceeded", "budget": budget})
        assert [(row.element, row.count) for row in table] == fits, budget
        assert all(row.count <= budget for row in table), budget
        assert warnings == raises, budget


def test_budget_boundary_of_one_element():
    fs = factor.factorizations(N23, 12)
    n = len(fs.all)
    _, warnings = invariants.unions_of_lengths(N23, 4, 12, budget=n)
    assert 12 not in [w["element"] for w in warnings]
    _, warnings = invariants.unions_of_lengths(N23, 4, 12, budget=n - 1)
    assert warnings[-1] == {"element": 12, "error": "budget-exceeded",
                            "budget": n - 1}
    with pytest.raises(BudgetExceeded):
        factor.factorizations(N23, 12, n - 1)


def test_length_questions_build_no_fiber(monkeypatch):
    """Length tables, unions and both structure probes read the recurrence's
    masks and counts only, on every model; the guard does catch a fiber."""
    def refuse(*args, **kwargs):
        raise AssertionError("a FactorSet was built")

    monkeypatch.setattr(factor.FactorSet, "__init__", refuse)
    for desc, bound in [(N23, 16), (AFF, 7), (FP22, 8), (SUM, 6), (PROD, 5),
                        (SUM_PROD, 5)]:
        invariants.length_table(desc, bound)
        invariants.unions_of_lengths(desc, 3, bound)
        aamp.structure_probe(desc, bound)
        aamp.unions_structure_probe(desc, range(2, 6), bound)
    with pytest.raises(AssertionError, match="FactorSet"):
        factor.factorizations(N23, 12)


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_every_union_matches_its_definition(desc, bound):
    table, _ = invariants.length_table(desc, bound)
    union_at = invariants.unions_containing(table)
    top = max(row.lengths.lengths[-1] for row in table)
    for k in range(top + 3):
        union = {k}.union(*(row.lengths.lengths for row in table
                            if k in row.lengths.lengths))
        assert union_at(k).lengths == tuple(sorted(union)), k


def test_unions_make_no_membership_test_per_row(monkeypatch):
    """Every U_k ORs the rows' length masks, not asking each row whether
    its length set contains k."""
    def refuse(self, k):
        raise AssertionError("a length set was asked for a member")

    monkeypatch.setattr(invariants.LengthSet, "__contains__", refuse)
    for desc, bound in [(N23, 16), (AFF, 7), (FP22, 8), (SUM, 6), (PROD, 5),
                        (SUM_PROD, 5)]:
        report, _ = invariants.unions_of_lengths(desc, 3, bound)
        assert 3 in report["union"]
        aamp.unions_structure_probe(desc, range(8), bound)
    with pytest.raises(AssertionError, match="asked for a member"):
        assert 3 in invariants.LengthSet((3,))


def check_probe_values(desc, bound):
    """dmin, densityTarget and the default difference candidates of the
    probes, read off the rows' masks, against the oracle's length sets."""
    sets = [sorted({sum(m for _, m in z)
                    for z in bruteforce.brute_factorizations(desc, el)})
            for el in bruteforce.brute_members(desc, bound)]
    gaps = {b - a for ls in sets for a, b in zip(ls, ls[1:])}
    report, _ = aamp.unions_structure_probe(desc, [], bound)
    probe, _ = aamp.structure_probe(desc, bound)
    assert probe["dCandidates"] == sorted({1, min(gaps, default=1)})
    if not gaps:
        assert report["trivial"] is True
        return
    rho = max(Fraction(ls[-1], ls[0]) if ls != [0] else Fraction(1) for ls in sets)
    assert (report["dmin"], report["densityTarget"]) == (
        min(gaps), str((rho - 1 / rho) / min(gaps)))


@settings(max_examples=25, deadline=None)
@given(NUMERICAL, st.integers(0, 40))
@example(models.Numerical(generators=(5, 7, 11)), 40)
@example(models.Numerical(generators=(6, 9, 20)), 40)
@example(models.Numerical(generators=(4, 10)), 40)
@example(models.Numerical(generators=(1,)), 10)
def test_numerical_probe_values_match_oracle(desc, bound):
    check_probe_values(desc, bound)


@settings(max_examples=15, deadline=None)
@given(products(), st.integers(0, 6))
def test_product_probe_values_match_oracle(desc, bound):
    check_probe_values(desc, bound)


def test_length_questions_keep_masks_not_length_tuples():
    """At <6,9,20> 6000 the rows keep each member's length mask, so the
    table and a union stay under 8 MiB; a decoded tuple per member would
    take about 68 MiB."""
    desc = models.Numerical(generators=(6, 9, 20))
    for question in (lambda: invariants.length_table(desc, 6000),
                     lambda: invariants.unions_of_lengths(desc, 5, 6000)):
        tracemalloc.start()
        try:
            question()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
