"""The length table against the brute-force factorization oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import factor, invariants, models
from factorlab.errors import BudgetExceeded
from test_models import (AFF, FP21, FP22, N23, PROD, SUM, SUMSETS, affine_models,
                         products)

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
    table = invariants.length_table(desc, bound)
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
    counts = {row.count for row in invariants.length_table(desc, bound)}
    budgets = sorted({n for c in counts for n in (c - 1, c)})
    for budget in budgets:
        table = invariants.length_table(desc, bound, budget)
        for row in table:
            try:
                factor.factorizations(desc, row.element, budget)
            except BudgetExceeded:
                assert row.lengths is None and row.count is None, (budget, row)
            else:
                assert row.count is not None and row.count <= budget
        warned = [w["element"] for w in invariants.table_warnings(desc, table, budget)]
        assert warned == [
            models.element_to_json(desc, row.element)
            for row in table
            if row.lengths is None
        ]


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
