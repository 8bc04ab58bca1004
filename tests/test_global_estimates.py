"""``global_estimates`` on cancellative models, read off the atom
recurrence, against a fold of ``element_report`` over every fiber."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import factor, invariants, models, pairwise, recurrence
from test_models import AFF, FP22, NUMERICAL, PROD, affine_models, products
from test_search import fp_value_models

BUDGETS = (factor.DEFAULT_BUDGET, 1, 3, 40)
N6920 = models.Numerical(generators=(6, 9, 20))
FIXED = [
    (N6920, 130),
    (models.Numerical(generators=(5, 7, 11)), 70),
    (models.Numerical(generators=(7, 10, 12, 15)), 60),
    (AFF, 12), (FP22, 12), (PROD, 7),
]
FIXED_IDS = ["N6920", "N5711", "N7101215", "AFF", "FP22", "PROD"]
# The sweep workload's descriptors at the bounds of its catalogue.
BENCH = [(N6920, 250), (N6920, 400), (AFF, 16), (FP22, 24), (PROD, 10)]
BENCH_IDS = ["N6920-250", "N6920-400", "AFF-16", "FP22-24", "PROD-10"]


def check_estimates(desc, bound):
    """Every estimate, value and stabilized flag, and the warnings equal
    the reference fold's, at each budget."""
    for budget in BUDGETS:
        estimates, warnings = invariants.global_estimates(desc, bound, budget)
        got = [(e.name, e.value, e.stabilized) for e in estimates]
        assert (got, warnings) == bruteforce.reference_global_estimates(
            desc, bound, budget), budget


@pytest.mark.parametrize("desc,bound", FIXED + BENCH, ids=FIXED_IDS + BENCH_IDS)
def test_fixed_models_match_the_reference_fold(desc, bound):
    check_estimates(desc, bound)


# (model, weight bound) pairs, cancellative or a product with a sumset slot.
CASES = st.one_of(
    st.tuples(NUMERICAL, st.integers(0, 45)),
    st.tuples(affine_models(max_dim=2), st.integers(0, 9)),
    st.tuples(fp_value_models(), st.integers(0, 8)),
    st.tuples(products(), st.integers(0, 6)),
)


@settings(max_examples=25, deadline=None)
@given(CASES)
def test_cancellative_models_match_the_reference_fold(case):
    desc, bound = case
    assume(models.cancellative(desc))
    check_estimates(desc, bound)


def check_atom_free_lengths(desc, bound):
    """For every member a and each adjacent pair of its lengths, in either
    order (n, o), the walk finds a factorization of length n over the atoms
    u with o - 1 not in L(a - u) exactly when some x in Z_n(a) shares no
    atom with Z_o(a), by brute force."""
    members = invariants.enumerate_elements(desc, bound)
    atoms, masks, _, _, below, _ = factor.atom_recurrence(desc, members, 0)
    ids = {members[a]: u for u, a in enumerate(atoms)}
    for i, el in enumerate(members):
        by_length = {}
        for z in bruteforce.brute_factorizations(desc, el):
            by_length.setdefault(sum(m for _, m in z), []).append(
                {ids[v] for v, _ in z})
        lengths = sorted(by_length)
        for k, l in zip(lengths, lengths[1:]):
            for n, o in ((k, l), (l, k)):
                used = set().union(*by_length[o])
                ok = {u for u, b in below[i].items() if not masks[b] >> o - 1 & 1}
                assert recurrence._has_length(below, masks, i, n, ok) == any(
                    x.isdisjoint(used) for x in by_length[n]), (el, n, o)


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_fixed_models_walk_to_atom_free_lengths(desc, bound):
    check_atom_free_lengths(desc, bound)


@settings(max_examples=25, deadline=None)
@given(CASES)
def test_cancellative_models_walk_to_atom_free_lengths(case):
    desc, bound = case
    assume(models.cancellative(desc))
    check_atom_free_lengths(desc, bound)


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_estimate_rows_read_each_weight_off_the_recurrence(monkeypatch, desc,
                                                           bound):
    """Once the recurrence has run, the rows compute no weight: every
    member's and atom's weight comes from the list it returns."""
    def refuse(*args):
        raise AssertionError("a weight was recomputed")

    recur = factor.atom_recurrence

    def then_refuse(*args, **kwargs):
        out = recur(*args, **kwargs)
        monkeypatch.setattr(models, "weight", refuse)
        return out

    monkeypatch.setattr(factor, "atom_recurrence", then_refuse)
    rows = list(recurrence.estimate_rows(
        desc, bound, factor.DEFAULT_BUDGET, [], invariants._estimate_start()))
    assert rows
    with pytest.raises(AssertionError, match="recomputed"):
        models.weight(desc, invariants.enumerate_elements(desc, 0)[0])


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_recurrence_set_distances_are_the_pair_tables(desc, bound):
    """d(Z_k, Z_l) = (l - k) + T(a; k, l - k) for every member a and every
    pair of its lengths k < l, T from the parents' gap tables."""
    members = invariants.enumerate_elements(desc, bound)
    _, masks, _, _, below, _ = factor.atom_recurrence(
        desc, members, factor.DEFAULT_BUDGET)
    top = max(m.bit_length() for m in masks) - 1
    gap_tables = recurrence._GapTables(top)
    tables = []
    for el, mask, parents in zip(members, masks, below):
        _, own = gap_tables.build(mask, [tables[a] for a in parents.values()],
                                  range(1, top + 1))
        tables.append(own)
        dists, _ = pairwise.pair_tables(factor.factorizations(desc, el))
        assert {(k, k + d): d + gap_tables.get(t, k)
                for d, t in own.items() for k in range(top + 1)
                if mask >> k & mask >> k + d & 1} == dists, el


def test_cancellative_global_builds_no_distance_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("an element report or distance table was built")

    monkeypatch.setattr(invariants, "element_report", refuse)
    monkeypatch.setattr(factor.FactorSet, "distance_table", property(refuse))
    for desc, bound in FIXED:
        invariants.global_estimates(desc, bound)
    with pytest.raises(AssertionError):
        invariants.global_estimates(models.Sumset(((0, 1), (0, 2, 3))), 6)


def test_cancellative_global_builds_no_fiber(monkeypatch):
    def refuse(*args):
        raise AssertionError("a factorization was built")

    monkeypatch.setattr(factor, "_with_atom", refuse)
    for desc, bound in FIXED:
        invariants.global_estimates(desc, bound)
    with pytest.raises(AssertionError):
        invariants.global_estimates(models.Sumset(((0, 1), (0, 2, 3))), 6)


def test_cancellative_global_peak_memory_stays_small():
    """The traced peak of global on <6, 9, 20> at 600 stays under 2 MiB:
    no member's fiber is held."""
    tracemalloc.start()
    try:
        invariants.global_estimates(N6920, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
