"""The fiber stream against enumeration and the brute-force oracle."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import cli, factor, invariants, models
from factorlab.errors import BudgetExceeded
from test_length_table import FIXED, FIXED_IDS
from test_models import AFF, N23, PROD, SUM, SUMSETS, affine_models, products


def shape(fs: factor.FactorSet):
    """Everything a FactorSet says."""
    return fs.element, fs.atoms, fs.all


def check_stream(desc, bound):
    stream = list(invariants.fibers(desc, bound))
    assert [el for el, _ in stream] == bruteforce.brute_members(desc, bound)
    for el, fs in stream:
        assert shape(fs) == shape(factor.factorizations(desc, el)), el
        assert bruteforce.factor_set_as_multisets(fs) == \
            bruteforce.brute_factorizations(desc, el), el


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_fixed_models_match_enumeration_and_oracle(desc, bound):
    check_stream(desc, bound)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=11), min_size=1, max_size=4))
def test_numerical_models_match_enumeration_and_oracle(gens):
    check_stream(models.Numerical(generators=tuple(sorted(gens))), 24)


@settings(max_examples=20, deadline=None)
@given(affine_models(max_dim=2))
def test_affine_models_match_enumeration_and_oracle(desc):
    check_stream(desc, 7)


@settings(max_examples=25, deadline=None)
@given(SUMSETS, st.integers(0, 9))
def test_sumset_models_match_enumeration_and_oracle(desc, bound):
    check_stream(desc, bound)


@settings(max_examples=15, deadline=None)
@given(products(), st.integers(0, 6))
def test_product_models_match_enumeration_and_oracle(desc, bound):
    check_stream(desc, bound)


def check_overflow(desc, bound):
    counts = {len(fs.all) for _, fs in invariants.fibers(desc, bound)}
    budgets = sorted({n for c in counts for n in (c - 1, c)})
    for budget in budgets:
        for el, fs in invariants.fibers(desc, bound, budget):
            try:
                want = factor.factorizations(desc, el, budget)
            except BudgetExceeded:
                assert fs is None, (budget, el)
            else:
                assert fs is not None and shape(fs) == shape(want), (budget, el)


@pytest.mark.parametrize("desc,bound", FIXED, ids=FIXED_IDS)
def test_overflow_exactly_where_enumeration_raises(desc, bound):
    check_overflow(desc, bound)


@settings(max_examples=15, deadline=None)
@given(products(), st.integers(0, 6))
def test_product_overflow_exactly_where_enumeration_raises(desc, bound):
    check_overflow(desc, bound)


# ((2,2), {0,...,4}; 0) has 2 and 3 factorizations in its slots: at budgets
# 3 to 5 the product overflows while neither slot does.
AFF_SUM = models.Product(factors=(AFF, SUM), free_rank=1)


@pytest.mark.parametrize("desc,bound", FIXED + [(AFF_SUM, 8)],
                         ids=FIXED_IDS + ["AFF_SUM"])
def test_length_table_rows_match_the_fibers(desc, bound):
    """Both views of the one sweep agree at every budget edge c - 1, c: the
    rows are the stream's fibers, the warnings its overflowed members."""
    counts = {row.count for row in invariants.length_table(desc, bound)[0]}
    for budget in sorted({n for c in counts for n in (c - 1, c)}):
        table, warnings = invariants.length_table(desc, bound, budget)
        stream = list(invariants.fibers(desc, bound, budget))
        built = [(el, fs) for el, fs in stream if fs is not None]
        assert [row.element for row in table] == [el for el, _ in built]
        for row, (el, fs) in zip(table, built):
            assert row.lengths == invariants.length_set(fs), (budget, el)
            assert row.count == len(fs.all), (budget, el)
        assert warnings == [invariants.budget_warning(desc, el, budget)
                            for el, fs in stream if fs is None], budget


def test_product_sweep_lists_each_slot_once(monkeypatch):
    """A product sweep lists its members once, and that listing lists each
    slot once."""
    path = Path(__file__).parent.parent / "perfbench" / "descriptors" / "product.json"
    desc = models.descriptor_from_json(json.loads(path.read_text()))
    listed = []
    enumerate_elements = invariants.enumerate_elements

    def counted(d, bound):
        listed.append(d)
        return enumerate_elements(d, bound)

    monkeypatch.setattr(invariants, "enumerate_elements", counted)
    table, _ = invariants.length_table(desc, 10)
    assert listed == [desc, *desc.factors]
    assert [row.element for row in table] == enumerate_elements(desc, 10)


def test_identity_overflows_a_zero_budget():
    assert list(invariants.fibers(N23, 3, budget=0)) == [
        (0, None), (2, None), (3, None)]


@pytest.mark.parametrize("desc,bound", [(N23, 300), (PROD, 5), (SUM, 6)],
                         ids=["N23", "PROD", "SUM"])
@pytest.mark.parametrize("budget", ["3", "2000000"])
def test_global_bytes_are_the_same_for_any_jobs(capsys, tmp_path, desc, bound,
                                                budget):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(models.descriptor_to_json(desc)))
    argv = ["global", "--monoid", str(path), "--bound", str(bound),
            "--budget", budget, "--output", "json"]
    outs = []
    for jobs in ("1", "2"):
        assert cli.main(argv + ["--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
