"""Atoms from generators and the reachability-pruned search, against oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import factor, models
from factorlab.errors import BudgetExceeded
from test_length_table import FIXED, FIXED_IDS

N234 = models.Numerical(generators=(2, 3, 4))
N_WIDE = models.Numerical(generators=(4, 6, 7, 10, 13))
AFF_EXTRA = models.Affine(dim=2, generators=((1, 0), (0, 1), (1, 1), (2, 1)))
AFF3 = models.Affine(dim=3, generators=((1, 0, 1), (0, 2, 0), (1, 2, 1), (2, 0, 0)))
SUM_EXTRA = models.Sumset(generators=((0, 1), (0, 1, 2), (0, 2, 3)))
NON_MINIMAL = [
    (N234, 16), (N_WIDE, 30), (AFF_EXTRA, 6), (AFF3, 6), (SUM_EXTRA, 6),
    (models.Product(factors=(N234, SUM_EXTRA), free_rank=1), 5),
]
NON_MINIMAL_IDS = ["N234", "N_WIDE", "AFF_EXTRA", "AFF3", "SUM_EXTRA", "PROD_EXTRA"]
CASES = FIXED + NON_MINIMAL
CASE_IDS = FIXED_IDS + NON_MINIMAL_IDS


def check_against_oracle(desc, bound):
    members = bruteforce.brute_members(desc, bound)
    for el in members:
        assert models.is_atom(desc, el) == bruteforce.brute_is_atom(desc, el), el
        assert models.atoms_dividing(desc, el) == \
            bruteforce.brute_atoms_dividing(desc, el), el
        assert bruteforce.factor_set_as_multisets(factor.factorizations(desc, el)) \
            == bruteforce.brute_factorizations(desc, el), el


@pytest.mark.parametrize("desc,bound", CASES, ids=CASE_IDS)
def test_fixed_models_match_oracle(desc, bound):
    check_against_oracle(desc, bound)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=11), min_size=1, max_size=4))
def test_numerical_models_match_oracle(gens):
    desc = models.Numerical(generators=tuple(sorted(gens)))
    check_against_oracle(desc, 24)
    assert not any(models.is_atom(desc, n) for n in range(25)
                   if not models.membership(desc, n))


vectors = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)


@settings(max_examples=20, deadline=None)
@given(st.sets(vectors, min_size=1, max_size=4))
def test_affine_models_match_oracle(gens):
    check_against_oracle(models.Affine(dim=2, generators=tuple(sorted(gens))), 7)


GENERATED = [(d, i) for (d, _), i in zip(CASES, CASE_IDS)
             if isinstance(d, (models.Numerical, models.Affine, models.Sumset))]


@pytest.mark.parametrize("desc", [d for d, _ in GENERATED],
                         ids=[i for _, i in GENERATED])
def test_generator_atoms_split_the_generators(desc):
    atoms = models.generator_atoms(desc)
    assert list(atoms) == [g for g in bruteforce.brute_members(
        desc, models.max_generator_weight(desc)) if g in atoms]
    for g in desc.generators:
        assert (g in atoms) == bruteforce.brute_is_atom(desc, g), g
    rest = [models.element_to_json(desc, g) for g in desc.generators
            if g not in atoms]
    assert models.non_atom_generators(desc) == rest


def test_non_minimal_generators_are_not_atoms():
    assert models.generator_atoms(N234) == (2, 3)
    assert models.generator_atoms(AFF_EXTRA) == ((0, 1), (1, 0))
    assert models.generator_atoms(SUM_EXTRA) == ((0, 1), (0, 2, 3))


@pytest.mark.parametrize("desc,bound", CASES, ids=CASE_IDS)
def test_overflow_exactly_at_the_fiber_size(desc, bound):
    for el in bruteforce.brute_members(desc, bound):
        full = factor.factorizations(desc, el)
        count = len(full.all)
        at = factor.factorizations(desc, el, budget=count)
        assert [z.counts for z in at.all] == [z.counts for z in full.all], el
        with pytest.raises(BudgetExceeded) as exc:
            factor.factorizations(desc, el, budget=count - 1)
        assert exc.value.limit == count - 1


def test_search_makes_no_membership_call_per_node(monkeypatch):
    calls = []
    membership = models.membership

    def counted(desc, el):
        calls.append(el)
        return membership(desc, el)

    monkeypatch.setattr(models, "membership", counted)
    fs = factor.factorizations(models.Numerical(generators=(6, 9, 20)), 1000)
    assert len(fs.all) == 465
    assert calls == [1000]
