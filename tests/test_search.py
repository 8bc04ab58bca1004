"""Atoms from generators and the reachability-pruned search, against oracles."""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import factor, invariants, models
from factorlab.errors import BudgetExceeded, ClosureViolation, MalformedDescriptor
from test_length_table import FIXED, FIXED_IDS
from test_models import (
    AFF, FP22, N23, NUMERICAL, SUMSETS, affine_models, fp_value_descriptors)

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
# A product whose fp-value slot has a pattern.
FP_SLOT = (models.Product(factors=(FP22, N23), free_rank=1), 6)
CASES = FIXED + NON_MINIMAL + [FP_SLOT]
CASE_IDS = FIXED_IDS + NON_MINIMAL_IDS + ["FP_SLOT"]


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


@settings(max_examples=20, deadline=None)
@given(affine_models(max_dim=2))
def test_affine_models_match_oracle(desc):
    check_against_oracle(desc, 7)


@st.composite
def fp_value_models(draw):
    """fp-value descriptors of rank 1-3, exponent 1-3 and 0-2 patterns,
    kept when they are closed."""
    desc = draw(fp_value_descriptors(max_exponent=3, max_patterns=2))
    try:
        models.validate(desc, 2 * desc.exponent)
    except (MalformedDescriptor, ClosureViolation):
        assume(False)
    return desc


@settings(max_examples=30, deadline=None)
@given(fp_value_models())
def test_fp_value_models_match_oracle(desc):
    check_against_oracle(desc, 12 - 2 * desc.rank)


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


@settings(max_examples=40, deadline=None)
@given(st.one_of(NUMERICAL, affine_models(max_dim=2), SUMSETS, fp_value_models()),
       st.integers(0, 12))
def test_recurrence_atoms_are_the_atoms(desc, bound):
    """The sweep takes as atoms the members no lighter pass reached."""
    if isinstance(desc, models.FinitelyPrimaryValue):
        bound = min(bound, 12 - 2 * desc.rank)
    members = invariants.enumerate_elements(desc, bound)
    atoms = [members[i] for i in factor._atom_recurrence(desc, members)[0]]
    if isinstance(desc, models.FinitelyPrimaryValue):
        want = [u for u in members if bruteforce.brute_is_atom(desc, u)]
    else:
        want = [u for u in models.generator_atoms(desc)
                if models.weight(desc, u) <= bound]
    assert atoms == want


@settings(max_examples=40, deadline=None)
@given(SUMSETS, st.integers(0, 9))
def test_sumset_fibers_are_recurrence_rows_that_match_the_oracle(desc, bound):
    """A sumset fiber is one row of the atom recurrence: Z(a), over the
    table of the atoms dividing a, overflowing exactly past |Z(a)|."""
    for el in bruteforce.brute_members(desc, bound):
        fs = factor.factorizations(desc, el)
        assert bruteforce.factor_set_as_multisets(fs) == \
            bruteforce.brute_factorizations(desc, el), el
        assert list(fs.table.atoms) == models.atoms_dividing(desc, el)
        assert len(factor.factorizations(desc, el, budget=len(fs.all)).all) == len(fs.all)
        with pytest.raises(BudgetExceeded):
            factor.factorizations(desc, el, budget=len(fs.all) - 1)


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
    # atoms_dividing decides membership from the mask it builds anyway.
    assert calls == []


@pytest.fixture
def mask_tops(monkeypatch):
    """The tops of the member masks built after set-up, in order."""
    tops = []
    member_mask = models.member_mask

    def counted(desc, top):
        tops.append(top)
        return member_mask(desc, top)

    # generator_atoms builds one mask per generator on every call; memoised
    # here, those masks are set-up and only the element's masks count.
    monkeypatch.setattr(models, "generator_atoms",
                        functools.cache(models.generator_atoms))
    models.generator_atoms(AFF)
    monkeypatch.setattr(models, "member_mask", counted)
    return tops


def test_factorize_builds_one_member_mask_per_element(mask_tops):
    fs = factor.factorizations(AFF, (24, 24))
    assert len(fs.all) == 189
    assert mask_tops == [(24, 24)]


def test_is_atom_builds_one_member_mask(mask_tops):
    assert not models.is_atom(AFF, (24, 24))
    assert mask_tops == [(24, 24)]


def test_product_factorize_builds_one_member_mask_per_slot(mask_tops):
    """The slot's membership check hands its atoms to the slot's fiber."""
    num = models.Numerical(generators=(6, 9, 20))
    models.generator_atoms(num)
    mask_tops.clear()
    fs = factor.factorizations(models.Product(factors=(num,), free_rank=0), ((600,), ()))
    assert len(fs.all) == 191
    assert mask_tops == [(600,)]


@pytest.mark.parametrize("call", [
    factor.factorizations, models.atoms_dividing, models.is_atom,
], ids=["factorizations", "atoms_dividing", "is_atom"])
def test_a_product_builds_each_slot_structure_once(mask_tops, monkeypatch, call):
    """A slot's membership witness serves its atoms and its fiber: one
    member mask for a numerical slot, one reach for a sumset slot."""
    num = models.Numerical(generators=(6, 9, 20))
    sumset = models.Sumset(generators=((0, 1), (0, 2, 3)))
    models.generator_atoms(num)
    models.generator_atoms(sumset)
    mask_tops.clear()
    targets = []
    reachable = models.sumset_reachable

    def counted(desc, target):
        targets.append(target)
        return reachable(desc, target)

    monkeypatch.setattr(models, "sumset_reachable", counted)
    call(models.Product(factors=(num, sumset), free_rank=0),
         ((600, tuple(range(7))), ()))
    assert mask_tops == [(600,)]
    assert targets == [tuple(range(7))]
