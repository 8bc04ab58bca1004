"""Transfer laws of a product of slots and a free part.

Z(a) of a = (a_1, ..., a_n; f) is Z(a_1) x ... x Z(a_n) x {f}, so L(a) is
the sumset of the L(a_i) shifted by |f|, |Z(a)| is the product of the
|Z(a_i)|, and c(a) is the largest c(a_i) (Geroldinger and Halter-Koch,
Non-Unique Factorizations, 2006). The monotone and equal catenary degrees
do not transfer: the pins below show a product exceeding both slots.
"""

import functools
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import cli, factor, invariants, models, relations
from factorlab.errors import BudgetExceeded
from test_models import PROD, Affine, Numerical, Product, products

N357_N25 = Product(factors=(Numerical((3, 5, 7)), Numerical((2, 5))), free_rank=0)


def report(desc, el):
    return invariants.element_report(factor.factorizations(desc, el))


def multisets(fs, embed=lambda u: u):
    """Z(a) as frozensets of (atom, multiplicity), atoms passed through embed."""
    return {frozenset((embed(fs.atoms[j]), m) for j, m in z.counts)
            for z in fs.all}


@given(products(), st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_lengths_counts_and_catenary_transfer_from_the_slots(desc, bound):
    for el in invariants.enumerate_elements(desc, bound):
        comps, free = el
        fs = factor.factorizations(desc, el)
        slots = [factor.factorizations(f, c) for f, c in zip(desc.factors, comps)]
        lengths = functools.reduce(invariants.length_set_sumset,
                                   map(invariants.length_set, slots))
        assert invariants.length_set(fs).lengths == \
            tuple(k + sum(free) for k in lengths.lengths), el
        assert len(fs.all) == math.prod(len(s.all) for s in slots), el
        assert invariants.catenary(fs) == \
            max(map(invariants.catenary, slots)), el
        free_part = frozenset((models.free_generator(desc, j), e)
                              for j, e in enumerate(free) if e)
        embedded = [multisets(s, functools.partial(models.embed_component, desc, i))
                    for i, s in enumerate(slots)]
        assert multisets(fs) == {free_part.union(*combo)
                                 for combo in itertools.product(*embedded)}, el


def cli_report(capsys, tmp_path, desc, literal):
    """The results of ``invariants --element literal``."""
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(models.descriptor_to_json(desc)))
    assert cli.main(["invariants", "--monoid", str(path), "--element", literal,
                     "--output", "json"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_monotone_catenary_exceeds_both_slots(capsys, tmp_path):
    """12 = 3+3+3+3 = 5+7 in <3,5,7> and 10 = 2+2+2+2+2 = 5+5 in <2,5>.
    Z_6(a) is 4 + 2 atoms and Z_7(a) is 2 + 5: they share none, and the
    lengths are adjacent, so a monotone chain takes a step of 7."""
    rep = cli_report(capsys, tmp_path, N357_N25, "12;10")
    assert rep["lengthSet"] == [4, 6, 7, 9]
    assert (rep["c"], rep["cMon"]) == (5, 7)
    slots = [report(f, c) for f, c in zip(N357_N25.factors, (12, 10))]
    assert [(s.c, s.c_mon) for s in slots] == [(4, 4), (5, 5)]
    assert [global_value(d, 26, "c_mon") for d in (N357_N25, *N357_N25.factors)] \
        == [7, 4, 5]


def test_equal_catenary_of_a_product_with_half_factorial_slots(capsys, tmp_path):
    """The bench product <2,3> x fp-value x free rank 1, at 6;3,3;0."""
    assert cli_report(capsys, tmp_path, PROD, "6;3,3;0")["cEq"] == 5
    el = models.parse_element_literal(PROD, "6;3,3;0")
    assert [report(f, c).c_eq for f, c in zip(PROD.factors, el[0])] == [0, 0]


def global_value(desc, bound, name="c"):
    estimates, warnings = invariants.global_estimates(desc, bound)
    assert warnings == []
    return next(e.value for e in estimates if e.name == name)


def check_global_catenary(desc, bound):
    """At every bound up to this one, global c is the largest slot's."""
    for w in range(bound + 1):
        assert global_value(desc, w) == \
            max(global_value(f, w) for f in desc.factors), w


@pytest.mark.parametrize("desc,bound", [(N357_N25, 26), (PROD, 8)],
                         ids=["n357-n25", "bench-product"])
def test_global_catenary_is_the_largest_slot_catenary(desc, bound):
    check_global_catenary(desc, bound)


@given(products(), st.integers(4, 10))
@settings(max_examples=15, deadline=None)
def test_global_catenary_of_generated_products(desc, bound):
    check_global_catenary(desc, bound)


def test_a_product_past_the_budget_raises_though_each_slot_fits():
    """(12, 12) of <2,3> x <2,3> has 3 factorizations in each slot and 9 in
    the product."""
    desc = Product(factors=(Numerical((2, 3)), Numerical((2, 3))), free_rank=0)
    assert len(factor.factorizations(desc.factors[0], 12, 5).all) == 3
    assert len(factor.factorizations(desc, ((12, 12), ()), 9).all) == 9
    with pytest.raises(BudgetExceeded) as exc:
        factor.factorizations(desc, ((12, 12), ()), 5)
    assert exc.value.limit == 5


def test_a_product_without_fp_value_slots_bounds_its_generator_weights():
    """<2,3> x <(1,0),(1,1),(0,2)> with free rank 1: its largest generator
    weight, 3, is the least validation bound and, times the length bound,
    the default weight bound of relation atoms."""
    desc = Product(factors=(Numerical((2, 3)),
                            Affine(dim=2, generators=((1, 0), (1, 1), (0, 2)))),
                   free_rank=1)
    assert models.max_generator_weight(desc) == 3
    assert models.validate(desc).to_json()["verifiedBound"] == 3
    _, info = relations.relation_atoms(desc, 2)
    assert info == {"lengthBound": 2, "weightBound": 6}
