"""Factorization enumeration, distances and fiber order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import (
    BudgetExceeded,
    Factorization,
    NotAMember,
    distance,
    factorizations,
)
from factorlab import models, search
from test_models import AFF, FP21, FP22, N23, PROD, SUM


def by_atoms(fs):
    return bruteforce.factor_set_as_multisets(fs)


# ---------------------------------------------------------------------------
# frozen fibers


def test_numerical_fiber_of_twelve():
    fs = factorizations(N23, 12)
    assert by_atoms(fs) == {
        ((2, 6),),
        ((2, 3), (3, 2)),
        ((3, 4),),
    }
    assert fs.lengths == (4, 5, 6)


def test_fp_fiber():
    fs = factorizations(FP21, (3, 3))
    assert by_atoms(fs) == {
        (((1, 1), 3),),
        (((1, 2), 1), ((2, 1), 1)),
    }


def test_affine_fiber():
    fs = factorizations(AFF, (3, 3))
    assert by_atoms(fs) == {
        (((1, 1), 3),),
        (((0, 3), 1), ((3, 0), 1)),
        (((0, 2), 1), ((1, 1), 1), ((2, 0), 1)),
    }


def test_sumset_fiber():
    fs = factorizations(SUM, (0, 1, 2, 3, 4))
    assert by_atoms(fs) == {
        (((0, 1), 4),),
        (((0, 1), 1), ((0, 1, 3), 1)),
        (((0, 1), 1), ((0, 2, 3), 1)),
    }


def test_product_fiber_combines_components():
    el = models.canon(PROD, ((6, (2, 2)), (3,)))
    fs = factorizations(PROD, el)
    assert fs.lengths == (7, 8)
    assert len(fs.all) == 2
    for z in fs.all:
        assert models.product_of(fs.descriptor, fs.atoms, z.counts) == el


def test_product_distance_subadditive_over_components():
    desc = models.Product(factors=(N23, FP21), free_rank=0)
    for raw1, raw2 in [(6, (1, 1)), (12, (3, 3)), (24, (3, 4))]:
        f1 = factorizations(N23, raw1)
        f2 = factorizations(FP21, raw2)
        fs = factorizations(desc, ((f1.element, f2.element), ()))
        index = {u: i for i, u in enumerate(fs.atoms)}

        def embed(z1, z2):
            pairs = [
                (index[search.embed_component(desc, 0, f1.atoms[j])], m)
                for j, m in z1.counts
            ]
            pairs += [
                (index[search.embed_component(desc, 1, f2.atoms[j])], m)
                for j, m in z2.counts
            ]
            return _z(pairs)

        combos = {embed(z1, z2) for z1 in f1.all for z2 in f2.all}
        assert combos == set(fs.all)
        for z1 in f1.all:
            for y1 in f1.all:
                d1 = distance(z1, y1)
                for z2 in f2.all:
                    for y2 in f2.all:
                        lhs = distance(embed(z1, z2), embed(y1, y2))
                        assert lhs <= d1 + distance(z2, y2)


def test_identity_has_empty_factorization():
    fs = factorizations(N23, 0)
    assert len(fs.all) == 1
    assert fs.all[0].counts == ()
    assert fs.lengths == (0,)


def test_factorize_requires_member():
    with pytest.raises(NotAMember):
        factorizations(N23, 1)


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded) as exc:
        factorizations(N23, 600, budget=40)
    assert exc.value.limit == 40


def test_enumeration_matches_bruteforce():
    cases = [
        (N23, list(range(0, 15))),
        (AFF, [(a, b) for a in range(5) for b in range(5)]),
        (FP21, [(a, b) for a in range(5) for b in range(5)]),
        (FP22, [(a, b) for a in range(6) for b in range(6)]),
    ]
    for desc, raws in cases:
        for raw in raws:
            try:
                el = models.canon(desc, raw)
            except Exception:
                continue
            if not models.membership(desc, el):
                continue
            assert by_atoms(factorizations(desc, el)) == \
                bruteforce.brute_factorizations(desc, el), (desc, el)


def test_sumset_enumeration_matches_bruteforce():
    for el in bruteforce.brute_members(SUM, 6):
        assert by_atoms(factorizations(SUM, el)) == \
            bruteforce.brute_factorizations(SUM, el), el


def test_pi_recovers_element_everywhere():
    for desc, bound in [(N23, 14), (AFF, 8), (FP22, 8), (SUM, 6)]:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            for z in fs.all:
                assert models.product_of(desc, fs.atoms, z.counts) == el


# ---------------------------------------------------------------------------
# distances


def _z(pairs):
    """The Factorization of (atom id, multiplicity) pairs in any order."""
    merged: dict = {}
    for i, m in pairs:
        merged[i] = merged.get(i, 0) + m
    counts = tuple(sorted(merged.items()))
    return Factorization(counts, sum(m for _, m in counts))


def test_distance_hand_values():
    a = _z([(0, 6)])
    b = _z([(1, 4)])
    c = _z([(0, 3), (1, 2)])
    assert distance(a, b) == 6
    assert distance(a, c) == 3
    assert distance(b, c) == 3
    assert distance(a, a) == 0


def test_gcd_factorizations():
    """d(a, b) = max(|a|, |b|) - |gcd(a, b)|."""
    a = _z([(0, 5), (1, 1)])
    b = _z([(0, 2), (1, 3)])
    g = bruteforce.brute_gcd(a.counts, b.counts)
    assert g == {0: 2, 1: 1}
    assert distance(a, b) == max(a.length, b.length) - sum(g.values()) == 3


def test_set_distance_and_dist_sup():
    fs = factorizations(N23, 12)
    z4, z5, z6 = ([z.counts for z in fs.by_length(k)] for k in (4, 5, 6))
    assert bruteforce.brute_set_distance(z4, z6) == 6
    assert bruteforce.brute_set_distance(z4, z5) == 3
    assert bruteforce.brute_dist_sup(z4, z5) == 3
    assert bruteforce.brute_set_distance([], z4) == 0
    assert bruteforce.brute_set_distance(z4, z4) == 0


counts_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.integers(min_value=1, max_value=6)),
    max_size=5,
)


@given(counts_strategy, counts_strategy, counts_strategy)
@settings(max_examples=120)
def test_distance_metric_axioms(p1, p2, p3):
    z1, z2, z3 = (_z(p) for p in (p1, p2, p3))
    assert distance(z1, z2) == distance(z2, z1)
    assert (distance(z1, z2) == 0) == (z1 == z2)
    assert distance(z1, z3) <= distance(z1, z2) + distance(z2, z3)


@given(counts_strategy, counts_strategy)
@settings(max_examples=120)
def test_distance_matches_bruteforce(p1, p2):
    z1, z2 = _z(p1), _z(p2)
    assert distance(z1, z2) == bruteforce.brute_distance(z1.counts, z2.counts)


def test_length_difference_lower_bound():
    fs = factorizations(N23, 24)
    import itertools
    for z1, z2 in itertools.combinations(fs.all, 2):
        assert distance(z1, z2) >= 1 + abs(z1.length - z2.length)
        assert distance(z1, z2) >= 2 + abs(z1.length - z2.length)


# ---------------------------------------------------------------------------
# order


def test_order_is_deterministic():
    first = factorizations(AFF, (3, 3))
    second = factorizations(AFF, (3, 3))
    assert [z.counts for z in first.all] == [z.counts for z in second.all]
    lengths = [z.length for z in first.all]
    assert lengths == sorted(lengths)


def test_two_enumerations_of_an_element_are_equal():
    """A factorization is its counts and length, against the atoms of its
    FactorSet, so enumerating one element twice gives equal fibers."""
    for desc, el in [(N23, 12), (AFF, (3, 3)), (FP22, (4, 4)),
                     (SUM, (0, 1, 2, 3, 4)),
                     (PROD, models.canon(PROD, ((6, (2, 2)), (3,))))]:
        first, second = factorizations(desc, el), factorizations(desc, el)
        assert first.atoms == second.atoms
        assert first.all == second.all
