"""Length sets, elasticity, catenary degrees, successive distances."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import (
    LengthSet,
    catenary,
    element_report,
    enumerate_elements,
    equal_catenary,
    factorizations,
    global_estimates,
    length_set,
    length_set_sumset,
    unions_of_lengths,
    unique_representations,
)
from factorlab import factor, invariants, models
from test_models import AFF, FP21, FP22, N23, PROD, SUM, SUMSETS

N6920 = models.Numerical(generators=(6, 9, 20))


# ---------------------------------------------------------------------------
# length set arithmetic


def test_length_set_basics():
    ls = LengthSet(lengths=(4, 5, 6))
    assert ls.delta() == (1,)
    assert ls.rho() == Fraction(3, 2)
    assert 5 in ls
    assert 7 not in ls


def test_elasticity_conventions():
    assert LengthSet(lengths=(0,)).rho() == 1
    assert LengthSet(lengths=(3,)).rho() == 1
    with pytest.raises(ValueError):
        LengthSet(lengths=()).rho()


def test_length_set_sumset_and_unique_representations():
    a = LengthSet(lengths=(2, 4))
    b = LengthSet(lengths=(1, 2))
    total = length_set_sumset(a, b)
    assert total.lengths == (3, 4, 5, 6)
    assert unique_representations(a, b, 3) == [(2, 1)]
    assert unique_representations(a, b, 6) == [(4, 2)]
    assert sorted(unique_representations(a, b, 4)) == [(2, 2)]
    assert unique_representations(a, b, 5) == [(4, 1)]


def test_shifted_interval_pair_sumset_and_unique_targets():
    a = LengthSet(lengths=(2, 12, 14))
    b = LengthSet(lengths=(2, 12, 13, 15))
    total = length_set_sumset(a, b)
    assert total.lengths == (4, 14, 15, 16, 17, 24, 25, 26, 27, 29)
    assert unique_representations(a, b, 15) == [(2, 13)]
    assert unique_representations(a, b, 16) == [(14, 2)]
    assert unique_representations(a, b, 4) == [(2, 2)]


# ---------------------------------------------------------------------------
# golden invariant tuples


def test_numerical_twelve_report():
    fs = factorizations(N23, 12)
    r = element_report(fs)
    assert r.lengths.lengths == (4, 5, 6)
    assert r.lengths.delta() == (1,)
    assert r.elasticity == Fraction(3, 2)
    assert (r.c, r.c_eq, r.c_adj, r.c_mon) == (3, 0, 3, 3)
    assert (r.delta_elem, r.delta_w) == (3, 3)
    assert r.pair_distance[(4, 6)] == 6
    assert r.pair_dist_sup[(4, 5)] == 3


def test_fp_report():
    fs = factorizations(FP21, (3, 3))
    r = element_report(fs)
    assert r.lengths.lengths == (2, 3)
    assert (r.c, r.c_eq, r.c_adj, r.c_mon) == (3, 0, 3, 3)
    assert r.delta_w == 3


def test_affine_report_has_equal_length_jump():
    fs = factorizations(AFF, (3, 3))
    r = element_report(fs)
    assert r.lengths.lengths == (2, 3)
    assert (r.c, r.c_eq, r.c_adj, r.c_mon) == (3, 2, 3, 3)
    assert (r.delta_elem, r.delta_w) == (3, 3)


def test_sumset_report_small_distance():
    fs = factorizations(SUM, (0, 1, 2, 3, 4))
    r = element_report(fs)
    assert r.lengths.lengths == (2, 4)
    assert r.c == 3
    assert r.c_eq == 1
    assert r.pair_distance[(2, 4)] == 3


# ---------------------------------------------------------------------------
# oracle agreement


SWEEP = [(N23, 16), (AFF, 9), (FP21, 7), (FP22, 9), (SUM, 5)]


def test_catenary_matches_bruteforce():
    cases = [
        (desc, el)
        for desc, bound in SWEEP
        for el in bruteforce.brute_members(desc, bound)
    ]
    for desc, el in cases + [(N6920, 200)]:
        fs = factorizations(desc, el)
        assert catenary(fs) == bruteforce.brute_catenary(fs), (desc, el)
        for x, row in zip(fs.all, fs.distance_table, strict=True):
            assert list(fs.fields.unpack(row)) == [
                factor.distance(x, y) for y in fs.all], \
                (desc, el)


def test_equal_catenary_matches_bruteforce():
    for desc, bound in SWEEP:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            assert equal_catenary(fs) == bruteforce.brute_equal_catenary(fs)


def test_adjacent_catenary_matches_bruteforce():
    for desc, bound in SWEEP:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            r = element_report(fs)
            assert r.c_adj == bruteforce.brute_adjacent_catenary(fs)
            by = bruteforce.fibers(fs)
            dists = r.pair_distance
            assert list(dists) == list(itertools.combinations(by, 2))
            for (k, l), d in dists.items():
                assert d == bruteforce.brute_set_distance(by[k], by[l]), \
                    (desc, el)


def test_monotone_catenary_matches_bruteforce():
    for desc, bound in SWEEP:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            assert element_report(fs).c_mon == \
                bruteforce.brute_monotone_catenary(fs), (desc, el)


def test_successive_distances_match_bruteforce():
    for desc, bound in SWEEP:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            r = element_report(fs)
            assert r.delta_elem == \
                bruteforce.brute_element_successive_distance(fs)
            assert r.delta_w == bruteforce.brute_weak_successive_distance(fs)
            by = bruteforce.fibers(fs)
            sups = r.pair_dist_sup
            assert list(sups) == list(itertools.combinations(by, 2))
            for (k, l), d in sups.items():
                assert d == bruteforce.brute_dist_sup(by[k], by[l]), (desc, el)


def test_successive_distance_per_factorization():
    fs = factorizations(N23, 12)
    per = {z.counts: bruteforce.brute_successive_distance(fs, z) for z in fs.all}
    assert max(per.values()) == element_report(fs).delta_elem
    assert all(v >= 0 for v in per.values())


# ---------------------------------------------------------------------------
# chain identities and the chain oracle


def test_identities_on_sweep():
    for desc, bound in SWEEP:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            r = element_report(fs)
            assert r.c <= r.c_mon
            assert r.c_mon == max(r.c_eq, r.c_adj)
            if len(r.lengths.lengths) > 1:
                assert r.c_mon <= max(r.lengths.lengths)
                assert r.delta_w <= r.delta_elem
                assert r.c_adj <= r.delta_w * max(r.lengths.delta())


def test_monotone_chain_oracle_certifies_threshold():
    fs = factorizations(N23, 12)
    r = element_report(fs)
    zs = fs.all
    for z1 in zs:
        for z2 in zs:
            if z1.length <= z2.length:
                assert bruteforce.monotone_chain_oracle(fs, z1, z2, r.c_mon)
    failures = [
        (z1.counts, z2.counts)
        for z1 in zs
        for z2 in zs
        if z1.length <= z2.length
        and not bruteforce.monotone_chain_oracle(fs, z1, z2, r.c_mon - 1)
    ]
    assert failures


# ---------------------------------------------------------------------------
# element sweeps and global aggregation


def test_enumerate_elements_numerical():
    got = enumerate_elements(N23, 10)
    assert got == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_enumerate_elements_matches_bruteforce():
    for desc, bound in [(N23, 12), (AFF, 8), (FP22, 7), (SUM, 5), (PROD, 5)]:
        got = enumerate_elements(desc, bound)
        want = bruteforce.brute_members(desc, bound)
        assert got == want, desc
        assert len(got) == len(set(got))
        keys = [models.element_sort_key(desc, e) for e in got]
        assert keys == sorted(keys)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.tuples(*[st.integers(0, 3)] * 3).filter(any), min_size=1,
               max_size=4), st.integers(0, 6))
def test_affine_dim_three_members_match_bruteforce(gens, bound):
    desc = models.Affine(dim=3, generators=tuple(sorted(gens)))
    assert enumerate_elements(desc, bound) == bruteforce.brute_members(desc, bound)


@settings(max_examples=25, deadline=None)
@given(SUMSETS, st.integers(0, 9))
def test_sumset_members_match_bruteforce(desc, bound):
    assert enumerate_elements(desc, bound) == bruteforce.brute_members(desc, bound)


def test_enumerate_elements_sumset_reaches_composite_sets():
    got = enumerate_elements(SUM, 4)
    for want in [(0,), (0, 1), (0, 1, 3), (0, 2, 3), (0, 1, 2), (0, 1, 2, 3, 4)]:
        assert want in got


def test_report_all_zero_on_singleton_fibers():
    for element in (0, 2, 3):
        fs = factorizations(N23, element)
        assert len(fs.all) == 1
        r = element_report(fs)
        values = (r.c, r.c_eq, r.c_adj, r.c_mon, r.delta_elem, r.delta_w)
        assert values == (0, 0, 0, 0, 0, 0)


def test_global_estimates_stabilize_on_numerical():
    estimates, warnings = global_estimates(N23, 30)
    assert warnings == []
    by_name = {e.name: e for e in estimates}
    assert by_name["rho"].value == Fraction(3, 2)
    assert by_name["delta_set"].value == (1,)
    assert by_name["c"].value == 3
    assert by_name["c_mon"].value == 3
    assert all(e.stabilized for e in estimates)


def test_gap_estimate_bounds_catenary_estimate():
    for desc, bound in [(N23, 24), (FP21, 8), (FP22, 9)]:
        estimates, _ = global_estimates(desc, bound)
        by_name = {e.name: e for e in estimates}
        gaps = by_name["delta_set"].value
        assert gaps, desc
        assert 1 + max(gaps) <= by_name["c"].value


def test_global_estimates_report_budget_overflow():
    estimates, warnings = global_estimates(N23, 40, budget=4)
    assert warnings
    assert all(w["error"] == "budget-exceeded" for w in warnings)


def test_unions_of_lengths():
    row, warnings = unions_of_lengths(N23, 4, 30)
    assert warnings == []
    assert row["k"] == 4
    assert row["union"] == [3, 4, 5, 6]
    assert row["rhoK"] == 6


def test_unions_contains_seed_even_when_unrealized():
    row, _ = unions_of_lengths(N23, 1, 12)
    assert 1 in row["union"]


def test_unions_fp_reaches_diagonal_lengths():
    row, _ = unions_of_lengths(FP21, 2, 12)
    assert {2, 3, 4} <= set(row["union"])
