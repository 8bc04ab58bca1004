"""The packed distance table against the brute-force oracles.

Every row of ``FactorSet.distance_table`` is one int of fixed-width
fields, the width chosen from the longest length: one byte up to a
longest length of 126, two bytes from 127. The element invariants read
the table with whole-row (SWAR) operations, so each is checked here
against ``tests/bruteforce.py`` on fibers at both sides of that switch,
on degenerate fibers and on hypothesis-drawn sets of factorizations.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import catenary, element_report, equal_catenary, factorizations
from factorlab import factor, models
from test_models import AFF, N23

N6920 = models.Numerical(generators=(6, 9, 20))
DIAGONAL = models.Affine(dim=2, generators=((2, 0), (1, 1), (0, 2)))

# brute_monotone_catenary searches chains between every pair, so it is
# run only on fibers this small; larger ones are held to the identity
# c_mon = max(c_eq, c_adj) of the oracles, which the small ones check.
MONOTONE_ORACLE_MOST = 12


def assert_matches_oracles(fs):
    r = element_report(fs)
    assert catenary(fs) == r.c == bruteforce.brute_catenary(fs)
    c_eq = bruteforce.brute_equal_catenary(fs)
    assert equal_catenary(fs) == r.c_eq == c_eq
    by = bruteforce.fibers(fs)
    pairs = list(itertools.combinations(by, 2))
    assert list(r.pair_distance) == pairs == list(r.pair_dist_sup)
    for k, l in pairs:
        assert r.pair_distance[k, l] == bruteforce.brute_set_distance(by[k], by[l])
        assert r.pair_dist_sup[k, l] == bruteforce.brute_dist_sup(by[k], by[l])
    if len(fs.all) <= MONOTONE_ORACLE_MOST:
        assert r.c_mon == bruteforce.brute_monotone_catenary(fs)
    else:
        assert r.c_mon == max(c_eq, bruteforce.brute_adjacent_catenary(fs))


@pytest.mark.parametrize("desc,element,longest,nbytes", [
    (N6920, 0, 0, 1),                  # the identity: one empty factorization
    (N6920, 9, 1, 1),                  # an atom
    (DIAGONAL, (126, 126), 126, 1),    # 64 factorizations, all of length 126
    (DIAGONAL, (127, 127), 127, 2),
    (N23, 252, 126, 1),                # one factorization per length
    (N23, 254, 127, 2),
    (AFF, (250, 2), 126, 1),           # two factorizations at most lengths
    (AFF, (252, 2), 127, 2),
    (N6920, 1000, 162, 2),             # 465 factorizations over 110 lengths
], ids=["identity", "atom", "one-length-126", "one-length-127", "n23-126",
        "n23-127", "affine-126", "affine-127", "n6920-1000"])
def test_packed_kernel_matches_oracles(desc, element, longest, nbytes):
    fs = factorizations(desc, element)
    assert (fs.all[-1].length, fs.fields.nbytes) == (longest, nbytes)
    assert_matches_oracles(fs)


def factor_sets(max_multiplicity):
    """Sets of distinct nonempty factorizations over three atoms, as
    FactorSets. They need not be the fiber of any element: the distance
    calculus and every oracle read only the multiplicities."""
    vector = st.tuples(*[st.integers(0, max_multiplicity)] * 3).filter(any)
    vectors = st.sets(vector, min_size=1, max_size=MONOTONE_ORACLE_MOST)
    return vectors.map(lambda zs: factor.factor_set(
        N6920, None, (6, 9, 20),
        [[(a, m) for a, m in enumerate(z) if m] for z in zs]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(factor_sets(4), factor_sets(60)))
def test_packed_kernel_matches_oracles_on_drawn_sets(fs):
    assert_matches_oracles(fs)


def test_element_report_builds_the_table_once(monkeypatch):
    # c, c_eq and the pair tables all read the one table of the fiber
    built = []
    build = factor.FactorSet.distance_table.func

    def spy(fs):
        built.append(fs.element)
        return build(fs)

    table = functools.cached_property(spy)
    table.__set_name__(factor.FactorSet, "distance_table")
    monkeypatch.setattr(factor.FactorSet, "distance_table", table)
    fs = factorizations(N6920, 200)
    assert len(fs.lengths) > 1 and max(map(len, fs.spans.values())) > 1
    element_report(fs)
    assert built == [200]
    element_report(factorizations(N6920, 200))
    assert built == [200, 200]
