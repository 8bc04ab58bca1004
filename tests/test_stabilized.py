"""The stabilized flag of both sweeps against a second sweep at half the bound.

An estimate is stabilized when its running maximum did not change from
weight bound // 2 to the bound. Running maxima never fall, so the flag
must read true exactly when a separate sweep at bound // 2 reports the
same value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import aamp, invariants, models
from test_models import AFF, N23


def check_against_half(desc, bound):
    full, _ = invariants.global_estimates(desc, bound)
    half, _ = invariants.global_estimates(desc, bound // 2)
    assert [e.name for e in full] == [e.name for e in half]
    for top, low in zip(full, half):
        assert top.stabilized == (top.value == low.value), (top.name, bound)
    probe, _ = aamp.structure_probe(desc, bound)
    low_m = aamp.structure_probe(desc, bound // 2)[0]["mStar"]
    assert probe["stabilized"] == (probe["mStar"] == low_m), bound


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=11), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=12))
def test_numerical_flags_match_the_half_bound(gens, half):
    desc = models.Numerical(generators=tuple(sorted(gens)))
    for bound in (2 * half, 2 * half + 1):
        check_against_half(desc, bound)


@pytest.mark.parametrize("bound", [0, 1, 6, 7, 8, 9])
def test_affine_flags_match_the_half_bound(bound):
    check_against_half(AFF, bound)


def test_flags_around_the_first_gap_of_n23():
    # Up to weight 5 every member of <2,3> has one factorization; 6 = 2+2+2
    # = 3+3 first raises the gap set, the elasticity and c. At bound 10
    # that change lies above the half weight, at bound 12 on it.
    for bound, stable in ((10, False), (12, True)):
        estimates, _ = invariants.global_estimates(N23, bound)
        flags = {e.name: e.stabilized for e in estimates}
        assert [flags[n] for n in ("delta_set", "rho", "c")] == [stable] * 3
    for bound in range(10, 14):
        check_against_half(N23, bound)
