"""Acceptance criteria, one test per criterion.

Each test is a single pinned claim with exact expectations (tolerances
are runtime ceilings only). The terminal summary prints one line per
criterion via conftest.
"""

import itertools
import random
import time
from fractions import Fraction

import bruteforce
from factorlab import (
    Affine,
    FinitelyPrimaryValue,
    Numerical,
    Pattern,
    Product,
    Sumset,
    factorizations,
    global_estimates,
    is_aamp,
    verify_interval_relations,
    verify_unique_representation,
    verify_witness,
)
from factorlab import factor, invariants, models

N23 = Numerical(generators=(2, 3))
N357 = Numerical(generators=(3, 5, 7))
AFF3 = Affine(dim=2, generators=((2, 0), (1, 1), (0, 2)))
FP21 = FinitelyPrimaryValue(rank=2, exponent=1, exceptional=())
SUM = Sumset(generators=((0, 1), (0, 1, 3), (0, 2, 3)))


def fibers(desc, bound):
    for el in invariants.enumerate_elements(desc, bound):
        yield factorizations(desc, el)


# ---------------------------------------------------------------------------
# 1: interval relation scenario, exact equalities, runtime < 60 s


def test_criterion_01_interval_relation_scenario():
    start = time.monotonic()
    report = verify_interval_relations(12)
    elapsed = time.monotonic() - start
    failed = [c for c in report["checks"] if not c["ok"]]
    assert failed == []
    interval_ks = {
        c["k"]
        for c in report["checks"]
        if c["check"] == "unit-absorbs-either-gap-power-into-interval"
    }
    assert interval_ks == set(range(0, 13))
    gap_ks = {
        c["k"]
        for c in report["checks"]
        if c["check"] == "gap-powers-are-never-intervals"
    }
    assert gap_ks == set(range(1, 13))
    sep_ks = {
        c["k"]
        for c in report["checks"]
        if c["check"] == "one-separates-the-gap-powers"
    }
    assert sep_ks == set(range(1, 13))
    atom_ks = {
        c["k"]
        for c in report["checks"]
        if c["check"] == "interval-pair-is-a-relation-atom"
    }
    assert atom_ks == {1, 2, 3, 4}
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2: unique-representation scenario, exact pairs, runtime < 1 s


def test_criterion_02_unique_representation_scenario():
    start = time.monotonic()
    report = verify_unique_representation(difference=10, k_max=5)
    elapsed = time.monotonic() - start
    assert tuple(report["shifts"]) == (2, 2)
    assert [row["k"] for row in report["rows"]] == [1, 2, 3, 4, 5]
    for row in report["rows"]:
        k = row["k"]
        reps = row["representations"]
        assert len(reps) == 2, row
        firsts = [first for first, _ in reps]
        assert abs(firsts[0] - firsts[1]) >= 10 * k
        assert row["separation"] >= 10 * k
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 3: distance lower bounds against length difference


def test_criterion_03_distance_length_inequality():
    violations = []
    for desc in (N23, N357, AFF3, FP21):
        for fs in fibers(desc, 14):
            for z1, z2 in itertools.combinations(fs.all, 2):
                d = factor.distance(z1, z2)
                if d < 2 + abs(z1.length - z2.length):
                    violations.append((desc, fs.element, z1, z2, d))
    for fs in fibers(SUM, 8):
        for z1, z2 in itertools.combinations(fs.all, 2):
            d = factor.distance(z1, z2)
            if d < 1 + abs(z1.length - z2.length):
                violations.append((SUM, fs.element, z1, z2, d))
    assert violations == []


# ---------------------------------------------------------------------------
# 4 and 5 share one sample of >= 200 elements over the four base models


SAMPLE_PLAN = [(N23, 40), (N357, 32), (AFF3, 16), (FP21, 12), (SUM, 6)]


def sample_reports():
    out = []
    for desc, bound in SAMPLE_PLAN:
        for fs in fibers(desc, bound):
            out.append((desc, fs, invariants.element_report(fs)))
    return out


def _monotone_failure(fs, n):
    """First ordered pair (shorter, longer) with no monotone n-chain."""
    zs = fs.all
    count = len(zs)
    dist = [[factor.distance(zs[i], zs[j]) for j in range(count)]
            for i in range(count)]
    for i in range(count):
        reach = {i}
        frontier = [i]
        while frontier:
            u = frontier.pop()
            for v in range(count):
                if v in reach or dist[u][v] > n:
                    continue
                if zs[v].length < zs[u].length:
                    continue
                reach.add(v)
                frontier.append(v)
        for j in range(count):
            if zs[j].length >= zs[i].length and j not in reach:
                return (i, j)
    return None


def test_criterion_04_monotone_catenary_certified():
    reports = sample_reports()
    assert len(reports) >= 200, len(reports)
    kinds = {type(desc) for desc, _, _ in reports}
    assert len(kinds) >= 4
    mismatches = []
    for desc, fs, r in reports:
        if r.c_mon != max(r.c_eq, r.c_adj):
            mismatches.append(("identity", desc, fs.element))
            continue
        if _monotone_failure(fs, r.c_mon) is not None:
            mismatches.append(("chain-at-c-mon", desc, fs.element))
            continue
        if r.c_mon > 0 and _monotone_failure(fs, r.c_mon - 1) is None:
            mismatches.append(("slack-below-c-mon", desc, fs.element))
    assert mismatches == []


def test_criterion_05_successive_distance_inequalities():
    reports = sample_reports()
    assert len(reports) >= 200
    violations = []
    for desc, fs, r in reports:
        if r.delta_w > r.delta_elem:
            violations.append(("weak-above-elementwise", desc, fs.element))
        gaps = r.lengths.delta()
        if len(r.lengths.lengths) >= 2:
            if r.c_adj > r.delta_w * max(gaps):
                violations.append(("adjacent-bound", desc, fs.element))
    assert violations == []


# ---------------------------------------------------------------------------
# 6: length sets of products are sumsets of component length sets


def test_criterion_06_product_length_transfer():
    prod = Product(factors=(N23, FP21), free_rank=0)
    left = [
        (el, invariants.length_set(factorizations(N23, el)))
        for el in invariants.enumerate_elements(N23, 10)
    ]
    right = [
        (el, invariants.length_set(factorizations(FP21, el)))
        for el in invariants.enumerate_elements(FP21, 10)
    ]
    mismatches = []
    for (a1, l1), (a2, l2) in itertools.product(left, right):
        el = models.canon(prod, ((a1, a2), ()))
        got = invariants.length_set(factorizations(prod, el))
        want = invariants.length_set_sumset(l1, l2)
        if got.lengths != want.lengths:
            mismatches.append((a1, a2, got.lengths, want.lengths))
        elif got.delta() != want.delta():
            mismatches.append((a1, a2, got.delta(), want.delta()))
    assert len(left) * len(right) >= 200
    assert mismatches == []


# ---------------------------------------------------------------------------
# 7: frozen golden values plus bit-for-bit oracle agreement


def test_criterion_07_golden_values_and_oracle_sweep():
    fs = factorizations(N23, 12)
    r = invariants.element_report(fs)
    assert r.lengths.lengths == (4, 5, 6)
    assert (r.c, r.c_mon, r.delta_w, r.c_eq) == (3, 3, 3, 0)

    fs = factorizations(FP21, (3, 3))
    r = invariants.element_report(fs)
    assert r.lengths.lengths == (2, 3)
    assert (r.c, r.c_adj, r.delta_w, r.c_eq) == (3, 3, 3, 0)

    prod = Product(factors=(N23, FP21), free_rank=1)
    sweep = [
        (N23, 12),
        (AFF3, 12),
        (FP21, 12),
        (
            FinitelyPrimaryValue(
                rank=2,
                exponent=2,
                exceptional=(Pattern(entries=(("exact", 1), ("atLeast", 1))),),
            ),
            12,
        ),
        (SUM, 7),
        (prod, 7),
    ]
    mismatches = []
    checked = 0
    for desc, bound in sweep:
        for el in bruteforce.brute_members(desc, bound):
            fs = factorizations(desc, el)
            got = bruteforce.factor_set_as_multisets(fs)
            want = bruteforce.brute_factorizations(desc, el)
            checked += 1
            if got != want:
                mismatches.append((desc, el, got, want))
    assert checked >= 150
    assert mismatches == []


# ---------------------------------------------------------------------------
# 8: structural bounds in rank-2 models with a smallest value element


FP_RANK2 = [
    FP21,
    FinitelyPrimaryValue(
        rank=2,
        exponent=2,
        exceptional=(Pattern(entries=(("exact", 1), ("atLeast", 1))),),
    ),
    FinitelyPrimaryValue(
        rank=2,
        exponent=2,
        exceptional=(Pattern(entries=(("atLeast", 1), ("exact", 1))),),
    ),
]


def test_criterion_08_rank_two_length_bounds():
    violations = []
    for desc in FP_RANK2:
        report = models.validate(desc, 2 * desc.exponent)
        assert report.valid
        mu = report.smallest_value_element
        assert mu is not None
        alpha = desc.exponent
        saw_multiple_lengths = False
        for el in invariants.enumerate_elements(desc, 16):
            if el == models.identity(desc):
                continue
            ls = invariants.length_set(factorizations(desc, el)).lengths
            top, bottom = max(ls), min(ls)
            if len(ls) > 1:
                saw_multiple_lengths = True
            slack = min(v - m * top for v, m in zip(el, mu))
            if not slack < alpha:
                violations.append(("max-length-slack", desc, el, slack))
            if not bottom <= 2 * alpha:
                violations.append(("min-length", desc, el, bottom))
        if not saw_multiple_lengths:
            violations.append(("half-factorial", desc))
    assert violations == []


# ---------------------------------------------------------------------------
# 9: AAMP checker against exhaustive subset search, randomized


def test_criterion_09_aamp_randomized_soundness():
    rng = random.Random(20240817)
    mismatches = 0
    witnessed = 0
    absences = 0
    for _ in range(1000):
        size = rng.randint(1, 12)
        top = rng.randint(size, 40)
        values = tuple(sorted(rng.sample(range(top + 1), size)))
        d = rng.randint(1, 6)
        m = rng.randint(0, 8)
        w = is_aamp(values, d, m)
        if w is not None:
            witnessed += 1
            if not verify_witness(values, d, m, w):
                mismatches += 1
        else:
            absences += 1
            if bruteforce.brute_aamp_exists(values, d, m):
                mismatches += 1
    assert witnessed > 0 and absences > 0
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 10: global estimates stabilize over a swept weight bound


def test_criterion_10_probe_stabilization():
    start = time.monotonic()
    sweeps = {}
    for bound in range(20, 61, 5):
        estimates, warnings = global_estimates(N357, bound)
        assert warnings == []
        sweeps[bound] = {e.name: e.value for e in estimates}
    bounds = sorted(sweeps)
    for name in ("delta_set", "rho", "c", "c_eq", "c_adj", "c_mon",
                 "delta", "delta_w"):
        series = [sweeps[b][name] for b in bounds]
        for prev, cur in zip(series, series[1:]):
            if name == "delta_set":
                assert set(prev) <= set(cur), name
            else:
                assert prev <= cur, name
        top_half = [sweeps[b][name] for b in bounds if b >= 40]
        assert len(set(map(repr, top_half))) == 1, (name, top_half)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
