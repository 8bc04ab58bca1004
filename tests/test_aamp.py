"""Almost-arithmetic structure detection and the sweep probes."""

import itertools
import json
import pathlib
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import Affine, LengthSet, Numerical, is_aamp, minimal_bound
from factorlab import aamp, models
from factorlab import verify_witness
from test_models import FP21, N23, SUM


# ---------------------------------------------------------------------------
# frozen witnesses


def test_plain_progression_needs_no_fuzz():
    w = is_aamp((2, 4, 6), 2, 0)
    assert w is not None
    assert w.shift == 2
    assert w.period == (0, 2)
    assert w.head == ()
    assert w.tail == ()
    assert verify_witness((2, 4, 6), 2, 0, w)


def test_single_point_is_trivial():
    w = is_aamp((7,), 3, 0)
    assert w is not None
    assert verify_witness((7,), 3, 0, w)
    assert minimal_bound((7,), 3) == 0


def test_fuzzy_tail_example():
    assert is_aamp((2, 3, 5), 1, 1) is None
    w = is_aamp((2, 3, 5), 1, 2)
    assert w is not None
    assert verify_witness((2, 3, 5), 1, 2, w)
    assert minimal_bound((2, 3, 5), 1) == 2


def test_minimal_bound_never_exceeds_span():
    random_sets = [
        sorted(random.Random(seed).sample(range(40), 5)) for seed in range(25)
    ]
    for values in random_sets:
        for d in (1, 2, 3):
            m = minimal_bound(values, d)
            assert 0 <= m <= values[-1] - values[0]
            assert is_aamp(values, d, m) is not None
            if m > 0:
                assert is_aamp(values, d, m - 1) is None


def test_minimal_bound_stops_at_the_first_shift_that_cannot_do_better(monkeypatch):
    """A 50-term progression needs 0 at its least shift, and every later
    shift y needs at least y - min L > 0: one fit finds the bound, and no
    witness is built."""
    fits = []
    fit = aamp._fit

    def spy(ls, d, y):
        fits.append(y)
        return fit(ls, d, y)

    monkeypatch.setattr(aamp, "_fit", spy)
    values = range(7, 7 + 3 * 50, 3)
    assert aamp.minimal_bound(values, 3) == 0
    assert len(fits) == 1


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        is_aamp((), 2, 0)
    with pytest.raises(ValueError):
        is_aamp((1, 2), 0, 0)
    with pytest.raises(ValueError):
        is_aamp((1, 2), 2, -1)


def test_accepts_length_set_wrapper():
    assert minimal_bound(LengthSet(lengths=(4, 5, 6)), 1) == 0


# ---------------------------------------------------------------------------
# witness checker is independent of the search


def test_verify_witness_rejects_tampering():
    w = is_aamp((2, 4, 6), 2, 0)
    bad = aamp.AAMPWitness(
        shift=w.shift,
        difference=w.difference,
        period=(0, 1, 2),
        bound=w.bound,
        head=w.head,
        middle=w.middle,
        tail=w.tail,
    )
    assert not verify_witness((2, 4, 6), 2, 0, bad)


@given(
    st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_search_agrees_with_subset_bruteforce(values, d, m):
    values = tuple(sorted(values))
    w = is_aamp(values, d, m)
    assert (w is not None) == bruteforce.brute_aamp_exists(values, d, m)
    if w is not None:
        assert verify_witness(values, d, m, w)


def test_verify_witness_memory_does_not_grow_with_d():
    d = 10**6
    w = is_aamp((0, 5, 9, 13), d, 0)
    tracemalloc.start()
    try:
        assert verify_witness((0, 5, 9, 13), d, 0, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def rebuilt_middle_reference(L, d, M, w) -> bool:
    """verify_witness with the middle rebuilt value by value from 0 to its
    top, the checker's former form: time linear in the middle's span."""
    ls = sorted(set(L))
    if not ls or d < 1 or M < 0 or w.difference != d or w.bound != M:
        return False
    period = set(w.period)
    if not {0, d} <= period or not all(p in range(d + 1) for p in period):
        return False
    if not w.middle or w.middle[0] != 0:
        return False
    res = {p % d for p in period}
    top = w.middle[-1]
    if list(w.middle) != [x for x in range(top + 1) if x % d in res]:
        return False
    if any(x < -M or x > -1 for x in w.head):
        return False
    if any(x < top + 1 or x > top + M for x in w.tail):
        return False
    rebuilt = sorted(w.shift + x for x in w.head + w.middle + w.tail)
    if rebuilt != ls:
        return False
    return all((x - w.shift) % d in res for x in ls)


@given(
    st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=14),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_verify_witness_agrees_with_the_rebuilt_middle(values, d, data):
    """Valid and corrupted witnesses, with L rebuilt from the corrupted
    parts so that the middle clause alone can decide."""
    w = is_aamp(values, d, minimal_bound(values, d))
    mid = list(w.middle)
    edit = data.draw(st.sampled_from(["keep", "drop", "add", "repeat", "swap",
                                      "random"]))
    if edit == "drop" and len(mid) > 1:
        del mid[data.draw(st.integers(0, len(mid) - 1))]
    elif edit == "add":
        mid.append(data.draw(st.integers(0, mid[-1] + 2 * d)))
        mid.sort()
    elif edit == "repeat":
        mid.insert(0, mid[0])
    elif edit == "swap" and len(mid) > 1:
        i = data.draw(st.integers(0, len(mid) - 2))
        mid[i], mid[i + 1] = mid[i + 1], mid[i]
    elif edit == "random":
        mid = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))
    period = w.period
    if data.draw(st.booleans()):
        period = data.draw(st.sets(st.integers(0, d), max_size=d + 1).map(
            lambda ps: tuple(sorted(ps | {0, d}))))
    w = w._replace(middle=tuple(mid), period=period)
    ls = [w.shift + x for x in w.head + w.middle + w.tail]
    m = w.bound
    assert verify_witness(ls, d, m, w) == rebuilt_middle_reference(ls, d, m, w)


def test_verify_witness_of_a_middle_near_a_trillion_is_quick():
    values, d = (0, 7, 10**12), 10**12
    w = is_aamp(values, d, 0)
    assert w is not None and w.middle == values
    start = time.perf_counter()
    assert verify_witness(values, d, 0, w)
    assert not verify_witness(values, d, 0, w._replace(middle=(0, 10**12)))
    assert time.perf_counter() - start < 1


@given(
    st.lists(st.integers(min_value=-15, max_value=40), min_size=1, max_size=10),
    st.one_of(st.integers(min_value=1, max_value=12), st.just(10**6)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_search_returns_the_generate_and_verify_witness(values, d, data):
    span = max(values) - min(values)
    m = data.draw(st.integers(min_value=0, max_value=span + 1))
    assert is_aamp(values, d, m) == bruteforce.brute_first_witness(values, d, m)
    least = next(b for b in itertools.count()
                 if bruteforce.brute_first_witness(values, d, b) is not None)
    assert minimal_bound(values, d) == least
    assert is_aamp(values, d, minimal_bound(values, d)) == (
        bruteforce.brute_first_witness(values, d, least))


@given(
    st.lists(st.integers(min_value=-8, max_value=20), min_size=1, max_size=7),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=150, deadline=None)
def test_minimal_bound_is_the_least_bound_with_any_witness(values, d):
    least = next(m for m in itertools.count()
                 if bruteforce.brute_aamp_exists(values, d, m))
    assert minimal_bound(values, d) == least


@given(
    st.sets(st.integers(min_value=0, max_value=25), min_size=1, max_size=7),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-3, max_value=50),
)
@settings(max_examples=80, deadline=None)
def test_minimal_bound_is_shift_invariant(values, d, t):
    values = tuple(sorted(values))
    shifted = tuple(v + t for v in values)
    assert minimal_bound(values, d) == minimal_bound(shifted, d)


def test_constructed_progressions_are_recognized_and_closed():
    rng = random.Random(321)
    for _ in range(150):
        d = rng.randint(1, 4)
        period = sorted({0, d, *(x for x in range(1, d) if rng.random() < 0.4)})
        residues = {p % d for p in period}
        reps = rng.randint(1, 5)
        top = reps * d
        middle = {
            p + j * d
            for j in range(reps + 1)
            for p in period
            if p + j * d <= top
        }
        m = rng.randint(0, 4)
        # head and tail must stay inside the period's residue classes
        head = {
            -(k + 1)
            for k in range(m)
            if -(k + 1) % d in residues and rng.random() < 0.5
        }
        tail = {
            top + k + 1
            for k in range(m)
            if (top + k + 1) % d in residues and rng.random() < 0.5
        }
        y = rng.randint(0, 30)
        values = tuple(sorted(y + v for v in head | middle | tail))
        w = is_aamp(values, d, m)
        assert w is not None, (values, d, m)
        assert verify_witness(values, d, m, w)

        # members stay closed under difference steps inside the fuzz margin
        lo, hi = values[0], values[-1]
        members = set(values)
        for x in values:
            for t in range(-(hi - lo) // d - 1, (hi - lo) // d + 2):
                s = x + t * d
                if lo + m <= s <= hi - m:
                    assert s in members, (values, d, m, x, s)


# ---------------------------------------------------------------------------
# probes


def test_structure_probe_on_interval_sets():
    report, warnings = aamp.structure_probe(N23, 16)
    assert report["mStar"] == 0
    assert report["stabilized"]
    assert report["dCandidates"] == [1]
    assert warnings == []
    assert all(row["m"] == 0 for row in report["perElement"])


def test_structure_probe_with_explicit_candidates():
    # intervals absorb any difference via the full period [0, d]
    report, _ = aamp.structure_probe(N23, 14, d_candidates=(2, 3))
    assert report["dCandidates"] == [2, 3]
    assert report["mStar"] == 0
    assert all(row["d"] == 2 for row in report["perElement"])


def test_structure_probe_interval_models_need_no_fuzz():
    free = Affine(dim=2, generators=((1, 0), (0, 1)))
    assert aamp.structure_probe(free, 6)[0]["mStar"] == 0
    assert aamp.structure_probe(FP21, 12)[0]["mStar"] == 0


def test_structure_probe_weighs_each_member_once(monkeypatch):
    # the running maximum reads the weights the atom recurrence returns
    calls = []
    weight = models.weight

    def spy(desc, el):
        calls.append(el)
        return weight(desc, el)

    monkeypatch.setattr(models, "weight", spy)
    report, warnings = aamp.structure_probe(Numerical(generators=(6, 9, 20)), 1000)
    assert len(report["perElement"]) == 979 and warnings == []
    assert len(calls) == len(set(calls)) == 979


def test_unions_probe_trivial_when_no_gaps():
    half_factorial, _ = aamp.unions_structure_probe(
        Numerical(generators=(2,)), range(1, 4), 12
    )
    assert half_factorial["trivial"]


def test_unions_probe_reports_density():
    report, _ = aamp.unions_structure_probe(N23, range(2, 9), 40)
    assert not report["trivial"]
    assert report["dmin"] == 1
    rows = {row["k"]: row for row in report["rows"]}
    assert rows[4]["union"] == [3, 4, 5, 6]
    assert all(row["m"] == 0 for row in report["rows"])
    assert all(row["d"] == 1 for row in report["rows"])


BENCH = pathlib.Path(__file__).parents[1] / "perfbench" / "descriptors"


def bench_model(name):
    return models.descriptor_from_json(json.loads((BENCH / f"{name}.json").read_text()))


def probe_rows(desc, bound):
    """(length set, d, m, candidate differences) of every row of both probes."""
    report, _ = aamp.structure_probe(desc, bound)
    for row in report["perElement"]:
        yield row["lengths"], row["d"], row["m"], report["dCandidates"]
    report, _ = aamp.unions_structure_probe(desc, range(2, 41), bound)
    assert not report["trivial"]
    for row in report["rows"]:
        yield row["union"], row["d"], row["m"], {1, report["dmin"]}


@pytest.mark.parametrize("name,bound", [
    ("numerical", 1000), ("fp-value", 20), ("product", 10),
])
def test_probe_bounds_have_a_witness_and_are_least(name, bound):
    """The probes print the bound-only scan's bounds: each has a witness,
    rechecked, and no candidate difference fits one below it."""
    rows = list(probe_rows(bench_model(name), bound))
    assert len(rows) > 100
    for ls, d, m, ds in rows:
        w = is_aamp(ls, d, m)
        assert w is not None and verify_witness(ls, d, m, w), (ls, d, m)
        if m:
            assert all(is_aamp(ls, e, m - 1) is None for e in ds), (ls, d, m)
