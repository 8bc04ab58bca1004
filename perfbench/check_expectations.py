"""Cross-check the stored expectations against brute-force oracles.

Usage: python3 -m pytest perfbench/check_expectations.py

The benchmark scores a run against ``expected.json.gz``, recorded from
the program itself. These checks recompute the small cases from the
definitions, with the oracles of ``tests/bruteforce.py`` (imported, not
modified), so a recording cannot enshrine a wrong answer unnoticed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (HERE, ROOT / "src", ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import bruteforce  # noqa: E402
import corpus  # noqa: E402
from factorlab import cli, factor, models  # noqa: E402

EXPECTED = corpus.load_expected()

# Largest sweep bound per model that the oracles finish quickly.
ORACLE_BOUND = {"numerical": 150, "affine": 14, "fp-value": 16,
                "sumset": 12, "product": 8}
# Fibers up to this size also get the quartic monotone-catenary oracle.
MONOTONE_LIMIT = 40


def _parse(key: str):
    ns = cli.build_parser().parse_args(key.split(" "))
    model = Path(ns.monoid).stem
    return ns, model, cli.load_descriptor(str(ROOT / ns.monoid))


def _requests(*commands: str) -> list[str]:
    """Recorded requests of these commands whose bound the oracles reach."""
    keys = []
    for key in EXPECTED:
        ns, model, _ = _parse(key)
        if ns.command in commands and (ns.bound is None or
                                       ns.bound <= ORACLE_BOUND[model]):
            keys.append(key)
    return sorted(keys)


def _fiber(desc, el) -> factor.FactorSet:
    """The library's fiber, after checking it against the oracle."""
    fs = factor.factorizations(desc, el)
    assert bruteforce.factor_set_as_multisets(fs) == \
        bruteforce.brute_factorizations(desc, el), el
    return fs


def _row(desc, el) -> dict:
    """Element invariants from the oracles, keyed like the CLI reports."""
    fs = _fiber(desc, el)
    lengths = list(fs.lengths)
    row = {
        "lengthSet": lengths,
        "delta": sorted({b - a for a, b in zip(lengths, lengths[1:])}),
        "rho": Fraction(lengths[-1], lengths[0]) if lengths[0] else Fraction(1),
        "c": bruteforce.brute_catenary(fs),
        "cEq": bruteforce.brute_equal_catenary(fs),
        "cAdj": bruteforce.brute_adjacent_catenary(fs),
        "deltaElem": bruteforce.brute_element_successive_distance(fs),
        "deltaW": bruteforce.brute_weak_successive_distance(fs),
    }
    if len(fs.all) <= MONOTONE_LIMIT:
        row["cMon"] = bruteforce.brute_monotone_catenary(fs)
    return row


def test_every_drawable_request_is_recorded():
    catalogue = {corpus.request_key(args)
                 for w in corpus.WORKLOADS for args in corpus.catalogue(w)}
    assert catalogue == set(EXPECTED)
    for workload in corpus.WORKLOADS:
        for seed in range(50):
            requests = corpus.generate(workload, seed)
            assert requests == corpus.generate(workload, seed)
            assert len(requests) >= 20
            assert {corpus.request_key(a) for a in requests} <= catalogue


@pytest.mark.parametrize("key", _requests(
    "global", "unions", "structure-probe", "relation-atoms"))
def test_sweep_work_counts(key):
    ns, _, desc = _parse(key)
    bound = ns.bound
    if bound is None:
        # relation-atoms defaults to length bound times the heaviest generator
        bound = ns.length_bound * max(models.weight(desc, g) for g in desc.generators)
        assert EXPECTED[key]["results"]["enumeration"]["weightBound"] == bound
    members = bruteforce.brute_members(desc, bound)
    assert EXPECTED[key]["elements"] == len(members)
    assert EXPECTED[key]["factorizations"] == sum(
        len(bruteforce.brute_factorizations(desc, el)) for el in members)


@pytest.mark.parametrize("key", _requests("global"))
def test_global_estimates(key):
    ns, _, desc = _parse(key)
    members = bruteforce.brute_members(desc, ns.bound)
    rows = [(models.weight(desc, el), _row(desc, el)) for el in members]
    names = {"delta_set": "delta", "rho": "rho", "c": "c", "c_eq": "cEq",
             "c_adj": "cAdj", "c_mon": "cMon", "delta": "deltaElem",
             "delta_w": "deltaW"}
    for estimate in EXPECTED[key]["results"]["estimates"]:
        field = names[estimate["name"]]
        series = []
        for b in range(ns.bound + 1):
            seen = [row[field] for w, row in rows if w <= b]
            if field == "delta":
                series.append(sorted({g for gaps in seen for g in gaps}))
            else:
                series.append(max(seen, default=Fraction(1) if field == "rho" else 0))
        value = series[-1]
        assert estimate["value"] == (str(value) if field == "rho" else value), estimate
        top = [str(v) for v in series[ns.bound // 2:]]
        assert estimate["stabilized"] == (len(set(top)) == 1), estimate


@pytest.mark.parametrize("key", _requests("unions"))
def test_unions(key):
    ns, _, desc = _parse(key)
    union = {ns.k}
    for el in bruteforce.brute_members(desc, ns.bound):
        lengths = {sum(m for _, m in z)
                   for z in bruteforce.brute_factorizations(desc, el)}
        if ns.k in lengths:
            union |= lengths
    results = EXPECTED[key]["results"]
    assert results["union"] == sorted(union)
    assert results["rhoK"] == max(union)


@pytest.mark.parametrize("key", _requests("factorize"))
def test_fiber_factorizations(key):
    """Every stored factorization is a distinct multiset of atoms of a,
    and the element's recorded invariants agree on its length set.

    These fibers are too large for the exhaustive oracle to confirm that
    none is missing; the growth rows below cover completeness.
    """
    ns, _, desc = _parse(key)
    el = models.parse_element_literal(desc, ns.element)
    results = EXPECTED[key]["results"]
    atoms = [models.canon(desc, u) for u in results["atoms"]]
    assert all(bruteforce.brute_is_atom(desc, u) for u in atoms)
    seen = set()
    for entry in results["factorizations"]:
        counts = tuple((i, m) for i, m in entry["counts"])
        product = models.identity(desc)
        for i, m in counts:
            for _ in range(m):
                product = models.multiply(desc, product, atoms[i])
        assert product == el and entry["length"] == sum(m for _, m in counts)
        seen.add(counts)
    assert len(seen) == len(results["factorizations"])
    assert EXPECTED[key]["factorizations"] == len(seen)
    lengths = sorted({entry["length"] for entry in results["factorizations"]})
    report = EXPECTED[key.replace("factorize", "invariants", 1)]["results"]
    assert report["lengthSet"] == results["lengthSet"] == lengths
    assert report["rho"] == str(Fraction(lengths[-1], lengths[0]))


@pytest.mark.parametrize("key", _requests("probe-growth"))
def test_growth_rows(key):
    ns, model, desc = _parse(key)
    rows = EXPECTED[key]["results"]["rows"]
    checked = 0
    for row in rows:
        el = models.canon(desc, row["element"])
        if models.weight(desc, el) > ORACLE_BOUND[model]:
            continue
        oracle = _row(desc, el)
        for field in ("lengthSet", "delta", "c", "deltaW", "cMon"):
            if field in oracle:
                assert row[field] == oracle[field], (row["element"], field)
        assert row["rho"] == str(oracle["rho"])
        checked += 1
    assert checked >= 1
