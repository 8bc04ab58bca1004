"""Model isomorphisms as differential tests of the length questions and
``global``.

A numerical monoid, the affine monoid of dimension 1 on the same
generators and the product with that one slot and no free part are one
monoid in three encodings, with element literals n, [n] and
{"components": [n], "free": []}. Each model runs its own membership,
atoms, recurrence and weights, so through ``cli.main`` each checks the
others at bounds past the brute-force oracle's reach. So does the
rank-1 fp-value monoid of exponent e with no patterns, {0} and [e, oo),
against the numerical monoid on e, ..., 2e - 1.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import cli

REQUESTS = (
    ["structure-probe"],
    ["structure-probe", "--target", "unions", "--k-range", "2,6"],
    ["unions", "--k", "4"],
    ["global"],
)


def numerical(gens):
    return {"model": "numerical", "generators": list(gens)}


def affine(gens):
    return {"model": "affine", "dim": 1, "generators": [[g] for g in gens]}


def one_slot(gens):
    return {"model": "product", "freeRank": 0, "factors": [numerical(gens)]}


def as_numerical(value):
    """The report with each element literal written as its integer."""
    if isinstance(value, list):
        return [as_numerical(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {}
    for key, v in value.items():
        if key == "element":
            while not isinstance(v, int):
                v, = v["components"] if isinstance(v, dict) else v
        out[key] = as_numerical(v)
    return out


def answers(doc: dict, bound: int) -> list:
    """(results, warnings) of every request on the descriptor doc, with
    element literals mapped to integers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "monoid.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = []
        for request in REQUESTS:
            argv = [*request, "--monoid", path, "--bound", str(bound),
                    "--output", "json"]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert cli.main(argv) == 0, argv
            report = json.loads(stdout.getvalue())
            out.append(as_numerical([report["results"], report["warnings"]]))
        return out


@given(
    st.sets(st.integers(min_value=2, max_value=12), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=120),
)
@settings(max_examples=25, deadline=None)
def test_numerical_affine_and_one_slot_product_agree(gens, bound):
    gens = sorted(gens)
    expected = answers(numerical(gens), bound)
    assert answers(affine(gens), bound) == expected
    assert answers(one_slot(gens), bound) == expected


@pytest.mark.parametrize("exponent,bound", [(2, 120), (3, 120), (4, 80)])
def test_rank_one_fp_value_is_an_interval_numerical_monoid(exponent, bound):
    fp = {"model": "fp-value", "rank": 1, "exponent": exponent, "exceptional": []}
    gens = range(exponent, 2 * exponent)
    assert answers(fp, bound) == answers(numerical(gens), bound)
