"""The tracing harness of perfbench/ still runs against the package.

perfbench/trace_child.py replaces named functions on the package's
modules before it runs one CLI request. Renaming or removing one of them
should fail here, in the test suite, rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_traced(tmp_path, descriptor, argv):
    """Run one request under trace_child.py: (its JSON report, the trace)."""
    monoid = tmp_path / "monoid.json"
    monoid.write_text(json.dumps(descriptor))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(out),
         *argv, "--monoid", str(monoid), "--output", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(out.read_text())


def numerical(*generators):
    return {"model": "numerical", "generators": list(generators)}


FP_VALUE = {"model": "fp-value", "rank": 2, "exponent": 2,
            "exceptional": [[{"exact": 1}, {"atLeast": 1}]]}
PRODUCT = {"model": "product", "freeRank": 1,
           "factors": [numerical(2, 3), FP_VALUE]}


# Sweeps read their members off one mask and factorize decides membership
# by models.member_witness, whose witness it reuses: none calls membership.
@pytest.mark.parametrize("descriptor,argv,span,memberships,multiplies", [
    (numerical(2, 3), ["global", "--bound", "12"], "invariants.aggregate", 0,
     False),
    # <2,3> has one factorization per length, so no relation pair is
    # ever split; <3,4,5> has 3+5 = 4+4.
    (numerical(3, 4, 5), ["relation-atoms", "--length-bound", "3"],
     "relations.atoms", 0, True),
    (numerical(2, 3), ["factorize", "--element", "12"], "factor.enumerate", 0,
     False),
    (PRODUCT, ["factorize", "--element", "7;6,6;1"], "factor.enumerate", 0,
     False),
], ids=["global", "relation-atoms", "factorize", "factorize-product"])
def test_trace_child_records_spans_and_counts(tmp_path, descriptor, argv, span,
                                              memberships, multiplies):
    report, doc = run_traced(tmp_path, descriptor, argv)
    assert report["command"] == argv[0]
    assert span in {name for name, *_ in doc["spans"]}
    assert doc["counts"].get("models.membership.calls", 0) == memberships
    if multiplies:
        assert doc["counts"]["models.multiply.calls"] > 0


@pytest.mark.parametrize("descriptor,element", [
    (FP_VALUE, "14,14"),
    (PRODUCT, "7;6,6;1"),
], ids=["fp-value", "product"])
def test_fp_value_atoms_take_no_per_point_atom_test(tmp_path, descriptor,
                                                    element):
    report, doc = run_traced(tmp_path, descriptor,
                             ["factorize", "--element", element])
    assert doc["counts"].get("models.is_atom.calls", 0) == 0
    # A product's slot fibers are built inside its one factorizations call.
    assert doc["counts"]["factor.factorizations"] == len(
        report["results"]["factorizations"])


def test_structure_probe_fits_each_length_set_with_one_search(tmp_path):
    report, doc = run_traced(tmp_path, numerical(6, 9, 20),
                             ["structure-probe", "--bound", "60"])
    fits = sum(name == "aamp.fit" for name, *_ in doc["spans"])
    assert fits == len(report["results"]["perElement"]) == 39
    assert doc["counts"]["aamp.is_aamp.calls"] == fits
