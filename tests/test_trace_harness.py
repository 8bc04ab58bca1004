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


@pytest.mark.parametrize("generators,argv,multiplies", [
    ([2, 3], ["global", "--bound", "12"], False),
    # <2,3> has one factorization per length, so no relation pair is
    # ever split; <3,4,5> has 3+5 = 4+4.
    ([3, 4, 5], ["relation-atoms", "--length-bound", "3"], True),
], ids=["global", "relation-atoms"])
def test_trace_child_records_spans_and_counts(tmp_path, generators, argv,
                                              multiplies):
    monoid = tmp_path / "monoid.json"
    monoid.write_text(json.dumps({"model": "numerical", "generators": generators}))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(out),
         *argv, "--monoid", str(monoid), "--output", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
    doc = json.loads(out.read_text())
    assert doc["spans"]
    assert doc["counts"]["models.membership.calls"] > 0
    if multiplies:
        assert doc["counts"]["models.multiply.calls"] > 0
