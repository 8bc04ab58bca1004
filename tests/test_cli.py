"""Command line surface: envelopes, exit codes, the retired cache, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import cli, errors, factor, models
from test_length_table import SUM_PROD
from test_models import AFF, FP22, N23, PROD, SUM

N23_DOC = {"model": "numerical", "generators": [2, 3]}
FP_DOC = {
    "model": "fp-value",
    "rank": 2,
    "exponent": 2,
    "exceptional": [[{"exact": 1}, {"atLeast": 1}]],
}
AFF_DOC = {"model": "affine", "dim": 2,
           "generators": [[2, 0], [1, 1], [0, 2], [3, 0], [0, 3]]}


@pytest.fixture
def n23_path(tmp_path):
    path = tmp_path / "n23.json"
    path.write_text(json.dumps(N23_DOC))
    return str(path)


@pytest.fixture
def fp_path(tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(FP_DOC))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--output", "json"])
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# envelopes


def test_invariants_envelope(capsys, n23_path):
    doc = run_json(capsys, ["invariants", "--monoid", n23_path,
                            "--element", "12"])
    assert doc["command"] == "invariants"
    assert set(doc) == {"command", "descriptorHash", "bounds", "results",
                        "warnings"}
    assert doc["results"]["lengthSet"] == [4, 5, 6]
    assert doc["results"]["rho"] == "3/2"
    assert doc["results"]["cMon"] == 3
    assert len(doc["descriptorHash"]) == 64


def test_table_output_renders_keys(capsys, n23_path):
    code, out, err = run(capsys, ["invariants", "--monoid", n23_path,
                                  "--element", "12"])
    assert code == 0
    assert "lengthSet:" in out
    assert "cMon: 3" in out


def test_validate_defaults_bound(capsys, fp_path):
    doc = run_json(capsys, ["validate", "--monoid", fp_path])
    assert doc["results"]["valid"] is True
    assert doc["results"]["smallestValueElement"] == [1, 1]


def test_bound_help_names_what_validate_reads_it_as(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["validate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "per-coordinate bound of the fp-value closure check" in text
    assert "at least the largest generator weight" in text


def test_aamp_check_minimal_bound(capsys):
    doc = run_json(capsys, ["aamp-check", "--set", "2,3,5",
                            "--difference", "1"])
    assert doc["results"]["minimalBound"] == 2
    assert doc["results"]["witness"]["shift"] == 2


def test_aamp_check_fixed_bound(capsys):
    doc = run_json(capsys, ["aamp-check", "--set", "2,3,5",
                            "--difference", "1", "--m", "1"])
    assert doc["results"]["isMatch"] is False
    assert doc["results"]["witness"] is None


def test_unions_command(capsys, n23_path):
    doc = run_json(capsys, ["unions", "--monoid", n23_path, "--k", "4",
                            "--bound", "24"])
    assert doc["results"]["union"] == [3, 4, 5, 6]
    assert doc["results"]["rhoK"] == 6


def test_verify_example_names(capsys):
    doc = run_json(capsys, ["verify-example", "--name", "3.2",
                            "--k-max", "3"])
    assert all(c["ok"] for c in doc["results"]["checks"])
    doc = run_json(capsys, ["verify-example", "--name", "3.3",
                            "--k-max", "2"])
    assert len(doc["results"]["rows"]) == 2


def test_probe_growth_power_family(capsys, n23_path):
    doc = run_json(capsys, ["probe-growth", "--monoid", n23_path,
                            "--family", "power", "--element", "6",
                            "--n-max", "4"])
    rows = doc["results"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert doc["results"]["stabilized"] is True


@pytest.mark.parametrize("doc,step", [(FP_DOC, 2), (AFF_DOC, 1)],
                         ids=["fp-value", "affine"])
def test_probe_growth_rows_are_invariant_report_subsets(capsys, tmp_path, doc,
                                                         step):
    """The diagonal family steps by (e, e) on an fp-value model of
    exponent e and by (1, 1) on an affine model."""
    from factorlab import invariants

    path = tmp_path / "desc.json"
    path.write_text(json.dumps(doc))
    doc = run_json(capsys, ["probe-growth", "--monoid", str(path),
                            "--family", "diagonal", "--n-max", "3"])
    rows = doc["results"]["rows"]
    assert len(rows) == 3
    desc = cli.load_descriptor(str(path))
    base, current = models.canon(desc, (step, step)), models.identity(desc)
    for n, row in enumerate(rows, 1):
        current = models.multiply(desc, current, base)
        assert row["element"] == [n * step] * 2
        report = invariants.element_report(
            factor.factorizations(desc, current)).to_json(desc)
        keys = ("element", "lengthSet", "delta", "rho", "c", "cMon", "deltaW")
        expected = {"n": n, **{key: report[key] for key in keys}}
        assert row == json.loads(json.dumps(expected))


def test_aamp_check_fits_with_one_search(capsys, monkeypatch):
    from factorlab import aamp

    calls = []
    search = aamp.is_aamp
    monkeypatch.setattr(aamp, "is_aamp",
                        lambda *args: calls.append(args) or search(*args))
    doc = run_json(capsys, ["aamp-check", "--set", "2,3,5", "--d", "1"])
    assert doc["results"]["minimalBound"] == 2
    assert doc["results"]["witness"]["shift"] == 2
    assert len(calls) == 1


@pytest.mark.parametrize("desc,bound", [
    (N23, 16), (AFF, 7), (FP22, 8), (SUM, 6), (PROD, 5), (SUM_PROD, 5),
], ids=["N23", "AFF", "FP22", "SUM", "PROD", "SUM_PROD"])
@pytest.mark.parametrize("budget", [factor.DEFAULT_BUDGET, 2],
                         ids=["budget-default", "budget-2"])
def test_library_reports_are_the_printed_results(capsys, tmp_path, desc, bound,
                                                 budget):
    """Both probes and the unions of lengths return JSON values that the CLI
    prints unchanged under ``results``, with their warnings beside them."""
    from factorlab import aamp, invariants

    path = tmp_path / "desc.json"
    path.write_text(json.dumps(models.descriptor_to_json(desc)))
    common = ["--monoid", str(path), "--bound", str(bound),
              "--budget", str(budget), "--output", "json"]
    for call, argv in [
        (lambda: aamp.structure_probe(desc, bound, None, budget),
         ["structure-probe"]),
        (lambda: aamp.unions_structure_probe(desc, range(7), bound, budget),
         ["structure-probe", "--target", "unions", "--k-range", "0,6"]),
        (lambda: invariants.unions_of_lengths(desc, 3, bound, budget),
         ["unions", "--k", "3"]),
    ]:
        report, warnings = call()
        code, out, err = run(capsys, argv + common)
        assert code == 0, err
        printed = json.loads(out)
        assert models.canonical_dumps(report) == models.canonical_dumps(
            printed["results"])
        assert json.loads(models.canonical_dumps(report)) == report
        assert warnings == printed["warnings"]


def test_relation_atoms_lists_the_library_atoms(capsys, tmp_path):
    from factorlab import relations

    path = tmp_path / "n345.json"
    path.write_text(json.dumps({"model": "numerical", "generators": [3, 4, 5]}))
    results = run_json(capsys, ["relation-atoms", "--monoid", str(path),
                                "--length-bound", "3"])["results"]
    desc = models.Numerical(generators=(3, 4, 5))
    found, _ = relations.relation_atoms(desc, 3)
    assert found
    assert all(bruteforce.brute_is_relation_atom(desc, p) for p in found)
    assert results["atoms"] == [p.to_json(desc) for p in found]
    assert results["count"] == len(found)
    assert results["enumeration"] == {"lengthBound": 3, "weightBound": 15}


def test_structure_probe_unions_target(capsys, n23_path):
    doc = run_json(capsys, ["structure-probe", "--monoid", n23_path,
                            "--bound", "20", "--target", "unions",
                            "--k-range", "2,5"])
    assert doc["results"]["trivial"] is False
    assert [row["k"] for row in doc["results"]["rows"]] == [2, 3, 4, 5]


def test_unions_probe_warns_once_per_overflowed_element(capsys, tmp_path):
    path = tmp_path / "n6920.json"
    path.write_text(json.dumps({"model": "numerical", "generators": [6, 9, 20]}))
    doc = run_json(capsys, ["structure-probe", "--monoid", str(path),
                            "--bound", "60", "--target", "unions",
                            "--k-range", "2,4", "--budget", "2"])
    desc = models.Numerical(generators=(6, 9, 20))
    over = [n for n in range(61) if models.membership(desc, n)
            and len(factor.factorizations(desc, n).all) > 2]
    assert len(over) == 9
    assert doc["warnings"] == [
        {"element": n, "error": "budget-exceeded", "budget": 2} for n in over
    ]


@pytest.mark.parametrize("generators,budget,reason", [
    ([2], "40", "no length gaps below the bound (half-factorial so far)"),
    # <6,9,20> is not half-factorial: a member with two lengths has two
    # factorizations, so budget 1 drops it, and budget 0 drops every member.
    ([6, 9, 20], "1", "no length gaps below the bound among the rows read; "
     "members past the budget were not read"),
    ([6, 9, 20], "0", "no length gaps below the bound among the rows read; "
     "members past the budget were not read"),
], ids=["half-factorial", "budget-1", "budget-0"])
def test_a_trivial_unions_probe_says_why(capsys, tmp_path, generators, budget,
                                         reason):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"model": "numerical", "generators": generators}))
    doc = run_json(capsys, ["structure-probe", "--monoid", str(path),
                            "--bound", "30", "--target", "unions",
                            "--k-range", "0,3", "--budget", budget])
    assert doc["results"] == {"trivial": True, "reason": reason, "bound": 30,
                              "rows": []}
    assert bool(doc["warnings"]) == (budget != "40")


def test_validate_reports_non_minimal_generators(capsys, tmp_path):
    path = tmp_path / "n234.json"
    path.write_text(json.dumps({"model": "numerical", "generators": [2, 3, 4]}))
    doc = run_json(capsys, ["validate", "--monoid", str(path)])
    assert doc["results"]["valid"] is True
    assert doc["results"]["nonMinimalGenerators"] == [4]


def test_atoms_of_a_deep_affine_element(capsys, tmp_path):
    path = tmp_path / "a23.json"
    path.write_text(json.dumps({"model": "affine", "dim": 1,
                                "generators": [[2], [3]]}))
    doc = run_json(capsys, ["atoms", "--monoid", str(path),
                            "--element", "5000"])
    assert doc["results"]["atoms"] == [[2], [3]]


@pytest.mark.parametrize("argv", [
    ["global", "--bound", "30"],
    ["unions", "--bound", "30", "--k", "4"],
], ids=["global", "unions"])
def test_one_dimensional_affine_sweeps_match_numerical(capsys, tmp_path,
                                                       n23_path, argv):
    path = tmp_path / "a23.json"
    path.write_text(json.dumps({"model": "affine", "dim": 1,
                                "generators": [[2], [3]]}))
    affine = run_json(capsys, [*argv, "--monoid", str(path)])
    numerical = run_json(capsys, [*argv, "--monoid", n23_path])
    assert affine["results"] == numerical["results"]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(capsys, n23_path):
    code, _, _ = run(capsys, ["atoms", "--monoid", n23_path,
                              "--element", "12"])
    assert code == 0


def test_exit_two_on_nonmember(capsys, n23_path):
    code, out, err = run(capsys, ["atoms", "--monoid", n23_path,
                                  "--element", "1"])
    assert code == 2
    assert "member" in err


@pytest.mark.parametrize("doc,command,literal", [
    (N23_DOC, "factorize", "1"),
    ({"model": "affine", "dim": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
     "factorize", "1,0"),
    (FP_DOC, "invariants", "1,0"),
    ({"model": "sumset", "generators": [[0, 1], [0, 2]]}, "factorize", "{0,5}"),
    ({"model": "product", "freeRank": 1,
      "factors": [N23_DOC, dict(FP_DOC, exceptional=[])]},
     "atoms", "1;1,1;1"),
], ids=["numerical", "affine", "fp-value", "sumset", "product"])
def test_nonmember_is_named_as_written(capsys, tmp_path, doc, command, literal):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, [command, "--monoid", str(path),
                                  "--element", literal])
    assert (code, out) == (2, "")
    assert err == f"factorlab: {literal} is not a member\n"


@pytest.mark.parametrize("first,literal", [
    (N23_DOC, "600;1"),
    (dict(FP_DOC, exponent=3), "4,6;1"),
], ids=["overflowing", "unclosed"])
def test_a_product_non_member_wins_over_an_earlier_slot(capsys, tmp_path, first,
                                                        literal):
    """Every slot is decided a member before any is factored, so a later
    non-member slot is reported even when the first slot would overflow
    the budget or fail its closure check."""
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"model": "product", "freeRank": 0,
                                "factors": [first, N23_DOC]}))
    code, out, err = run(capsys, ["factorize", "--monoid", str(path),
                                  "--element", literal, "--budget", "5"])
    assert (code, out) == (2, "")
    assert err == f"factorlab: {literal} is not a member\n"


def test_exit_two_on_malformed_descriptor(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "numerical"}')
    code, _, err = run(capsys, ["validate", "--monoid", str(bad)])
    assert code == 2


def test_exit_two_on_a_descriptor_nested_past_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "deep.json"
    text = json.dumps(N23_DOC)
    for _ in range(500):
        text = '{"model": "product", "freeRank": 0, "factors": [' + text + "]}"
    path.write_text(text)
    code, out, err = run(capsys, ["validate", "--monoid", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"factorlab: invalid JSON in {path}: maximum recursion")
    assert err.count("\n") == 1


def test_interrupt_exits_130_in_one_line(capsys, n23_path, monkeypatch):
    def interrupted(args, desc):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "global", interrupted)
    code, out, err = run(capsys, ["global", "--monoid", n23_path, "--bound", "10"])
    assert (code, out, err) == (130, "", "factorlab: interrupted\n")


def test_out_of_memory_exits_3_in_one_line(capsys, n23_path, monkeypatch):
    def exhausted(desc, top):
        raise MemoryError

    monkeypatch.setattr(models, "member_mask", exhausted)
    code, out, err = run(capsys, ["factorize", "--monoid", n23_path,
                                  "--element", "10" + "0" * 12])
    assert (code, out, err) == (cli.EXIT_BUDGET, "", "factorlab: out of memory\n")


def test_exit_two_on_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["validate", "--monoid",
                                str(tmp_path / "absent.json")])
    assert code == 2


def test_exit_two_on_missing_required_bound(capsys, n23_path):
    code, _, err = run(capsys, ["global", "--monoid", n23_path])
    assert code == 2
    assert "--bound" in err


def test_exit_three_on_budget(capsys, n23_path):
    code, _, err = run(capsys, ["factorize", "--monoid", n23_path,
                                "--element", "600", "--budget", "40"])
    assert code == 3
    assert "budget" in err


def test_invariants_exits_three_on_a_table_past_the_limit(capsys, monkeypatch,
                                                          n23_path):
    """Z(24) of <2, 3> holds 5 factorizations: a 25-entry table."""
    from factorlab import invariants

    argv = ["invariants", "--monoid", n23_path, "--element", "24"]
    monkeypatch.setattr(invariants, "TABLE_LIMIT", 24)
    assert run(capsys, argv) == (3, "", "factorlab: distance table of more than 4 "
                                 "factorizations passes the limit of 24 entries\n")
    monkeypatch.setattr(invariants, "TABLE_LIMIT", 25)
    assert run(capsys, argv)[0] == 0


def test_invariants_enumerates_no_further_than_the_table_limit(capsys, monkeypatch,
                                                              n23_path):
    """At TABLE_LIMIT 24 the fiber is enumerated to isqrt(24) = 4
    factorizations at most; a smaller budget still stops it first."""
    from factorlab import invariants

    budgets = []
    enumerate_fiber = factor.factorizations

    def spy(desc, el, budget):
        budgets.append(budget)
        return enumerate_fiber(desc, el, budget)

    monkeypatch.setattr(factor, "factorizations", spy)
    monkeypatch.setattr(invariants, "TABLE_LIMIT", 24)
    argv = ["invariants", "--monoid", n23_path, "--element", "24"]
    assert run(capsys, argv)[0] == 3
    assert run(capsys, argv + ["--budget", "3"]) == (
        3, "", "factorlab: enumeration budget 3 exhausted\n")
    assert budgets == [4, 3]


def test_sumset_global_builds_no_fiber_past_the_table_cap(capsys, monkeypatch,
                                                         tmp_path):
    """The sumset of {0} and every nonempty subset of {1, 2, 3, 4}: below
    weight 22 only [0, 22] has more than isqrt(TABLE_LIMIT) = 5,000
    factorizations (5,976). The recurrence builds no fiber past that cap;
    the exact count still decides between the table error and a budget
    warning."""
    gens = [[0, *s] for r in range(1, 5) for s in itertools.combinations(range(1, 5), r)]
    path = tmp_path / "sum4.json"
    path.write_text(json.dumps({"model": "sumset", "generators": gens}))
    budgets = []
    recur = factor.atom_recurrence

    def spy(desc, members, budget=None):
        budgets.append(budget)
        return recur(desc, members, budget)

    monkeypatch.setattr(factor, "atom_recurrence", spy)
    argv = ["global", "--monoid", str(path), "--bound", "22"]
    assert run(capsys, argv) == (
        3, "", "factorlab: distance table of 5976 factorizations has 35712576 "
        "entries, over the limit of 25000000\n")
    doc = run_json(capsys, argv + ["--budget", "5975"])
    assert doc["warnings"] == [{"element": list(range(23)), "error": "budget-exceeded",
                                "budget": 5975}]
    assert budgets == [5000, 5000]


def test_probe_growth_stops_with_a_warning_at_the_table_limit(capsys, monkeypatch,
                                                              n23_path):
    """Powers of 6 in <2, 3> have fibers of 2, 3, 4, ... factorizations."""
    from factorlab import invariants

    monkeypatch.setattr(invariants, "TABLE_LIMIT", 10)
    doc = run_json(capsys, ["probe-growth", "--monoid", n23_path, "--family",
                            "power", "--element", "6", "--n-max", "4"])
    assert [row["n"] for row in doc["results"]["rows"]] == [1, 2]
    assert doc["warnings"] == [{"element": 18, "error": "table-too-large",
                                "factorizations": None, "limit": 10}]
    assert doc["results"]["stabilized"] is False


def test_probe_growth_enumerates_no_further_than_the_table_limit(capsys, monkeypatch,
                                                                n23_path):
    """At TABLE_LIMIT 10 each power of 6 is enumerated to isqrt(10) = 3
    factorizations at most; a smaller budget still stops it first."""
    from factorlab import invariants

    budgets = []
    enumerate_fiber = factor.factorizations

    def spy(desc, el, budget):
        budgets.append(budget)
        return enumerate_fiber(desc, el, budget)

    monkeypatch.setattr(factor, "factorizations", spy)
    monkeypatch.setattr(invariants, "TABLE_LIMIT", 10)
    argv = ["probe-growth", "--monoid", n23_path, "--family", "power",
            "--element", "6", "--n-max", "4"]
    assert run_json(capsys, argv)["warnings"][0]["error"] == "table-too-large"
    assert budgets == [3, 3, 3]
    budgets.clear()
    assert run_json(capsys, argv + ["--budget", "2"])["warnings"] == [
        {"element": 12, "error": "budget-exceeded", "budget": 2}]
    assert budgets == [2, 2]


def test_only_sumset_global_is_held_to_the_table_limit(capsys, monkeypatch, tmp_path,
                                                      n23_path):
    from factorlab import invariants

    monkeypatch.setattr(invariants, "TABLE_LIMIT", 1)
    sumset = tmp_path / "sumset.json"
    sumset.write_text(json.dumps({"model": "sumset",
                                  "generators": [[0, 1], [0, 2, 3]]}))
    code, out, err = run(capsys, ["global", "--monoid", str(sumset), "--bound", "6"])
    assert (code, out) == (3, "")
    assert err.startswith("factorlab: distance table of ") and err.count("\n") == 1
    assert run(capsys, ["global", "--monoid", n23_path, "--bound", "30"])[0] == 0


def test_exit_four_on_failed_claim(capsys, monkeypatch, n23_path):
    def broken(args, desc):
        raise errors.AssertionFailure("forced failure", {"k": 1})

    monkeypatch.setitem(cli._HANDLERS, "verify-example", broken)
    code, _, err = run(capsys, ["verify-example", "--name", "3.2"])
    assert code == 4
    assert "forced failure" in err


def test_exit_two_on_closure_violation(capsys, tmp_path):
    doc = dict(FP_DOC, exponent=3)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["validate", "--monoid", str(path),
                                "--bound", "6"])
    assert code == 2
    assert "not a member" in err


def test_validate_checks_each_product_slot(capsys, tmp_path):
    unclosed = {"model": "fp-value", "rank": 2, "exponent": 3,
                "exceptional": [[{"exact": 1}, {"exact": 1}]]}
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "product", "freeRank": 0,
                                "factors": [N23_DOC, unclosed]}))
    code, out, err = run(capsys, ["validate", "--monoid", str(path)])
    assert (code, out) == (2, "")
    assert err == "factorlab: 1,1 + 1,1 = 2,2 is not a member\n"


@pytest.mark.parametrize("slot,bound,message", [
    ({"model": "fp-value", "rank": 2, "exponent": 1, "exceptional": []}, 1,
     "validation bound 1 below the largest generator weight"),
    (FP_DOC, 3, "validation bound 3 below twice the exponent"),
], ids=["numerical-slot", "fp-value-slot"])
def test_validate_rejects_a_bound_below_a_slots_least_bound(capsys, tmp_path,
                                                            slot, bound,
                                                            message):
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "product", "freeRank": 1,
                                "factors": [N23_DOC, slot]}))
    code, out, err = run(capsys, ["validate", "--monoid", str(path),
                                  "--bound", str(bound)])
    assert (code, out, err) == (2, "", f"factorlab: {message}\n")


def test_closure_violation_names_elements_as_written(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(dict(FP_DOC, exponent=3)))
    code, out, err = run(capsys, ["validate", "--monoid", str(path),
                                  "--bound", "6"])
    assert (code, out) == (2, "")
    assert err == "factorlab: 1,1 + 1,1 = 2,2 is not a member\n"


@pytest.mark.parametrize("argv", [
    ["factorize", "--element", "4,6"],
    ["atoms", "--element", "4,6"],
    ["global", "--bound", "10"],
    ["unions", "--bound", "10", "--k", "2"],
], ids=["factorize", "atoms", "global", "unions"])
def test_every_request_rejects_an_unclosed_fp_value_box(capsys, tmp_path, argv):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(dict(FP_DOC, exponent=3, exceptional=[
        [{"exact": 1}, {"atLeast": 2}], [{"exact": 2}, {"exact": 2}]])))
    code, out, err = run(capsys, [*argv, "--monoid", str(path)])
    assert (code, out) == (2, "")
    assert err == "factorlab: 1,2 + 1,2 = 2,4 is not a member\n"


def test_unions_rejects_a_negative_k(capsys, n23_path):
    code, out, err = run(capsys, ["unions", "--monoid", n23_path,
                                  "--bound", "10", "--k", "-1"])
    assert (code, out) == (2, "")
    assert "union indices must be nonnegative" in err


@pytest.mark.parametrize("k_range,message", [
    ("2", "expects two integers lo,hi, got 1"),
    ("5,2", "lo must not exceed hi"),
    ("2,3,9", "expects two integers lo,hi, got 3"),
], ids=["one-value", "reversed", "three-values"])
def test_structure_probe_rejects_a_bad_k_range(capsys, n23_path, k_range,
                                               message):
    code, out, err = run(capsys, ["structure-probe", "--monoid", n23_path,
                                  "--bound", "10", "--target", "unions",
                                  "--k-range", k_range])
    assert (code, out) == (2, "")
    assert f"--k-range {message}" in err


@pytest.mark.parametrize("extra,message", [
    (["--k-range", "2,5"], "--k-range requires --target unions"),
    (["--target", "unions", "--k-range", "2,5", "--d-candidates", "1,2"],
     "--d-candidates does not apply to --target unions"),
    (["--target", "unions"], "--target unions requires --k-range"),
    (["--d-candidates", "0"], "difference candidates must be positive integers"),
], ids=["k-range-without-unions", "d-candidates-with-unions",
        "unions-without-k-range", "zero-d-candidate"])
def test_structure_probe_rejects_a_flag_it_would_ignore(capsys, n23_path,
                                                        extra, message):
    code, out, err = run(capsys, ["structure-probe", "--monoid", n23_path,
                                  "--bound", "10", *extra])
    assert (code, out) == (2, "")
    assert err == f"factorlab: {message}\n"


def test_structure_probe_fits_the_given_differences(capsys, n23_path):
    doc = run_json(capsys, ["structure-probe", "--monoid", n23_path,
                            "--bound", "12", "--d-candidates", "3,2"])
    results = doc["results"]
    assert results["dCandidates"] == [2, 3]
    assert {row["d"] for row in results["perElement"]} <= {2, 3}


@pytest.mark.parametrize("model,argv,message", [
    (None, ["aamp-check", "--set", "x", "--d", "1"], "--set expects integers: x"),
    (None, ["aamp-check", "--set", ",", "--d", "1"], "--set is empty"),
    (None, ["aamp-check", "--set", "2,4", "--d", "0"],
     "--difference must be positive"),
    ("numerical", ["relation-atoms"], "this command requires --length-bound"),
    ("numerical", ["probe-growth", "--family", "power", "--element", "6",
                   "--n-max", "0"], "--n-max must be at least 1"),
    ("numerical", ["probe-growth", "--family", "power", "--n-max", "3"],
     "--family power requires --element"),
    ("numerical", ["probe-growth", "--family", "diagonal", "--n-max", "3"],
     "--family diagonal needs a multi-coordinate model"),
    ("sumset", ["probe-growth", "--family", "diagonal", "--n-max", "3"],
     "--family diagonal needs a coordinate model"),
], ids=["set-not-integers", "set-empty", "zero-difference",
        "relation-atoms-without-length-bound", "zero-n-max",
        "power-without-element", "diagonal-on-numerical", "diagonal-on-sumset"])
def test_input_errors_exit_two_in_one_line(capsys, model, argv, message):
    """``model`` names a bench descriptor, or is None for a command without one."""
    if model is not None:
        argv = argv + ["--monoid", os.path.join(DESCRIPTORS, f"{model}.json")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"factorlab: {message}\n"


@pytest.mark.parametrize("argv,flag", [
    (["global", "--bound", "-1"], "--bound"),
    (["structure-probe", "--bound", "-3"], "--bound"),
    (["relation-atoms", "--length-bound", "-1"], "--length-bound"),
    (["factorize", "--element", "12", "--budget", "-1"], "--budget"),
], ids=["global-bound", "probe-bound", "relation-length-bound", "budget"])
def test_negative_bounds_are_rejected(capsys, n23_path, argv, flag):
    code, out, err = run(capsys, argv + ["--monoid", n23_path])
    assert (code, out) == (2, "")
    assert err == f"factorlab: {flag} must be nonnegative, got {argv[-1]}\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_are_rejected(capsys, n23_path, jobs):
    code, out, err = run(capsys, ["global", "--monoid", n23_path,
                                  "--bound", "10", "--jobs", jobs])
    assert (code, out) == (2, "")
    assert err == f"factorlab: --jobs must be at least 1, got {jobs}\n"


def test_negative_union_index_rejected_without_gaps(capsys, tmp_path):
    # <2> is half-factorial, so the probe returns before it reads any k.
    path = tmp_path / "n2.json"
    path.write_text(json.dumps({"model": "numerical", "generators": [2]}))
    code, out, err = run(capsys, ["structure-probe", "--monoid", str(path),
                                  "--bound", "10", "--target", "unions",
                                  "--k-range=-1,3"])
    assert (code, out) == (2, "")
    assert err == "factorlab: union indices must be nonnegative\n"


def test_a_zero_budget_is_still_a_budget(capsys, n23_path):
    code, out, err = run(capsys, ["factorize", "--monoid", n23_path,
                                  "--element", "12", "--budget", "0"])
    assert (code, out) == (3, "")
    assert "budget 0 exhausted" in err


# ---------------------------------------------------------------------------
# the retired cache: --cache-dir and FACTORLAB_CACHE have no effect


@pytest.mark.parametrize("garbage", [
    "",
    "not json",
    "[1, 2]",
    '{"element": 12}',
    '{"element": 12, "atoms": [2, 3], "factorizations": [{"counts": [[7, 1]]}]}',
    '{"element": 12, "atoms": [2, 3], "factorizations": '
    '[{"counts": [[0, 6]]}, {"counts": [[1, 4]]}]}',
    '{"element": 12, "atoms": [2, 3], "factorizations": [{"counts": [[0, -1]]}]}',
    "[" * 100_000,
    '{"element": 12, "atoms": [2, 3], "factorizations": '
    '[{"counts": [[0, 6]], "length": 6}]}',
], ids=["empty", "not-json", "list", "missing-keys", "atom-outside-table",
        "unsorted", "negative-multiplicity", "deeply-nested", "tampered"])
def test_damaged_cache_entry_is_a_miss(capsys, n23_path, tmp_path, garbage):
    """An entry where the retired cache kept Z(12) of <2,3> is neither read
    nor rewritten. The cache trusted a well-formed entry: the tampered one,
    holding only 2^6, gave lengthSet [6] and c = 0."""
    desc = cli.load_descriptor(n23_path)
    name = hashlib.sha256(models.canonical_dumps(12).encode()).hexdigest()
    entry = tmp_path / "cache" / models.descriptor_hash(desc) / f"{name}.json"
    entry.parent.mkdir(parents=True)
    entry.write_text(garbage)
    doc = run_json(capsys, ["invariants", "--monoid", n23_path, "--element",
                            "12", "--cache-dir", str(tmp_path / "cache")])
    assert doc["results"]["lengthSet"] == [4, 5, 6]
    assert doc["results"]["c"] == 3
    assert entry.read_text() == garbage


@pytest.mark.parametrize("argv", [
    ["factorize", "--element", "12"],
    ["invariants", "--element", "12"],
    ["probe-growth", "--family", "power", "--element", "5", "--n-max", "3"],
], ids=["factorize", "invariants", "probe-growth"])
def test_a_cache_dir_is_never_written(capsys, n23_path, tmp_path, monkeypatch,
                                      argv):
    argv = argv + ["--monoid", n23_path, "--output", "json"]
    monkeypatch.delenv("FACTORLAB_CACHE", raising=False)
    code, plain, _ = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv + ["--cache-dir", str(tmp_path / "c")]) == \
        (0, plain, "")
    assert not (tmp_path / "c").exists()


def test_cache_env_var(capsys, n23_path, tmp_path, monkeypatch):
    """FACTORLAB_CACHE is ignored."""
    argv = ["factorize", "--monoid", n23_path, "--element", "8"]
    monkeypatch.delenv("FACTORLAB_CACHE", raising=False)
    code, plain, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setenv("FACTORLAB_CACHE", str(tmp_path / "envcache"))
    assert run(capsys, argv) == (0, plain, "")
    assert not (tmp_path / "envcache").exists()


def test_an_unusable_cache_dir_is_ignored(capsys, n23_path, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["factorize", "--monoid", n23_path, "--element", "12"]
    code, plain, _ = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv + ["--cache-dir", str(blocker / "sub")]) == \
        (0, plain, "")


def test_a_cached_fiber_keeps_to_the_budget(capsys, n23_path):
    """A budget equal to |Z(a)| suffices and one less exits 3:
    12 = 2+2+2+2+2+2 = 2+2+2+3+3 = 3+3+3+3."""
    argv = ["factorize", "--monoid", n23_path, "--element", "12"]
    assert run(capsys, argv + ["--budget", "2"]) == \
        (3, "", "factorlab: enumeration budget 2 exhausted\n")
    assert run(capsys, argv + ["--budget", "3"])[0] == 0


def test_no_cache_without_configuration(capsys, n23_path, monkeypatch):
    monkeypatch.delenv("FACTORLAB_CACHE", raising=False)
    code, _, _ = run(capsys, ["factorize", "--monoid", n23_path,
                              "--element", "8"])
    assert code == 0


# ---------------------------------------------------------------------------
# determinism


def test_jobs_do_not_change_bytes(capsys, n23_path):
    argv = ["global", "--monoid", n23_path, "--bound", "24",
            "--output", "json"]
    _, one, _ = run(capsys, argv + ["--jobs", "1"])
    _, two, _ = run(capsys, argv + ["--jobs", "2"])
    assert one == two


DESCRIPTORS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "descriptors")


@pytest.mark.parametrize("model,argv", [
    ("numerical", ["global", "--bound", "24"]),
    ("affine", ["global", "--bound", "6"]),
    ("fp-value", ["global", "--bound", "8"]),
    ("sumset", ["global", "--bound", "6"]),
    ("product", ["global", "--bound", "5"]),
    ("sumset", ["structure-probe", "--bound", "8"]),
    (SUM_PROD, ["unions", "--bound", "5", "--k", "3"]),
], ids=["numerical", "affine", "fp-value", "sumset", "product",
        "sumset-structure-probe", "sumset-slot-unions"])
def test_jobs_do_not_change_bytes_on_any_model(capsys, tmp_path, model, argv):
    """--jobs is accepted by every command and changes no byte of any
    model's report. ``model`` names a bench descriptor or is a descriptor."""
    if isinstance(model, str):
        path = os.path.join(DESCRIPTORS, f"{model}.json")
    else:
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(models.descriptor_to_json(model)))
    argv = argv + ["--monoid", str(path), "--output", "json"]
    one = run(capsys, argv + ["--jobs", "1"])
    two = run(capsys, argv + ["--jobs", "2"])
    assert one[0] == 0, one[2]
    assert one == two


def test_a_deep_fp_value_fiber_needs_no_recursion(capsys):
    """(2, 1500) has 1,499 atoms, (1, k) for 1 <= k <= 1499, so a search
    that recursed once per atom would pass Python's recursion limit."""
    doc = run_json(capsys, ["factorize", "--element", "2,1500", "--monoid",
                            os.path.join(DESCRIPTORS, "fp-value.json")])
    zs = doc["results"]["factorizations"]
    assert len(zs) == 750
    assert {z["length"] for z in zs} == {2}


def test_repeat_runs_are_byte_identical(capsys, n23_path):
    argv = ["invariants", "--monoid", n23_path, "--element", "30",
            "--output", "json"]
    _, one, _ = run(capsys, argv)
    _, two, _ = run(capsys, argv)
    assert one == two


# ---------------------------------------------------------------------------
# command lines: the fast parser agrees with argparse, and every line,
# well-formed or not, ends in a documented exit code


def option_flags(command: str) -> list[str]:
    return [flag for flags, _ in cli.COMMANDS[command][1] for flag in flags]


COMMAND_NAMES = sorted(cli.COMMANDS)
EVERY_FLAG = sorted({flag for command in cli.COMMANDS for flag in option_flags(command)})
FLAG_SPECS = {flag: spec for _, options in cli.COMMANDS.values()
              for flags, spec in options for flag in flags}
CHOICES = sorted({choice for spec in FLAG_SPECS.values()
                  for choice in spec.get("choices", ())})
# A proper prefix of a flag, one letter past the dashes at least.
ABBREVIATED = st.sampled_from(EVERY_FLAG).flatmap(
    lambda flag: st.integers(3, len(flag) - 1).map(lambda n: flag[:n])
    if len(flag) > 3 else st.just(flag))
MISSPELT_FLAGS = st.one_of(st.sampled_from(EVERY_FLAG), ABBREVIATED,
                           st.sampled_from(["--zzz", "-h", "--help", "--", "12"]))
ANY_VALUE = st.one_of(st.integers(0, 99).map(str), st.integers(-99, -1).map(str),
                      st.sampled_from(CHOICES + ["12", "2,4,6", "word", "-h", ""]),
                      st.text(max_size=3))
MISSPELT_FORMS = st.sampled_from(["pair"] * 6 + ["joined", "flag", "value"])


def accepted_value(flag: str):
    """A value the flag's type and choices accept."""
    spec = FLAG_SPECS[flag]
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.integers(0, 99).map(str)
    return st.sampled_from(["12", "2,4,6", "word", ""])


@st.composite
def command_lines(draw, value_of, misspelt: bool, always=()) -> list[str]:
    """A command, its required options, the flags ``always`` names and up
    to four more, in any order. A misspelt line also draws other commands'
    flags, abbreviations and stray tokens, and spells some options as
    --flag=value, a lone flag or a lone value."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    options = cli.COMMANDS[command][1]
    flags = [flags[0] for flags, spec in options if spec.get("required")]
    own = st.sampled_from(option_flags(command))
    extra = st.one_of(own, MISSPELT_FLAGS) if misspelt else own
    flags += [*always, *draw(st.lists(extra, max_size=4))]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(value_of(flag, misspelt))
        form = draw(MISSPELT_FORMS) if misspelt else "pair"
        argv += {"pair": [flag, value], "joined": [f"{flag}={value}"],
                 "flag": [flag], "value": [value]}[form]
    return argv


def argparse_namespace(argv: list[str]) -> dict | None:
    """vars() of what argparse parses, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(
    st.booleans().flatmap(lambda misspelt: command_lines(
        lambda flag, _: ANY_VALUE if misspelt else st.one_of(accepted_value(flag),
                                                             ANY_VALUE),
        misspelt)),
    st.lists(st.one_of(st.sampled_from(COMMAND_NAMES), MISSPELT_FLAGS, ANY_VALUE),
             max_size=6)))
def test_the_fast_parser_agrees_with_argparse(argv):
    fast = cli.parse_fast(argv)
    if fast is not None:
        assert vars(fast) == argparse_namespace(argv)


BENCH_MONOID = ["--monoid", os.path.join(DESCRIPTORS, "numerical.json")]


@pytest.mark.parametrize("argv", [
    ["validate", *BENCH_MONOID],
    ["atoms", *BENCH_MONOID, "--element", "12"],
    ["factorize", *BENCH_MONOID, "--element", "600"],
    ["invariants", *BENCH_MONOID, "--element", "60;6,6;4"],
    ["global", *BENCH_MONOID, "--bound", "100"],
    ["unions", *BENCH_MONOID, "--bound", "200", "--k", "3"],
    ["aamp-check", "--set", "2,4,6", "--d", "2", "--m", "1"],
    ["structure-probe", *BENCH_MONOID, "--bound", "200", "--target", "unions",
     "--k-range", "2,8"],
    ["relation-atoms", *BENCH_MONOID, "--length-bound", "3"],
    ["verify-example", "--name", "3.3", "--k-max", "4", "--difference", "5"],
    ["probe-growth", *BENCH_MONOID, "--family", "power", "--element", "2;1,1;1",
     "--n-max", "8"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("tail", [["--output", "json", "--jobs", "1"],
                                  ["--output", "json", "--jobs", "1",
                                   "--cache-dir", "cache/plain"]],
                         ids=["plain", "cache-dir"])
def test_a_bench_request_takes_the_fast_path(argv, tail):
    fast = cli.parse_fast(argv + tail)
    assert fast is not None
    assert vars(fast) == argparse_namespace(argv + tail)


# Elements of 2-12 factorizations, so that small budgets run out.
FUZZ_ELEMENTS = {"numerical": "120", "affine": "6,6", "fp-value": "4,4",
                 "sumset": "{0,1,2,3,4}", "product": "12;3,3;2"}


def fuzz_value(model: str):
    """Budgets 0-50, other integers 0-8, the model's descriptor and an
    element of it; a misspelt line also draws values the flag rejects."""
    def value_of(flag: str, misspelt: bool):
        spec = FLAG_SPECS.get(flag, {})
        bad = ["-1", "x", ""] if misspelt else []
        if "choices" in spec:
            return st.sampled_from([*spec["choices"], *bad])
        if spec.get("type") is int:
            top = 50 if flag == "--budget" else 8
            return st.one_of(st.integers(0, top).map(str), st.sampled_from(bad or ["0"]))
        return st.sampled_from({
            "--monoid": [os.path.join(DESCRIPTORS, f"{model}.json")],
            "--element": [FUZZ_ELEMENTS[model], "1"],
            "--set": ["2,4,6", "1,3,4,8"],
            "--d-candidates": ["1,2", "3"],
            "--k-range": ["2,5", "3,3", "5,2"],
        }.get(flag, ["unused-cache"]) + bad)
    return value_of


@settings(max_examples=200, deadline=None)
@given(argv=st.tuples(st.sampled_from(sorted(FUZZ_ELEMENTS)), st.booleans()).flatmap(
    lambda drawn: command_lines(fuzz_value(drawn[0]), drawn[1],
                                always=("--bound", "--budget"))))
def test_every_command_line_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        # argparse's usage lines, the first unindented, come before its one
        # error line; main's own messages are one line alone.
        lines = [line for line in err.getvalue().splitlines()
                 if not line.startswith(("usage: ", " "))]
        assert len(lines) == 1 and lines[0].startswith("factorlab"), err.getvalue()


# ---------------------------------------------------------------------------
# start-up: a request imports only the modules its command runs


def loaded_after(code: str, modules) -> list[str]:
    """Those of ``modules`` a fresh interpreter has imported after ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {tuple(modules)!r} "
             "if m in sys.modules]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SUBMODULES = tuple(f"factorlab.{name}" for name in (
    "aamp", "cache", "cli", "errors", "factor", "invariants", "models",
    "pairwise", "recurrence", "relations", "render", "scenarios", "search",
    "validation"))
SWEEP_UNUSED = ("factorlab.aamp", "factorlab.cache", "factorlab.relations")
# Only the global estimates of a cancellative model run the recurrence module.
NO_GLOBAL = SWEEP_UNUSED + ("factorlab.recurrence",)
# Only a command that builds an elasticity or density needs fractions.
NO_FRACTION = ("fractions", "decimal")
FIBER_UNUSED = ("factorlab.invariants", *NO_GLOBAL, *NO_FRACTION)
# The records are NamedTuples and plain classes: no command needs the
# dataclass machinery, or the inspect, ast and dis modules it pulls in.
# descriptorHash reads the built-in SHA-256, not OpenSSL's through hashlib.
NEVER_USED = ("dataclasses", "inspect", "hashlib", "_hashlib")
# A well-formed line is parsed without argparse and the gettext and locale
# modules its messages load.
PARSER = ("argparse", "gettext", "locale")
# Code few requests run, loaded by the functions that call it: the checks of
# validate, the scenarios of verify-example, the table of --output table,
# the search of one element's fiber and the invariants element reports read
# off the packed distances.
VALIDATION = ("factorlab.validation",)
SCENARIOS = ("factorlab.scenarios",)
RENDER = ("factorlab.render",)
SEARCH = ("factorlab.search",)
PAIRWISE = ("factorlab.pairwise",)
ON_DEMAND = VALIDATION + SCENARIOS + RENDER + SEARCH + PAIRWISE


def test_cli_import_loads_no_process_pool():
    assert loaded_after("import factorlab.cli", (
        "multiprocessing", "concurrent.futures.process")) == []


def test_package_import_loads_no_submodule():
    assert loaded_after("import factorlab", SUBMODULES) == []


@pytest.mark.parametrize("argv,unused", [
    (["factorize", "--element", "12"], FIBER_UNUSED + VALIDATION + SCENARIOS + PAIRWISE),
    (["factorize", "--element", "12", "--output", "json"],
     FIBER_UNUSED + VALIDATION + SCENARIOS + RENDER + PAIRWISE),
    (["atoms", "--element", "12"], FIBER_UNUSED + VALIDATION + SCENARIOS + PAIRWISE),
    (["validate"], FIBER_UNUSED + SCENARIOS + PAIRWISE),
    (["global", "--bound", "12"],
     SWEEP_UNUSED + VALIDATION + SCENARIOS + SEARCH + PAIRWISE),
    (["global", "--bound", "24", "--jobs", "2"],
     SWEEP_UNUSED + VALIDATION + SCENARIOS + SEARCH + PAIRWISE
     + ("multiprocessing", "concurrent.futures.process")),
    (["global", "--bound", "6", "--monoid", os.path.join(DESCRIPTORS, "sumset.json")],
     NO_GLOBAL + VALIDATION + SCENARIOS + SEARCH),
    (["unions", "--bound", "12", "--k", "3"],
     NO_GLOBAL + NO_FRACTION + VALIDATION + SCENARIOS + SEARCH + PAIRWISE),
    (["unions", "--bound", "12", "--k", "3", "--output", "json"],
     NO_GLOBAL + NO_FRACTION + ON_DEMAND),
    (["invariants", "--element", "12"], NO_GLOBAL + VALIDATION + SCENARIOS),
    (["structure-probe", "--bound", "12"], (
        "factorlab.relations", "factorlab.recurrence", *NO_FRACTION,
        *VALIDATION, *SCENARIOS, *SEARCH, *PAIRWISE)),
    (["structure-probe", "--bound", "12", "--output", "json"], (
        "factorlab.relations", "factorlab.recurrence", *NO_FRACTION, *ON_DEMAND)),
    (["structure-probe", "--target", "unions", "--bound", "12", "--k-range", "2,4",
      "--output", "json"], ("factorlab.relations", "factorlab.recurrence", *ON_DEMAND)),
    (["relation-atoms", "--length-bound", "3"], (
        "factorlab.aamp", "factorlab.recurrence", *NO_FRACTION,
        *VALIDATION, *SCENARIOS, *SEARCH, *PAIRWISE)),
], ids=["factorize", "factorize-json", "atoms", "validate", "global", "global-jobs-2",
        "global-sumset", "unions", "unions-json", "invariants", "structure-probe",
        "structure-probe-json", "structure-probe-unions-json", "relation-atoms"])
def test_a_command_loads_only_the_modules_it_runs(n23_path, argv, unused):
    """On <2, 3> unless argv names its own --monoid."""
    argv = argv if "--monoid" in argv else argv + ["--monoid", n23_path]
    code = ("from factorlab import cli\n"
            f"if cli.main({argv!r}):\n"
            "    raise SystemExit('the command failed')")
    assert loaded_after(code, unused + NEVER_USED + PARSER) == []


@pytest.mark.parametrize("model,bound", [
    ("affine", "12"), ("fp-value", "16"), ("product", "6")])
def test_cancellative_global_loads_no_search_and_no_pairwise(model, bound):
    """The global estimates of every cancellative bench model come from the
    atom recurrence: no single-element search and no packed distances."""
    argv = ["global", "--bound", bound,
            "--monoid", os.path.join(DESCRIPTORS, f"{model}.json")]
    code = ("from factorlab import cli\n"
            f"if cli.main({argv!r}):\n"
            "    raise SystemExit('the command failed')")
    assert loaded_after(code, SEARCH + PAIRWISE) == []


@pytest.mark.parametrize("argv,unused", [
    (["verify-example", "--name", "3.2", "--k-max", "2"],
     ("factorlab.aamp", *VALIDATION, *PAIRWISE)),
    (["verify-example", "--name", "3.3"],
     ("factorlab.aamp", "factorlab.recurrence", *VALIDATION, *SEARCH, *PAIRWISE)),
], ids=["3.2", "3.3"])
def test_verify_example_loads_its_scenarios_and_no_validation(argv, unused):
    code = ("from factorlab import cli\n"
            f"if cli.main({argv + ['--output', 'json']!r}):\n"
            "    raise SystemExit('the command failed')")
    assert loaded_after(code, SCENARIOS + unused) == list(SCENARIOS)


@pytest.mark.parametrize("argv", [
    ["global", "--bound", "12"],
    ["structure-probe", "--target", "unions", "--bound", "12", "--k-range", "2,4"],
], ids=["global", "structure-probe-unions"])
def test_elasticity_still_loads_fractions(n23_path, argv):
    """rho and the unions probe's densities stay Fractions, imported where
    they are built."""
    code = ("from factorlab import cli\n"
            f"if cli.main({argv + ['--monoid', n23_path]!r}):\n"
            "    raise SystemExit('the command failed')")
    assert loaded_after(code, NO_FRACTION) == list(NO_FRACTION)


def test_help_still_goes_through_argparse(n23_path):
    code = ("from factorlab import cli\n"
            "try:\n"
            "    cli.main(['validate', '--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "else:\n"
            "    raise SystemExit('--help did not exit')")
    assert loaded_after(code, PARSER) == list(PARSER)
