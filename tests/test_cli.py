"""Command line surface: envelopes, exit codes, caching, determinism."""

import json
import os
import subprocess
import sys

import pytest

from factorlab import cli, errors, factor, models
from test_length_table import SUM_PROD

N23_DOC = {"model": "numerical", "generators": [2, 3]}
FP_DOC = {
    "model": "fp-value",
    "rank": 2,
    "exponent": 2,
    "exceptional": [[{"exact": 1}, {"atLeast": 1}]],
}


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


def test_probe_growth_rows_are_invariant_report_subsets(capsys, fp_path):
    from factorlab import invariants

    doc = run_json(capsys, ["probe-growth", "--monoid", fp_path,
                            "--family", "diagonal", "--n-max", "3"])
    rows = doc["results"]["rows"]
    assert len(rows) == 3
    desc = cli.load_descriptor(fp_path)
    base, current = models.canon(desc, (2, 2)), models.identity(desc)
    for n, row in enumerate(rows, 1):
        current = models.multiply(desc, current, base)
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


def test_exit_two_on_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["validate", "--monoid",
                                str(tmp_path / "absent.json")])
    assert code == 2


def test_exit_two_on_missing_required_bound(capsys, n23_path):
    code, _, err = run(capsys, ["global", "--monoid", n23_path])
    assert code == 2
    assert "--bound" in err


def test_exit_two_on_an_unusable_cache_dir(capsys, n23_path, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, ["factorize", "--monoid", n23_path,
                                  "--element", "12", "--cache-dir",
                                  str(blocker / "sub")])
    assert (code, out) == (2, "")
    assert err.startswith("factorlab: ") and err.count("\n") == 1
    assert "Not a directory" in err


def test_exit_three_on_budget(capsys, n23_path):
    code, _, err = run(capsys, ["factorize", "--monoid", n23_path,
                                "--element", "600", "--budget", "40"])
    assert code == 3
    assert "budget" in err


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
], ids=["k-range-without-unions", "d-candidates-with-unions"])
def test_structure_probe_rejects_a_flag_it_would_ignore(capsys, n23_path,
                                                        extra, message):
    code, out, err = run(capsys, ["structure-probe", "--monoid", n23_path,
                                  "--bound", "10", *extra])
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
# caching


def test_cache_roundtrip_bytes(capsys, n23_path, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = ["factorize", "--monoid", n23_path, "--element", "12",
            "--cache-dir", cache_dir, "--output", "json"]
    code1, out1, _ = run(capsys, argv)
    files = []
    for root, _, names in os.walk(cache_dir):
        files.extend(os.path.join(root, n) for n in names)
    assert len(files) == 1
    assert files[0].endswith(".json")
    code2, out2, _ = run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


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
], ids=["empty", "not-json", "list", "missing-keys", "atom-outside-table",
        "unsorted", "negative-multiplicity", "deeply-nested"])
def test_damaged_cache_entry_is_a_miss(capsys, n23_path, tmp_path, garbage):
    cache_dir = str(tmp_path / "cache")
    argv = ["invariants", "--monoid", n23_path, "--element", "12",
            "--output", "json"]
    code, uncached, _ = run(capsys, argv)
    assert code == 0
    run(capsys, argv + ["--cache-dir", cache_dir])
    (entry,) = [os.path.join(root, n)
                for root, _, names in os.walk(cache_dir) for n in names]
    with open(entry, "w", encoding="utf-8") as fh:
        fh.write(garbage)
    code, out, err = run(capsys, argv + ["--cache-dir", cache_dir])
    assert (code, err) == (0, "")
    assert out == uncached
    with open(entry, encoding="utf-8") as fh:
        assert json.load(fh)["element"] == 12


def test_a_cached_fiber_keeps_to_the_budget(capsys, n23_path, tmp_path):
    """A fiber cached under the default budget overflows a smaller one, as
    computing it would: 12 = 2+2+2+2+2+2 = 2+2+2+3+3 = 3+3+3+3."""
    argv = ["factorize", "--monoid", n23_path, "--element", "12",
            "--cache-dir", str(tmp_path / "cache")]
    assert run(capsys, argv)[0] == 0
    assert run(capsys, argv + ["--budget", "2"]) == \
        (3, "", "factorlab: enumeration budget 2 exhausted\n")
    assert run(capsys, argv + ["--budget", "3"])[0] == 0


def test_cache_env_var(capsys, n23_path, tmp_path, monkeypatch):
    env_dir = tmp_path / "envcache"
    monkeypatch.setenv("FACTORLAB_CACHE", str(env_dir))
    code, _, _ = run(capsys, ["factorize", "--monoid", n23_path,
                              "--element", "8"])
    assert code == 0
    assert env_dir.is_dir()


def test_explicit_cache_dir_beats_env(capsys, n23_path, tmp_path, monkeypatch):
    env_dir = tmp_path / "envcache"
    flag_dir = tmp_path / "flagcache"
    monkeypatch.setenv("FACTORLAB_CACHE", str(env_dir))
    code, _, _ = run(capsys, ["factorize", "--monoid", n23_path,
                              "--element", "8", "--cache-dir", str(flag_dir)])
    assert code == 0
    assert flag_dir.is_dir()
    assert not env_dir.exists()


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
    "relations"))
SWEEP_UNUSED = ("factorlab.aamp", "factorlab.relations")
FIBER_UNUSED = ("factorlab.invariants", *SWEEP_UNUSED, "fractions")
# The records are NamedTuples and plain classes: no command needs the
# dataclass machinery, or the inspect, ast and dis modules it pulls in.
NEVER_USED = ("dataclasses", "inspect")


def test_cli_import_loads_no_process_pool():
    assert loaded_after("import factorlab.cli", (
        "multiprocessing", "concurrent.futures.process")) == []


def test_package_import_loads_no_submodule():
    assert loaded_after("import factorlab", SUBMODULES) == []


@pytest.mark.parametrize("argv,unused", [
    (["factorize", "--element", "12"], FIBER_UNUSED),
    (["atoms", "--element", "12"], FIBER_UNUSED),
    (["validate"], FIBER_UNUSED),
    (["global", "--bound", "12"], SWEEP_UNUSED),
    (["global", "--bound", "24", "--jobs", "2"],
     SWEEP_UNUSED + ("multiprocessing", "concurrent.futures.process")),
    (["unions", "--bound", "12", "--k", "3"], SWEEP_UNUSED),
    (["invariants", "--element", "12"], SWEEP_UNUSED),
    (["structure-probe", "--bound", "12"], ("factorlab.relations",)),
    (["relation-atoms", "--length-bound", "3"], ("factorlab.aamp",)),
], ids=["factorize", "atoms", "validate", "global", "global-jobs-2", "unions",
        "invariants", "structure-probe", "relation-atoms"])
def test_a_command_loads_only_the_modules_it_runs(n23_path, argv, unused):
    code = ("from factorlab import cli\n"
            f"if cli.main({argv + ['--monoid', n23_path]!r}):\n"
            "    raise SystemExit('the command failed')")
    assert loaded_after(code, unused + NEVER_USED) == []
