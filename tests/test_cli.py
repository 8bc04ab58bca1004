"""Command line surface: envelopes, exit codes, caching, determinism."""

import json
import os
import subprocess
import sys

import pytest

from factorlab import cli, errors, factor, models

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


def test_exit_two_on_malformed_descriptor(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "numerical"}')
    code, _, err = run(capsys, ["validate", "--monoid", str(bad)])
    assert code == 2


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


def test_exit_four_on_failed_claim(capsys, monkeypatch, n23_path):
    def broken(config, args):
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
], ids=["empty", "not-json", "list", "missing-keys", "atom-outside-table",
        "unsorted"])
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


def test_repeat_runs_are_byte_identical(capsys, n23_path):
    argv = ["invariants", "--monoid", n23_path, "--element", "30",
            "--output", "json"]
    _, one, _ = run(capsys, argv)
    _, two, _ = run(capsys, argv)
    assert one == two


def test_cli_import_loads_no_process_pool():
    code = ("import sys, factorlab.cli; "
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
