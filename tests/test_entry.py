"""The process entry: ``python -m factorlab`` and the installed script run one
function, which freezes the start-up heap and then runs ``cli.main``; a
request answers the same through it as in process, and a report or a help
that stdout cannot take ends in one line and exit 141."""

import gc
import importlib
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from factorlab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def process(argv, stdout=subprocess.PIPE, unbuffered=None, closed=None):
    """``python -m factorlab argv`` in a fresh interpreter, stderr captured;
    ``unbuffered`` None keeps this process's PYTHONUNBUFFERED, and the fd
    ``closed`` (1 or 2), if given, is closed before the interpreter starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "factorlab", *argv],
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          preexec_fn=None if closed is None else lambda: os.close(closed),
                          timeout=60)


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Run every request from a directory holding ``n23.json``, <2, 3>."""
    (tmp_path / "n23.json").write_text(
        json.dumps({"model": "numerical", "generators": [2, 3]}))
    monkeypatch.chdir(tmp_path)


N23 = ["--monoid", "n23.json"]
# A table report larger than a 64 KiB pipe buffer: Z(4000) of <2, 3> has 667
# factorizations.
LARGE_TABLE = ["factorize", *N23, "--element", "4000", "--output", "table"]


@pytest.mark.parametrize("argv,code,least_bytes", [
    (["invariants", *N23, "--element", "60", "--output", "json"], cli.EXIT_OK, 1),
    (LARGE_TABLE, cli.EXIT_OK, 64 * 1024 + 1),
    (["factorize", *N23, "--element", "12", "--budget", "0"], cli.EXIT_BUDGET, 0),
    (["factorize", "--monoid", "missing.json", "--element", "12"], cli.EXIT_INPUT, 0),
], ids=["json", "large-table", "budget", "missing-descriptor"])
def test_the_process_answers_as_cli_main_in_process(capsys, argv, code, least_bytes):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    proc = process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), captured.err.encode())
    assert len(proc.stdout) >= least_bytes


def test_cli_main_leaves_the_heap_unfrozen(capsys):
    """Only the process entry freezes, so pytest and the trace harness, which
    call ``cli.main`` in process, keep their collections as they were."""
    before = gc.get_freeze_count()
    assert cli.main(["invariants", *N23, "--element", "60"]) == 0
    assert gc.get_freeze_count() == before


def test_both_ways_of_starting_freeze_then_run_cli_main(monkeypatch):
    """The installed script names the function ``python -m factorlab`` runs."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, attr = pyproject["project"]["scripts"]["factorlab"].partition(":")
    assert module == "factorlab.__main__"
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    assert getattr(importlib.import_module(module), attr)() == 0
    monkeypatch.delitem(sys.modules, module)
    with pytest.raises(SystemExit) as stopped:
        runpy.run_module("factorlab", run_name="__main__")
    assert stopped.value.code == 0
    assert calls == ["freeze", "main"] * 2


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["factorize", *N23, "--element", "12", "--output", "json"], LARGE_TABLE,
], ids=["small", "large"])
def test_a_closed_stdout_ends_in_one_line(argv, unbuffered):
    """Exit 141, as a shell reports a writer ended by SIGPIPE, with one line
    on stderr: no traceback and no "Exception ignored" from the final flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = process(argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OUTPUT == 141
    assert proc.stderr.decode().splitlines() == [
        "factorlab: cannot write the report: [Errno 32] Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_ends_in_one_line():
    with open("/dev/full", "wb") as full:
        proc = process(["factorize", *N23, "--element", "12"], stdout=full)
    assert proc.returncode == cli.EXIT_OUTPUT
    assert proc.stderr.decode().splitlines() == [
        "factorlab: cannot write the report: [Errno 28] No space left on device"]


@pytest.mark.parametrize("output", ["json", "table"])
def test_a_closed_stdout_fd_ends_in_one_line(output):
    """With fd 1 closed before the interpreter starts, sys.stdout is None; the
    request ends as on a broken pipe, in exit 141 and one line on stderr."""
    proc = process(["factorize", *N23, "--element", "12", "--output", output], closed=1)
    assert proc.returncode == cli.EXIT_OUTPUT
    assert proc.stderr.decode().splitlines() == [
        "factorlab: cannot write the report: stdout is closed"]


@pytest.mark.parametrize("argv", [["--help"], ["factorize", "--help"]],
                         ids=["program", "command"])
def test_help_to_a_closed_stdout_fd_ends_in_one_line(argv):
    """--help goes out as a report does: with fd 1 closed, exit 141 and one
    line on stderr, not the usage on stderr and exit 0; with fd 1 open,
    argparse's help on stdout and exit 0."""
    proc = process(argv, closed=1)
    assert (proc.returncode, proc.stderr.decode().splitlines()) == (
        cli.EXIT_OUTPUT, ["factorlab: cannot write the help: stdout is closed"])
    proc = process(argv)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert proc.stdout.startswith(b"usage: factorlab ")


@pytest.mark.parametrize("argv,code", [
    (["factorize", "--monoid", "missing.json", "--element", "12"], cli.EXIT_INPUT),
    (["factorize", *N23, "--element", "12", "--bound", "-1"], cli.EXIT_INPUT),
    (["factorize", *N23, "--element", "12", "--budget", "0"], cli.EXIT_BUDGET),
    (["verify-example", "--name", "3.3", "--d", "3"], cli.EXIT_INPUT),
    (["invariants", *N23, "--element", "60", "--output", "json"], cli.EXIT_OK),
], ids=["missing-descriptor", "negative-bound", "budget", "bad-difference", "ok"])
def test_a_closed_stderr_keeps_the_documented_exit_code(capsys, argv, code):
    """With fd 2 closed the message is lost; the exit code and stdout are
    those of the same request with stderr open."""
    assert cli.main(argv) == code
    proc = process(argv, closed=2)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())
