"""End-to-end and per-module benchmark of the factorlab command line.

Usage:
    python3 perfbench/run.py --workload fiber|sweep|lengths --seed N
        --seconds S --trace 0|1

Run from the root of a checkout. Each request is its own
``python -m factorlab ... --output json --jobs 1`` process with
PYTHONPATH pinned to this checkout's ``src/`` and FACTORLAB_CACHE
removed. The load is a closed loop with one client: a request starts
when the previous one has ended, so at most the harness and one child
are busy. A pass runs the seed's request list once. Passes repeat while
the requests of the next one are expected to end within ``--seconds``
reference seconds (below), and at least two run, so every run measures
whole passes of the same request mix. Calibration and set-up add 10-20%
to the wall time of a run.

The harness and its children are pinned to one CPU. On a shared machine
the speed of a CPU changes by a factor of up to two every few seconds,
so the harness measures it with a pure-Python loop on that CPU, before,
during and after each request, and scales the request's wall time to a
CPU that runs the loop at REFERENCE_RATE. Children run at the lowest
priority, so a sample taken while one runs sees the CPU's full speed.
Every time below is in these reference seconds; on a machine that runs
the loop at REFERENCE_RATE they are wall seconds.

With ``--trace 0`` the run reports the end-to-end metrics:
  setup_s               median time to build the corpus, sum its work
                        counts and warm the imports (repeated in a run);
  latency_p50_s         median over the requests of a pass of each
                        request's time, taken as the best of its
                        passes;
  factorizations_per_s  factorizations in the fibers a pass covers,
  elements_per_s        and members it covers, over the sum of those
                        best request times;
  peak_rss_mib          largest child ru_maxrss, from os.wait4.

With ``--trace 1`` every request of a pass runs untraced and then,
back to back, under ``trace_child.py``; the two sequences use separate
cache directories, so each sees the cache as a plain pass does. The run
reports the per-module split of one pass (span times are wall seconds
inside the child; counts must repeat exactly from pass to pass) and the
tracing overhead, the per-request differences traced minus untraced,
summed over a pass.

Every response is checked against ``expected.json.gz``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CACHE_DIR = ".perfbench_work/cache"  # relative to ROOT, the children's cwd
CACHED_WORKLOADS = {"fiber"}
SETUP_REPEATS = 3
MIN_PASSES = 2
REQUEST_TIMEOUT_S = 120
# Additions per second of cpu_rate's loop on the CPU that times count
# against: about the median of a 2-vCPU cloud VM with Python 3.11.
REFERENCE_RATE = 32e6
CALIBRATION_S = 0.03
SAMPLE_PERIOD_S = 0.1
SAMPLE_S = 0.003

COUNT_METRICS = (
    "models.atoms.calls", "models.is_atom.calls", "models.membership.calls",
    "models.multiply.calls", "factor.fibers", "factor.factorizations",
    "factor.distance.calls", "invariants.reports", "aamp.fits",
    "aamp.is_aamp.calls", "relations.pairs", "relations.is_relation_atom.calls",
    "cache.hits", "cache.misses",
)
RATIO_METRICS = {
    "factor.fibers.distinct_ratio": ("factor.fibers.distinct", "factor.fibers"),
    "factor.distance.distinct_ratio": ("factor.distance.distinct",
                                       "factor.distance.calls"),
}
# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "cli.load": ("cli.load_s", None),
    "cli.render": ("cli.render_s", None),
    "models.atoms": ("models.atoms_s", "models.atoms.calls"),
    "factor.enumerate": ("factor.enumerate_s", "factor.fibers"),
    "invariants.report": ("invariants.report_s", "invariants.reports"),
    "invariants.enumerate": ("invariants.enumerate_s", None),
    "invariants.aggregate": ("invariants.aggregate_s", None),
    "aamp.fit": ("aamp.fit_s", "aamp.fits"),
    "relations.atoms": ("relations.atoms_s", None),
    "cache.read": ("cache.read_s", "cache.hits"),
    "cache.write": ("cache.write_s", "cache.misses"),
}
TIME_METRICS = ("cli.import_s",) + tuple(m for m, _ in SPAN_METRICS.values())


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FACTORLAB_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing keeps set iteration, and so the traced
    # counts, identical from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> None:
    """Run the harness, and so every child, on the lowest allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cpu_rate(seconds: float) -> float:
    """Additions per second of a pure-Python loop run for the given time."""
    start = time.perf_counter()
    n = 0
    while True:
        total = 0
        for i in range(200):
            total += i
        n += 200
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n / elapsed


def reference_time(fn, *args):
    """Call fn; return its result and its wall time in reference seconds.

    The CPU's rate is measured before and after the call and sampled on a
    thread every SAMPLE_PERIOD_S during it. Children run at the lowest
    priority, so a sample takes the CPU from them and sees its full speed;
    the time spent sampling is left out of the call's time.
    """
    rates = [cpu_rate(CALIBRATION_S)]
    sampling = [0.0]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(SAMPLE_PERIOD_S):
            begin = time.perf_counter()
            rates.append(cpu_rate(SAMPLE_S))
            sampling[0] += time.perf_counter() - begin

    sampler = threading.Thread(target=sample)
    start = time.perf_counter()
    sampler.start()
    try:
        result = fn(*args)
    finally:
        wall = time.perf_counter() - start
        stop.set()
        sampler.join()
    rates.append(cpu_rate(CALIBRATION_S))
    return result, (wall - sampling[0]) * statistics.fmean(rates) / REFERENCE_RATE


def run_request(args: list[str], env: dict, trace_file: Path | None = None) -> dict:
    """Run one CLI request; return wall time, peak RSS, exit code, output."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "factorlab"]
    else:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_file)]
    cmd += [*args, "--output", "json", "--jobs", "1"]
    with open(WORK / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        os.setpriority(os.PRIO_PROCESS, proc.pid, 19)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip()
    return {"wall": wall, "maxrss_kib": usage.ru_maxrss,
            "code": proc.returncode, "stdout": out, "stderr": stderr}


def timed_request(args: list[str], env: dict, trace_file: Path | None = None) -> dict:
    """run_request with its wall time also in reference seconds."""
    outcome, seconds = reference_time(run_request, args, env, trace_file)
    outcome["time"] = seconds
    return outcome


def check(outcome: dict, expected: dict) -> str | None:
    """Why a response is wrong, or None when it matches the expectation."""
    if outcome["code"] != 0:
        return f"exit {outcome['code']}: {outcome['stderr'][-300:]}"
    try:
        results = json.loads(outcome["stdout"])["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    return corpus.mismatch(expected["results"], results)


def setup(workload: str, seed: int, env: dict) -> dict:
    """Build the corpus, sum its work counts and warm the imports."""
    if not (SRC / "factorlab" / "__init__.py").is_file():
        raise SetupError(f"no factorlab sources under {SRC}")
    requests = corpus.generate(workload, seed)
    expected = corpus.load_expected()
    keys = [corpus.request_key(args) for args in requests]
    unknown = [key for key in keys if key not in expected]
    if unknown:
        raise SetupError(f"no expectation for {unknown[0]!r}")
    work = {
        unit: sum(expected[key][unit] for key in keys)
        for unit in ("elements", "factorizations")
    }
    # Compiles .pyc files here rather than in the first timed request.
    probe = subprocess.run(
        [sys.executable, "-c", "import factorlab.cli; print(factorlab.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise SetupError(f"cannot import factorlab: {probe.stderr.strip()[-300:]}")
    location = Path(probe.stdout.strip()).resolve()
    if location.parent.parent != SRC:
        raise SetupError(f"factorlab imported from {location}, not from {SRC}")
    return {"requests": requests, "expected": expected, "work": work}


def run_pass(corpus_run: dict, workload: str, env: dict, failures: list,
             trace_dir: Path | None = None) -> dict:
    """One closed-loop pass over the request list.

    With a trace directory each request runs untraced and then traced.
    """
    shutil.rmtree(WORK / "cache", ignore_errors=True)
    modes = ["plain", "traced"] if trace_dir else ["plain"]
    times = {mode: [] for mode in modes}
    rss, traces = [], []
    for i, args in enumerate(corpus_run["requests"]):
        key = corpus.request_key(args)
        for mode in modes:
            flags = []
            if workload in CACHED_WORKLOADS:
                flags = ["--cache-dir", f"{CACHE_DIR}/{mode}"]
            trace_file = trace_dir / f"{i}.json" if mode == "traced" else None
            outcome = timed_request(args + flags, env, trace_file)
            problem = check(outcome, corpus_run["expected"][key])
            if problem:
                failures.append(f"{key}: {problem}")
            times[mode].append(outcome["time"])
            rss.append(outcome["maxrss_kib"])
            if trace_file is not None and trace_file.exists():
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
    return {"times": times, "rss": rss, "traces": traces}


def layer_split(traces: list[dict]) -> dict:
    """Per-module self times and counts, summed over one pass."""
    values = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for field in ("factor.fibers.distinct", "factor.distance.distinct"):
        counts[field] = 0
    for trace in traces:
        values["cli.import_s"] += trace["import_s"]
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, begin, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - begin
        for (name, begin, end, _), inner in zip(spans, covered):
            if name in SPAN_METRICS:
                time_metric, count_metric = SPAN_METRICS[name]
                values[time_metric] += end - begin - inner
                if count_metric:
                    counts[count_metric] += 1
        for name, n in trace["counts"].items():
            if name in counts:
                counts[name] += n
    return {"times": values, "counts": counts}


def _ratio(counts: dict, numerator: str, denominator: str) -> float:
    return counts[numerator] / counts[denominator] if counts[denominator] else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    setups: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        setups.append(reference_time(setup, workload, seed, env)[1])

    failures: list[str] = []
    passes = []
    trace_dir = WORK / "trace" if trace else None
    # Run length counts the requests' reference seconds, so the speed of
    # the machine cannot change how many passes a run makes.
    pass_s: list[float] = []
    while True:
        # One more set-up sample before every pass spreads the samples
        # over the run, so a burst of load on the machine skews only few.
        corpus_run, setup_s = reference_time(setup, workload, seed, env)
        setups.append(setup_s)
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        passes.append(run_pass(corpus_run, workload, env, failures, trace_dir))
        pass_s.append(sum(sum(t) for t in passes[-1]["times"].values()))
        elapsed = sum(pass_s)
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break

    attempted = sum(len(t) for p in passes for t in p["times"].values())
    consistent = True
    if not trace:
        # Each request is timed at the best of its passes: the pass least
        # disturbed by load the calibration does not see, such as other
        # tenants' use of the shared caches.
        best = [min(ts) for ts in zip(*(p["times"]["plain"] for p in passes))]
        work = corpus_run["work"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_s": (statistics.median(best), "s"),
            "factorizations_per_s": (work["factorizations"] / sum(best), "1/s"),
            "elements_per_s": (work["elements"] / sum(best), "1/s"),
            "peak_rss_mib": (max(r for p in passes for r in p["rss"]) / 1024, "MiB"),
        }
    else:
        splits = [layer_split(p["traces"]) for p in passes]
        counts = splits[0]["counts"]
        consistent = all(s["counts"] == counts for s in splits[1:])
        metrics = {
            name: (statistics.median(s["times"][name] for s in splits), "s")
            for name in TIME_METRICS
        }
        metrics.update({name: (counts[name], "count") for name in COUNT_METRICS})
        metrics.update({
            name: (_ratio(counts, *fields), "ratio")
            for name, fields in RATIO_METRICS.items()
        })
        metrics["trace.overhead_s"] = (
            statistics.median(sum(p["times"]["traced"]) - sum(p["times"]["plain"])
                              for p in passes),
            "s",
        )
    return {
        "workload": workload, "seed": seed, "failures": failures,
        "consistent": consistent, "pass_s": pass_s,
        "attempted": attempted, "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failures = report["failures"]
    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if not report["consistent"]:
        print("perfbench: traced counts differ between passes", file=sys.stderr)
    failed = len(failures)
    attempted = report["attempted"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"requests {attempted}  passes of "
          + " ".join(f"{t:.2f}" for t in report["pass_s"]) + " reference s")
    print(f"  error_rate = {failed / attempted:.4f}  ({failed} of {attempted} failed)")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and report["consistent"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
