"""Run the benchmark over several seeds and collect the result lines.

Usage:
    python3 perfbench/repeat.py --side CHECKOUT OUT.jsonl [--side ...]
        [--workload W ...] [--seeds 1-10] [--trace 0|1]

Each side is a checkout (its own ``perfbench/run.py`` runs from its
root) and the JSON-lines file its records are appended to. With two
sides, every (seed, workload) runs on both, alternating which side goes
first, so a parent and a change are measured in interleaved pairs.
Every run lasts BENCHMARK.json's ``run_seconds``.
Compare the files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", nargs=2, action="append", required=True,
                        metavar=("CHECKOUT", "OUT"))
    parser.add_argument("--workload", action="append", choices=corpus.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in args.workload or corpus.WORKLOADS:
        for seed in args.seeds:
            sides = args.side if seed % 2 else args.side[::-1]
            for checkout, out in sides:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(args.trace)],
                    cwd=checkout, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{checkout} {workload} seed {seed}: exit "
                          f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                record = {"checkout": str(checkout), "workload": workload,
                          "seed": seed, "trace": args.trace, "result": result}
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{workload:8} seed {seed:3} {checkout}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
