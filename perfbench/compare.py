"""Summarize one result set or compare two.

Usage:
    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Result sets are the JSON-lines files ``repeat.py`` writes. For each
workload and metric this prints the median and quartiles of each side.

With one set it also prints each end-to-end metric's spread, the
distance between the quartiles as a share of the median, against the
bound in BENCHMARK.json, and whether traced runs of one seed repeated
their counts exactly.

With two sets it prints a verdict per end-to-end metric, pairing runs by
(workload, seed):
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              quartile distance;
  unresolved  the spread of either side exceeds the bound and not every
              change run reads better than every base run;
  worse       the change's median is worse than the base's by more than
              the bound;
  no worse    otherwise.
Per-layer counts are reported as same or changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): {seed: [values]}} plus {workload: failed runs}."""
    values: dict = defaultdict(lambda: defaultdict(list))
    failed: dict = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            result = record["result"]
            if not result["correct"]:
                failed[record["workload"]] += 1
            for name, metric in result["metrics"].items():
                values[(record["workload"], name)][record["seed"]].append(
                    metric["value"])
    return {"values": values, "failed": failed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def flat(by_seed: dict) -> list[float]:
    return [v for seed in sorted(by_seed) for v in by_seed[seed]]


def better(a: float, b: float, direction: str) -> bool:
    """Does b read better than a?"""
    return b < a if direction == "lower" else b > a


def verdict(base: dict, change: dict, spec: dict) -> str:
    direction, bound = spec["better"], spec["bound"]
    a, b = flat(base), flat(change)
    q1a, meda, q3a = quartiles(a)
    q1b, medb, q3b = quartiles(b)
    pairs = [(x, y) for seed in base if seed in change
             for x, y in zip(base[seed], change[seed])]
    wins = sum(better(x, y, direction) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and better(meda, medb, direction) \
            and abs(medb - meda) > q3a - q1a:
        return "improved"
    spread = max((q3a - q1a) / meda if meda else 0.0,
                 (q3b - q1b) / medb if medb else 0.0)
    all_better = all(better(x, y, direction) for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = (medb - meda) if direction == "lower" else (meda - medb)
    if meda and worse_by / meda > bound:
        return "worse"
    return "no worse"


def main(argv: list[str] | None = None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in paths]
    keys = sorted(set().union(*(s["values"] for s in sets)))
    for workload in sorted({w for w, _ in keys}):
        fails = " / ".join(str(s["failed"][workload]) for s in sets)
        print(f"== {workload}  (runs not correct: {fails})")
        for name in [n for w, n in keys if w == workload]:
            sides = [s["values"].get((workload, name), {}) for s in sets]
            cells = []
            for by_seed in sides:
                vals = flat(by_seed)
                if not vals:
                    cells.append("-")
                    continue
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}")
            line = f"  {name:34} " + "  |  ".join(cells)
            if name in end_to_end and all(sides):
                spec_m = end_to_end[name]
                if len(sets) == 2:
                    line += f"  -> {verdict(sides[0], sides[1], spec_m)}"
                else:
                    q1, med, q3 = quartiles(flat(sides[0]))
                    spread = (q3 - q1) / med if med else 0.0
                    line += (f"  spread {spread:.3f} of bound {spec_m['bound']}"
                             f" ({'ok' if spread <= spec_m['bound'] else 'TOO WIDE'})")
            elif name not in end_to_end and all(sides) and \
                    isinstance(flat(sides[0])[0], int):
                if len(sets) == 2:
                    same = flat(sides[0]) == flat(sides[1])
                    line += f"  -> {'same' if same else 'changed'}"
                else:
                    repeats = all(len(set(v)) == 1 for v in sides[0].values())
                    line += f"  -> {'repeats' if repeats else 'DIFFERS'} per seed"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
