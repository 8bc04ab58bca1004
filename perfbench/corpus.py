"""Request catalogue, seeded corpus generation and expected results.

Every workload is a list of slots. A slot holds one or more alternative
requests of near-equal cost (fiber sizes or member counts within a few
percent), so that every seed draws a corpus of about the same work and
seeds can be compared with each other. Seed 0 takes the
first alternative of every slot in catalogue order, which is the
baseline request list; any other seed picks one alternative per slot
and shuffles the slot order.

Expected results and work counts for every alternative of every slot
are stored in ``expected.json.gz`` (written by ``record.py``), so a run
with any seed is checked request by request. Work counts are properties
of the inputs recorded once: ``elements`` is the number of members the
request covers (members of weight at most the bound for sweeps, one per
element or power otherwise) and ``factorizations`` is the sum of the
fiber sizes of those members. They never come from what a run reports.
"""

from __future__ import annotations

import gzip
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json.gz"
DESCRIPTOR_DIR = "perfbench/descriptors"


def _interval(hi: int) -> str:
    return "{" + ",".join(str(i) for i in range(hi + 1)) + "}"


def _monoid(model: str) -> list[str]:
    return ["--monoid", f"{DESCRIPTOR_DIR}/{model}.json"]


# fiber: one large element per slot; each drawn element is factored once
# (a cache miss that writes the fiber) and then asked for its invariants
# (a cache hit that reads it back). Fibers hold 99 to 476 factorizations.
FIBER_ELEMENTS = (
    ("numerical", ("600", "603", "597")),
    ("numerical", ("800", "803", "797")),
    ("numerical", ("1000", "1003", "1001")),
    ("affine", ("24,24", "24,25", "25,24")),
    ("affine", ("20,28", "28,20", "23,25")),
    ("fp-value", ("14,14", "13,15")),
    ("fp-value", ("12,16", "11,17", "10,18")),
    ("sumset", (_interval(18),)),
    ("sumset", (_interval(19),)),
    ("product", ("60;6,6;4", "60;5,7;4", "60;7,5;4")),
    ("product", ("66;6,6;3", "66;6,6;4")),
)

# Growth families whose elements stay disjoint from FIBER_ELEMENTS, so
# every fiber above is written once and read once per pass.
FIBER_GROWTH = (
    ("numerical", "--family power --element 20 --n-max 15"),
    ("affine", "--family diagonal --n-max 10"),
    ("fp-value", "--family diagonal --n-max 5"),
    ("product", "--family power --element 2;1,1;1 --n-max 8"),
)

# sweep: bound ladders of `global` (the way a user watches an estimate
# stabilize) on every model, plus relation atoms on affine and sumset.
SWEEP = (
    ("numerical", "global", ("--bound 100", "--bound 101")),
    ("numerical", "global", ("--bound 150", "--bound 151")),
    ("numerical", "global", ("--bound 200", "--bound 201")),
    ("numerical", "global", ("--bound 250", "--bound 251")),
    ("affine", "global", ("--bound 12",)),
    ("affine", "global", ("--bound 14",)),
    ("affine", "global", ("--bound 16",)),
    ("fp-value", "global", ("--bound 16",)),
    ("fp-value", "global", ("--bound 20",)),
    ("fp-value", "global", ("--bound 24",)),
    ("sumset", "global", ("--bound 8",)),
    ("sumset", "global", ("--bound 10",)),
    ("sumset", "global", ("--bound 12",)),
    ("product", "global", ("--bound 6",)),
    ("product", "global", ("--bound 8",)),
    ("product", "global", ("--bound 10",)),
    ("affine", "relation-atoms", ("--length-bound 3",)),
    ("affine", "relation-atoms", ("--length-bound 4",)),
    ("sumset", "relation-atoms", ("--length-bound 3",)),
    ("sumset", "relation-atoms", ("--length-bound 4",)),
)

# lengths: questions about length sets only, on every model.
LENGTHS = (
    ("numerical", "structure-probe",
     ("--bound 200 --target unions --k-range 2,8",)),
    ("fp-value", "structure-probe", ("--bound 16 --target unions --k-range 2,5",)),
    ("affine", "structure-probe", ("--bound 14 --target unions --k-range 2,6",)),
    ("sumset", "structure-probe", ("--bound 12 --target unions --k-range 2,6",)),
    ("product", "structure-probe", ("--bound 8 --target unions --k-range 2,5",)),
    ("numerical", "structure-probe", ("--bound 200", "--bound 201")),
    ("fp-value", "structure-probe", ("--bound 20",)),
    ("affine", "structure-probe", ("--bound 16",)),
    ("sumset", "structure-probe", ("--bound 12",)),
    ("product", "structure-probe", ("--bound 10",)),
) + tuple(
    (model, "unions", (f"--bound {bound} --k {k}", f"--bound {bound} --k {k + 1}"))
    for model, bound in (("numerical", 200), ("fp-value", 20), ("affine", 16),
                         ("sumset", 12), ("product", 10))
    for k in (3, 5)
)

WORKLOADS = ("fiber", "sweep", "lengths")


def _slots(workload: str) -> list[list[list[list[str]]]]:
    """Slots of alternatives; an alternative is a list of requests."""
    if workload == "fiber":
        slots = [
            [
                [["factorize", *_monoid(model), "--element", el],
                 ["invariants", *_monoid(model), "--element", el]]
                for el in alternatives
            ]
            for model, alternatives in FIBER_ELEMENTS
        ]
        slots += [
            [[["probe-growth", *_monoid(model), *flags.split()]]]
            for model, flags in FIBER_GROWTH
        ]
        return slots
    table = {"sweep": SWEEP, "lengths": LENGTHS}[workload]
    return [
        [[[command, *_monoid(model), *flags.split()]] for flags in alternatives]
        for model, command, alternatives in table
    ]


def generate(workload: str, seed: int) -> list[list[str]]:
    """The ordered request list of one pass, as CLI argument lists."""
    slots = _slots(workload)
    if seed == 0:
        picked = [slot[0] for slot in slots]
    else:
        rng = random.Random(f"{workload}:{seed}")
        picked = [rng.choice(slot) for slot in slots]
        rng.shuffle(picked)
    return [request for group in picked for request in group]


def catalogue(workload: str) -> list[list[str]]:
    """Every request any seed can draw for the workload."""
    return [
        request
        for slot in _slots(workload)
        for alternative in slot
        for request in alternative
    ]


def request_key(args: list[str]) -> str:
    return " ".join(args)


def load_expected() -> dict:
    with gzip.open(EXPECTED, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_expected(entries: dict) -> None:
    payload = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical across re-recordings.
    with gzip.GzipFile(EXPECTED, "wb", mtime=0) as fh:
        fh.write(payload.encode("utf-8"))


def mismatch(expected, actual, path: str = "results") -> str | None:
    """First difference of actual from expected, or None.

    Dicts compare key by key: a missing or changed key is a difference,
    an added key is not. Lists compare item by item at equal length.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = mismatch(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None
