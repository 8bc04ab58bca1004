"""Run one factorlab CLI request with per-module spans and counters.

Usage: python3 perfbench/trace_child.py OUT.json CLI-ARGS...

The public functions below are replaced on their modules before the CLI
runs. Code inside the package reaches them through module attributes or
module globals, so every call, nested ones included, goes through the
wrapper. Span wrappers record (name, start, end, parent); the harness
turns them into self time (span minus child spans). The hot functions
get counters only, because a timer per call costs more than the call.
Spans and counters are written to OUT.json when the request ends.
"""

import sys
import time

_import_start = time.perf_counter()
import factorlab.cli  # noqa: E402  (timed: the import a fresh CLI pays)
_import_s = time.perf_counter() - _import_start

import functools  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

from factorlab import aamp, cache, cli, factor, invariants, models, relations  # noqa: E402

spans: list[list] = []
stack: list[int] = []
counts: Counter = Counter()
fiber_keys: set = set()
pair_keys: set = set()


def _open_span(name: str) -> list:
    record = [name, time.perf_counter(), None, stack[-1] if stack else -1]
    stack.append(len(spans))
    spans.append(record)
    return record


def _close_span(record: list) -> None:
    stack.pop()
    record[2] = time.perf_counter()


def _span(module, attr, name):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = _open_span(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _close_span(record)

    setattr(module, attr, wrapper)


def _counted(module, attr, name):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, wrapper)


def _install() -> None:
    _span(cli, "load_descriptor", "cli.load")
    _span(cli, "emit", "cli.render")
    _span(models, "atoms_dividing", "models.atoms")
    _span(invariants, "element_report", "invariants.report")
    _span(invariants, "enumerate_elements", "invariants.enumerate")
    _span(invariants, "global_estimates", "invariants.aggregate")
    _span(invariants, "unions_of_lengths", "invariants.aggregate")
    _span(aamp, "minimal_bound", "aamp.fit")
    _span(relations, "relation_atoms", "relations.atoms")
    for module, attr, name in (
        (models, "is_atom", "models.is_atom.calls"),
        (models, "membership", "models.membership.calls"),
        (models, "multiply", "models.multiply.calls"),
        (aamp, "is_aamp", "aamp.is_aamp.calls"),
        (relations, "is_relation_atom", "relations.is_relation_atom.calls"),
    ):
        _counted(module, attr, name)

    enumerate_fiber = factor.factorizations

    @functools.wraps(enumerate_fiber)
    def factorizations(desc, element, *args, **kwargs):
        fs = enumerate_fiber(desc, element, *args, **kwargs)
        counts["factor.factorizations"] += len(fs.all)
        fiber_keys.add((desc, fs.element))
        return fs

    factor.factorizations = factorizations
    _span(factor, "factorizations", "factor.enumerate")

    distance = factor.distance

    @functools.wraps(distance)
    def counted_distance(x, y):
        counts["factor.distance.calls"] += 1
        pair_keys.add(frozenset((x, y)))
        return distance(x, y)

    factor.distance = counted_distance

    enumerate_pairs = relations.enumerate_equal_length_relations

    @functools.wraps(enumerate_pairs)
    def counted_pairs(*args, **kwargs):
        pairs, info = enumerate_pairs(*args, **kwargs)
        counts["relations.pairs"] += len(pairs)
        return pairs, info

    relations.enumerate_equal_length_relations = counted_pairs

    load_or_compute = cache.load_or_compute

    @functools.wraps(load_or_compute)
    def cached_fiber(*args, **kwargs):
        cache_dir = kwargs.get("cache_dir", args[3] if len(args) > 3 else None)
        record = _open_span("cache.off")
        # Every fiber holds a factorization, so a miss moves this counter.
        enumerated = counts["factor.factorizations"]
        try:
            return load_or_compute(*args, **kwargs)
        finally:
            _close_span(record)
            if cache_dir is not None:
                missed = counts["factor.factorizations"] != enumerated
                record[0] = "cache.write" if missed else "cache.read"

    cache.load_or_compute = cached_fiber


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    _install()
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        counts["factor.fibers.distinct"] = len(fiber_keys)
        counts["factor.distance.distinct"] = len(pair_keys)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": _import_s, "spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
