"""Record expected results and work counts for every catalogue request.

Usage: python3 perfbench/record.py

Runs each request any seed can draw once through the CLI and stores its
``results`` in ``expected.json.gz`` beside the two work counts of its
inputs. Re-record only when the catalogue changes; a change to the
program must leave the recorded results intact.
"""

from __future__ import annotations

import json
import shutil
import sys

import corpus
import run

sys.path.insert(0, str(run.SRC))
from factorlab import cli, factor, invariants, models, relations  # noqa: E402


def work_counts(args: list[str]) -> dict:
    """Members a request covers and the sum of their fiber sizes.

    Sweeps cover every member of weight at most the bound, growth probes
    the first n-max powers of their base, other requests one element.
    """
    ns = cli.build_parser().parse_args(args)
    desc = cli.load_descriptor(str(run.ROOT / ns.monoid))
    if ns.command in ("factorize", "invariants"):
        elements = [models.parse_element_literal(desc, ns.element)]
    elif ns.command == "probe-growth":
        base = cli._growth_base(desc, ns)
        elements = [base]
        while len(elements) < ns.n_max:
            elements.append(models.multiply(desc, elements[-1], base))
    else:
        bound = ns.bound
        if bound is None:  # relation-atoms sweeps its default weight bound
            bound = relations._default_weight_bound(desc, ns.length_bound)
        elements = invariants.enumerate_elements(desc, bound)
    return {
        "elements": len(elements),
        "factorizations": sum(len(factor.factorizations(desc, el).all)
                              for el in elements),
    }


def main() -> int:
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    entries = {}
    try:
        for workload in corpus.WORKLOADS:
            for args in corpus.catalogue(workload):
                key = corpus.request_key(args)
                outcome = run.run_request(args, env)
                if outcome["code"] != 0:
                    print(f"{key}: exit {outcome['code']}: {outcome['stderr']}",
                          file=sys.stderr)
                    return 1
                entries[key] = {
                    "results": json.loads(outcome["stdout"])["results"],
                    **work_counts(args),
                }
                print(f"{outcome['wall']:6.2f}s  {key}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    corpus.save_expected(entries)
    print(f"{len(entries)} requests recorded in {corpus.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
