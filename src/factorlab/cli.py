"""Command line front end.

Every command prints a single report envelope:

    {"command", "descriptorHash", "bounds", "results", "warnings"}

rendered either as canonical JSON (sorted keys, compact separators) or
as an indented plain-text table. Report bytes depend only on the
request, never on the parallelism degree.

Exit codes: 0 success, 2 malformed input or failed validation,
3 enumeration budget exhausted, 4 a verification scenario's claim failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import aamp, cache, errors, factor, invariants, models, relations

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CLAIM = 4


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    monoid: str | None = None
    weight_bound: int | None = None
    length_bound: int | None = None
    budget: int = factor.DEFAULT_BUDGET
    output: str = "table"
    cache_dir: str | None = None
    jobs: int = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="Factorization workbench for finitely generated monoids.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bound", type=int, default=None,
                        help="weight bound for element sweeps")
    common.add_argument("--length-bound", type=int, default=None,
                        help="length bound for relation enumeration")
    common.add_argument("--budget", type=int, default=factor.DEFAULT_BUDGET,
                        help="maximum factorizations enumerated per element "
                             "(exit 3 when exceeded)")
    common.add_argument("--output", choices=("json", "table"), default="table")
    common.add_argument("--cache-dir", default=None,
                        help="factorization cache directory "
                             "(default: $FACTORLAB_CACHE)")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the element reports of "
                             "global, and for the sumset fibers of "
                             "structure-probe and unions")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a monoid descriptor")
    p.add_argument("--monoid", required=True, help="descriptor JSON file")

    p = sub.add_parser("atoms", parents=[common],
                       help="list the atoms dividing an element")
    p.add_argument("--monoid", required=True)
    p.add_argument("--element", required=True)

    p = sub.add_parser("factorize", parents=[common],
                       help="enumerate all factorizations of an element")
    p.add_argument("--monoid", required=True)
    p.add_argument("--element", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="length set, elasticity, catenary and "
                            "successive-distance data for one element")
    p.add_argument("--monoid", required=True)
    p.add_argument("--element", required=True)

    p = sub.add_parser("global", parents=[common],
                       help="aggregate invariants over a weight-bounded sweep")
    p.add_argument("--monoid", required=True)

    p = sub.add_parser("unions", parents=[common],
                       help="union of length sets over the fiber of one length")
    p.add_argument("--monoid", required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("aamp-check", parents=[common],
                       help="test a finite set for almost-arithmetic structure")
    p.add_argument("--set", required=True, dest="length_set",
                   help="comma separated integers, e.g. 2,4,6")
    p.add_argument("--d", "--difference", type=int, required=True,
                   dest="difference")
    p.add_argument("--m", type=int, default=None,
                   help="fixed fuzz bound; omitted means find the minimum")

    p = sub.add_parser("structure-probe", parents=[common],
                       help="sweep length sets and fit almost-arithmetic "
                            "structure")
    p.add_argument("--monoid", required=True)
    p.add_argument("--d-candidates", default=None,
                   help="comma separated candidate differences")
    p.add_argument("--target", choices=("elements", "unions"),
                   default="elements")
    p.add_argument("--k-range", default=None,
                   help="inclusive length range lo,hi for --target unions")

    p = sub.add_parser("relation-atoms", parents=[common],
                       help="irreducible equal-length relation pairs")
    p.add_argument("--monoid", required=True)

    p = sub.add_parser("verify-example", parents=[common],
                       help="run a built-in verification scenario")
    p.add_argument("--name", required=True, choices=("3.2", "3.3"))
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--d", "--difference", type=int, default=10,
                   dest="difference")

    p = sub.add_parser("probe-growth", parents=[common],
                       help="track invariants along a growing element family")
    p.add_argument("--monoid", required=True)
    p.add_argument("--family", required=True, choices=("power", "diagonal"))
    p.add_argument("--element", default=None,
                   help="base element for the power family")
    p.add_argument("--n-max", type=int, required=True)

    return parser


def load_descriptor(path: str) -> models.MonoidDescriptor:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise errors.MalformedDescriptor(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise errors.MalformedDescriptor(f"invalid JSON in {path}: {exc}") from exc
    return models.descriptor_from_json(doc)


def jsonable(value):
    """Rewrite report values into plain JSON types."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, invariants.LengthSet):
        return list(value.lengths)
    if isinstance(value, frozenset):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def _render_table(value, indent: int = 0, lines: list[str] | None = None) -> list[str]:
    if lines is None:
        lines = []
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                _render_table(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _render_table(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(item) -> str:
    if isinstance(item, list) and not item:
        return "[]"
    if isinstance(item, dict) and not item:
        return "{}"
    if item is None:
        return "null"
    if item is True:
        return "true"
    if item is False:
        return "false"
    return str(item)


def emit(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(models.canonical_dumps(report) + "\n")
    else:
        sys.stdout.write("\n".join(_render_table(report)) + "\n")


def envelope(config: RunConfig, descriptor_hash: str | None,
             results, warnings: list) -> dict:
    return {
        "command": config.command,
        "descriptorHash": descriptor_hash,
        "bounds": {
            "weight": config.weight_bound,
            "length": config.length_bound,
            "budget": config.budget,
        },
        "results": jsonable(results),
        "warnings": jsonable(warnings),
    }


def _require_bound(config: RunConfig) -> int:
    if config.weight_bound is None:
        raise errors.MalformedDescriptor("this command requires --bound")
    return config.weight_bound


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise errors.MalformedDescriptor(f"{flag} expects integers: {text}") from exc
    if not values:
        raise errors.MalformedDescriptor(f"{flag} is empty")
    return values


def _load_fiber(config: RunConfig, desc: models.MonoidDescriptor,
                element_literal: str) -> factor.FactorSet:
    el = models.parse_element_literal(desc, element_literal)
    return cache.load_or_compute(desc, el, config.budget,
                                 cache.resolve_cache_dir(config.cache_dir))


def run_validate(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    bound = config.weight_bound
    if bound is None:
        bound = _default_validation_bound(desc)
    report = models.validate(desc, bound)
    return models.descriptor_hash(desc), report.to_json(), []


def _default_validation_bound(desc: models.MonoidDescriptor) -> int:
    if isinstance(desc, models.FinitelyPrimaryValue):
        return 2 * desc.exponent
    if isinstance(desc, models.Product):
        return max(_default_validation_bound(f) for f in desc.factors) \
            if desc.factors else 1
    top = models.max_generator_weight(desc)
    return top if top is not None else 1


def run_atoms(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    el = models.parse_element_literal(desc, args.element)
    found = models.atoms_dividing(desc, el)
    results = {
        "element": models.element_to_json(desc, el),
        "atoms": [models.element_to_json(desc, u) for u in found],
        "count": len(found),
    }
    return models.descriptor_hash(desc), results, []


def run_factorize(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    fs = _load_fiber(config, desc, args.element)
    results = factor.factor_set_to_json(fs)
    results["lengthSet"] = list(fs.lengths)
    return models.descriptor_hash(desc), results, []


def run_invariants(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    fs = _load_fiber(config, desc, args.element)
    report = invariants.element_report(fs)
    return models.descriptor_hash(desc), report.to_json(desc), []


def run_global(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    bound = _require_bound(config)
    estimates, warnings = invariants.global_estimates(
        desc, bound, config.budget, config.jobs)
    results = {"estimates": [e.to_json() for e in estimates]}
    return models.descriptor_hash(desc), results, warnings


def run_unions(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    bound = _require_bound(config)
    row, warnings = invariants.unions_of_lengths(
        desc, args.k, bound, config.budget, config.jobs)
    return models.descriptor_hash(desc), row, warnings


def run_aamp_check(config: RunConfig, args) -> tuple[str | None, dict, list]:
    values = _parse_int_list(args.length_set, "--set")
    if args.difference < 1:
        raise errors.MalformedDescriptor("--difference must be positive")
    results: dict = {
        "set": sorted(set(values)),
        "difference": args.difference,
    }
    if args.m is not None:
        witness = aamp.is_aamp(values, args.difference, args.m)
        results["m"] = args.m
        results["isMatch"] = witness is not None
        results["witness"] = witness.to_json() if witness else None
    else:
        bound = aamp.minimal_bound(values, args.difference)
        witness = aamp.is_aamp(values, args.difference, bound)
        results["minimalBound"] = bound
        results["witness"] = witness.to_json() if witness else None
    return None, results, []


def run_structure_probe(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    bound = _require_bound(config)
    if args.target == "unions":
        if args.k_range is None:
            raise errors.MalformedDescriptor("--target unions requires --k-range")
        lo, hi = _parse_k_range(args.k_range)
        report = aamp.unions_structure_probe(
            desc, range(lo, hi + 1), bound, config.budget, config.jobs)
    else:
        d_candidates = None
        if args.d_candidates is not None:
            d_candidates = _parse_int_list(args.d_candidates, "--d-candidates")
        report = aamp.structure_probe(
            desc, bound, d_candidates, config.budget, config.jobs)
    warnings = report.pop("warnings", [])
    return models.descriptor_hash(desc), _probe_to_json(desc, report), warnings


def _parse_k_range(text: str) -> tuple[int, int]:
    values = _parse_int_list(text, "--k-range")
    if len(values) != 2:
        raise errors.MalformedDescriptor(
            f"--k-range expects two integers lo,hi, got {len(values)}: {text}")
    lo, hi = values
    if lo > hi:
        raise errors.MalformedDescriptor(
            f"--k-range lo must not exceed hi: {text}")
    return lo, hi


def _probe_to_json(desc: models.MonoidDescriptor, report: dict) -> dict:
    out = dict(report)
    if "perElement" in out:
        out["perElement"] = [
            {
                "element": models.element_to_json(desc, row["element"]),
                "lengths": jsonable(row["lengths"]),
                "m": row["m"],
                "d": row["d"],
            }
            for row in out["perElement"]
        ]
    return out


def run_relation_atoms(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    if config.length_bound is None:
        raise errors.MalformedDescriptor("this command requires --length-bound")
    found, info = relations.relation_atoms(
        desc, config.length_bound, config.weight_bound, config.budget)
    results = {
        "atoms": [p.to_json(desc) for p in found],
        "count": len(found),
        "enumeration": info,
    }
    return models.descriptor_hash(desc), results, []


def run_verify_example(config: RunConfig, args) -> tuple[str | None, dict, list]:
    if args.name == "3.2":
        k_max = args.k_max if args.k_max is not None else 8
        report = relations.verify_interval_relations(k_max)
        return models.descriptor_hash(relations.INTERVAL_SCENARIO), report, []
    k_max = args.k_max if args.k_max is not None else 5
    report = relations.verify_unique_representation(args.difference, k_max)
    return None, report, []


def run_probe_growth(config: RunConfig, args) -> tuple[str | None, dict, list]:
    desc = load_descriptor(args.monoid)
    if args.n_max < 1:
        raise errors.MalformedDescriptor("--n-max must be at least 1")
    base = _growth_base(desc, args)
    cache_dir = cache.resolve_cache_dir(config.cache_dir)
    rows = []
    warnings: list = []
    current = models.identity(desc)
    series: dict[str, list] = {name: [] for name in _GROWTH_KEYS}
    for n in range(1, args.n_max + 1):
        current = models.multiply(desc, current, base)
        try:
            fs = cache.load_or_compute(desc, current, config.budget, cache_dir)
        except errors.BudgetExceeded as exc:
            warnings.append(invariants.budget_warning(desc, current, exc.limit))
            break
        report = invariants.element_report(fs)
        row = {
            "n": n,
            "element": models.element_to_json(desc, current),
            "lengthSet": list(report.lengths.lengths),
            "delta": list(report.lengths.delta()),
            "rho": str(report.elasticity),
            "c": report.c,
            "cMon": report.c_mon,
            "deltaW": report.delta_w,
        }
        rows.append(row)
        for name in _GROWTH_KEYS:
            series[name].append(row[name])
    verdicts = {}
    for name in _GROWTH_KEYS:
        values = series[name]
        half = values[len(values) // 2:]
        verdicts[name] = bool(half) and len({json.dumps(v) for v in half}) == 1
    results = {
        "family": args.family,
        "base": models.element_to_json(desc, base),
        "rows": rows,
        "verdicts": verdicts,
        "stabilized": all(verdicts.values()) and len(rows) == args.n_max,
    }
    return models.descriptor_hash(desc), results, warnings


_GROWTH_KEYS = ("delta", "rho", "c", "cMon", "deltaW")


def _growth_base(desc: models.MonoidDescriptor, args):
    if args.family == "power":
        if args.element is None:
            raise errors.MalformedDescriptor("--family power requires --element")
        return models.parse_element_literal(desc, args.element)
    if isinstance(desc, models.Numerical):
        raise errors.MalformedDescriptor(
            "--family diagonal needs a multi-coordinate model")
    if isinstance(desc, models.Affine):
        return models.canon(desc, (1,) * desc.dim)
    if isinstance(desc, models.FinitelyPrimaryValue):
        return models.canon(desc, (desc.exponent,) * desc.rank)
    raise errors.MalformedDescriptor(
        "--family diagonal needs a coordinate model")


_HANDLERS = {
    "validate": run_validate,
    "atoms": run_atoms,
    "factorize": run_factorize,
    "invariants": run_invariants,
    "global": run_global,
    "unions": run_unions,
    "aamp-check": run_aamp_check,
    "structure-probe": run_structure_probe,
    "relation-atoms": run_relation_atoms,
    "verify-example": run_verify_example,
    "probe-growth": run_probe_growth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        monoid=getattr(args, "monoid", None),
        weight_bound=args.bound,
        length_bound=args.length_bound,
        budget=args.budget,
        output=args.output,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
    )
    for flag, value in (("--bound", config.weight_bound),
                        ("--length-bound", config.length_bound),
                        ("--budget", config.budget)):
        if value is not None and value < 0:
            print(f"factorlab: {flag} must be nonnegative, got {value}",
                  file=sys.stderr)
            return EXIT_INPUT
    handler = _HANDLERS[config.command]
    try:
        descriptor_hash, results, warnings = handler(config, args)
    except errors.BudgetExceeded as exc:
        print(f"factorlab: enumeration budget {exc.limit} exhausted",
              file=sys.stderr)
        return EXIT_BUDGET
    except errors.AssertionFailure as exc:
        print(f"factorlab: claim failed: {exc}", file=sys.stderr)
        return EXIT_CLAIM
    except (errors.MalformedDescriptor, errors.ClosureViolation,
            errors.ShapeMismatch, errors.NotAMember, ValueError) as exc:
        print(f"factorlab: {exc}", file=sys.stderr)
        return EXIT_INPUT
    emit(envelope(config, descriptor_hash, results, warnings), config.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
