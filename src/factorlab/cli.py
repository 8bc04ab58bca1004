"""Command line front end.

Every command prints a single report envelope:

    {"command", "descriptorHash", "bounds", "results", "warnings"}

rendered either as canonical JSON (sorted keys, compact separators) or
as an indented plain-text table. Report bytes depend only on the
request; every command runs in one process.

``main`` loads the ``--monoid`` descriptor once, if the command has one,
and calls ``handler(args, desc)`` (``desc`` is None without it). The
handler returns (descriptor to hash or None, results, warnings).

Every command computes its fibers; none is read from or written to disk,
so ``--cache-dir``, like ``--jobs``, is accepted with no effect.

Exit codes: 0 success, 2 malformed input, failed validation or an
unreadable file, 3 enumeration budget exhausted, a distance table past
``invariants.TABLE_LIMIT`` or memory exhausted (``factorlab: out of
memory``, for example by a huge element's bit masks), 4 a verification
scenario's claim failed, 130 interrupted. A process killed from outside,
as by the kernel's out-of-memory killer, cannot report this.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Each handler imports the invariants, aamp or relations module it calls,
# so a request loads only the modules its command runs.
from . import errors, factor, models

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CLAIM = 4
EXIT_INTERRUPT = 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="Factorization workbench for finitely generated monoids.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bound", type=int, default=None,
                        help="weight bound for element sweeps; for "
                             "validate, the per-coordinate bound of the "
                             "fp-value closure check, or at least the "
                             "largest generator weight")
    common.add_argument("--length-bound", type=int, default=None,
                        help="length bound for relation enumeration")
    common.add_argument("--budget", type=int, default=factor.DEFAULT_BUDGET,
                        help="maximum factorizations enumerated per element "
                             "(exit 3 when exceeded)")
    common.add_argument("--output", choices=("json", "table"), default="table")
    common.add_argument("--cache-dir", default=None,
                        help="has no effect, as every fiber is computed")
    common.add_argument("--jobs", type=int, default=1,
                        help="must be at least 1; has no effect, as every "
                             "command runs in one process")
    monoid = argparse.ArgumentParser(add_help=False, parents=[common])
    monoid.add_argument("--monoid", required=True, help="descriptor JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[monoid],
                   help="check a monoid descriptor")

    p = sub.add_parser("atoms", parents=[monoid],
                       help="list the atoms dividing an element")
    p.add_argument("--element", required=True)

    p = sub.add_parser("factorize", parents=[monoid],
                       help="enumerate all factorizations of an element")
    p.add_argument("--element", required=True)

    p = sub.add_parser("invariants", parents=[monoid],
                       help="length set, elasticity, catenary and "
                            "successive-distance data for one element")
    p.add_argument("--element", required=True)

    sub.add_parser("global", parents=[monoid],
                   help="aggregate invariants over a weight-bounded sweep")

    p = sub.add_parser("unions", parents=[monoid],
                       help="union of length sets over the fiber of one length")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("aamp-check", parents=[common],
                       help="test a finite set for almost-arithmetic structure")
    p.add_argument("--set", required=True, dest="length_set",
                   help="comma separated integers, e.g. 2,4,6")
    p.add_argument("--d", "--difference", type=int, required=True,
                   dest="difference")
    p.add_argument("--m", type=int, default=None,
                   help="fixed fuzz bound; omitted means find the minimum")

    p = sub.add_parser("structure-probe", parents=[monoid],
                       help="sweep length sets and fit almost-arithmetic "
                            "structure")
    p.add_argument("--d-candidates", default=None,
                   help="comma separated candidate differences")
    p.add_argument("--target", choices=("elements", "unions"),
                   default="elements")
    p.add_argument("--k-range", default=None,
                   help="inclusive length range lo,hi for --target unions")

    sub.add_parser("relation-atoms", parents=[monoid],
                   help="irreducible equal-length relation pairs")

    p = sub.add_parser("verify-example", parents=[common],
                       help="run a built-in verification scenario")
    p.add_argument("--name", required=True, choices=("3.2", "3.3"))
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--d", "--difference", type=int, default=10,
                   dest="difference")

    p = sub.add_parser("probe-growth", parents=[monoid],
                       help="track invariants along a growing element family")
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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise errors.MalformedDescriptor(f"invalid JSON in {path}: {exc}") from exc
    return models.descriptor_from_json(doc)


def _render_table(value, indent: int = 0, lines: list[str] | None = None) -> list[str]:
    if lines is None:
        lines = []
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list, tuple)) and item:
                lines.append(f"{pad}{key}:")
                _render_table(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{pad}-")
                _render_table(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(item) -> str:
    if isinstance(item, (list, tuple)) and not item:
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


def envelope(args, descriptor_hash: str | None, results, warnings: list) -> dict:
    return {
        "command": args.command,
        "descriptorHash": descriptor_hash,
        "bounds": {
            "weight": args.bound,
            "length": args.length_bound,
            "budget": args.budget,
        },
        "results": results,
        "warnings": warnings,
    }


def _require_bound(args) -> int:
    if args.bound is None:
        raise errors.MalformedDescriptor("this command requires --bound")
    return args.bound


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise errors.MalformedDescriptor(f"{flag} expects integers: {text}") from exc
    if not values:
        raise errors.MalformedDescriptor(f"{flag} is empty")
    return values


Outcome = tuple[models.MonoidDescriptor | None, dict, list]


def run_validate(args, desc) -> Outcome:
    return desc, models.validate(desc, args.bound).to_json(), []


def run_atoms(args, desc) -> Outcome:
    el = models.parse_element_literal(desc, args.element)
    found = models.atoms_dividing(desc, el)
    results = {
        "element": models.element_to_json(desc, el),
        "atoms": [models.element_to_json(desc, u) for u in found],
        "count": len(found),
    }
    return desc, results, []


def run_factorize(args, desc) -> Outcome:
    el = models.parse_element_literal(desc, args.element)
    fs = factor.factorizations(desc, el, args.budget)
    results = factor.factor_set_to_json(fs)
    results["lengthSet"] = list(fs.lengths)
    return desc, results, []


def _report_fiber(desc, el, budget: int) -> factor.FactorSet:
    """Z(el) enumerated to at most the isqrt(TABLE_LIMIT) factorizations
    ``element_report`` accepts; TableTooLarge when that cap stops it."""
    from . import invariants

    most = math.isqrt(invariants.TABLE_LIMIT)
    try:
        return factor.factorizations(desc, el, min(budget, most))
    except errors.BudgetExceeded:
        if budget <= most:
            raise
        raise errors.TableTooLarge(None, invariants.TABLE_LIMIT) from None


def run_invariants(args, desc) -> Outcome:
    from . import invariants

    el = models.parse_element_literal(desc, args.element)
    fs = _report_fiber(desc, el, args.budget)
    return desc, invariants.element_report(fs).to_json(desc), []


def run_global(args, desc) -> Outcome:
    from . import invariants

    bound = _require_bound(args)
    estimates, warnings = invariants.global_estimates(desc, bound, args.budget)
    return desc, {"estimates": [e.to_json() for e in estimates]}, warnings


def run_unions(args, desc) -> Outcome:
    from . import invariants

    bound = _require_bound(args)
    row, warnings = invariants.unions_of_lengths(
        desc, args.k, bound, args.budget)
    row["union"] = list(row["union"].lengths)
    return desc, row, warnings


def run_aamp_check(args, desc) -> Outcome:
    from . import aamp

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
    else:
        results["minimalBound"], witness = aamp.least_fit(values, args.difference)
    results["witness"] = witness.to_json() if witness else None
    return None, results, []


def run_structure_probe(args, desc) -> Outcome:
    from . import aamp

    bound = _require_bound(args)
    if args.target == "unions":
        if args.k_range is None:
            raise errors.MalformedDescriptor("--target unions requires --k-range")
        if args.d_candidates is not None:
            raise errors.MalformedDescriptor(
                "--d-candidates does not apply to --target unions")
        lo, hi = _parse_k_range(args.k_range)
        report = aamp.unions_structure_probe(
            desc, range(lo, hi + 1), bound, args.budget)
    else:
        if args.k_range is not None:
            raise errors.MalformedDescriptor("--k-range requires --target unions")
        d_candidates = None
        if args.d_candidates is not None:
            d_candidates = _parse_int_list(args.d_candidates, "--d-candidates")
        report = aamp.structure_probe(
            desc, bound, d_candidates, args.budget)
    warnings = report.pop("warnings", [])
    return desc, _probe_to_json(desc, report), warnings


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
                "lengths": list(row["lengths"].lengths),
                "m": row["m"],
                "d": row["d"],
            }
            for row in out["perElement"]
        ]
    if "rows" in out:
        out["rows"] = [dict(row, union=list(row["union"].lengths))
                       for row in out["rows"]]
    return out


def run_relation_atoms(args, desc) -> Outcome:
    from . import relations

    if args.length_bound is None:
        raise errors.MalformedDescriptor("this command requires --length-bound")
    found, info = relations.relation_atoms(
        desc, args.length_bound, args.bound, args.budget)
    results = {
        "atoms": [p.to_json(desc) for p in found],
        "count": len(found),
        "enumeration": info,
    }
    return desc, results, []


def run_verify_example(args, desc) -> Outcome:
    from . import relations

    if args.name == "3.2":
        k_max = args.k_max if args.k_max is not None else 8
        report = relations.verify_interval_relations(k_max)
        return relations.INTERVAL_SCENARIO, report, []
    k_max = args.k_max if args.k_max is not None else 5
    report = relations.verify_unique_representation(args.difference, k_max)
    return None, report, []


def run_probe_growth(args, desc) -> Outcome:
    from . import invariants

    if args.n_max < 1:
        raise errors.MalformedDescriptor("--n-max must be at least 1")
    base = _growth_base(desc, args)
    rows = []
    warnings: list = []
    current = models.identity(desc)
    for n in range(1, args.n_max + 1):
        current = models.multiply(desc, current, base)
        try:
            fs = _report_fiber(desc, current, args.budget)
            report = invariants.element_report(fs).to_json(desc)
        except errors.BudgetExceeded as exc:
            warnings.append(invariants.budget_warning(desc, current, exc.limit))
            break
        except errors.TableTooLarge as exc:
            warnings.append({"element": models.element_to_json(desc, current),
                             "error": "table-too-large", "factorizations": exc.n,
                             "limit": exc.limit})
            break
        rows.append({"n": n, **{key: report[key] for key in _ROW_KEYS}})
    half = rows[len(rows) // 2:]
    verdicts = {
        name: bool(half) and len({json.dumps(row[name]) for row in half}) == 1
        for name in _GROWTH_KEYS
    }
    results = {
        "family": args.family,
        "base": models.element_to_json(desc, base),
        "rows": rows,
        "verdicts": verdicts,
        "stabilized": all(verdicts.values()) and len(rows) == args.n_max,
    }
    return desc, results, warnings


# The invariant-report keys a growth row keeps, and those judged for a verdict.
_GROWTH_KEYS = ("delta", "rho", "c", "cMon", "deltaW")
_ROW_KEYS = ("element", "lengthSet") + _GROWTH_KEYS


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
    for flag, value, least in (("--bound", args.bound, 0),
                               ("--length-bound", args.length_bound, 0),
                               ("--budget", args.budget, 0),
                               ("--jobs", args.jobs, 1)):
        if value is not None and value < least:
            need = "nonnegative" if least == 0 else f"at least {least}"
            print(f"factorlab: {flag} must be {need}, got {value}",
                  file=sys.stderr)
            return EXIT_INPUT
    handler = _HANDLERS[args.command]
    try:
        desc = load_descriptor(args.monoid) if "monoid" in args else None
        hashed, results, warnings = handler(args, desc)
        descriptor_hash = None if hashed is None else models.descriptor_hash(hashed)
    except errors.BudgetExceeded as exc:
        print(f"factorlab: enumeration budget {exc.limit} exhausted",
              file=sys.stderr)
        return EXIT_BUDGET
    except errors.TableTooLarge as exc:
        print(f"factorlab: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("factorlab: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except errors.AssertionFailure as exc:
        print(f"factorlab: claim failed: {exc}", file=sys.stderr)
        return EXIT_CLAIM
    except KeyboardInterrupt:
        print("factorlab: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except (errors.MalformedDescriptor, errors.ClosureViolation,
            errors.ShapeMismatch, errors.NotAMember, ValueError, OSError) as exc:
        print(f"factorlab: {exc}", file=sys.stderr)
        return EXIT_INPUT
    emit(envelope(args, descriptor_hash, results, warnings), args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
