"""Command line front end.

Every command prints a single report envelope:

    {"command", "descriptorHash", "bounds", "results", "warnings"}

rendered either as canonical JSON (sorted keys, compact separators) or
as an indented plain-text table. Report bytes depend only on the
request; every command runs in one process.

``main`` loads the ``--monoid`` descriptor once, if the command has one,
and calls ``handler(args, desc)`` (``desc`` is None without it). The
handler returns (descriptor to hash or None, results, warnings); the
probes and unions pass on the library's JSON-ready (report, warnings).

Every command computes its fibers; none is read from or written to disk,
so ``--cache-dir``, like ``--jobs``, is accepted with no effect.

``COMMANDS`` lists every command's options once. A well-formed request,
``<command> (--flag value)*`` with exact flags, is parsed by
``parse_fast`` and never imports argparse, gettext or locale; ``--help``
and every other line go through ``build_parser``, so help, usage and error
messages are argparse's own.

Exit codes: 0 success, 2 malformed input, failed validation or an
unreadable file, 3 enumeration budget exhausted, a distance table too
large for ``invariants.element_report`` or memory exhausted
(``factorlab: out of memory``, for example by a huge element's bit
masks), 4 a verification scenario's claim failed, 130 interrupted, 141
the report or help could not be written (stdout closed, a closed pipe, as a
shell reports a writer ended by SIGPIPE, or a full disk). A process killed
from outside, as by the kernel's out-of-memory killer, cannot report this.
"""

from __future__ import annotations

import json
import os
import sys
import types

# Each handler imports the invariants, aamp or relations module it calls,
# so a request loads only the modules its command runs.
from . import errors, factor, models

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CLAIM = 4
EXIT_INTERRUPT = 130
EXIT_OUTPUT = 141


def _option(*flags, **spec):
    """One option: its flags and ``add_argument`` keywords, dest included."""
    spec.setdefault("dest", flags[0].lstrip("-").replace("-", "_"))
    return flags, spec


_COMMON = (
    _option("--bound", type=int, default=None,
            help="weight bound for element sweeps; for validate, the "
                 "per-coordinate bound of the fp-value closure check, or at "
                 "least the largest generator weight"),
    _option("--length-bound", type=int, default=None,
            help="length bound for relation enumeration"),
    _option("--budget", type=int, default=factor.DEFAULT_BUDGET,
            help="maximum factorizations enumerated per element "
                 "(exit 3 when exceeded)"),
    _option("--output", choices=("json", "table"), default="table"),
    _option("--cache-dir", default=None,
            help="has no effect, as every fiber is computed"),
    _option("--jobs", type=int, default=1,
            help="must be at least 1; has no effect, as every command runs "
                 "in one process"),
)
_MONOID = (*_COMMON, _option("--monoid", required=True, help="descriptor JSON file"))
_ELEMENT = _option("--element", required=True)

# Every command: its help line and its options, in --help order.
COMMANDS = {
    "validate": ("check a monoid descriptor", _MONOID),
    "atoms": ("list the atoms dividing an element", (*_MONOID, _ELEMENT)),
    "factorize": ("enumerate all factorizations of an element", (*_MONOID, _ELEMENT)),
    "invariants": ("length set, elasticity, catenary and successive-distance "
                   "data for one element", (*_MONOID, _ELEMENT)),
    "global": ("aggregate invariants over a weight-bounded sweep", _MONOID),
    "unions": ("union of length sets over the fiber of one length",
               (*_MONOID, _option("--k", type=int, required=True))),
    "aamp-check": ("test a finite set for almost-arithmetic structure", (
        *_COMMON,
        _option("--set", required=True, dest="length_set",
                help="comma separated integers, e.g. 2,4,6; as "
                     "--set=-5,-3,100 when the first is negative"),
        _option("--d", "--difference", type=int, required=True, dest="difference"),
        _option("--m", type=int, default=None,
                help="fixed fuzz bound; omitted means find the minimum"))),
    "structure-probe": ("sweep length sets and fit almost-arithmetic structure", (
        *_MONOID,
        _option("--d-candidates", default=None,
                help="comma separated candidate differences"),
        _option("--target", choices=("elements", "unions"), default="elements"),
        _option("--k-range", default=None,
                help="inclusive length range lo,hi for --target unions"))),
    "relation-atoms": ("irreducible equal-length relation pairs", _MONOID),
    "verify-example": ("run a built-in verification scenario", (
        *_COMMON,
        _option("--name", required=True, choices=("3.2", "3.3")),
        _option("--k-max", type=int, default=None),
        _option("--d", "--difference", type=int, default=10, dest="difference"))),
    "probe-growth": ("track invariants along a growing element family", (
        *_MONOID,
        _option("--family", required=True, choices=("power", "diagonal")),
        _option("--element", default=None, help="base element for the power family"),
        _option("--n-max", type=int, required=True))),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, for --help and malformed lines."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):  # to stdout as a report goes, see main
            (file.write if file else _write)(self.format_help())

    parser = Parser(
        prog="factorlab",
        description="Factorization workbench for finitely generated monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flags, spec in options:
            p.add_argument(*flags, **spec)
    return parser


def parse_fast(argv: list[str]) -> types.SimpleNamespace | None:
    """``<command> (--flag value)*`` with exact flags, each dest once and no
    value starting with "-", parsed as argparse would; None for any other
    line, which ``build_parser`` then parses or rejects."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    options = {flag: spec for flags, spec in COMMANDS[argv[0]][1] for flag in flags}
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        spec = options.get(flag)
        if spec is None or spec["dest"] in given or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[spec["dest"]] = value
    if any(spec.get("required") and spec["dest"] not in given for spec in options.values()):
        return None
    return types.SimpleNamespace(command=argv[0], **{
        spec["dest"]: given.get(spec["dest"], spec.get("default")) for spec in options.values()})


def load_descriptor(path: str) -> models.MonoidDescriptor:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise errors.MalformedDescriptor(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise errors.MalformedDescriptor(f"invalid JSON in {path}: {exc}") from exc
    return models.descriptor_from_json(doc)


def emit(report: dict, output: str) -> None:
    if output == "json":
        _write(models.canonical_dumps(report) + "\n")
    else:
        from . import render

        _write("\n".join(render.render_table(report)) + "\n")


def _write(text: str) -> None:
    if sys.stdout is None:  # fd 1 was closed when the process began
        raise OSError("stdout is closed")
    sys.stdout.write(text)
    sys.stdout.flush()


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
    from . import validation

    return desc, validation.validate(desc, args.bound).to_json(), []


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
    from . import search

    el = models.parse_element_literal(desc, args.element)
    fs = factor.factorizations(desc, el, args.budget)
    results = search.factor_set_to_json(fs)
    results["lengthSet"] = list(fs.lengths)
    return desc, results, []


def run_invariants(args, desc) -> Outcome:
    from . import invariants, pairwise

    el = models.parse_element_literal(desc, args.element)
    fs = pairwise.report_fiber(desc, el, args.budget)
    return desc, invariants.element_report(fs).to_json(desc), []


def run_global(args, desc) -> Outcome:
    from . import invariants

    bound = _require_bound(args)
    estimates, warnings = invariants.global_estimates(desc, bound, args.budget)
    return desc, {"estimates": [e.to_json() for e in estimates]}, warnings


def run_unions(args, desc) -> Outcome:
    from . import invariants

    bound = _require_bound(args)
    return desc, *invariants.unions_of_lengths(desc, args.k, bound, args.budget)


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
        least = results["minimalBound"] = aamp.minimal_bound(values, args.difference)
        witness = aamp.is_aamp(values, args.difference, least)
        if witness is None:
            raise AssertionError(f"no witness at the least bound {least}")
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
        return desc, *aamp.unions_structure_probe(
            desc, range(lo, hi + 1), bound, args.budget)
    if args.k_range is not None:
        raise errors.MalformedDescriptor("--k-range requires --target unions")
    d_candidates = None
    if args.d_candidates is not None:
        d_candidates = _parse_int_list(args.d_candidates, "--d-candidates")
    return desc, *aamp.structure_probe(desc, bound, d_candidates, args.budget)


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
    from . import scenarios

    if args.name == "3.2":
        k_max = args.k_max if args.k_max is not None else 8
        report = scenarios.verify_interval_relations(k_max)
        return scenarios.INTERVAL_SCENARIO, report, []
    k_max = args.k_max if args.k_max is not None else 5
    report = scenarios.verify_unique_representation(args.difference, k_max)
    return None, report, []


def run_probe_growth(args, desc) -> Outcome:
    from . import invariants, pairwise

    if args.n_max < 1:
        raise errors.MalformedDescriptor("--n-max must be at least 1")
    base = _growth_base(desc, args)
    rows = []
    warnings: list = []
    current = models.identity(desc)
    for n in range(1, args.n_max + 1):
        current = models.multiply(desc, current, base)
        try:
            fs = pairwise.report_fiber(desc, current, args.budget)
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


def _complain(text: str) -> None:
    """``factorlab: text`` on stderr, lost when stderr is closed; stderr holds
    no buffer, so its flush at exit cannot fail and change the exit code."""
    if sys.stderr is not None:  # None: fd 2 was closed when the process began
        try:
            print(f"factorlab: {text}", file=sys.stderr)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_fast(argv) or build_parser().parse_args(argv)
    except OSError as exc:  # only --help writes to stdout while parsing
        return _unwritten("help", exc)
    for flag, value, least in (("--bound", args.bound, 0),
                               ("--length-bound", args.length_bound, 0),
                               ("--budget", args.budget, 0),
                               ("--jobs", args.jobs, 1)):
        if value is not None and value < least:
            need = "nonnegative" if least == 0 else f"at least {least}"
            _complain(f"{flag} must be {need}, got {value}")
            return EXIT_INPUT
    handler = _HANDLERS[args.command]
    try:
        desc = load_descriptor(args.monoid) if hasattr(args, "monoid") else None
        hashed, results, warnings = handler(args, desc)
        descriptor_hash = None if hashed is None else models.descriptor_hash(hashed)
    except errors.BudgetExceeded as exc:
        _complain(f"enumeration budget {exc.limit} exhausted")
        return EXIT_BUDGET
    except errors.TableTooLarge as exc:
        _complain(str(exc))
        return EXIT_BUDGET
    except MemoryError:
        _complain("out of memory")
        return EXIT_BUDGET
    except errors.AssertionFailure as exc:
        _complain(f"claim failed: {exc}")
        return EXIT_CLAIM
    except KeyboardInterrupt:
        _complain("interrupted")
        return EXIT_INTERRUPT
    except (errors.MalformedDescriptor, errors.ClosureViolation,
            errors.ShapeMismatch, errors.NotAMember, ValueError, OSError) as exc:
        _complain(str(exc))
        return EXIT_INPUT
    try:
        emit(envelope(args, descriptor_hash, results, warnings), args.output)
    except OSError as exc:
        return _unwritten("report", exc)
    return EXIT_OK


def _unwritten(what: str, exc: OSError) -> int:
    _complain(f"cannot write the {what}: {exc}")
    if sys.stdout is not None:
        # The interpreter's own flush at exit then writes to os.devnull.
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return EXIT_OUTPUT
