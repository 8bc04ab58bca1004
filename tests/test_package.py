"""The package's public names, which it loads on first access, and its
modules' own hygiene."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import factorlab
from factorlab import models, search

# Defining submodule -> the names the package re-exports from it.
EXPORTS = {
    "aamp": ["AAMPWitness", "is_aamp", "minimal_bound", "structure_probe",
             "unions_structure_probe", "verify_witness"],
    "cache": ["load_or_compute"],
    "errors": ["AssertionFailure", "BudgetExceeded", "ClosureViolation",
               "FactorlabError", "MalformedDescriptor", "NotAMember",
               "ShapeMismatch", "TableTooLarge"],
    "factor": ["DEFAULT_BUDGET", "FactorSet", "Factorization", "distance",
               "factorizations"],
    "invariants": ["GlobalEstimate", "LengthSet", "element_report",
                   "enumerate_elements", "global_estimates", "length_set",
                   "length_set_sumset", "unions_of_lengths",
                   "unique_representations"],
    "models": ["Affine", "FinitelyPrimaryValue", "MonoidDescriptor",
               "Numerical", "Pattern", "Product", "Sumset", "atoms_dividing",
               "cancellative", "canon", "check_descriptor",
               "descriptor_from_json", "descriptor_hash", "descriptor_to_json",
               "identity", "is_atom", "membership", "multiply",
               "parse_element_literal", "weight"],
    "pairwise": ["InvariantReport", "catenary", "equal_catenary"],
    "relations": ["RelationPair", "enumerate_equal_length_relations",
                  "is_relation_atom", "relation_atoms"],
    "scenarios": ["verify_interval_relations", "verify_unique_representation"],
    "validation": ["ValidationReport", "validate"],
}
PUBLIC = sorted(name for module, names in EXPORTS.items()
                for name in (module, *names))
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = pathlib.Path(factorlab.__file__).resolve().parent


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 70
    assert factorlab.__all__ == PUBLIC


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_resolve_to_their_submodule_objects(module):
    defining = importlib.import_module(f"factorlab.{module}")
    assert getattr(factorlab, module) is defining
    for name in EXPORTS[module]:
        assert getattr(factorlab, name) is getattr(defining, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from factorlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_dir_lists_the_public_names_before_they_load():
    code = ("import factorlab; "
            "print(sorted(set(factorlab.__all__) - set(dir(factorlab))))")
    src = os.path.dirname(os.path.dirname(factorlab.__file__))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    assert set(PUBLIC) <= set(dir(factorlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        factorlab.not_a_name
    assert not hasattr(factorlab, "cli_main")


def test_membership_keeps_no_process_global_memo():
    """Numerical and affine membership is decided per call, from a mask."""
    for desc, elements in [
        (models.Numerical((2, 3)), [0, 1, 7, 12]),
        (models.Numerical((6, 9, 20)), [43, 44, 600]),
        (models.Affine(2, ((2, 0), (1, 1), (0, 2))), [(1, 0), (3, 3), (8, 5)]),
        (models.Affine(3, ((1, 0, 2), (0, 3, 1))), [(1, 3, 3), (2, 3, 4)]),
    ]:
        for el in elements:
            if models.membership(desc, el):
                models.atoms_dividing(desc, el)
    # membership and atoms_dividing run in search, models forwarding to it.
    for module in (models, search):
        memos = [name for name, value in vars(module).items()
                 if not name.startswith("__") and isinstance(value, (dict, list, set))]
        assert memos == []
        cached = [name for name, value in vars(module).items()
                  if hasattr(value, "cache_info")]
        assert cached == []
    assert not hasattr(models.sumset_reachable, "cache_info")


def test_readme_library_example_runs():
    """The python block under "## Library use" runs against the package."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    block = section.split("```python\n")[1].split("```")[0]
    assert "from factorlab import" in block
    exec(compile(block, str(README), "exec"), {})


def _names_read(tree: ast.AST) -> set[str]:
    """The names a module reads, bare or as an attribute of anything."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_unused_import_or_unread_private_name():
    """Every import in the package is read in its module, and every
    module-level name is read somewhere in the package or, if public,
    exported by it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = {name: _names_read(tree) for name, tree in trees.items()}
    read_anywhere = set().union(*read.values())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{module}: import {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in read[module]]
        unused += [f"{module}: {name}" for name in _module_level_names(tree)
                   if not name.startswith("__") and name not in read_anywhere
                   and name not in factorlab.__all__]
    assert unused == []


def test_no_module_reads_another_modules_private_name():
    """No module of the package reads an underscore-prefixed name of
    another, as an attribute of that module or by importing it."""
    modules = {path.stem for path in SRC.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from .{node.module or ''} import {a.name}"
                          for a in node.names if private(a.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert found == []


PERFBENCH = SRC.parent.parent / "perfbench"


def _harness_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every attribute a harness script reads or sets on
    a module it imports ``from factorlab``, and for every (module, "name")
    pair it names as the target of a wrapper, as ``_span(cli, "emit", ...)``
    does or a tuple ``(models, "is_atom", ...)`` of a wrapper loop."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "factorlab"
               for alias in node.names}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add((node.value.id, node.attr))
        elements = node.args if isinstance(node, ast.Call) else \
            node.elts if isinstance(node, ast.Tuple) else []
        if len(elements) >= 2 and isinstance(elements[0], ast.Name) \
                and elements[0].id in modules and isinstance(elements[1], ast.Constant) \
                and isinstance(elements[1].value, str):
            found.add((elements[0].id, elements[1].value))
    return found


def test_harness_scan_finds_reads_writes_and_wrapper_targets():
    tree = ast.parse("from factorlab import cli, models\n"
                     "from x import factor\n"
                     "cli.main(models.canon)\n"
                     "factor.distance = models.multiply = None\n"
                     "_span(cli, 'emit', 'cli.render')\n"
                     "for m, a, n in ((models, 'is_atom', 'x'),): pass\n")
    assert _harness_names(tree) == {("cli", "main"), ("models", "canon"),
                                    ("models", "multiply"), ("cli", "emit"),
                                    ("models", "is_atom")}


def test_every_name_the_benchmark_harness_uses_is_defined_in_its_module():
    """The harness in perfbench/ reads, wraps and patches names on the
    package's modules; each must be defined in that module's own source,
    not moved to a module loaded on demand, so the trace and the oracle
    checks keep measuring and calling what they name."""
    used = set().union(*(_harness_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(PERFBENCH.glob("*.py"))))
    assert {("factor", "FactorSet"), ("models", "canon"), ("cli", "emit"),
            ("invariants", "element_report")} <= used
    defined = {module: set(_module_level_names(ast.parse(
        (SRC / f"{module}.py").read_text(encoding="utf-8"))))
        for module in {module for module, _ in used}}
    assert sorted(f"{module}.{name}" for module, name in used
                  if name not in defined[module]) == []


# Modules that each cost a request milliseconds at start-up and serve few
# commands: hashlib loads OpenSSL, fractions loads decimal and numbers, and
# argparse loads gettext and locale. They are imported where they are used.
DEFERRED = {"argparse", "fractions", "hashlib"}


def _imported_on_load(nodes):
    """The modules that statements among ``nodes`` import when their module
    loads: not those inside a function or under ``if TYPE_CHECKING:``. A
    module of the package is named with a leading dot: ``from . import x``
    and ``from .x import y`` both import ".x"."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from _imported_on_load(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield "." + node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield from ("." + alias.name for alias in node.names)
        yield from _imported_on_load(ast.iter_child_nodes(node))


@pytest.mark.parametrize("source,found", [
    ("import hashlib", ["hashlib"]),
    ("try:\n    from fractions import Fraction\nexcept ImportError:\n    pass",
     ["fractions"]),
    ("class A:\n    import argparse.x", ["argparse"]),
    ("def f():\n    import hashlib", []),
    ("class A:\n    def f(self):\n        from fractions import Fraction", []),
    ("if TYPE_CHECKING:\n    from fractions import Fraction\nelse:\n    import argparse",
     ["argparse"]),
    ("from . import errors, search", [".errors", ".search"]),
    ("from .pairwise import catenary\nfrom .errors import NotAMember",
     [".pairwise", ".errors"]),
    ("from .search.x import y", [".search"]),
    ("def f():\n    from . import search", []),
    ("if TYPE_CHECKING:\n    from . import pairwise", []),
], ids=["top", "try", "class-body", "function", "method", "type-checking",
        "relative", "relative-from", "relative-dotted", "relative-in-function",
        "relative-type-checking"])
def test_load_time_import_scan(source, found):
    assert [m for m in _imported_on_load(ast.parse(source).body)
            if m in DEFERRED or m.startswith(".")] == found


@pytest.mark.parametrize("module", ["factor", "invariants", "recurrence", "relations"])
def test_sweep_modules_load_no_single_element_search_or_pair_tables(module):
    """The modules a sweep runs import ``pairwise`` and ``search`` only
    inside the functions that call them, so a global estimate or a
    relation-atoms request compiles neither unless it reads them."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert {".pairwise", ".search"}.isdisjoint(_imported_on_load(tree.body))


def test_no_module_imports_a_deferred_module_on_load():
    """hashlib, fractions and argparse load only inside the functions that
    use them, so a command that does not call those pays nothing for them."""
    found = [f"{path.name}: {module}" for path in sorted(SRC.glob("*.py"))
             for module in _imported_on_load(ast.parse(path.read_text(encoding="utf-8")).body)
             if module in DEFERRED]
    assert found == []
