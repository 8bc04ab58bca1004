"""The package's public names, which it loads on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import factorlab
from factorlab import models

# Defining submodule -> the names the package re-exports from it.
EXPORTS = {
    "aamp": ["AAMPWitness", "is_aamp", "minimal_bound", "structure_probe",
             "unions_structure_probe", "verify_witness"],
    "cache": ["load_or_compute"],
    "errors": ["AssertionFailure", "BudgetExceeded", "ClosureViolation",
               "FactorlabError", "MalformedDescriptor", "NotAMember",
               "ShapeMismatch", "TableMismatch"],
    "factor": ["AtomTable", "DEFAULT_BUDGET", "FactorSet", "Factorization",
               "dist_sup", "distance", "factorizations", "gcd_factorizations",
               "make_factorization", "pi", "set_distance"],
    "invariants": ["GlobalEstimate", "InvariantReport", "LengthSet",
                   "adjacent_catenary", "catenary", "element_report",
                   "element_successive_distance", "enumerate_elements",
                   "equal_catenary", "global_estimates", "length_set",
                   "length_set_sumset", "monotone_catenary",
                   "successive_distance", "unions_of_lengths",
                   "unique_representations", "weak_successive_distance"],
    "models": ["Affine", "FinitelyPrimaryValue", "MonoidDescriptor",
               "Numerical", "Pattern", "Product", "Sumset", "ValidationReport",
               "atoms_dividing", "cancellative", "canon", "check_descriptor",
               "descriptor_from_json", "descriptor_hash", "descriptor_to_json",
               "identity", "is_atom", "membership", "multiply",
               "parse_element_literal", "validate", "weight"],
    "relations": ["RelationPair", "enumerate_equal_length_relations",
                  "is_relation_atom", "relation_atoms",
                  "verify_interval_relations", "verify_unique_representation"],
}
PUBLIC = sorted(name for module, names in EXPORTS.items()
                for name in (module, *names))


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 78
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
    memos = [name for name, value in vars(models).items()
             if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert memos == []
    assert not hasattr(models.sumset_reachable, "cache_info")
    cached = [name for name, value in vars(models).items()
              if hasattr(value, "cache_info")]
    assert cached == []
