"""Factorization workbench for finitely generated commutative monoids.

Builds atoms and full factorization fibers for several monoid models,
computes arithmetic invariants (length sets, elasticity, catenary
degrees, successive distances), fits almost-arithmetic structure to
length sets, and enumerates irreducible equal-length relation pairs.

The public names below are loaded on first access (PEP 562), so
``import factorlab`` imports no submodule and each command of the CLI
pays only for the modules it runs.
"""

from importlib import import_module

# Submodule -> the public names it defines, re-exported here.
_EXPORTS = {
    "aamp": (
        "AAMPWitness", "is_aamp", "minimal_bound", "structure_probe",
        "unions_structure_probe", "verify_witness",
    ),
    "cache": ("load_or_compute",),
    "errors": (
        "AssertionFailure", "BudgetExceeded", "ClosureViolation",
        "FactorlabError", "MalformedDescriptor", "NotAMember",
        "ShapeMismatch", "TableMismatch",
    ),
    "factor": (
        "DEFAULT_BUDGET", "AtomTable", "FactorSet", "Factorization",
        "distance", "dist_sup", "factorizations", "gcd_factorizations",
        "make_factorization", "pi", "set_distance",
    ),
    "invariants": (
        "GlobalEstimate", "InvariantReport", "LengthSet", "adjacent_catenary",
        "catenary", "element_report", "element_successive_distance",
        "enumerate_elements", "equal_catenary", "global_estimates",
        "length_set", "length_set_sumset", "monotone_catenary",
        "successive_distance", "unions_of_lengths", "unique_representations",
        "weak_successive_distance",
    ),
    "models": (
        "Affine", "FinitelyPrimaryValue", "MonoidDescriptor", "Numerical",
        "Pattern", "Product", "Sumset", "ValidationReport", "atoms_dividing",
        "cancellative", "canon", "check_descriptor", "descriptor_from_json",
        "descriptor_hash", "descriptor_to_json", "identity", "is_atom",
        "membership", "multiply", "parse_element_literal", "validate",
        "weight",
    ),
    "relations": (
        "RelationPair", "enumerate_equal_length_relations", "is_relation_atom",
        "relation_atoms", "verify_interval_relations",
        "verify_unique_representation",
    ),
}
# Public name -> defining submodule; a submodule name maps to itself.
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
