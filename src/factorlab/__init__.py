"""Factorization workbench for finitely generated commutative monoids.

Builds atoms and full factorization fibers for several monoid models,
computes arithmetic invariants (length sets, elasticity, catenary
degrees, successive distances), fits almost-arithmetic structure to
length sets, and enumerates irreducible equal-length relation pairs.
"""

from .aamp import (
    AAMPWitness,
    is_aamp,
    minimal_bound,
    structure_probe,
    unions_structure_probe,
    verify_witness,
)
from .cache import load_or_compute
from .errors import (
    AssertionFailure,
    BudgetExceeded,
    ClosureViolation,
    FactorlabError,
    MalformedDescriptor,
    NotAMember,
    ShapeMismatch,
    TableMismatch,
)
from .factor import (
    DEFAULT_BUDGET,
    AtomTable,
    FactorSet,
    Factorization,
    distance,
    dist_sup,
    factorizations,
    gcd_factorizations,
    make_factorization,
    pi,
    set_distance,
)
from .invariants import (
    GlobalEstimate,
    InvariantReport,
    LengthSet,
    adjacent_catenary,
    catenary,
    element_report,
    element_successive_distance,
    enumerate_elements,
    equal_catenary,
    global_estimates,
    length_set,
    length_set_sumset,
    monotone_catenary,
    successive_distance,
    unions_of_lengths,
    unique_representations,
    weak_successive_distance,
)
from .models import (
    Affine,
    FinitelyPrimaryValue,
    MonoidDescriptor,
    Numerical,
    Pattern,
    Product,
    Sumset,
    ValidationReport,
    atoms_dividing,
    cancellative,
    canon,
    check_descriptor,
    descriptor_from_json,
    descriptor_hash,
    descriptor_to_json,
    identity,
    is_atom,
    membership,
    multiply,
    parse_element_literal,
    validate,
    weight,
)
from .relations import (
    RelationPair,
    enumerate_equal_length_relations,
    is_relation_atom,
    relation_atoms,
    verify_interval_relations,
    verify_unique_representation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
