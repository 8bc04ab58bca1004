"""The ``validate`` command's checks: structure, generator minimality, the
closure of an fp-value model below a bound, and the model's flags."""

from __future__ import annotations

import itertools
from operator import add, mul
from typing import NamedTuple

from . import models, search
from .errors import ClosureViolation, MalformedDescriptor


class ValidationReport(NamedTuple):
    valid: bool
    cancellative: bool
    strongly_ring_like_candidate: bool | None
    smallest_value_element: models.Vector | None
    verified_bound: int
    non_minimal_generators: list | None

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "cancellative": self.cancellative,
            "nonMinimalGenerators": self.non_minimal_generators,
            "stronglyRingLikeCandidate": self.strongly_ring_like_candidate,
            "smallestValueElement": (
                None
                if self.smallest_value_element is None
                else list(self.smallest_value_element)
            ),
            "verifiedBound": self.verified_bound,
        }


def validate(desc: models.MonoidDescriptor, bound: int | None = None) -> ValidationReport:
    """Check structure, generator minimality, closure (fp-value) and flags.

    For fp-value models closure is verified on every pair of members with
    every coordinate <= bound, decided by one mask pass over the box below
    twice the bound (``check_closure``). The smallest-value check is
    likewise truncated at the bound, which is why the report records it.
    A product first validates each slot at the product's bound. Without a
    bound the least one is used: twice the exponent (fp-value), the largest
    generator weight, or for a product the largest of its slots' least bounds.
    """
    models.check_descriptor(desc)
    if bound is None:
        bound = _least_validation_bound(desc)
    if isinstance(desc, models.Product):
        for f in desc.factors:
            validate(f, bound)
    if isinstance(desc, models.FinitelyPrimaryValue):
        if bound < 2 * desc.exponent:
            raise MalformedDescriptor(
                f"validation bound {bound} below twice the exponent"
            )
        members = models.fp_box(desc, (bound,) * desc.rank)[0]
        check_closure(desc, members)
        low = tuple(map(min, zip(*members)))
        mu = low if models.fp_member(desc, low) else None
        return ValidationReport(
            valid=True,
            cancellative=True,
            strongly_ring_like_candidate=mu is not None,
            smallest_value_element=mu,
            verified_bound=bound,
            non_minimal_generators=None,
        )
    min_weight = models.max_generator_weight(desc)
    if min_weight is not None and bound < min_weight:
        raise MalformedDescriptor(
            f"validation bound {bound} below the largest generator weight"
        )
    return ValidationReport(
        valid=True,
        cancellative=models.cancellative(desc),
        strongly_ring_like_candidate=None,
        smallest_value_element=None,
        verified_bound=bound,
        non_minimal_generators=non_atom_generators(desc),
    )


def _least_validation_bound(desc: models.MonoidDescriptor) -> int:
    if isinstance(desc, models.FinitelyPrimaryValue):
        return 2 * desc.exponent
    if isinstance(desc, models.Product):
        return max(_least_validation_bound(f) for f in desc.factors)
    return models.max_generator_weight(desc)


def check_closure(desc: models.FinitelyPrimaryValue, members: list[models.Vector]) -> None:
    """Raise ClosureViolation for the first pair (e, f) of members, in their
    order, whose sum is not one. One mask pass over the box below twice the
    members' maximum decides: the mask of the members shifted by e marks the
    sums e + f, and f is looked for only when one misses the box's members."""
    top = tuple(2 * max(x) for x in zip(*members))
    strides = models.box_strides(top)
    box = itertools.product(*(range(1, x + 1) for x in top))
    holes = ~sum(1 << sum(map(mul, v, strides)) for v in box if models.fp_member(desc, v))
    offsets = [sum(map(mul, u, strides)) for u in members]
    mask = sum(1 << d for d in offsets)
    for e, d in zip(members, offsets):
        if (mask << d) & holes:
            for f in members:
                s = tuple(map(add, e, f))
                if not models.fp_member(desc, s):
                    shown = (search.format_element(desc, v) for v in (e, f, s))
                    raise ClosureViolation(
                        "{} + {} = {} is not a member".format(*shown), e, f, s)


def non_atom_generators(desc: models.MonoidDescriptor) -> list | None:
    """Generators that are sums of other generators, as JSON values.

    Every atom of a reduced monoid lies in every generating set, so the
    other generators are exactly its atoms. None for fp-value models,
    which have no generating set; one entry per factor for products.
    """
    if isinstance(desc, models.Product):
        return [non_atom_generators(f) for f in desc.factors]
    if isinstance(desc, models.FinitelyPrimaryValue):
        return None
    atoms = search.generator_atoms(desc)
    return [models.element_to_json(desc, g) for g in desc.generators if g not in atoms]
