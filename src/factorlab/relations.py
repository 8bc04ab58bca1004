"""Equal-length factorization relations and their atoms.

A relation pair for an element a is a pair (x, y) of factorizations of a
with |x| = |y|. Pairs multiply componentwise, so they form a monoid whose
identity is the empty pair. A pair is an atom when it is not the product
of two non-identity pairs (w, w')(x - w, y - w'). Each factorization z
gets one split set of (|w|, pi(w), pi(z - w)) over its sub-multisets w,
and (x, y) splits exactly when the split sets of x and y share an entry
with 0 < |w| < |x|. The complement pi(z - w) matters: without
cancellativity (sumsets) it does not follow from pi(w).

The atomicity test is local to a pair, which keeps relation-atom lists
exact: raising the enumeration bound only adds pairs, never changes a
verdict.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import factor, invariants, models
from .errors import AssertionFailure, BudgetExceeded

Profile = frozenset


class RelationPair(NamedTuple):
    """Two factorizations of one element over its FactorSet's atoms."""

    element: models.Element
    left: factor.Factorization
    right: factor.Factorization
    atoms: tuple[models.Element, ...]

    @property
    def equal_length(self) -> bool:
        return self.left.length == self.right.length

    def profile(self):
        """Identity independent of atom ids: element plus atom multisets."""
        def side(z):
            return Profile((self.atoms[i], m) for i, m in z.counts)

        return (self.element, side(self.left), side(self.right))

    def to_json(self, desc: models.MonoidDescriptor) -> dict:
        def side(z):
            return [
                [models.element_to_json(desc, self.atoms[i]), m]
                for i, m in z.counts
            ]

        return {
            "element": models.element_to_json(desc, self.element),
            "length": self.left.length,
            "left": side(self.left),
            "right": side(self.right),
        }


# ---------------------------------------------------------------------------
# enumeration


def _default_weight_bound(desc: models.MonoidDescriptor, length_bound: int) -> int:
    top = models.max_generator_weight(desc)
    if top is None:
        raise ValueError(
            "this model has atoms of unbounded weight; pass an explicit "
            "element weight bound"
        )
    return length_bound * top


def _length_fibers(desc, length_bound: int, weight_bound: int, budget: int):
    """(element, Z(element), Z_k(element)) for each k <= length_bound, in
    weight order; BudgetExceeded at the first fiber past the budget."""
    for el, fs in invariants.fibers(desc, weight_bound, budget):
        if fs is None:
            raise BudgetExceeded(budget)
        for k in fs.lengths:
            if k <= length_bound:
                yield el, fs, fs.by_length(k)


def enumerate_equal_length_relations(
    desc: models.MonoidDescriptor,
    length_bound: int,
    weight_bound: int | None = None,
    budget: int = factor.DEFAULT_BUDGET,
):
    """All pairs (x, y), |x| = |y| <= length_bound, x <= y canonically.

    Elements and their fibers come from the weight-order fiber stream;
    for finitely generated models the default bound length_bound * max
    generator weight reaches every element owning a factorization that
    short. Raises BudgetExceeded at the first element whose fiber passes
    the budget. Returns (pairs, info dict recording the bounds used).
    """
    if weight_bound is None:
        weight_bound = _default_weight_bound(desc, length_bound)
    pairs = [
        RelationPair(element=el, left=x, right=y, atoms=fs.atoms)
        for el, fs, zs in _length_fibers(desc, length_bound, weight_bound, budget)
        for x, y in itertools.combinations_with_replacement(zs, 2)
    ]
    return pairs, {"lengthBound": length_bound, "weightBound": weight_bound}


# ---------------------------------------------------------------------------
# atoms


def _splits(desc: models.MonoidDescriptor, atoms, z: factor.Factorization) -> set:
    """{(|w|, pi(w), pi(z - w)) : w <= z}, None standing for the identity.

    Grown one atom at a time from the empty split, multiplying by the
    atom's powers; equal partial products merge as the set grows.
    """
    def times(p, q):
        return q if p is None else p if q is None else models.multiply(desc, p, q)

    out = {(0, None, None)}
    for i, m in z.counts:
        powers = [None, atoms[i]]
        for _ in range(m - 1):
            powers.append(times(powers[-1], atoms[i]))
        out = {(k + t, times(p, powers[t]), times(q, powers[m - t]))
               for k, p, q in out for t in range(m + 1)}
    return out


def _splits_apart(x_splits: set, y_splits: set, n: int) -> bool:
    """The split sets of two sides of length n share a proper cut."""
    return any(0 < k < n for k, _, _ in x_splits & y_splits)


def is_relation_atom(desc: models.MonoidDescriptor, pair: RelationPair) -> bool:
    """No splitting into two non-identity pairs (diagonal parts allowed)."""
    x, y = pair.left, pair.right
    if x.length != y.length or x.length < 1:
        return False
    sx, sy = (_splits(desc, pair.atoms, z) for z in (x, y))
    return not _splits_apart(sx, sy, x.length)


def relation_atoms(
    desc: models.MonoidDescriptor,
    length_bound: int,
    weight_bound: int | None = None,
    budget: int = factor.DEFAULT_BUDGET,
):
    """Nontrivial (off-diagonal) pairs admitting no splitting.

    Returns (atoms, info). Each factorization's split set is built once
    per length fiber, and pairs are tested as the fibers stream by.
    Verdicts are local to each pair, so the list only grows with the
    bounds.
    """
    if weight_bound is None:
        weight_bound = _default_weight_bound(desc, length_bound)
    found = []
    for el, fs, zs in _length_fibers(desc, length_bound, weight_bound, budget):
        if len(zs) < 2:
            continue
        splits = [_splits(desc, fs.atoms, z) for z in zs]
        for (x, sx), (y, sy) in itertools.combinations(zip(zs, splits), 2):
            if not _splits_apart(sx, sy, x.length):
                found.append(RelationPair(element=el, left=x, right=y, atoms=fs.atoms))
    return found, {"lengthBound": length_bound, "weightBound": weight_bound}


# ---------------------------------------------------------------------------
# bundled verification scenarios


INTERVAL_SCENARIO = models.Sumset(generators=((0, 1), (0, 1, 3), (0, 2, 3)))

_UNIT = (0, 1)
_GEN_A = (0, 1, 3)
_GEN_B = (0, 2, 3)


def _interval(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


def verify_interval_relations(k_max: int, k_atom_max: int | None = None) -> dict:
    """Checks for the three-generator sumset monoid on {0,1} and two gaps.

    Verified claims, for k up to k_max: the unit generator absorbs either
    gap generator power into the same interval [0, 3k+1]; gap generator
    powers alone are never intervals; 1 separates them. For k up to
    k_atom_max (default 4) the pair of interval factorizations
    (unit + k copies of either gap generator) is an atom of the
    equal-length relation monoid, found by full enumeration.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    desc = INTERVAL_SCENARIO
    if k_atom_max is None:
        k_atom_max = min(4, k_max)
    if not 1 <= k_atom_max <= k_max:
        raise ValueError("k_atom_max must lie in [1, k_max]")
    checks = []

    def require(ok: bool, label: str, **context):
        checks.append({"check": label, "ok": bool(ok), **context})
        if not ok:
            raise AssertionFailure(f"claim failed: {label}", context)

    for k in range(k_max + 1):
        target = _interval(0, 3 * k + 1)
        via_a = models.product_of(desc, (_UNIT, _GEN_A), ((0, 1), (1, k)))
        via_b = models.product_of(desc, (_UNIT, _GEN_B), ((0, 1), (1, k)))
        require(
            via_a == target and via_b == target,
            "unit-absorbs-either-gap-power-into-interval",
            k=k,
            viaA=list(via_a),
            viaB=list(via_b),
        )
    for k in range(1, k_max + 1):
        pa = models.product_of(desc, (_GEN_A,), ((0, k),))
        pb = models.product_of(desc, (_GEN_B,), ((0, k),))
        require(
            pa != _interval(0, pa[-1]) and pb != _interval(0, pb[-1]),
            "gap-powers-are-never-intervals",
            k=k,
        )
        require(
            1 in pa and 1 not in pb,
            "one-separates-the-gap-powers",
            k=k,
        )
    atoms, info = relation_atoms(desc, length_bound=k_atom_max + 1)
    profiles = {p.profile() for p in atoms}
    for k in range(1, k_atom_max + 1):
        element = _interval(0, 3 * k + 1)
        want_left = Profile([(_UNIT, 1), (_GEN_A, k)])
        want_right = Profile([(_UNIT, 1), (_GEN_B, k)])
        found = (element, want_left, want_right) in profiles or (
            element,
            want_right,
            want_left,
        ) in profiles
        require(found, "interval-pair-is-a-relation-atom", k=k)
    return {
        "kMax": k_max,
        "kAtomMax": k_atom_max,
        "relationAtoms": len(atoms),
        "enumeration": info,
        "checks": checks,
    }


def verify_unique_representation(difference: int = 10, k_max: int = 5) -> dict:
    """Two structured length sets whose sumset pins its representations.

    For each k the two sets are a progression of step ``difference`` from
    2 plus one or two sporadic tail points. Just above the progressions'
    top the sumset has exactly one representation from each side, and the
    two first coordinates differ by at least k * difference.
    """
    if difference < 4:
        raise ValueError("difference must be at least 4")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    y1, y2 = 2, 2
    rows = []
    for k in range(1, k_max + 1):
        top = k * difference
        l1 = invariants.length_set_of(
            [y1 + v * difference for v in range(k + 1)] + [y1 + top + 2]
        )
        l2 = invariants.length_set_of(
            [y2 + v * difference for v in range(k + 1)]
            + [y2 + top + 1, y2 + top + 3]
        )
        total = invariants.length_set_sumset(l1, l2)
        t1 = y1 + y2 + top + 1
        t2 = y1 + y2 + top + 2
        reps1 = invariants.unique_representations(l1, l2, t1)
        reps2 = invariants.unique_representations(l1, l2, t2)
        context = {
            "k": k,
            "L1": list(l1.lengths),
            "L2": list(l2.lengths),
            "targets": [t1, t2],
            "reps": [reps1, reps2],
        }
        if reps1 != [(y1, y2 + top + 1)]:
            raise AssertionFailure("first target is not uniquely represented", context)
        if reps2 != [(y1 + top + 2, y2)]:
            raise AssertionFailure("second target is not uniquely represented", context)
        gap = abs(reps2[0][0] - reps1[0][0])
        if gap < top:
            raise AssertionFailure("representations are not far apart", context)
        rows.append(
            {
                "k": k,
                "L1": list(l1.lengths),
                "L2": list(l2.lengths),
                "sumset": list(total.lengths),
                "targets": (t1, t2),
                "representations": (reps1[0], reps2[0]),
                "separation": gap,
            }
        )
    return {"difference": difference, "kMax": k_max, "shifts": [y1, y2], "rows": rows}
