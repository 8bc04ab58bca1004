"""The built-in verification scenarios of ``verify-example``."""

from __future__ import annotations

from . import invariants, models, relations
from .errors import AssertionFailure


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
    atoms, info = relations.relation_atoms(desc, length_bound=k_atom_max + 1)
    profiles = {p.profile() for p in atoms}
    for k in range(1, k_atom_max + 1):
        element = _interval(0, 3 * k + 1)
        want_left = relations.Profile([(_UNIT, 1), (_GEN_A, k)])
        want_right = relations.Profile([(_UNIT, 1), (_GEN_B, k)])
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
