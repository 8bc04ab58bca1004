"""Almost arithmetic multiprogression (AAMP) detection.

A finite set L is an AAMP with difference d, period D and bound M when,
after shifting by some y in L, it splits as head + middle + tail: the
middle is exactly (D + dZ) restricted to [0, max middle] with min 0, the
head lives in [-M, -1], the tail in max middle + [1, M], and every
element of L is congruent mod d to something in D, where {0, d} is
contained in D, itself contained in [0, d].

For each shift y in L one pass decides every clause but the bound. A
period that works holds the residues of L - y, and those at or below the
split occur in the middle, so {0, d} plus those residues works too. The
valid splits m are then the common prefix, from 0, of the nonnegative
part of L - y and the progression of that period, and each needs the
bound max(y - min L, max L - y - m). ``verify_witness``, an independent
checker of the definition, rechecks every witness returned. Probes
aggregate minimal bounds over enumerated elements or unions of length
sets into (report, warnings), the report in JSON values.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import factor, invariants, models


class AAMPWitness(NamedTuple):
    shift: int
    difference: int
    period: tuple[int, ...]
    bound: int
    head: tuple[int, ...]
    middle: tuple[int, ...]
    tail: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "shift": self.shift,
            "difference": self.difference,
            "period": list(self.period),
            "bound": self.bound,
            "head": list(self.head),
            "middle": list(self.middle),
            "tail": list(self.tail),
        }


def _as_sorted(L: Iterable[int] | invariants.LengthSet) -> list[int]:
    if isinstance(L, invariants.LengthSet):
        return list(L.lengths)
    return sorted(set(L))


def verify_witness(
    L: Iterable[int] | invariants.LengthSet, d: int, M: int, w: AAMPWitness
) -> bool:
    """Recheck every clause of the definition against L, independently."""
    ls = _as_sorted(L)
    if not ls or d < 1 or M < 0 or w.difference != d or w.bound != M:
        return False
    period = set(w.period)
    if not {0, d} <= period or not all(p in range(d + 1) for p in period):
        return False
    if not w.middle or w.middle[0] != 0:
        return False
    # an increasing run of progression values from 0 to top is all of
    # them exactly when it has as many values as [0, top] holds
    mid, res = w.middle, {p % d for p in period}
    top = mid[-1]
    if any(a >= b for a, b in zip(mid, mid[1:])) or any(x % d not in res for x in mid):
        return False
    if len(mid) != top // d * len(res) + sum(r <= top % d for r in res):
        return False
    if any(x < -M or x > -1 for x in w.head):
        return False
    if any(x < top + 1 or x > top + M for x in w.tail):
        return False
    rebuilt = sorted(w.shift + x for x in w.head + w.middle + w.tail)
    if rebuilt != ls:
        return False
    return all((x - w.shift) % d in res for x in ls)


def _fit(ls: list[int], d: int, y: int) -> tuple[tuple[int, ...], list[int]]:
    """The period of the shift y in ls and its valid splits, increasing."""
    period = sorted({(x - y) % d for x in ls} | {d})
    # each residue of the progression -> the step to its next value
    step = {r: s - r for r, s in zip(period, period[1:])}
    splits, t = [0], 0
    for x in ls[ls.index(y) + 1:]:
        if x - y != t + step[t % d]:
            break
        t = x - y
        splits.append(t)
    return tuple(period), splits


def is_aamp(
    L: Iterable[int] | invariants.LengthSet, d: int, M: int
) -> AAMPWitness | None:
    """First witness in (shift, split) order whose need is at most M, or None."""
    ls = _as_sorted(L)
    if not ls:
        raise ValueError("empty set has no AAMP structure")
    if d < 1:
        raise ValueError("difference must be positive")
    if M < 0:
        raise ValueError("bound must be nonnegative")
    for y in [x for x in ls if x <= ls[0] + M]:
        period, splits = _fit(ls, d, y)
        m = next((s for s in splits if s >= ls[-1] - y - M), None)
        if m is not None:
            w = AAMPWitness(shift=y, difference=d, period=period, bound=M,
                            head=tuple(x - y for x in ls if x < y),
                            middle=tuple(s for s in splits if s <= m),
                            tail=tuple(x - y for x in ls if x - y > m))
            if not verify_witness(ls, d, M, w):
                raise AssertionError(f"witness failed its recheck: {w}")
            return w
    return None


def least_fit(
    L: Iterable[int] | invariants.LengthSet, d: int
) -> tuple[int, AAMPWitness]:
    """Least M such that L is an AAMP with difference d, and ``is_aamp``'s
    witness at M: the least need over the shifts, each with its longest
    split (at most max L - min L). The need of shift y is at least
    y - min L, so the scan stops at the first shift that cannot do better."""
    ls = _as_sorted(L)
    if not ls:
        raise ValueError("empty set has no AAMP structure")
    if d < 1:
        raise ValueError("difference must be positive")
    best = ls[-1] - ls[0]
    for y in ls:
        if y - ls[0] >= best:
            break
        best = min(best, max(y - ls[0], ls[-1] - y - _fit(ls, d, y)[1][-1]))
    witness = is_aamp(ls, d, best)
    if witness is None:
        raise AssertionError(f"no witness at the least bound {best}")
    return best, witness


def minimal_bound(L: Iterable[int] | invariants.LengthSet, d: int) -> int:
    """Least M such that L is an AAMP with difference d (``least_fit``)."""
    return least_fit(L, d)[0]


# ---------------------------------------------------------------------------
# probes


def structure_probe(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    d_candidates: Iterable[int] | None = None,
    budget: int = factor.DEFAULT_BUDGET,
) -> tuple[dict, list[dict]]:
    """Minimal AAMP bound per element and its running maximum M*.

    Returns (report, warnings), the report in JSON values. Candidate
    differences default to 1 plus the smallest gap seen in the length
    table. M* is flagged stabilized when it stopped changing over the top
    half of the weight range.
    """
    rows, warnings = invariants.length_table(desc, weight_bound, budget)
    if d_candidates is None:
        gaps = {g for row in rows for g in row.lengths.delta()}
        ds = [1] if not gaps else sorted({1, min(gaps)})
    else:
        ds = sorted(set(d_candidates))
    if not ds or any(d < 1 for d in ds):
        raise ValueError("difference candidates must be positive integers")
    per_element, fits = [], []
    for row in rows:
        m, d = min((minimal_bound(row.lengths, d), d) for d in ds)
        per_element.append({"element": models.element_to_json(desc, row.element),
                            "lengths": list(row.lengths.lengths), "m": m, "d": d})
        fits.append((row.weight, {"mStar": m}))
    m_star, stabilized = invariants.running_maxima(
        fits, weight_bound, {"mStar": 0})["mStar"]
    return {
        "mStar": m_star,
        "bound": weight_bound,
        "dCandidates": ds,
        "stabilized": stabilized,
        "perElement": per_element,
    }, warnings


def unions_structure_probe(
    desc: models.MonoidDescriptor,
    k_range: Iterable[int],
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
) -> tuple[dict, list[dict]]:
    """Fit unions of length sets as AAMPs with difference 1 or min Delta.

    Returns (report, warnings), the report in JSON values with each union
    as a list. Also tabulates the density |U_k| / k against the slope
    (rho - 1/rho) / min Delta that the density approaches in k, as an
    informational trend only; both are exact fractions written as
    strings ("3/2"). Delta, rho and every union come from one length
    table; each overflowed element is warned about once.
    """
    ks = sorted(set(k_range))
    if ks and ks[0] < 0:
        raise ValueError("union indices must be nonnegative")
    table, warnings = invariants.length_table(desc, weight_bound, budget)
    sets = [row.lengths for row in table]
    delta_set = sorted({g for ls in sets for g in ls.delta()})
    if not delta_set:
        return {
            "trivial": True,
            "reason": "no length gaps below the bound (half-factorial so far)",
            "bound": weight_bound,
            "rows": [],
        }, warnings
    dmin = delta_set[0]
    rho = max(ls.rho() for ls in sets)
    union_at = invariants.unions_containing(table)
    from fractions import Fraction
    rows = []
    for k in ks:
        union = union_at(k)
        best_m, best_d = min((minimal_bound(union, d), d) for d in {1, dmin})
        rows.append(
            {
                "k": k,
                "union": list(union.lengths),
                "m": best_m,
                "d": best_d,
                "density": str(Fraction(len(union.lengths), k)) if k else None,
            }
        )
    return {
        "trivial": False,
        "bound": weight_bound,
        "dmin": dmin,
        "densityTarget": str((rho - 1 / rho) / dmin),
        "rows": rows,
    }, warnings
