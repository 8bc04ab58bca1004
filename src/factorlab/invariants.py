"""Arithmetic invariants computed from complete factorization sets.

Element level: the set of lengths with its distance set and elasticity,
the catenary degree (bottleneck threshold connecting all of Z(a)), its
equal-length and adjacent-length refinements, the monotone catenary
degree, and the successive-distance measures. Global level: truncated
estimates aggregated over every member below a weight bound, unions of
length sets over k, and the sumset arithmetic of length sets.

Every element invariant past the length set is read off one table, the
pairwise distances of Z(a) that FactorSet.distance_table builds once per
fiber. Its rows are ordered by length, so each length fiber Z_k is a
contiguous block. The catenary degree is the largest edge of a minimum
spanning tree of the complete distance graph (Prim), which equals the
smallest N whose threshold graph is connected; the equal-length degree
is the largest such bottleneck of a diagonal block. The row and column
minima of the (k, l) block give the set distance d(Z_k, Z_l) and the
one-sided dist_sup, which yield the adjacent-length degree, the
successive distance and its weak form. The monotone catenary degree is
the larger of the equal-length and adjacent-length degrees.

Questions about lengths alone (structure probes, unions of length sets)
read one length table per request instead of enumerating fibers. On the
cancellative base models it is filled in weight order by the recurrence
L(a) = U {1 + L(a - u) : u an atom dividing a} (Barron, O'Neill and
Pelayo; García-Sánchez, O'Neill and Webb for affine semigroups), each
length set held as an integer bit mask; a nonzero member that no smaller
atom divides is itself an atom. |Z(a)| is counted alongside, coin-change
style, so a member overflows the budget exactly when enumerating it
would. Product length sets are the sumsets of the slot length sets,
shifted by the free exponents. Sumsets are not cancellative, so their
fibers are still enumerated, once per request.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable, NamedTuple

from . import factor, models
from .errors import BudgetExceeded


@dataclass(frozen=True)
class LengthSet:
    lengths: tuple[int, ...]

    def delta(self) -> tuple[int, ...]:
        """Distinct gaps between consecutive lengths."""
        ls = self.lengths
        return tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))

    def rho(self) -> Fraction:
        """max/min elasticity; the length set {0} has elasticity 1."""
        ls = self.lengths
        if not ls:
            raise ValueError("empty length set has no elasticity")
        if ls == (0,):
            return Fraction(1)
        return Fraction(ls[-1], ls[0])

    def __contains__(self, k: int) -> bool:
        return k in self.lengths


def length_set_of(values: Iterable[int]) -> LengthSet:
    return LengthSet(tuple(sorted(set(values))))


def length_set(fs: factor.FactorSet) -> LengthSet:
    return length_set_of(z.length for z in fs.all)


def length_set_sumset(a: LengthSet, b: LengthSet) -> LengthSet:
    return length_set_of(x + y for x in a.lengths for y in b.lengths)


def unique_representations(
    a: LengthSet, b: LengthSet, target: int
) -> list[tuple[int, int]]:
    """All (x, y) with x in a, y in b and x + y = target."""
    bset = set(b.lengths)
    return [(x, target - x) for x in a.lengths if target - x in bset]


# ---------------------------------------------------------------------------
# catenary degrees and successive distances


def _bottleneck(table, span: range) -> int:
    """Largest MST edge (Prim) of the complete graph on span; 0 for <= 1 node."""
    if len(span) <= 1:
        return 0
    rest = list(span[1:])
    best = list(map(table[span[0]].__getitem__, rest))
    worst = 0
    while best:
        d = min(best)
        p = best.index(d)
        worst = max(worst, d)
        u = rest.pop(p)
        best.pop(p)
        best = list(map(min, best, map(table[u].__getitem__, rest)))
    return worst


def catenary(fs: factor.FactorSet) -> int:
    """Smallest N such that any two factorizations join by an N-chain."""
    return _bottleneck(fs.distance_table, range(len(fs.all)))


def equal_catenary(fs: factor.FactorSet) -> int:
    """Chains confined to one length fiber; 0 when all fibers are single."""
    table = fs.distance_table
    return max((_bottleneck(table, span) for span in fs.spans.values()), default=0)


def adjacent_catenary(fs: factor.FactorSet) -> int:
    """Largest set distance between fibers of adjacent lengths."""
    return _adjacent_max(fs, pair_tables(fs)[0])


def monotone_catenary(fs: factor.FactorSet) -> int:
    return max(equal_catenary(fs), adjacent_catenary(fs))


def successive_distance(fs: factor.FactorSet, z: factor.Factorization) -> int:
    """Smallest N reaching each length adjacent to |z| within distance N."""
    ls = fs.lengths
    pos = ls.index(z.length)
    row = fs.distance_table[fs.all.index(z)]
    spans = [fs.spans[ls[i]] for i in (pos - 1, pos + 1) if 0 <= i < len(ls)]
    return max((min(row[s.start:s.stop]) for s in spans), default=0)


def element_successive_distance(fs: factor.FactorSet) -> int:
    """Worst one-sided distance between fibers of adjacent lengths."""
    return _adjacent_max(fs, pair_tables(fs)[1])


def weak_successive_distance(fs: factor.FactorSet) -> int:
    """Smallest N with d(Z_k, Z_l) <= N * |l - k| for all length pairs."""
    return _weak(pair_tables(fs)[0])


def _adjacent_max(fs: factor.FactorSet, pairs: dict) -> int:
    ls = fs.lengths
    return max((pairs[kl] for kl in zip(ls, ls[1:])), default=0)


def _weak(dists: dict) -> int:
    return max((-(-d // (l - k)) for (k, l), d in dists.items()), default=0)


def pair_tables(fs: factor.FactorSet):
    """(set distance, one-sided sup) for every pair of lengths k < l.

    near[l][i] = d({z_i}, Z_l) is the minimum of row i over the block of
    Z_l. Block (k, l) has row minima near[l] on Z_k and column minima
    near[k] on Z_l: the set distance is their least value, dist_sup their
    largest.
    """
    table = fs.distance_table
    spans = fs.spans
    near = {
        l: [min(row[span.start:span.stop]) for row in table]
        for l, span in spans.items()
    }
    dists: dict[tuple[int, int], int] = {}
    sups: dict[tuple[int, int], int] = {}
    for k, l in itertools.combinations(spans, 2):
        sk, sl = spans[k], spans[l]
        rows = near[l][sk.start:sk.stop]
        cols = near[k][sl.start:sl.stop]
        dists[(k, l)] = min(rows)
        sups[(k, l)] = max(max(rows), max(cols))
    return dists, sups


# ---------------------------------------------------------------------------
# element report


@dataclass(frozen=True)
class InvariantReport:
    element: models.Element
    lengths: LengthSet
    elasticity: Fraction
    c: int
    c_eq: int
    c_adj: int
    c_mon: int
    delta_elem: int
    delta_w: int
    pair_distance: dict
    pair_dist_sup: dict

    def to_json(self, desc: models.MonoidDescriptor) -> dict:
        return {
            "element": models.element_to_json(desc, self.element),
            "lengthSet": list(self.lengths.lengths),
            "delta": list(self.lengths.delta()),
            "rho": str(self.elasticity),
            "c": self.c,
            "cEq": self.c_eq,
            "cAdj": self.c_adj,
            "cMon": self.c_mon,
            "deltaElem": self.delta_elem,
            "deltaW": self.delta_w,
            "pairDistance": {f"{k},{l}": v for (k, l), v in self.pair_distance.items()},
            "pairDistSup": {f"{k},{l}": v for (k, l), v in self.pair_dist_sup.items()},
        }


def element_report(fs: factor.FactorSet) -> InvariantReport:
    ls = length_set(fs)
    dists, sups = pair_tables(fs)
    c_eq = equal_catenary(fs)
    c_adj = _adjacent_max(fs, dists)
    return InvariantReport(
        element=fs.element,
        lengths=ls,
        elasticity=ls.rho(),
        c=catenary(fs),
        c_eq=c_eq,
        c_adj=c_adj,
        c_mon=max(c_eq, c_adj),
        delta_elem=_adjacent_max(fs, sups),
        delta_w=_weak(dists),
        pair_distance=dists,
        pair_dist_sup=sups,
    )


# ---------------------------------------------------------------------------
# element enumeration


def enumerate_elements(
    desc: models.MonoidDescriptor, weight_bound: int
) -> list[models.Element]:
    """Every member of weight <= bound, once, weight-then-lex ordered."""
    if weight_bound < 0:
        return []
    if isinstance(desc, models.Numerical):
        out = [n for n in range(weight_bound + 1) if models.membership(desc, n)]
    elif isinstance(desc, models.Affine):
        out = list(_closure(desc, weight_bound))
    elif isinstance(desc, models.FinitelyPrimaryValue):
        out = [
            v
            for v in itertools.product(*(range(weight_bound + 1),) * desc.rank)
            if sum(v) <= weight_bound and models._fp_member(desc, v)
        ]
    elif isinstance(desc, models.Sumset):
        out = list(_closure(desc, weight_bound))
    else:
        out = list(_product_elements(desc, weight_bound))
    out.sort(key=lambda el: models.element_sort_key(desc, el))
    return out


def _closure(desc, weight_bound):
    """Members of a finitely generated model, by saturation."""
    seen = {models.identity(desc)}
    stack = list(seen)
    while stack:
        el = stack.pop()
        for g in desc.generators:
            q = models.multiply(desc, el, g)
            if q not in seen and models.weight(desc, q) <= weight_bound:
                seen.add(q)
                stack.append(q)
    return seen


def _product_elements(desc: models.Product, weight_bound: int):
    factor_lists = [enumerate_elements(f, weight_bound) for f in desc.factors]
    free_vectors = [
        v
        for v in itertools.product(*(range(weight_bound + 1),) * desc.free_rank)
        if sum(v) <= weight_bound
    ] or [()]
    for combo in itertools.product(*factor_lists):
        used = sum(models.weight(f, c) for f, c in zip(desc.factors, combo))
        if used > weight_bound:
            continue
        for fv in free_vectors:
            if used + sum(fv) <= weight_bound:
                yield (tuple(combo), fv)


# ---------------------------------------------------------------------------
# global estimates


@dataclass(frozen=True)
class GlobalEstimate:
    """Lower estimate of a global invariant at a finite weight bound."""

    name: str
    value: object
    bound: int
    stabilized: bool

    def to_json(self) -> dict:
        value = self.value
        if isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        return {
            "name": self.name,
            "value": value,
            "bound": self.bound,
            "stabilized": self.stabilized,
        }


_ESTIMATE_NAMES = ("delta_set", "rho", "c", "c_eq", "c_adj", "c_mon", "delta", "delta_w")


def _summary_worker(args):
    desc, el, budget = args
    try:
        rep = element_report(factor.factorizations(desc, el, budget))
    except BudgetExceeded as exc:
        return {"element": el, "overflow": exc.limit}
    return {
        "element": el,
        "weight": models.weight(desc, el),
        "delta_set": rep.lengths.delta(),
        "rho": rep.elasticity,
        "c": rep.c,
        "c_eq": rep.c_eq,
        "c_adj": rep.c_adj,
        "c_mon": rep.c_mon,
        "delta": rep.delta_elem,
        "delta_w": rep.delta_w,
    }


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Deterministic order-preserving map, forking only when asked to."""
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def global_estimates(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
    jobs: int = 1,
):
    """Aggregate element invariants below the bound.

    Returns (estimates, warnings). An estimate is flagged stabilized when
    its value did not change over the top half of the bound range; budget
    overflows are recorded per element, never dropped silently.
    """
    elements = enumerate_elements(desc, weight_bound)
    rows = parallel_map(_summary_worker, [(desc, el, budget) for el in elements], jobs)
    warnings = [
        budget_warning(desc, r["element"], r["overflow"])
        for r in rows
        if "overflow" in r
    ]
    series: dict[str, list] = {name: [] for name in _ESTIMATE_NAMES}
    delta_acc: set[int] = set()
    acc = {"rho": Fraction(1), "c": 0, "c_eq": 0, "c_adj": 0, "c_mon": 0,
           "delta": 0, "delta_w": 0}
    good = [r for r in rows if "overflow" not in r]
    i = 0
    for b in range(weight_bound + 1):
        while i < len(good) and good[i]["weight"] == b:
            row = good[i]
            delta_acc.update(row["delta_set"])
            for name in acc:
                acc[name] = max(acc[name], row[name])
            i += 1
        series["delta_set"].append(tuple(sorted(delta_acc)))
        for name in acc:
            series[name].append(acc[name])
    half = weight_bound // 2
    estimates = [
        GlobalEstimate(
            name=name,
            value=series[name][-1],
            bound=weight_bound,
            stabilized=len(set(series[name][half:])) == 1,
        )
        for name in _ESTIMATE_NAMES
    ]
    return estimates, warnings


# ---------------------------------------------------------------------------
# length table


class LengthRow(NamedTuple):
    """One member of a length table.

    ``lengths`` and ``count`` (the size of Z(element)) are None when the
    element has more factorizations than the budget allows.
    """

    element: models.Element
    lengths: LengthSet | None
    count: int | None


def length_table(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[LengthRow]:
    """Every member of weight <= bound with its length set, in weight order.

    A member overflows exactly when factor.factorizations would raise
    BudgetExceeded for it at this budget. Only sumset fibers (and sumset
    product slots) are enumerated, spread over ``jobs`` processes.
    """
    rows = []
    for el, (mask, count) in _length_masks(desc, weight_bound, budget, jobs).items():
        if count is None or count > budget:
            rows.append(LengthRow(el, None, None))
        else:
            ls = tuple(k for k in range(mask.bit_length()) if mask >> k & 1)
            rows.append(LengthRow(el, LengthSet(ls), count))
    return rows


def _length_masks(desc, weight_bound, budget, jobs) -> dict:
    """Member -> (bit mask of its lengths, |Z(member)| or None if unknown)."""
    members = enumerate_elements(desc, weight_bound)
    if isinstance(desc, models.Sumset):
        rows = parallel_map(_enumerated_masks,
                            [(desc, el, budget) for el in members], jobs)
    elif isinstance(desc, models.Product):
        slots = [_length_masks(f, weight_bound, budget, jobs) for f in desc.factors]
        rows = [_product_masks(slots, el) for el in members]
    else:
        rows = _value_masks(desc, members)
    return dict(zip(members, rows))


def _enumerated_masks(args):
    desc, el, budget = args
    try:
        fs = factor.factorizations(desc, el, budget)
    except BudgetExceeded:
        return 0, None
    return sum(1 << k for k in fs.lengths), len(fs.all)


def _value_masks(desc, members: list) -> list:
    """The recurrence L(a) = U (1 + L(a - u)) over atoms u, in weight order.

    members is closed under division, so a - u is a member exactly when
    it is listed. A nonzero member that no smaller atom divides is an atom.
    Counts are coin-change sums with the atoms outermost, which counts
    every multiset of atoms once.
    """
    if isinstance(desc, models.Numerical):
        minus = sub
    else:
        def minus(a, u):
            return tuple(map(sub, a, u))
    index = {a: i for i, a in enumerate(members)}
    masks = [1] + [0] * (len(members) - 1)
    atoms = []
    for i in range(1, len(members)):
        mask = 0
        for u in atoms:
            j = index.get(minus(members[i], members[u]))
            if j is not None:
                mask |= masks[j]
        if not mask:
            atoms.append(i)
            mask = 1
        masks[i] = mask << 1
    counts = [1] + [0] * (len(members) - 1)
    for u in atoms:
        atom = members[u]
        for i in range(u, len(members)):
            j = index.get(minus(members[i], atom))
            if j is not None:
                counts[i] += counts[j]
    return list(zip(masks, counts))


def _product_masks(slots: list[dict], el) -> tuple[int, int | None]:
    """Slot length sets add and slot counts multiply; free exponents shift."""
    comps, free = el
    mask, count = 1 << sum(free), 1
    for table, c in zip(slots, comps):
        slot_mask, slot_count = table[c]
        if slot_count is None:
            return 0, None
        total = 0
        while slot_mask:
            low = slot_mask & -slot_mask
            total |= mask << (low.bit_length() - 1)
            slot_mask ^= low
        mask, count = total, count * slot_count
    return mask, count


def table_warnings(
    desc: models.MonoidDescriptor, table: list[LengthRow], budget: int
) -> list[dict]:
    """One budget-exceeded warning per overflowed row, in table order."""
    return [
        budget_warning(desc, row.element, budget)
        for row in table
        if row.lengths is None
    ]


def budget_warning(desc: models.MonoidDescriptor, el, limit: int) -> dict:
    return {
        "element": models.element_to_json(desc, el),
        "error": "budget-exceeded",
        "budget": limit,
    }


def union_containing(table: list[LengthRow], k: int) -> LengthSet:
    """Union of the table's length sets that contain k, always with k."""
    union = {k}
    for row in table:
        if row.lengths is not None and k in row.lengths:
            union.update(row.lengths.lengths)
    return length_set_of(union)


def unions_of_lengths(
    desc: models.MonoidDescriptor,
    k: int,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
    jobs: int = 1,
):
    """Union of all length sets below the bound containing k, with k itself.

    Returns (report dict, warnings). The k-th power of any atom realizes
    length k, so seeding with {k} keeps the estimate a true lower bound
    even at bounds too small to exhibit any such power.
    """
    table = length_table(desc, weight_bound, budget, jobs)
    union = union_containing(table, k)
    report = {
        "k": k,
        "union": union,
        "rhoK": union.lengths[-1],
        "bound": weight_bound,
    }
    return report, table_warnings(desc, table, budget)
