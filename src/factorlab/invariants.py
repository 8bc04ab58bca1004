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

Every question about the members below a weight bound reads one sweep
(``sweep``): global estimates and equal-length relations take its fibers
(``fibers``), length-set questions (structure probes, unions of length
sets) its length sets and counts (``length_table``). It lists the members
once, and every model, products included, takes its rows, length masks,
counts |Z(a)| and, when asked for, fibers Z(a), from one run of the atom
recurrence of ``factor`` over them, so a member overflows the budget
exactly when enumerating it would.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import factor, models


class LengthSet(NamedTuple):
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
    return LengthSet(fs.lengths)


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


class InvariantReport(NamedTuple):
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
    if isinstance(desc, models.Product):
        free = itertools.product(range(weight_bound + 1), repeat=desc.free_rank)
        free_vectors = [v for v in free if sum(v) <= weight_bound]
        slots = [enumerate_elements(f, weight_bound) for f in desc.factors]
        out = []
        for combo in itertools.product(*slots):
            used = sum(models.weight(f, c) for f, c in zip(desc.factors, combo))
            out.extend((combo, fv) for fv in free_vectors
                       if used + sum(fv) <= weight_bound)
    elif isinstance(desc, (models.Numerical, models.Affine)):
        # member_mask numbers the box with the first coordinate lowest, the
        # order in which product() yields the reversed points
        dim = getattr(desc, "dim", 1)
        bits = bin(models.member_mask(desc, (weight_bound,) * dim))[:1:-1]
        box = itertools.product(range(weight_bound + 1), repeat=dim)
        out = [v[0] if isinstance(desc, models.Numerical) else v[::-1]
               for v in itertools.compress(box, map("1".__eq__, bits))
               if sum(v) <= weight_bound]
    elif isinstance(desc, models.FinitelyPrimaryValue):
        box = models.fp_box(desc, (weight_bound,) * desc.rank)[0]
        out = [models.identity(desc)] + [v for v in box if sum(v) <= weight_bound]
    else:
        out = list(models.sumset_reachable(desc, tuple(range(weight_bound + 1))))
    out.sort(key=lambda el: models.element_sort_key(desc, el))
    return out


# ---------------------------------------------------------------------------
# the sweep


def sweep(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    budget: int,
    fibers: bool,
):
    """Yield (member, length mask, |Z(member)|, Z(member)) in weight order.

    Bit k of the mask is set when k is a length. A member overflows, and
    comes as (member, 0, None, None), exactly when factor.factorizations
    would raise BudgetExceeded for it at this budget. Otherwise Z(member)
    is what factor.factorizations returns when ``fibers`` is set, built
    when its member is reached, and None when it is not. Every model takes
    its rows from the one atom recurrence, in this process.
    """
    members = enumerate_elements(desc, weight_bound)
    rows = factor.recurrence_rows(desc, members, budget, fibers)
    for el, (mask, count, fs) in zip(members, rows):
        yield el, mask, count, fs


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def fibers(desc: models.MonoidDescriptor, weight_bound: int,
           budget: int = factor.DEFAULT_BUDGET):
    """(member, Z(member)) in weight order, None on overflow: ``sweep``'s fibers."""
    return ((el, fs) for el, _, _, fs in sweep(desc, weight_bound, budget, True))


# ---------------------------------------------------------------------------
# global estimates


class GlobalEstimate(NamedTuple):
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


# Each estimate's value over no members: the running maxima start here.
_ESTIMATE_START = {
    "delta_set": frozenset(), "rho": Fraction(1), "c": 0, "c_eq": 0,
    "c_adj": 0, "c_mon": 0, "delta": 0, "delta_w": 0,
}


def running_maxima(rows, weight_bound: int, start: dict) -> dict:
    """Fold rows of (weight, values), in weight order, into running maxima.

    ``start`` gives each name's value over no rows; frozenset values
    accumulate by union, all others by max. Returns name -> (value,
    stabilized), where stabilized means the value did not change after
    weight ``weight_bound // 2``. Values never fall, so that is the value
    at the half weight equalling the final one: one snapshot, taken when
    the first heavier row arrives, decides it.
    """
    half = weight_bound // 2
    acc = dict(start)
    at_half = None
    for weight, values in rows:
        if at_half is None and weight > half:
            at_half = dict(acc)
        for name, value in values.items():
            old = acc[name]
            acc[name] = old | value if isinstance(old, frozenset) else max(old, value)
    if at_half is None:
        at_half = acc
    return {name: (value, value == at_half[name]) for name, value in acc.items()}


def global_estimates(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
):
    """Aggregate element invariants below the bound.

    Returns (estimates, warnings). An estimate is flagged stabilized when
    its value did not change over the top half of the bound range; budget
    overflows are recorded per element, never dropped silently. The
    fibers are streamed, one at a time, through ``element_report``.
    """
    warnings = []

    def summaries():
        for el, fs in fibers(desc, weight_bound, budget):
            if fs is None:
                warnings.append(budget_warning(desc, el, budget))
                continue
            rep = element_report(fs)
            yield models.weight(desc, el), {
                "delta_set": frozenset(rep.lengths.delta()),
                "rho": rep.elasticity,
                "c": rep.c,
                "c_eq": rep.c_eq,
                "c_adj": rep.c_adj,
                "c_mon": rep.c_mon,
                "delta": rep.delta_elem,
                "delta_w": rep.delta_w,
            }

    maxima = running_maxima(summaries(), weight_bound, _ESTIMATE_START)
    estimates = [
        GlobalEstimate(
            name=name,
            value=tuple(sorted(value)) if name == "delta_set" else value,
            bound=weight_bound,
            stabilized=stabilized,
        )
        for name, (value, stabilized) in maxima.items()
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
) -> list[LengthRow]:
    """Every member of weight <= bound with its length set, in weight order:
    the rows of ``sweep`` without fibers."""
    return [
        LengthRow(el, None, None) if count is None
        else LengthRow(el, LengthSet(_bits(mask)), count)
        for el, mask, count, _ in sweep(desc, weight_bound, budget, False)
    ]


def table_warnings(desc: models.MonoidDescriptor, rows, budget: int) -> list[dict]:
    """One budget-exceeded warning per overflowed LengthRow, in row order."""
    return [budget_warning(desc, row.element, budget)
            for row in rows if row.lengths is None]


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
):
    """Union of all length sets below the bound containing k, with k itself.

    Returns (report dict, warnings). The k-th power of any atom realizes
    length k, so seeding with {k} keeps the estimate a true lower bound
    even at bounds too small to exhibit any such power.
    """
    if k < 0:
        raise ValueError("union indices must be nonnegative")
    table = length_table(desc, weight_bound, budget)
    union = union_containing(table, k)
    report = {
        "k": k,
        "union": union,
        "rhoK": union.lengths[-1],
        "bound": weight_bound,
    }
    return report, table_warnings(desc, table, budget)
