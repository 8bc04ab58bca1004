"""Global estimates of cancellative models read off the atom recurrence.

``invariants.global_estimates`` folds running maxima of element invariants
over the members below a weight bound. On a cancellative model (every
model but sumsets, products with a sumset slot included) this module
gives those maxima from one run of ``factor.atom_recurrence``, its length
masks L(a), below[a] = {k: a - u_k for each atom u_k dividing a} and raw
fibers, with no FactorSet, distance table or spanning tree:

* c and c_eq from R-classes. Two factorizations of a share an R-class
  when a chain joins them whose steps share an atom; the classes are the
  components of the atoms u dividing a, linked when a - u - v is a
  member. mu(a), the largest least length 1 + min L(a - u) of a class
  when there are two, and mu_eq(a), the largest k at which the atoms of
  Z_k(a) (k - 1 in L(a - u)) linked by k - 2 in L(a - u - v) split,
  bound c(a) and c_eq(a) from below and, with c and c_eq of every a - u,
  from above (Chapman, García-Sánchez, Llena, Ponomarenko and Rosales,
  Manuscripta Math. 2006), so their running maxima are those of c and
  c_eq at every weight. Members past the budget skip no induction step:
  |Z(a - u)| <= |Z(a)|.
* c_adj and delta_w from a gcd-length recurrence. For lengths k < k + d
  of a, d(Z_k, Z_{k+d}) = d + T(a; k, d) with T(a; k, d) = min(k,
  T(a - u; k - 1, d) over the atoms u), since the largest |gcd(x, y)|
  over x in Z_k, y in Z_{k+d} is 0 or 1 + that of a - u.
* delta from the raw rows: x in Z_k has d(x, Z_l) at most delta(a - u)
  for an atom u of x with l - 1 in L(a - u), and l when x shares no atom
  with Z_l. So only adjacent lengths where atoms lie at one and not the
  other, of weights that can make up a, are read off the fiber, as the
  ``unary_codes`` of its factorizations.

A row holds only the values that raise the maxima so far, each exact, so
a value past the floor of the maxima is all a member needs; the gap tables
keep the gaps that can still raise c_adj or delta_w, and a member's is
freed at its last reader.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from operator import and_, or_

from . import factor, invariants, models
from .fields import Fields


def _classes(nodes: int, links) -> list[int]:
    """The components, as masks, of the graph on the bits of nodes in which
    links(k) masks the neighbours of node k."""
    out = []
    while nodes:
        comp = frontier = nodes & -nodes
        while frontier:
            reach = 0
            while frontier:
                reach |= links(frontier.bit_length() - 1)
                frontier &= ~(1 << frontier.bit_length() - 1)
            frontier = reach & nodes & ~comp
            comp |= frontier
        out.append(comp)
        nodes &= ~comp
    return out


def _split_lengths(parents: dict, below: list, masks: list, floor: int) -> int:
    """Bit k for each length k > floor at which Z_k(a) splits into R-classes,
    given parents[u] = a - u; joined[v] holds the lengths at which atom v
    is linked to the root r, all lengths at once."""
    present = {u: masks[a] << 1 >> floor + 1 << floor + 1 for u, a in parents.items()}
    seen = shared = split = 0
    for m in present.values():
        shared, seen = shared | seen & m, seen | m
    for r, ks in present.items():
        if ks & shared:
            joined, todo, shared = {r: ks & shared}, [r], shared & ~ks
            while todo:
                w = todo.pop()
                for v, c in below[parents[w]].items():
                    if joined[w] & masks[c] << 2 & ~joined.get(v, 0):
                        joined[v] = joined.get(v, 0) | joined[w] & masks[c] << 2
                        todo.append(v)
                missing = 0
                for v, m in present.items():
                    missing |= m & joined[r] & ~joined.get(v, 0)
                if not missing:
                    break
            split |= missing
    return split


class _GapTables(Fields):
    """T(a; k, d) over the lengths k of a member a, packed per gap d into one
    int with a field of ``width`` bits per k that holds FAR - T(a; k, d), or
    0 where k or k + d is not in L(a); so an int ends at a's longest length,
    and the fieldwise min of T is one fieldwise ``max``."""

    def __init__(self, top: int):
        super().__init__(top, top + 1)
        self.rest = self.ones * self.far ^ self.pack(range(top + 1))

    def build(self, mask: int, parents: list, gaps) -> tuple[int, dict]:
        """(FAR at each length of a, {d: a's int} for the gaps d that part two
        lengths), from a's length mask and its parents' tables."""
        if not gaps:
            return 0, {}
        w, size = self.width, mask.bit_length()
        spread = bytearray(size * self.nbytes)
        spread[::self.nbytes] = models.byte_table(mask, size)
        at, tables = int.from_bytes(spread, "little") * self.far, {}
        for d in gaps:
            if pairs := at & at >> w * d:
                c = self.rest & pairs
                for p in filter(None, (p.get(d) for p in parents)):
                    c = self.max(p << w, c)
                tables[d] = c
        return at, tables

    def get(self, c: int, k: int) -> int:
        return self.far - (c >> self.width * k & self.far)


def unary_codes(fiber) -> list[int]:
    """Each factorization of a fiber, given as (atom id, multiplicity)
    pairs, as one integer holding every multiplicity in unary, atom i in
    its own field as wide as its largest multiplicity in the fiber, so
    |gcd(x, y)| is the popcount of X & Y."""
    pairs = sorted(set(itertools.chain.from_iterable(fiber)))
    width = dict(pairs)
    offset, shift = {}, 0
    for i in width:
        offset[i] = shift
        shift += width[i]
    unit = {(i, m): ((1 << m) - 1) << offset[i] for i, m in pairs}
    return list(map(sum, map(functools.partial(map, unit.__getitem__), fiber)))


def estimate_rows(desc, weight_bound: int, budget: int, warnings: list, start: dict):
    """Rows for ``invariants.running_maxima`` from the values ``start``, in
    weight order, each holding the values that raise the maxima so far; a
    budget warning per member past the budget goes to ``warnings``."""
    members = invariants.enumerate_elements(desc, weight_bound)
    atoms, masks, counts, raw, below, weights = factor.atom_recurrence(
        desc, members, budget)
    lows = [(m & -m).bit_length() - 1 for m in masks]
    kept = [invariants.LengthSet(invariants.mask_lengths(m)) if n <= budget else None
            for m, n in zip(masks, counts)]
    last = {a: i for i, parents in enumerate(below) for a in parents.values()}
    top = max((ls.lengths[-1] for ls in kept if ls), default=0)
    adjacent_gaps = set().union(*(ls.delta() for ls in kept if ls))
    gaps, gap_tables = range(1, top + 1), _GapTables(top)
    w, far, ones = gap_tables.width, gap_tables.far, gap_tables.ones
    divisors, held, best = [0] * len(members), {}, dict(start)
    for i, el in enumerate(members):
        if kept[i] is None:
            warnings.append(invariants.budget_warning(desc, el, budget))
            continue
        weight, mask, parents, ls = weights[i], masks[i], below[i], kept[i]
        lengths, deltas = ls.lengths, ls.delta()
        row = {"delta_set": frozenset(deltas), "rho": ls.rho(), "delta_w": 0}
        divisors[i] = sum(map((1).__lshift__, parents))
        classes = _classes(divisors[i], lambda u: divisors[parents[u]])
        if len(classes) > 1:
            row["c"] = max(1 + min(lows[a] for u, a in parents.items() if cl >> u & 1)
                           for cl in classes)
        split = _split_lengths(parents, below, masks, best["c_eq"])
        row["c_eq"] = split.bit_length() - 1
        at, tables = gap_tables.build(
            mask, [held.get(a, {}) for a in parents.values()],
            gaps[:bisect.bisect_right(gaps, lengths[-1] - lengths[0])])
        span = tables and ones & (1 << w * (lengths[-1] + 1)) - 1
        for d, c in tables.items():
            t = c ^ at & at >> w * d
            floor = min(far, max(-1, (best["delta_w"] - 1) * d))
            if t + span * (far - floor) & span << w - 1:
                most = max(memoryview(t.to_bytes(w * (lengths[-1] + 1) // 8, "little")
                                      ).cast(gap_tables.code))
                row["delta_w"] = max(row["delta_w"], 1 - (-most // d))
        adjacent = list(zip(lengths, lengths[1:]))
        row["c_adj"] = max(
            (l - k + gap_tables.get(tables[l - k], k) for k, l in adjacent), default=0)
        present = [(masks[a] << 1, weights[atoms[u]]) for u, a in parents.items()]
        changes = {d: functools.reduce(or_, (m ^ m >> d for m, _ in present))
                   for d in deltas}
        by_length = None
        for k, l in adjacent:
            if l > best["delta"] and changes[l - k] >> k & 1 and any(
                    ws and n * min(ws) <= weight <= n * max(ws)
                    for n, o in ((k, l), (l, k))
                    for ws in [[v for m, v in present if m >> n & 1 and not m >> o & 1]]):
                if by_length is None:
                    codes = unary_codes(raw[i])
                    by_length = {n: list(itertools.compress(codes, map(
                        n.__eq__, map(int.bit_count, codes)))) for n in lengths}
                xs, ys = by_length[k], by_length[l]
                if any(0 in map(and_, x, itertools.repeat(functools.reduce(or_, y)))
                       for x, y in ((xs, ys), (ys, xs))):
                    row["delta"] = l
        raw[i] = None
        if last.get(i, 0) > i:
            held[i] = tables
        for a in parents.values():
            if last[a] == i:
                held.pop(a, None)
        row["c_mon"] = max(row["c_eq"], row["c_adj"])
        row = {name: v for name, v in row.items() if name == "delta_set" and not
               v <= best[name] or name != "delta_set" and v > best[name]}
        if row.get("delta_w", 0) > best["delta_w"]:
            gaps = [d for d in gaps if d in adjacent_gaps or row["delta_w"] * d < top]
        for name, value in row.items():
            best[name] = best[name] | value if name == "delta_set" else value
        yield weight, row
