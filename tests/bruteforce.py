"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results straight from definitions: members
come from box scans, filtered by ``generated`` for numerical and affine
models and by ``sumset_products`` for sumsets (the package decides those
with bit masks and reachability, which this shares no code with) and by
the closed-form fp-value membership primitive otherwise, atoms
from exhaustive two-part splits, factorizations from multiplicity search with
a leaf product-equality check, relation atoms from every sub-multiset of
both sides multiplied out, the chain invariants from explicit
threshold-graph connectivity, and AAMP witnesses from every (shift,
split) candidate in order, each checked by the definition checker
``aamp.verify_witness``. None of the enumeration or graph logic in the
package is reused, except by ``reference_global_estimates``: it folds the
package's ``element_report`` (checked against the chain oracles here) over
``invariants.fibers``, the reference for the global estimates that
cancellative models read off the atom recurrence.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from factorlab import aamp, factor, invariants, models


# ---------------------------------------------------------------------------
# element universes


@functools.lru_cache(maxsize=None)
def generated(desc: models.Numerical | models.Affine, v) -> bool:
    """v is a member when v = 0 or v - g is one for a generator g <= v."""
    if isinstance(desc, models.Numerical):
        return v == 0 or any(generated(desc, v - g)
                             for g in desc.generators if g <= v)
    return not any(v) or any(
        generated(desc, tuple(x - y for x, y in zip(v, g)))
        for g in desc.generators if all(y <= x for x, y in zip(v, g)))


@functools.lru_cache(maxsize=None)
def sumset_products(desc: models.Sumset, bound: int) -> frozenset:
    """Every sum of generators whose largest entry is at most bound."""
    seen, frontier = {(0,)}, [(0,)]
    while frontier:
        p = frontier.pop()
        for g in desc.generators:
            q = tuple(sorted({x + y for x in p for y in g}))
            if q[-1] <= bound and q not in seen:
                seen.add(q)
                frontier.append(q)
    return frozenset(seen)


def is_member(desc: models.MonoidDescriptor, el) -> bool:
    """Membership of a canonical element, by ``generated`` or
    ``sumset_products`` where they apply."""
    if isinstance(desc, (models.Numerical, models.Affine)):
        return generated(desc, el)
    if isinstance(desc, models.Sumset):
        return el in sumset_products(desc, el[-1])
    if isinstance(desc, models.Product):
        return all(is_member(f, c) for f, c in zip(desc.factors, el[0]))
    return models.membership(desc, el)


@functools.lru_cache(maxsize=None)
def brute_members(desc: models.MonoidDescriptor, bound: int) -> list:
    """All members of weight <= bound, by scanning a raw candidate box."""
    out = []
    for cand in _candidate_box(desc, bound):
        try:
            el = models.canon(desc, cand)
        except Exception:
            continue
        if models.weight(desc, el) <= bound and is_member(desc, el):
            out.append(el)
    return sorted(set(out), key=lambda e: models.element_sort_key(desc, e))


def _candidate_box(desc: models.MonoidDescriptor, bound: int):
    if isinstance(desc, models.Numerical):
        yield from range(bound + 1)
    elif isinstance(desc, models.Affine):
        yield from itertools.product(range(bound + 1), repeat=desc.dim)
    elif isinstance(desc, models.FinitelyPrimaryValue):
        yield from itertools.product(range(bound + 1), repeat=desc.rank)
    elif isinstance(desc, models.Sumset):
        for r in range(bound + 1):
            for rest in itertools.combinations(range(1, bound + 1), r):
                yield (0,) + rest
    elif isinstance(desc, models.Product):
        slot_pools = [brute_members(f, bound) for f in desc.factors]
        free_pools = [
            vec
            for vec in itertools.product(range(bound + 1), repeat=desc.free_rank)
            if sum(vec) <= bound
        ]
        for combo in itertools.product(*slot_pools):
            for free in free_pools:
                yield (tuple(combo), tuple(free))
    else:
        raise TypeError(desc)


def leq(desc: models.MonoidDescriptor, u, v) -> bool:
    """Necessary condition for u to divide v, straight from the model."""
    if isinstance(desc, models.Numerical):
        return u <= v
    if isinstance(desc, (models.Affine, models.FinitelyPrimaryValue)):
        return all(a <= b for a, b in zip(u, v))
    if isinstance(desc, models.Sumset):
        return set(u) <= set(v)
    if isinstance(desc, models.Product):
        comps_u, free_u = u
        comps_v, free_v = v
        return all(
            leq(f, cu, cv)
            for f, cu, cv in zip(desc.factors, comps_u, comps_v)
        ) and all(a <= b for a, b in zip(free_u, free_v))
    raise TypeError(desc)


@functools.lru_cache(maxsize=None)
def brute_is_atom(desc: models.MonoidDescriptor, u) -> bool:
    ident = models.identity(desc)
    if u == ident or not is_member(desc, u):
        return False
    w = models.weight(desc, u)
    pool = [v for v in brute_members(desc, w) if v != ident and leq(desc, v, u)]
    for v in pool:
        for t in pool:
            if models.multiply(desc, v, t) == u:
                return False
    return True


def brute_atoms_dividing(desc: models.MonoidDescriptor, a) -> list:
    ident = models.identity(desc)
    pool = brute_members(desc, models.weight(desc, a))
    found = []
    for u in pool:
        if u == ident or not leq(desc, u, a):
            continue
        if not brute_is_atom(desc, u):
            continue
        if any(models.multiply(desc, u, v) == a for v in pool):
            found.append(u)
    return found


# ---------------------------------------------------------------------------
# closure of fp-value descriptors


def brute_first_closure_violation(desc: models.FinitelyPrimaryValue, members):
    """The first (e, f, e + f) over ordered pairs of members, in their order,
    whose sum is not a member; None when there is none.

    A pair with a part whose every coordinate reaches the exponent sums to
    a member (every coordinate of the sum passes it), so only pairs of the
    other members are tried.
    """
    low = [v for v in members if min(v) < desc.exponent]
    for e in low:
        for f in low:
            s = tuple(x + y for x, y in zip(e, f))
            if not models.membership(desc, s):
                return e, f, s
    return None


# ---------------------------------------------------------------------------
# factorizations as multisets of atom elements


def brute_factorizations(desc: models.MonoidDescriptor, a) -> set:
    """All atom multisets with product a, as sorted ((atom, mult), ...)."""
    ident = models.identity(desc)
    if a == ident:
        return {()}
    atoms = brute_atoms_dividing(desc, a)
    total = models.weight(desc, a)
    results: set = set()

    def recurse(idx: int, current, used: list) -> None:
        if current == a:
            results.add(tuple(sorted(Counter(used).items())))
        if idx == len(atoms):
            return
        atom = atoms[idx]
        step = models.weight(desc, atom)
        recurse(idx + 1, current, used)
        acc = current
        count = 0
        budget_left = total - models.weight(desc, acc)
        while step * (count + 1) <= budget_left:
            acc = models.multiply(desc, acc, atom)
            if not leq(desc, acc, a):
                break
            count += 1
            used.extend([atom])
            recurse(idx + 1, acc, used)
        del used[len(used) - count:]

    recurse(0, ident, [])
    return results


def factor_set_as_multisets(fs: factor.FactorSet) -> set:
    return {tuple(sorted((fs.atoms[i], m) for i, m in z.counts)) for z in fs.all}


# ---------------------------------------------------------------------------
# equal-length relation atoms, from the definition


def _sub_multisets(z: factor.Factorization):
    """(taken, rest, |taken|) over every sub-multiset of z."""
    ids = [i for i, _ in z.counts]
    mults = [m for _, m in z.counts]
    for take in itertools.product(*(range(m + 1) for m in mults)):
        yield (tuple(zip(ids, take)),
               tuple((i, m - t) for i, m, t in zip(ids, mults, take)),
               sum(take))


def brute_is_relation_atom(desc: models.MonoidDescriptor, pair) -> bool:
    """An equal-length pair (x, y), |x| >= 1, with no sub-multisets w <= x
    and w' <= y of one length 0 < j < |x| such that pi(w) = pi(w') and
    pi(x - w) = pi(y - w'); every product is multiplied out from the
    identity."""
    x, y = pair.left, pair.right
    if x.length != y.length or x.length < 1:
        return False
    atoms = pair.atoms

    def splits(z):
        return {(k, models.product_of(desc, atoms, taken),
                 models.product_of(desc, atoms, rest))
                for taken, rest, k in _sub_multisets(z) if 0 < k < z.length}

    return not splits(x) & splits(y)


# ---------------------------------------------------------------------------
# distances and chain invariants, from scratch


def brute_gcd(z1, z2) -> dict:
    """Atom -> the smaller of its two multiplicities, where both are positive."""
    return dict(Counter(dict(z1)) & Counter(dict(z2)))


def brute_distance(z1, z2) -> int:
    c1, c2 = Counter(dict(z1)), Counter(dict(z2))
    shared = brute_gcd(z1, z2)
    r1 = sum(c1[k] - shared.get(k, 0) for k in c1)
    r2 = sum(c2[k] - shared.get(k, 0) for k in c2)
    return max(r1, r2)


def _as_counts(fs: factor.FactorSet) -> list[tuple[tuple, int]]:
    return [z.counts for z in fs.all]


def fibers(fs: factor.FactorSet) -> dict[int, list]:
    """Length -> counts of the factorizations of that length, ascending."""
    out: dict[int, list] = {}
    for z in fs.all:
        out.setdefault(sum(m for _, m in z.counts), []).append(z.counts)
    return dict(sorted(out.items()))


def _connected_under(zs: list, threshold: int) -> bool:
    if len(zs) <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(zs)):
            if j not in seen and brute_distance(zs[i], zs[j]) <= threshold:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(zs)


def brute_catenary(fs: factor.FactorSet) -> int:
    zs = _as_counts(fs)
    if len(zs) <= 1:
        return 0
    candidates = sorted(
        {0}
        | {
            brute_distance(z1, z2)
            for z1, z2 in itertools.combinations(zs, 2)
        }
    )
    for n in candidates:
        if _connected_under(zs, n):
            return n
    raise AssertionError("complete graph must connect at max distance")


def brute_equal_catenary(fs: factor.FactorSet) -> int:
    best = 0
    for fiber in fibers(fs).values():
        if len(fiber) <= 1:
            continue
        candidates = sorted(
            {0}
            | {
                brute_distance(z1, z2)
                for z1, z2 in itertools.combinations(fiber, 2)
            }
        )
        for n in candidates:
            if _connected_under(fiber, n):
                best = max(best, n)
                break
    return best


def brute_set_distance(xs: list, ys: list) -> int:
    if not xs or not ys:
        return 0
    return min(brute_distance(x, y) for x in xs for y in ys)


def brute_adjacent_catenary(fs: factor.FactorSet) -> int:
    zs = list(fibers(fs).values())
    best = 0
    for xs, ys in zip(zs, zs[1:]):
        best = max(best, brute_set_distance(xs, ys))
    return best


def _monotone_reachable(zs: list, start: int, goal: int, n: int) -> bool:
    """Chain from zs[start] to zs[goal] with steps <= n and non-decreasing
    lengths; assumes len(zs[start]) <= len(zs[goal])."""
    length = lambda z: sum(m for _, m in z)
    lo, hi = length(zs[start]), length(zs[goal])
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        if i == goal:
            return True
        for j in range(len(zs)):
            if j in seen:
                continue
            lj = length(zs[j])
            if lj < length(zs[i]) or lj > hi:
                continue
            if brute_distance(zs[i], zs[j]) <= n:
                seen.add(j)
                frontier.append(j)
    return goal in seen


def brute_monotone_catenary(fs: factor.FactorSet) -> int:
    zs = _as_counts(fs)
    if len(zs) <= 1:
        return 0
    length = lambda z: sum(m for _, m in z)
    pairs = [
        (i, j)
        for i, j in itertools.permutations(range(len(zs)), 2)
        if length(zs[i]) <= length(zs[j])
    ]
    candidates = sorted(
        {0}
        | {
            brute_distance(z1, z2)
            for z1, z2 in itertools.combinations(zs, 2)
        }
    )
    for n in candidates:
        if all(_monotone_reachable(zs, i, j, n) for i, j in pairs):
            return n
    raise AssertionError("single jump at max distance is monotone")


def monotone_chain_oracle(fs: factor.FactorSet, z, zp, n: int) -> bool:
    """Is there a monotone chain from z to zp with all steps <= n?

    Lengths along a monotone chain towards the longer endpoint never
    exceed it, so a breadth-first search over non-decreasing lengths from
    the shorter endpoint is exhaustive.
    """
    if z.length > zp.length:
        z, zp = zp, z
    if z == zp:
        return True
    seen = {z}
    frontier = [z]
    while frontier:
        nxt = []
        for cur in frontier:
            for y in fs.all:
                if y in seen or y.length < cur.length or y.length > zp.length:
                    continue
                if brute_distance(cur.counts, y.counts) <= n:
                    if y == zp:
                        return True
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def brute_dist_sup(xs: list, ys: list) -> int:
    one = max((min(brute_distance(x, y) for y in ys) for x in xs), default=0)
    two = max((min(brute_distance(x, y) for x in xs) for y in ys), default=0)
    return max(one, two)


def brute_element_successive_distance(fs: factor.FactorSet) -> int:
    zs = list(fibers(fs).values())
    best = 0
    for xs, ys in zip(zs, zs[1:]):
        best = max(best, brute_dist_sup(xs, ys))
    return best


def brute_successive_distance(fs: factor.FactorSet, z) -> int:
    """Worst distance from z to the nearest factorization of each adjacent
    length."""
    by = fibers(fs)
    ls = list(by)
    pos = ls.index(sum(m for _, m in z.counts))
    adjacent = [ls[i] for i in (pos - 1, pos + 1) if 0 <= i < len(ls)]
    return max(
        (min(brute_distance(z.counts, y) for y in by[k]) for k in adjacent),
        default=0,
    )


def brute_weak_successive_distance(fs: factor.FactorSet) -> int:
    by = fibers(fs)
    best = 0
    for k, l in itertools.combinations(by, 2):
        d = brute_set_distance(by[k], by[l])
        best = max(best, -(-d // (l - k)))
    return best


# ---------------------------------------------------------------------------
# almost-arithmetic fitting by raw subset search and by generate-and-verify


def brute_aamp_exists(L, d: int, m: int) -> bool:
    """Exhaustive witness search over shift, period subset and split."""
    values = sorted(set(L))
    interior = list(range(1, d))
    for y in range(values[0] - 0, values[-1] + 1):
        shifted = [v - y for v in values]
        for r in range(len(interior) + 1):
            for extra in itertools.combinations(interior, r):
                period = {0, d} | set(extra)
                if _matches_template(shifted, period, d, m):
                    return True
    return False


def _matches_template(shifted, period, d: int, m: int) -> bool:
    if any(v % d not in {p % d for p in period} for v in shifted):
        return False
    inside = [v for v in shifted if 0 <= v]
    if not inside or min(inside) != 0:
        return False
    head = [v for v in shifted if v < 0]
    if any(v < -m for v in head):
        return False
    residues = {p % d for p in period}
    for top in sorted(set(inside)):
        middle = [v for v in inside if v <= top]
        tail = [v for v in inside if v > top]
        full = [v for v in range(0, top + 1) if v % d in residues]
        if middle != full:
            continue
        if all(top < v <= top + m for v in tail):
            return True
    return False


def brute_first_witness(L, d: int, M: int):
    """Generate and verify every (shift, split) witness in order; first wins.

    For each shift y in L, no further than min L + M, and each split m in
    the nonnegative part of L - y, the period is rebuilt from the
    middle's residues plus the residues above the split, and the
    candidate goes to ``aamp.verify_witness``.
    """
    ls = sorted(set(L))
    for y in ls:
        if y > ls[0] + M:
            break
        rel = [x - y for x in ls]
        for m in [x for x in rel if x >= 0]:
            middle = tuple(x for x in rel if 0 <= x <= m)
            extra = {x % d for x in rel if x % d > m}
            period = tuple(sorted({0, d} | {x % d for x in middle} | extra))
            w = aamp.AAMPWitness(
                shift=y,
                difference=d,
                period=period,
                bound=M,
                head=tuple(x for x in rel if x < 0),
                middle=middle,
                tail=tuple(x for x in rel if x > m),
            )
            if aamp.verify_witness(ls, d, M, w):
                return w
    return None


# ---------------------------------------------------------------------------
# global estimates


def reference_global_estimates(desc, weight_bound: int,
                               budget: int = factor.DEFAULT_BUDGET):
    """(estimates as (name, value, stabilized) triples, warnings): every
    fiber of ``invariants.fibers`` through ``element_report``, folded into
    running maxima here. A value is stabilized when it equals the maximum
    over the members of weight at most half the bound."""
    half = weight_bound // 2
    final = {"delta_set": set(), "rho": 1, "c": 0, "c_eq": 0, "c_adj": 0,
             "c_mon": 0, "delta": 0, "delta_w": 0}
    at_half = {name: type(value)(value) for name, value in final.items()}
    warnings = []
    for el, _, fs in invariants.fibers(desc, weight_bound, budget):
        if fs is None:
            warnings.append(invariants.budget_warning(desc, el, budget))
            continue
        rep = invariants.element_report(fs)
        values = {"delta_set": set(rep.lengths.delta()), "rho": rep.elasticity,
                  "c": rep.c, "c_eq": rep.c_eq, "c_adj": rep.c_adj,
                  "c_mon": rep.c_mon, "delta": rep.delta_elem,
                  "delta_w": rep.delta_w}
        for fold in (final, at_half) if models.weight(desc, el) <= half else (final,):
            for name, value in values.items():
                if name == "delta_set":
                    fold[name] |= value
                else:
                    fold[name] = max(fold[name], value)
    estimates = []
    for name, value in final.items():
        shown = tuple(sorted(value)) if name == "delta_set" else value
        estimates.append((name, shown, value == at_half[name]))
    return estimates, warnings
