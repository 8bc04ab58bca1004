"""Factorization enumeration and the distance calculus.

A factorization of a member a is a multiset of atoms whose product is a,
stored as sorted (atom id, multiplicity) pairs against a per-element
AtomTable. Enumeration is a depth-first search over atoms in
non-decreasing id order, pruned by divisibility of the remainder, so each
multiset is produced exactly once; weight additivity bounds the depth.
Product elements are factored compositionally, one slot at a time.

The distance between two factorizations of the same element removes the
greatest common subfactorization and takes the larger remaining length:
d(x, y) = max(|x|, |y|) - |gcd(x, y)|. A FactorSet builds the table of
all pairwise distances of its fiber once, on first use, and the element
invariants read it from there.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import and_, sub

from . import models
from .errors import BudgetExceeded, NotAMember, TableMismatch

DEFAULT_BUDGET = 2_000_000

_TOKENS = itertools.count()


@dataclass(frozen=True)
class AtomTable:
    """Atoms dividing one element, ids dense in global atom order."""

    descriptor: models.MonoidDescriptor
    atoms: tuple[models.Element, ...]
    token: int = -1

    def __post_init__(self):
        if self.token < 0:
            object.__setattr__(self, "token", next(_TOKENS))


@dataclass(frozen=True)
class Factorization:
    """Sorted (atom id, multiplicity) pairs plus the total length."""

    counts: tuple[tuple[int, int], ...]
    length: int
    table_token: int

    def multiplicity(self, atom_id: int) -> int:
        for i, m in self.counts:
            if i == atom_id:
                return m
        return 0


def make_factorization(table: AtomTable, pairs) -> Factorization:
    merged: dict[int, int] = {}
    for i, m in pairs:
        if not 0 <= i < len(table.atoms):
            raise IndexError(f"atom id {i} outside table")
        merged[i] = merged.get(i, 0) + m
    counts = tuple(sorted((i, m) for i, m in merged.items() if m > 0))
    if any(m < 0 for _, m in counts):
        raise ValueError("negative multiplicity")
    return Factorization(
        counts=counts,
        length=sum(m for _, m in counts),
        table_token=table.token,
    )


def pi(table: AtomTable, z: Factorization) -> models.Element:
    """Product of the atoms of z, an element of the monoid."""
    desc = table.descriptor
    out = models.identity(desc)
    for i, m in z.counts:
        for _ in range(m):
            out = models.multiply(desc, out, table.atoms[i])
    return out


def _check_tables(x: Factorization, y: Factorization) -> None:
    if x.table_token != y.table_token:
        raise TableMismatch("factorizations come from different atom tables")


def gcd_factorizations(x: Factorization, y: Factorization) -> Factorization:
    """Componentwise minimum of the two multiplicity maps."""
    _check_tables(x, y)
    ym = dict(y.counts)
    counts = tuple(
        (i, min(m, ym[i])) for i, m in x.counts if i in ym and min(m, ym[i]) > 0
    )
    return Factorization(
        counts=counts,
        length=sum(m for _, m in counts),
        table_token=x.table_token,
    )


def distance(x: Factorization, y: Factorization) -> int:
    _check_tables(x, y)
    xm, ym = dict(x.counts), dict(y.counts)
    left = sum(max(m - ym.get(i, 0), 0) for i, m in xm.items())
    right = sum(max(m - xm.get(i, 0), 0) for i, m in ym.items())
    return max(left, right)


def set_distance(xs, ys) -> int:
    """min over pairs; 0 when either side is empty or the sets meet."""
    xs, ys = list(xs), list(ys)
    if not xs or not ys:
        return 0
    return min(distance(x, y) for x in xs for y in ys)


def dist_sup(xs, ys) -> int:
    """One-sided worst cases: sup of d({x}, ys) and d(xs, {y})."""
    xs, ys = list(xs), list(ys)
    best = 0
    for x in xs:
        best = max(best, set_distance([x], ys))
    for y in ys:
        best = max(best, set_distance(xs, [y]))
    return best


@dataclass(frozen=True)
class FactorSet:
    """The complete set Z(a) for one element, canonically ordered.

    Factorizations are sorted by length, so each length fiber is one
    contiguous run of indices into `all`.
    """

    descriptor: models.MonoidDescriptor
    element: models.Element
    table: AtomTable
    all: tuple[Factorization, ...]

    def __post_init__(self):
        if any(x.length > y.length for x, y in zip(self.all, self.all[1:])):
            raise ValueError("factorizations must be sorted by length")

    @cached_property
    def spans(self) -> dict[int, range]:
        """Length k -> the index range of Z_k in `all`, in length order."""
        out: dict[int, range] = {}
        start = 0
        for k, group in itertools.groupby(z.length for z in self.all):
            stop = start + sum(1 for _ in group)
            out[k] = range(start, stop)
            start = stop
        return out

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(self.spans)

    def by_length(self, k: int) -> tuple[Factorization, ...]:
        span = self.spans.get(k, range(0))
        return self.all[span.start:span.stop]

    @cached_property
    def distance_table(self) -> tuple[array, ...]:
        """Symmetric n x n table, row i holding d(all[i], all[j]) for all j.

        Each factorization becomes one integer holding every multiplicity
        in unary, atom a in its own field as wide as its largest
        multiplicity, so |gcd(x, y)| is the popcount of X & Y. Lengths are
        sorted, so max(|x|, |y|) is |x| left of x's index and |y| from it
        on, and each row is one C-level pass over the fiber.
        """
        zs = self.all
        width: dict[int, int] = {}
        for z in zs:
            for i, m in z.counts:
                width[i] = max(width.get(i, 0), m)
        offset, shift = {}, 0
        for i in sorted(width):
            offset[i] = shift
            shift += width[i]
        units = [sum(((1 << m) - 1) << offset[i] for i, m in z.counts) for z in zs]
        lengths = [z.length for z in zs]
        top = lengths[-1] if lengths else 0
        code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "Q"
        rows = []
        for j, (x, k) in enumerate(zip(units, lengths)):
            shared = map(int.bit_count, map(and_, itertools.repeat(x), units))
            longer = itertools.chain(itertools.repeat(k, j), lengths[j:])
            rows.append(array(code, map(sub, longer, shared)))
        return tuple(rows)


def factorizations(
    desc: models.MonoidDescriptor,
    element,
    budget: int = DEFAULT_BUDGET,
) -> FactorSet:
    """Enumerate Z(element) completely or raise BudgetExceeded."""
    el = models.canon(desc, element)
    if not models.membership(desc, el):
        raise NotAMember(f"{el!r} is not a member")
    if isinstance(desc, models.Product):
        parts = [factorizations(f, c, budget) for f, c in zip(desc.factors, el[0])]
        return product_fiber(desc, el, parts, budget)
    atoms = models.atoms_dividing(desc, el)
    if isinstance(desc, models.Sumset):
        raw = _enumerate_sumset(desc, el, atoms, budget)
    else:
        raw = _enumerate_value(desc, el, atoms, budget)
    return factor_set(desc, el, atoms, raw)


def factor_set(desc: models.MonoidDescriptor, el, atoms, raw) -> FactorSet:
    """Z(el) in canonical order from raw (atom id, multiplicity) pair lists.

    ``atoms`` are the atoms dividing el in global order; ids index them.
    """
    table = AtomTable(desc, tuple(atoms))
    sols = sorted(
        (make_factorization(table, pairs) for pairs in raw),
        key=lambda z: (z.length, z.counts),
    )
    return FactorSet(descriptor=desc, element=el, table=table, all=tuple(sols))


def _enumerate_value(desc, el, atoms, budget):
    """DFS for cancellative value models; remainder must stay a member.

    Divisibility of the remainder is monotone in the multiplicity taken,
    so the inner loop may stop at the first failure.
    """
    ident = models.identity(desc)
    sols: list[tuple[tuple[int, int], ...]] = []

    def subtract(a, u):
        if isinstance(desc, models.Numerical):
            return a - u if a >= u else None
        v = tuple(x - y for x, y in zip(a, u))
        return v if all(x >= 0 for x in v) else None

    def rec(rem, idx, acc):
        if rem == ident:
            if len(sols) >= budget:
                raise BudgetExceeded(budget)
            sols.append(tuple(acc))
            return
        if idx >= len(atoms):
            return
        rec(rem, idx + 1, acc)
        r, m = rem, 0
        while True:
            r = subtract(r, atoms[idx])
            if r is None or not models.membership(desc, r):
                break
            m += 1
            rec(r, idx + 1, acc + [(idx, m)])

    rec(el, 0, [])
    return sols


def _enumerate_sumset(desc, el, atoms, budget):
    """DFS for sumsets; partial products must keep a member quotient."""
    divisors = models.sumset_divisors(desc, el)
    sols: list[tuple[tuple[int, int], ...]] = []

    def rec(cur, idx, acc):
        if cur == el:
            if len(sols) >= budget:
                raise BudgetExceeded(budget)
            sols.append(tuple(acc))
            return
        if idx >= len(atoms):
            return
        rec(cur, idx + 1, acc)
        c, m = cur, 0
        while True:
            c = models.multiply(desc, c, atoms[idx])
            if c not in divisors:
                break
            m += 1
            rec(c, idx + 1, acc + [(idx, m)])

    rec((0,), 0, [])
    return sols


def product_fiber(desc: models.Product, el, parts, budget: int) -> FactorSet:
    """Z(el) of a product element from the fibers of its slot components.

    Every factorization is one slot factorization per slot plus the free
    exponents, so |Z(el)| is the product of the slot counts; BudgetExceeded
    is raised when that passes the budget. The atoms dividing el are the
    slot atoms of ``parts`` and the free generators el uses.
    """
    _, free = el
    if math.prod(len(p.all) for p in parts) > budget:
        raise BudgetExceeded(budget)
    slot_atoms = [
        [models.embed_component(desc, i, u) for u in p.table.atoms]
        for i, p in enumerate(parts)
    ]
    free_atoms = [
        (models.free_generator(desc, j), e) for j, e in enumerate(free) if e >= 1
    ]
    atoms = sorted(
        [u for us in slot_atoms for u in us] + [g for g, _ in free_atoms],
        key=lambda u: models.element_sort_key(desc, u),
    )
    index = {u: i for i, u in enumerate(atoms)}
    slot_maps = [[index[u] for u in us] for us in slot_atoms]
    free_pairs = [(index[g], e) for g, e in free_atoms]
    raw = []
    for combo in itertools.product(*(p.all for p in parts)):
        pairs = list(free_pairs)
        for i, z in enumerate(combo):
            pairs.extend((slot_maps[i][j], m) for j, m in z.counts)
        raw.append(pairs)
    return factor_set(desc, el, atoms, raw)


# ---------------------------------------------------------------------------
# serialization


def factor_set_to_json(fs: FactorSet) -> dict:
    desc = fs.descriptor
    return {
        "element": models.element_to_json(desc, fs.element),
        "atoms": [models.element_to_json(desc, u) for u in fs.table.atoms],
        "factorizations": [
            {"counts": [[i, m] for i, m in z.counts], "length": z.length}
            for z in fs.all
        ],
    }


def factor_set_from_json(desc: models.MonoidDescriptor, doc: dict) -> FactorSet:
    el = models.element_from_json(desc, doc["element"])
    atoms = tuple(models.element_from_json(desc, u) for u in doc["atoms"])
    table = AtomTable(desc, atoms)
    sols = tuple(
        make_factorization(table, [(i, m) for i, m in entry["counts"]])
        for entry in doc["factorizations"]
    )
    return FactorSet(descriptor=desc, element=el, table=table, all=sols)
