"""Factorization enumeration and the distance calculus.

A factorization of a member a is a multiset of atoms whose product is a,
stored as sorted (atom id, multiplicity) pairs against a per-element
AtomTable. Enumeration is a depth-first search over atoms in increasing
id order, taking each atom's multiplicity in turn, so each multiset is
produced exactly once. On the cancellative value models a table of the
remainders that each suffix of the atoms can reach, computed per element
before the search, keeps it out of every branch that cannot finish, so
its work follows the size of the fiber; sumsets keep a search over the
divisors of the element. Product elements are factored compositionally,
one slot at a time.

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
from operator import and_, mul, sub

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
    """A Factorization from (atom id, multiplicity) pairs in any order.

    Pairs with the same id are merged and ids are checked against the
    table: this is the entry for pairs the searches did not produce, such
    as cache entries and products of relation pairs.
    """
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
    """Z(el) in canonical order from raw factorizations.

    ``atoms`` are the atoms dividing el in global order; ids index them.
    Each raw factorization is a sequence of (atom id, multiplicity) pairs
    with ids strictly increasing and multiplicities positive, the form the
    searches and the fiber stream produce, so no pair is merged or checked.
    """
    table = AtomTable(desc, tuple(atoms))
    token = table.token
    keyed = sorted((sum(m for _, m in z), tuple(z)) for z in raw)
    sols = tuple(Factorization(counts, length, token) for length, counts in keyed)
    return FactorSet(descriptor=desc, element=el, table=table, all=sols)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _enumerate_value(desc, el, atoms, budget):
    """DFS for cancellative value models, into remainders that can finish.

    The box of points 0 <= v <= el is numbered in mixed radix (a value is
    its own number), so taking an atom u from a point r >= u takes a fixed
    offset from its number. Before the search, one bit mask per atom,
    from the last atom back, marks reach[i], the points that are sums of
    atoms[i:], and step[i], the points r >= atoms[i] with r - atoms[i] in
    reach[i]; each mask is then read through a byte table over the box.
    The search visits multiplicities in the same order as a search that
    tests every remainder for membership, but it descends only into
    remainders that the remaining atoms can still finish, so every node
    lies on the way to a factorization.
    """
    if isinstance(desc, models.Numerical):
        el, atoms = (el,), [(u,) for u in atoms]
    strides = [1]
    for e in el[:-1]:
        strides.append(strides[-1] * (e + 1))
    offsets = [sum(map(mul, u, strides)) for u in atoms]
    size = strides[-1] * (el[-1] + 1)
    reach, step = [1], []
    for u, d in zip(reversed(atoms), reversed(offsets)):
        room = _box_mask(el, u, strides)
        # Close under adding u by doubling: after k rounds the mask holds
        # every point of reach[i + 1] plus at most 2^k - 1 copies of u, and
        # wide marks the points >= 2^k u, where the next round may land.
        mask, wide, shift = reach[-1], room, d
        while wide:
            mask |= wide & (mask << shift)
            wide &= wide << shift
            shift <<= 1
        reach.append(mask)
        step.append(room & (mask << d))
    reach = [_byte_table(m, size) for m in reversed(reach)]
    step = [_byte_table(m, size) for m in reversed(step)]
    sols: list[tuple[tuple[int, int], ...]] = []

    def rec(r, idx, acc):
        if not r:
            if len(sols) >= budget:
                raise BudgetExceeded(budget)
            sols.append(tuple(acc))
            return
        later, here, d, m = reach[idx + 1], step[idx], offsets[idx], 0
        if later[r]:
            rec(r, idx + 1, acc)
        while here[r]:
            r -= d
            m += 1
            if later[r]:
                rec(r, idx + 1, acc + [(idx, m)])

    rec(size - 1, 0, [])
    return sols


def _box_mask(el, low, strides) -> int:
    """Bit mask of the box points v with low <= v <= el, for low <= el."""
    mask = 1
    for e, x, s in zip(el, low, strides):
        mask *= ((1 << (e - x + 1) * s) - 1) // ((1 << s) - 1) << x * s
    return mask


def _byte_table(mask: int, size: int) -> bytes:
    """Bit i of mask at index i, as 0 or 1, for i < size."""
    return format(mask, f"0{size}b")[::-1].encode().translate(_BITS)


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
        raw.append(sorted(pairs))
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
