"""Factorization enumeration and the distance calculus.

A factorization of a member a is a multiset of atoms whose product is a,
stored as sorted (atom id, multiplicity) pairs against a per-element
AtomTable. On the cancellative value models enumeration is a depth-first
search over atoms in increasing id order, taking each atom's multiplicity
in turn, so each multiset is produced exactly once. A table of the
remainders that each suffix of the atoms can reach, computed per element
before the search, keeps it out of every branch that cannot finish, so
its work follows the size of the fiber. The table is a set of bit masks
over the box below the element, closed by ``models.close_under``, the
pass behind numerical and affine membership. A sumset element's fiber is
its row of the atom recurrence (which every sweep runs) over the members
contained in it. Product elements are factored one slot at a time.

The distance between two factorizations of the same element removes the
greatest common subfactorization and takes the larger remaining length:
d(x, y) = max(|x|, |y|) - |gcd(x, y)|. A FactorSet builds the table of
all pairwise distances of its fiber once, on first use, and the element
invariants read it from there.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from functools import cached_property
from operator import and_, mul, sub
from typing import NamedTuple

from . import models
from .errors import BudgetExceeded, TableMismatch

DEFAULT_BUDGET = 2_000_000

_TOKENS = itertools.count()


class AtomTable:
    """Atoms dividing one element, ids dense in global atom order.

    Each table takes a fresh token, which its factorizations carry, so a
    table equals only itself.
    """

    def __init__(self, descriptor: models.MonoidDescriptor,
                 atoms: tuple[models.Element, ...]):
        self.descriptor = descriptor
        self.atoms = atoms
        self.token = next(_TOKENS)


class Factorization(NamedTuple):
    """Sorted (atom id, multiplicity) pairs plus the total length."""

    counts: tuple[tuple[int, int], ...]
    length: int
    table_token: int


def make_factorization(table: AtomTable, pairs) -> Factorization:
    """A Factorization from (atom id, multiplicity) pairs in any order.

    Each pair is checked against the table and for a negative
    multiplicity before pairs with the same id are merged: this is the
    entry for pairs the searches did not produce, such as cache entries.
    """
    merged: dict[int, int] = {}
    for i, m in pairs:
        if not 0 <= i < len(table.atoms):
            raise IndexError(f"atom id {i} outside table")
        if m < 0:
            raise ValueError("negative multiplicity")
        merged[i] = merged.get(i, 0) + m
    counts = tuple(sorted((i, m) for i, m in merged.items() if m > 0))
    return Factorization(
        counts=counts,
        length=sum(m for _, m in counts),
        table_token=table.token,
    )


def pi(table: AtomTable, z: Factorization) -> models.Element:
    """Product of the atoms of z, an element of the monoid."""
    return models.product_of(table.descriptor, table.atoms, z.counts)


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


class FactorSet:
    """The complete set Z(a) for one element, canonically ordered.

    Factorizations are sorted by length, so each length fiber is one
    contiguous run of indices into `all`.
    """

    def __init__(self, descriptor: models.MonoidDescriptor,
                 element: models.Element, table: AtomTable,
                 all: tuple[Factorization, ...]):
        if any(x.length > y.length for x, y in zip(all, all[1:])):
            raise ValueError("factorizations must be sorted by length")
        self.descriptor = descriptor
        self.element = element
        self.table = table
        self.all = all

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
    """Enumerate Z(element) completely or raise BudgetExceeded.

    Membership is decided first (NotAMember), by ``models.member_witness``:
    a product decides it for every slot before it factors any, so that the
    message names it even when another slot would overflow or fail its
    closure check. Each fiber starts from its witness, so no member mask
    or sumset reach is built twice.
    """
    el = models.canon(desc, element)
    witness = models.member_witness(desc, el)
    if isinstance(desc, models.Product):
        parts = [_base_fiber(f, c, w, budget)
                 for f, c, w in zip(desc.factors, el[0], witness)]
        return product_fiber(desc, el, parts, budget)
    return _base_fiber(desc, el, witness, budget)


def _base_fiber(desc, el, witness, budget: int) -> FactorSet:
    """Z(el) of a member el of a base model, from its ``member_witness``."""
    if isinstance(desc, models.Sumset):
        # Every proper partial product of a factorization of el is lighter
        # than el and contained in it: el's row of the recurrence is Z(el).
        members = sorted(witness, key=lambda u: models.element_sort_key(desc, u))
        members = members[:members.index(el) + 1]
        atoms, _, counts, zs = _atom_recurrence(desc, members, budget)
        if counts[-1] > budget:
            raise BudgetExceeded(budget)
        return _recurrence_fiber(desc, el, members, atoms, zs[-1])
    atoms = models.witnessed_atoms(desc, el, witness)
    return factor_set(desc, el, atoms, _enumerate_value(desc, el, atoms, budget))


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

    The box of points 0 <= v <= el is numbered by ``models.box_strides``
    (a value is its own number), so taking an atom u from a point r >= u
    takes a fixed offset from its number. Before the search, one bit mask
    per atom, from the last atom back, marks reach[i], the points that are
    sums of atoms[i:] (reach[i + 1] closed under atoms[i] by
    ``models.close_under``), and step[i], the points r >= atoms[i] with
    r - atoms[i] in reach[i]; each mask is read through a byte table.
    The search enters only remainders the remaining atoms can still
    finish, so every node lies on the way to a factorization. It keeps its
    own stack, so no recursion limit caps the number of atoms; the order
    it finds factorizations in does not matter, as ``factor_set`` sorts.
    """
    if isinstance(desc, models.Numerical):
        el, atoms = (el,), [(u,) for u in atoms]
    strides = models.box_strides(el)
    offsets = [sum(map(mul, u, strides)) for u in atoms]
    size = strides[-1] * (el[-1] + 1)
    reach, step = [1], []
    for u, d in zip(reversed(atoms), reversed(offsets)):
        room = models.box_mask(el, u, strides)
        reach.append(models.close_under(reach[-1], room, d))
        step.append(room & (reach[-1] << d))
    reach = [_byte_table(m, size) for m in reversed(reach)]
    step = [_byte_table(m, size) for m in reversed(step)]
    sols, stack = [], [(size - 1, 0, ())]
    while stack:
        r, idx, acc = stack.pop()
        if not r:
            if len(sols) >= budget:
                raise BudgetExceeded(budget)
            sols.append(acc)
            continue
        while True:
            later, here, d, s, m = reach[idx + 1], step[idx], offsets[idx], r, 0
            while here[s]:
                s -= d
                m += 1
                if later[s]:
                    stack.append((s, idx + 1, acc + ((idx, m),)))
            if not later[r]:
                break
            idx += 1
    return sols


def _byte_table(mask: int, size: int) -> bytes:
    """Bit i of mask at index i, as 0 or 1, for i < size."""
    return format(mask, f"0{size}b")[::-1].encode().translate(_BITS)


# The row of a member with more factorizations than the budget allows.
OVERFLOW = (0, None, None)


def recurrence_rows(desc, members: list, budget: int, fibers: bool):
    """(length mask, |Z(a)|, Z(a) if ``fibers`` else None) for each a of
    any model's members from one ``_atom_recurrence``, or OVERFLOW past
    the budget."""
    atoms, masks, counts, raw = _atom_recurrence(
        desc, members, budget if fibers else None)
    for i, el in enumerate(members):
        if counts[i] > budget:
            yield OVERFLOW
        elif not fibers:
            yield masks[i], counts[i], None
        else:
            zs, raw[i] = raw[i], None
            yield masks[i], counts[i], _recurrence_fiber(desc, el, members, atoms, zs)


def _recurrence_fiber(desc, el, members: list, atoms: list, zs) -> FactorSet:
    """Z(el) from its recurrence row, over the atoms it uses in order."""
    ids = sorted({k for z in zs for k, _ in z})
    local = {k: n for n, k in enumerate(ids)}
    return factor_set(desc, el, [members[atoms[k]] for k in ids],
                      [[(local[k], m) for k, m in z] for z in zs])


def _atom_recurrence(desc, members: list, budget: int | None = None):
    """The atom recurrence over any model's members, in weight order
    (Barron, O'Neill and Pelayo; García-Sánchez, O'Neill and Webb for
    affine semigroups).

    members lists, with each member, every product of part of each of its
    factorizations: every member up to a weight (weight is additive and
    positive away from the identity on every model), or on a sumset the
    members contained in an element up to it. A nonzero member whose count
    is still 0 when the walk reaches it is an atom, since any other is
    c + u with c and u nonzero, lighter and listed; on a product these are
    the embedded slot atoms and the free generators. The pass of atom u,
    run right then, pushes the lengths of each listed a, shifted by one,
    and its count into a + u when that is listed. With the atoms
    outermost this counts every multiset of atoms once, even without
    cancellation: a factorization z of a + u whose largest atom is u comes
    from a = pi(z - u) alone. Given a budget, the same loop builds Z(a) as
    tuples of (atom number, multiplicity): in the pass of atom k, Z(a)
    holds exactly the factorizations whose atoms are at most k, so each
    gains u_k once. A member's fiber is dropped (None) as soon as its
    count passes the budget; z -> z + u is injective on multisets, so
    every member pushed from it passes it too.

    Returns (atom member indices, length masks, counts, fibers or None).
    """
    index = {a: i for i, a in enumerate(members)}
    weights = [models.weight(desc, a) for a in members]
    masks = [1] + [0] * (len(members) - 1)
    counts = [1] + [0] * (len(members) - 1)
    zs = None
    if budget is not None:
        zs = [[()] if budget >= 1 else None] + [[] for _ in members[1:]]
    atoms = []
    for u in range(1, len(members)):
        if counts[u]:
            continue
        k, atom = len(atoms), members[u]
        atoms.append(u)
        light = bisect.bisect_right(weights, weights[-1] - weights[u])
        for a in range(light):
            i = index.get(models.multiply(desc, members[a], atom))
            if i is None:
                continue
            masks[i] |= masks[a] << 1
            counts[i] += counts[a]
            if zs is None:
                continue
            if counts[i] > budget:
                zs[i] = None
            else:
                zs[i].extend(_with_atom(z, k) for z in zs[a])
    return atoms, masks, counts, zs


def _with_atom(z: tuple, k: int) -> tuple:
    """z times atom k, for a z whose atoms are all at most k."""
    if z and z[-1][0] == k:
        return z[:-1] + ((k, z[-1][1] + 1),)
    return z + ((k, 1),)


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
    el = models.canon(desc, doc["element"])
    atoms = tuple(models.canon(desc, u) for u in doc["atoms"])
    table = AtomTable(desc, atoms)
    sols = tuple(
        make_factorization(table, [(i, m) for i, m in entry["counts"]])
        for entry in doc["factorizations"]
    )
    return FactorSet(descriptor=desc, element=el, table=table, all=sols)
