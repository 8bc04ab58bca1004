"""Factorization enumeration and the distance calculus.

A factorization of a member a is a multiset of atoms whose product is a,
stored as its counts, sorted (atom id, multiplicity) pairs whose ids
index the atoms of a's FactorSet. On the cancellative value models
enumeration is a depth-first search over atoms in increasing id order,
taking each atom's multiplicity in turn, so each multiset is produced
exactly once. A table of the remainders that each suffix of the atoms
can reach, computed per element before the search, keeps it out of
every branch that cannot finish, so its work follows the size of the
fiber. The table is a set of bit masks over the box below the element,
closed by ``models.close_under``, the pass behind numerical and affine
membership. A sumset element's fiber is its row of ``atom_recurrence``
over the members contained in it. Product elements are factored one slot
at a time.

The distance between two factorizations of the same element removes the
greatest common subfactorization and takes the larger remaining length:
d(x, y) = max(|x|, |y|) - |gcd(x, y)|. A FactorSet builds the table of
all pairwise distances of its fiber once, on first use, and the element
invariants read it from there.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array
from operator import and_, mul, sub
from typing import NamedTuple

from . import models
from .errors import BudgetExceeded

DEFAULT_BUDGET = 2_000_000


class Factorization(NamedTuple):
    """Sorted (atom id, multiplicity) pairs plus the total length."""

    counts: tuple[tuple[int, int], ...]
    length: int


# No caller in the package; kept because perfbench/trace_child.py wraps it.
def distance(x: Factorization, y: Factorization) -> int:
    xm, ym = dict(x.counts), dict(y.counts)
    left = sum(max(m - ym.get(i, 0), 0) for i, m in xm.items())
    right = sum(max(m - xm.get(i, 0), 0) for i, m in ym.items())
    return max(left, right)


class FactorSet:
    """The complete set Z(a) for one element, canonically ordered, and the
    atoms dividing it, in global order, which the atom ids of Z(a) index.

    Factorizations are sorted by length, so each length fiber is one
    contiguous run of indices into `all`.
    """

    def __init__(self, descriptor: models.MonoidDescriptor,
                 element: models.Element, atoms: tuple[models.Element, ...],
                 all: tuple[Factorization, ...]):
        if any(x.length > y.length for x, y in zip(all, all[1:])):
            raise ValueError("factorizations must be sorted by length")
        self.descriptor = descriptor
        self.element = element
        self.atoms = atoms
        self.all = all

    @functools.cached_property
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

    @functools.cached_property
    def distance_table(self) -> tuple[array, ...]:
        """Symmetric n x n table, row i holding d(all[i], all[j]) for all j.

        |gcd(x, y)| is the popcount of the ``unary_codes`` X & Y. Lengths
        are sorted, so max(|x|, |y|) is |x| left of x's index and |y| from
        it on, and each row is one C-level pass over the fiber.
        """
        zs = self.all
        units = unary_codes([z.counts for z in zs])
        lengths = [z.length for z in zs]
        top = lengths[-1] if lengths else 0
        code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "Q"
        rows = []
        for j, (x, k) in enumerate(zip(units, lengths)):
            shared = map(int.bit_count, map(and_, itertools.repeat(x), units))
            longer = itertools.chain(itertools.repeat(k, j), lengths[j:])
            rows.append(array(code, map(sub, longer, shared)))
        return tuple(rows)


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
        atoms, _, counts, zs, _ = atom_recurrence(desc, members, budget)
        if counts[-1] > budget:
            raise BudgetExceeded(budget)
        return recurrence_fiber(desc, el, members, atoms, zs[-1])
    atoms = models.witnessed_atoms(desc, el, witness)
    return factor_set(desc, el, atoms, _enumerate_value(desc, el, atoms, budget))


def factor_set(desc: models.MonoidDescriptor, el, atoms, raw) -> FactorSet:
    """Z(el) in canonical order from raw factorizations.

    ``atoms`` are the atoms dividing el in global order; ids index them.
    Each raw factorization is a sequence of (atom id, multiplicity) pairs
    with ids strictly increasing and multiplicities positive, the form the
    searches and the fiber stream produce, so no pair is merged or checked.
    """
    keyed = sorted((sum(m for _, m in z), tuple(z)) for z in raw)
    sols = tuple(Factorization(counts, length) for length, counts in keyed)
    return FactorSet(descriptor=desc, element=el, atoms=tuple(atoms), all=sols)


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
    reach = [models.byte_table(m, size) for m in reversed(reach)]
    step = [models.byte_table(m, size) for m in reversed(step)]
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


def recurrence_fiber(desc, el, members: list, atoms: list, zs) -> FactorSet:
    """Z(el) from its recurrence row, over the atoms it uses in order."""
    ids = sorted({k for z in zs for k, _ in z})
    local = {k: n for n, k in enumerate(ids)}
    return factor_set(desc, el, [members[atoms[k]] for k in ids],
                      [[(local[k], m) for k, m in z] for z in zs])


def atom_recurrence(desc, members: list, budget: int | None = None):
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
    every member pushed from it passes it too. With the fibers it records
    each push's source, below[i][k] = a for a + u_k = i: under
    cancellation a is i - u_k, and below[i] maps every atom dividing i.

    Returns (atom member indices, length masks, counts, fibers or None,
    below or None).
    """
    index = {a: i for i, a in enumerate(members)}
    weights = [models.weight(desc, a) for a in members]
    masks = [1] + [0] * (len(members) - 1)
    counts = [1] + [0] * (len(members) - 1)
    zs = below = None
    if budget is not None:
        zs = [[()] if budget >= 1 else None] + [[] for _ in members[1:]]
        below = [{} for _ in members]
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
            below[i][k] = a
            if counts[i] > budget:
                zs[i] = None
            else:
                zs[i].extend(_with_atom(z, k) for z in zs[a])
    return atoms, masks, counts, zs, below


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
        [models.embed_component(desc, i, u) for u in p.atoms]
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
        "atoms": [models.element_to_json(desc, u) for u in fs.atoms],
        "factorizations": [
            {"counts": [[i, m] for i, m in z.counts], "length": z.length}
            for z in fs.all
        ],
    }

