"""Factorization enumeration and the distance calculus.

A factorization of a member a is a multiset of atoms whose product is a,
stored as its counts, sorted (atom id, multiplicity) pairs whose ids
index the atoms of a's FactorSet. ``factorizations`` runs the search of
one element, in ``search``. On the cancellative value models enumeration
is a depth-first search over atoms in increasing id order, taking each
atom's multiplicity in turn, so each multiset is produced exactly once.
A table of the remainders that each suffix of the atoms can reach,
computed per element before the search, keeps it out of every branch
that cannot finish, so its work follows the size of the fiber. The table
is a set of bit masks over the box below the element, closed by
``models.close_under``, the pass behind numerical and affine membership.
A sumset element's fiber is its row of ``atom_recurrence`` over the
members contained in it. Product elements are factored one slot at a
time.

The distance between two factorizations of the same element removes the
greatest common subfactorization and takes the larger remaining length:
d(x, y) = max(|x|, |y|) - |gcd(x, y)|. A FactorSet builds the table of
all pairwise distances of its fiber once, on first use, and the element
invariants read it from there. Each row is one int of packed fields
(``fields.Fields``), a field per factorization, so a row is built and
compared by a few whole-int operations that act on every field at once.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import TYPE_CHECKING, NamedTuple

from . import models

if TYPE_CHECKING:
    from .fields import Fields

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
    def fields(self) -> Fields:
        """The packing of a distance row: a field per factorization."""
        from . import fields
        return fields.packing(self.all[-1].length if self.all else 0, len(self.all))

    @functools.cached_property
    def distance_table(self) -> tuple[int, ...]:
        """Symmetric n x n table, row i packing d(all[i], all[j]) in field j:
        the fieldwise max(|x|, |y|) with the packed lengths, less |gcd(x, y)|,
        the sum over the pairs (a, m) of x of the fieldwise min of m and
        atom a's packed column of multiplicities, cached per (a, m).
        """
        f, zs = self.fields, self.all
        counts = [dict(z.counts) for z in zs]
        columns = [f.pack([c.get(a, 0) for c in counts]) for a in range(len(self.atoms))]
        shared = {(a, m): f.min(columns[a], m * f.ones)
                  for a, m in set(itertools.chain.from_iterable(z.counts for z in zs))}
        lengths, gcd = f.pack([z.length for z in zs]), shared.__getitem__
        return tuple(f.max(lengths, z.length * f.ones) - sum(map(gcd, z.counts))
                     for z in zs)


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


def factorizations(
    desc: models.MonoidDescriptor,
    element,
    budget: int = DEFAULT_BUDGET,
) -> FactorSet:
    """Enumerate Z(element) completely or raise BudgetExceeded.

    Membership is decided first (NotAMember), by ``search.member_witness``:
    a product decides it for every slot before it factors any, so that the
    message names it even when another slot would overflow or fail its
    closure check. Each fiber starts from its witness, so no member mask
    or sumset reach is built twice.
    """
    from . import search
    el = models.canon(desc, element)
    witness = search.member_witness(desc, el)
    if isinstance(desc, models.Product):
        parts = [search.base_fiber(f, c, w, budget)
                 for f, c, w in zip(desc.factors, el[0], witness)]
        return search.product_fiber(desc, el, parts, budget)
    return search.base_fiber(desc, el, witness, budget)


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
    below or None, member weights).
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
    return atoms, masks, counts, zs, below, weights


def _with_atom(z: tuple, k: int) -> tuple:
    """z times atom k, for a z whose atoms are all at most k."""
    if z and z[-1][0] == k:
        return z[:-1] + ((k, z[-1][1] + 1),)
    return z + ((k, 1),)
