"""One element's membership witness, the atoms read off it, and the search
for its factorizations that ``factor.factorizations`` runs from it; sweeps
below a weight bound read ``factor.atom_recurrence`` instead."""

from __future__ import annotations

import itertools
import math
from operator import le, mul, sub

from . import factor, models
from .errors import BudgetExceeded, NotAMember


def format_element(desc: models.MonoidDescriptor, el: models.Element) -> str:
    if isinstance(desc, models.Numerical):
        return str(el)
    if isinstance(desc, (models.Affine, models.FinitelyPrimaryValue)):
        return ",".join(map(str, el))
    if isinstance(desc, models.Sumset):
        return "{" + ",".join(map(str, el)) + "}"
    comps, free = el
    parts = [format_element(f, c) for f, c in zip(desc.factors, comps)]
    if desc.free_rank:
        parts.append(",".join(map(str, free)))
    return ";".join(parts)


def generator_atoms(desc: models.Numerical | models.Affine | models.Sumset
                    ) -> tuple[models.Element, ...]:
    """The atoms of a finitely generated model, in weight-then-lex order.

    Every member is a sum of generators, so every atom is a generator: the
    atoms are the generators that are atoms dividing themselves. A
    numerical model reads them all off the one ``member_witness`` of its
    largest generator, whose mask holds every value below it; the others
    read each off its own.
    """
    one = isinstance(desc, models.Numerical) and member_witness(desc, max(desc.generators))
    atoms = [g for g in desc.generators
             if g in witnessed_atoms(desc, g, one or member_witness(desc, g))]
    return tuple(sorted(atoms, key=lambda u: models.element_sort_key(desc, u)))


def member_witness(desc: models.MonoidDescriptor, a: models.Element):
    """What deciding that a is a member builds, or NotAMember naming a:
    (top, ``member_mask(top)``) with top the vector of a (numerical,
    affine), its ``sumset_reachable`` (sumset), None (fp-value), or a list
    of the slots' witnesses, every slot decided before any slot's atoms are
    taken (product). Atoms and fibers reuse it."""
    if isinstance(desc, models.Product):
        try:
            return [member_witness(f, c) for f, c in zip(desc.factors, a[0])]
        except NotAMember:
            raise NotAMember(f"{format_element(desc, a)} is not a member") from None
    if isinstance(desc, models.Sumset):
        found = models.sumset_reachable(desc, a)
        member = a in found
    elif isinstance(desc, models.FinitelyPrimaryValue):
        found, member = None, models.fp_member(desc, a)
    else:
        top = (a,) if isinstance(desc, models.Numerical) else a
        found = top, models.member_mask(desc, top)
        member = found[1] >> sum(map(mul, top, models.box_strides(top))) & 1
    if not member:
        raise NotAMember(f"{format_element(desc, a)} is not a member")
    return found


def witnessed_atoms(desc: models.MonoidDescriptor, a: models.Element,
                    witness) -> list[models.Element]:
    """``atoms_dividing`` of a member a, given its ``member_witness``.

    A generator g is an atom dividing a when it divides a and no other
    generator h divides g (split a non-trivial g = b + c and take for h
    any generator in a sum for b). Such an h divides a too, so only the
    generators dividing a are tried. Both facts are read off a's witness:
    every c with h + c = g lies below g, so below a. Numerical and affine
    models look a - g and g - h up in a's mask. A sumset's c is contained
    in a, so it is in a's reach, and u + c = w forces max c = max w - max
    u: the reach is bucketed by its maximum and only that bucket is tried.
    """
    if isinstance(desc, models.FinitelyPrimaryValue):
        # Both parts of a split of u <= a lie in the box. a is the last
        # member; a - u is the identity (bit 0, not in the mask) or one.
        members, offsets, mask, sums = models.fp_box(desc, a)
        mask |= 1
        out = [u for u, d in zip(members, offsets)
               if not sums >> d & 1 and (mask >> (offsets[-1] - d)) & 1]
    elif isinstance(desc, models.Product):
        comps, free = a
        out = [embed_component(desc, i, u)
               for i, (f, c, w) in enumerate(zip(desc.factors, comps, witness))
               for u in witnessed_atoms(f, c, w)]
        out.extend(free_generator(desc, j) for j, e in enumerate(free) if e >= 1)
    else:
        if isinstance(desc, models.Sumset):
            buckets: dict[int, list[models.Vector]] = {}
            for c in witness:
                buckets.setdefault(c[-1], []).append(c)

            def divides(u, w) -> bool:
                return any(models.set_add(u, c) == w for c in buckets.get(w[-1] - u[-1], ()))
        else:
            top, mask = witness
            strides = models.box_strides(top)

            def divides(u, w) -> bool:
                if isinstance(desc, models.Numerical):
                    return u <= w and mask >> (w - u) & 1
                return all(map(le, u, w)) and mask >> sum(
                    map(mul, map(sub, w, u), strides)) & 1
        divisors = [g for g in desc.generators if divides(g, a)]
        out = [g for g in divisors
               if not any(h != g and divides(h, g) for h in divisors)]
    out.sort(key=lambda u: models.element_sort_key(desc, u))
    return out


def embed_component(desc: models.Product, i: int, u: models.Element) -> models.Element:
    comps = tuple(
        u if j == i else models.identity(f) for j, f in enumerate(desc.factors)
    )
    return (comps, (0,) * desc.free_rank)


def free_generator(desc: models.Product, j: int) -> models.Element:
    free = tuple(1 if k == j else 0 for k in range(desc.free_rank))
    return (tuple(models.identity(f) for f in desc.factors), free)


def base_fiber(desc, el, witness, budget: int) -> factor.FactorSet:
    """Z(el) of a member el of a base model, from its ``member_witness``."""
    if isinstance(desc, models.Sumset):
        # Every proper partial product of a factorization of el is lighter
        # than el and contained in it: el's row of the recurrence is Z(el).
        members = sorted(witness, key=lambda u: models.element_sort_key(desc, u))
        members = members[:members.index(el) + 1]
        atoms, _, counts, zs, *_ = factor.atom_recurrence(desc, members, budget)
        if counts[-1] > budget:
            raise BudgetExceeded(budget)
        return factor.recurrence_fiber(desc, el, members, atoms, zs[-1])
    atoms = witnessed_atoms(desc, el, witness)
    return factor_set(desc, el, atoms, _enumerate_value(desc, el, atoms, budget))


def factor_set(desc: models.MonoidDescriptor, el, atoms, raw) -> factor.FactorSet:
    """Z(el) in canonical order from raw factorizations.

    ``atoms`` are the atoms dividing el in global order; ids index them.
    Each raw factorization is a sequence of (atom id, multiplicity) pairs
    with ids strictly increasing and multiplicities positive, the form the
    searches and the fiber stream produce, so no pair is merged or checked.
    """
    keyed = sorted((sum(m for _, m in z), tuple(z)) for z in raw)
    sols = tuple(factor.Factorization(counts, length) for length, counts in keyed)
    return factor.FactorSet(descriptor=desc, element=el, atoms=tuple(atoms), all=sols)


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


def product_fiber(desc: models.Product, el, parts, budget: int) -> factor.FactorSet:
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
        [embed_component(desc, i, u) for u in p.atoms]
        for i, p in enumerate(parts)
    ]
    free_atoms = [
        (free_generator(desc, j), e) for j, e in enumerate(free) if e >= 1
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


def factor_set_to_json(fs: factor.FactorSet) -> dict:
    desc = fs.descriptor
    return {
        "element": models.element_to_json(desc, fs.element),
        "atoms": [models.element_to_json(desc, u) for u in fs.atoms],
        "factorizations": [
            {"counts": [[i, m] for i, m in z.counts], "length": z.length}
            for z in fs.all
        ],
    }
