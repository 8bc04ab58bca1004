"""One element's canonical form, membership witness and atoms (``models``
forwards here) and the search for its factorizations, run from the witness by
``factor.factorizations``; sweeps read ``factor.atom_recurrence`` instead."""

from __future__ import annotations

import itertools
import math
from operator import le, mul, sub

from . import factor, models
from .errors import BudgetExceeded, NotAMember, ShapeMismatch


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


def canon(desc: models.MonoidDescriptor, raw) -> models.Element:
    """Bring a raw element (parsed literal or JSON value) to canonical form.

    Raises ShapeMismatch when the value cannot possibly denote an element
    of this model. Membership is a separate question, see ``membership``.
    """
    if isinstance(desc, models.Numerical):
        if not models.is_int(raw) or raw < 0:
            raise ShapeMismatch(f"expected a nonnegative integer, got {raw!r}")
        return raw
    if isinstance(desc, (models.Affine, models.FinitelyPrimaryValue)):
        dim = desc.dim if isinstance(desc, models.Affine) else desc.rank
        v = _int_tuple(raw)
        if len(v) != dim or any(x < 0 for x in v):
            raise ShapeMismatch(f"expected a vector of {dim} nonnegative ints")
        return v
    if isinstance(desc, models.Sumset):
        v = _int_tuple(raw)
        if any(x < 0 for x in v):
            raise ShapeMismatch("sumset elements hold nonnegative ints")
        s = tuple(sorted(set(v)))
        if not s or s[0] != 0:
            raise ShapeMismatch("sumset elements must contain 0")
        return s
    if isinstance(desc, models.Product):
        if isinstance(raw, dict):
            comps, free = raw.get("components"), raw.get("free", [])
        elif isinstance(raw, (tuple, list)) and len(raw) == 2:
            comps, free = raw
        else:
            raise ShapeMismatch(f"bad product element {raw!r}")
        if not isinstance(comps, (tuple, list)) or len(comps) != len(desc.factors):
            raise ShapeMismatch("product element needs one entry per factor")
        fr = _int_tuple(free)
        if len(fr) != desc.free_rank or any(x < 0 for x in fr):
            raise ShapeMismatch(f"free part must have {desc.free_rank} entries >= 0")
        return (
            tuple(canon(f, c) for f, c in zip(desc.factors, comps)),
            fr,
        )
    raise ShapeMismatch(f"unknown descriptor {desc!r}")


def _int_tuple(raw) -> models.Vector:
    if isinstance(raw, (tuple, list)) and all(models.is_int(x) for x in raw):
        return tuple(raw)
    raise ShapeMismatch(f"expected a sequence of ints, got {raw!r}")


def parse_element_literal(desc: models.MonoidDescriptor, text: str) -> models.Element:
    """Parse the CLI literal form of an element.

    ints for numerical ("12"), comma-separated vectors for value models
    ("3,3"), brace sets for sumsets ("{0,1,3}") and semicolon-joined
    component literals for products ("12;3,3", free exponents last).
    """
    text = text.strip()
    try:
        if isinstance(desc, models.Numerical):
            return canon(desc, int(text))
        if isinstance(desc, (models.Affine, models.FinitelyPrimaryValue)):
            return canon(desc, [int(p) for p in text.split(",")])
        if isinstance(desc, models.Sumset):
            if not (text.startswith("{") and text.endswith("}")):
                raise ShapeMismatch("sumset literals look like {0,1,3}")
            return canon(desc, [int(p) for p in text[1:-1].split(",")])
        parts = text.split(";")
        want = len(desc.factors) + (1 if desc.free_rank else 0)
        if len(parts) != want:
            raise ShapeMismatch(
                f"product literal needs {want} ';'-separated parts, got {len(parts)}"
            )
        comps = [
            parse_element_literal(f, p) for f, p in zip(desc.factors, parts)
        ]
        free = [int(p) for p in parts[-1].split(",")] if desc.free_rank else []
        return canon(desc, (comps, free))
    except ValueError as exc:
        raise ShapeMismatch(f"cannot parse element literal {text!r}: {exc}") from exc


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


def membership(desc: models.MonoidDescriptor, candidate) -> bool:
    """Decide membership for a raw or canonical element.

    Raises ShapeMismatch for values of the wrong shape; returns False for
    well-shaped non-members.
    """
    try:
        member_witness(desc, canon(desc, candidate))
    except NotAMember:
        return False
    return True


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


def is_atom(desc: models.MonoidDescriptor, el: models.Element) -> bool:
    """True when el is a member that admits no two-part nonzero splitting.

    An atom divides itself, so this looks el up in ``atoms_dividing``
    (through ``models``, where the bench counts it), which decides membership.
    """
    el = canon(desc, el)
    try:
        return el != models.identity(desc) and el in models.atoms_dividing(desc, el)
    except NotAMember:
        return False


def atoms_dividing(desc: models.MonoidDescriptor, a) -> list[models.Element]:
    """Atoms u with u + c = a solvable, in weight-then-lexicographic order.

    Numerical, affine and sumset models keep the generators that divide a
    and that no other generator divides. fp-value models take one bit mask
    pass over the box below a, numbered by ``models.box_strides``: the atoms
    are the nonzero members that are not sums of two of them. Products join
    the atoms of their slots and the free generators a uses. The table is
    finite for every element of every model even when the monoid has
    infinitely many atoms overall.
    """
    a = canon(desc, a)
    return witnessed_atoms(desc, a, member_witness(desc, a))


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
    return factor.factor_set(desc, el, atoms, _enumerate_value(desc, el, atoms, budget))


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
    it finds factorizations in does not matter, as ``factor.factor_set`` sorts.
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
    return factor.factor_set(desc, el, atoms, raw)


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
