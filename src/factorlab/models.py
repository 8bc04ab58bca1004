"""Monoid models: descriptors, canonical elements, and atom oracles.

Five models are supported, all written additively:

* ``numerical``: submonoids of N_0 generated by positive integers.
* ``affine``: submonoids of N_0^s generated by finitely many vectors.
* ``fp-value``: value monoids of rank s and exponent alpha. A nonzero
  vector is a member when every coordinate is >= 1 and either every
  coordinate reaches alpha or the vector matches one of finitely many
  exceptional patterns.
* ``sumset``: submonoids of the (non-cancellative) monoid of finite
  subsets of N_0 containing 0, under set addition.
* ``product``: a flat direct product of the base models above plus a
  free abelian factor of finite rank.

Elements are canonical hashable values: an int, a tuple of ints, a
strictly increasing tuple starting at 0 for sumsets, or a
(components, free exponents) pair of tuples for products. Every function
here is pure and keeps no memo: numerical and affine membership reads a
bit mask of the box below the element, built per call, and the atoms
dividing the element are read off that same mask. That witness, the atoms
and the canonical form live in ``search`` (forwarded to from here) and
validation in ``validation``, modules loaded by the first call needing them.

The ``weight`` of an element (value, coordinate sum, maximum, or the sum
over product slots) is additive under multiplication and strictly
positive away from the identity; it is the termination measure for every
search in the package.
"""

from __future__ import annotations

import itertools
import json
from operator import le, mul
from typing import Any, NamedTuple

from .errors import MalformedDescriptor

Element = Any
Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# descriptors


class Pattern(NamedTuple):
    """Per-coordinate constraint describing exceptional low vectors.

    ``entries`` holds one ("exact", n) or ("atLeast", n) pair per
    coordinate, n >= 1.
    """

    entries: tuple[tuple[str, int], ...]

    def matches(self, v: Vector) -> bool:
        for (kind, n), x in zip(self.entries, v):
            if kind == "exact":
                if x != n:
                    return False
            elif x < n:
                return False
        return True


class Numerical(NamedTuple):
    generators: tuple[int, ...]


class Affine(NamedTuple):
    dim: int
    generators: tuple[Vector, ...]


class FinitelyPrimaryValue(NamedTuple):
    rank: int
    exponent: int
    exceptional: tuple[Pattern, ...]


class Sumset(NamedTuple):
    generators: tuple[Vector, ...]


class Product(NamedTuple):
    factors: tuple["MonoidDescriptor", ...]
    free_rank: int


MonoidDescriptor = Numerical | Affine | FinitelyPrimaryValue | Sumset | Product

_BASE_MODELS = (Numerical, Affine, FinitelyPrimaryValue, Sumset)


def check_descriptor(desc: MonoidDescriptor) -> None:
    """Raise MalformedDescriptor unless desc satisfies its structural rules."""
    if isinstance(desc, Numerical):
        gens = desc.generators
        if not gens:
            raise MalformedDescriptor("numerical model needs at least one generator")
        if any(not is_int(g) or g < 1 for g in gens):
            raise MalformedDescriptor("numerical generators must be positive integers")
        if len(set(gens)) != len(gens):
            raise MalformedDescriptor("generators must be pairwise distinct")
    elif isinstance(desc, Affine):
        if not is_int(desc.dim) or desc.dim < 1:
            raise MalformedDescriptor("affine dimension must be a positive integer")
        gens = desc.generators
        if not gens:
            raise MalformedDescriptor("affine model needs at least one generator")
        for g in gens:
            if len(g) != desc.dim or any(not is_int(x) or x < 0 for x in g):
                raise MalformedDescriptor(f"bad affine generator {g!r}")
            if not any(g):
                raise MalformedDescriptor("affine generators must be nonzero")
        if len(set(gens)) != len(gens):
            raise MalformedDescriptor("generators must be pairwise distinct")
    elif isinstance(desc, FinitelyPrimaryValue):
        if not is_int(desc.rank) or desc.rank not in (1, 2, 3):
            raise MalformedDescriptor("fp-value rank must be 1, 2 or 3")
        if not is_int(desc.exponent) or desc.exponent < 1:
            raise MalformedDescriptor("fp-value exponent must be a positive integer")
        for pat in desc.exceptional:
            if len(pat.entries) != desc.rank:
                raise MalformedDescriptor(f"pattern {pat!r} does not match the rank")
            for kind, n in pat.entries:
                if kind not in ("exact", "atLeast") or not is_int(n) or n < 1:
                    raise MalformedDescriptor(f"bad pattern entry {(kind, n)!r}")
            # without an exact coordinate below the exponent the pattern is
            # redundant with the all-coordinates->exponent region
            if not any(k == "exact" and n < desc.exponent for k, n in pat.entries):
                raise MalformedDescriptor(
                    f"pattern {pat.entries!r} needs an exact entry below the exponent"
                )
        if len(set(desc.exceptional)) != len(desc.exceptional):
            raise MalformedDescriptor("patterns must be pairwise distinct")
    elif isinstance(desc, Sumset):
        gens = desc.generators
        if not gens:
            raise MalformedDescriptor("sumset model needs at least one generator")
        for g in gens:
            if not g or g[0] != 0 or any(not is_int(x) or x < 0 for x in g):
                raise MalformedDescriptor(f"sumset generator {g!r} must contain 0")
            if any(a >= b for a, b in zip(g, g[1:])):
                raise MalformedDescriptor(f"sumset generator {g!r} is not canonical")
            if len(g) == 1:
                raise MalformedDescriptor("sumset generators must differ from {0}")
        if len(set(gens)) != len(gens):
            raise MalformedDescriptor("generators must be pairwise distinct")
    elif isinstance(desc, Product):
        if not desc.factors:
            raise MalformedDescriptor("product model needs at least one factor")
        if not is_int(desc.free_rank) or desc.free_rank < 0:
            raise MalformedDescriptor("product free rank must be a nonnegative integer")
        for f in desc.factors:
            if not isinstance(f, _BASE_MODELS):
                raise MalformedDescriptor("product factors must be base models")
            check_descriptor(f)
    else:
        raise MalformedDescriptor(f"unknown descriptor {desc!r}")


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def cancellative(desc: MonoidDescriptor) -> bool:
    """True when the model embeds in a group (everything except sumsets)."""
    if isinstance(desc, Sumset):
        return False
    if isinstance(desc, Product):
        return all(cancellative(f) for f in desc.factors)
    return True


# ---------------------------------------------------------------------------
# descriptor serialization


def descriptor_to_json(desc: MonoidDescriptor) -> dict:
    if isinstance(desc, Numerical):
        return {"model": "numerical", "generators": list(desc.generators)}
    if isinstance(desc, Affine):
        return {
            "model": "affine",
            "dim": desc.dim,
            "generators": [list(g) for g in desc.generators],
        }
    if isinstance(desc, FinitelyPrimaryValue):
        return {
            "model": "fp-value",
            "rank": desc.rank,
            "exponent": desc.exponent,
            "exceptional": [
                [{kind: n} for kind, n in pat.entries] for pat in desc.exceptional
            ],
        }
    if isinstance(desc, Sumset):
        return {"model": "sumset", "generators": [list(g) for g in desc.generators]}
    if isinstance(desc, Product):
        return {
            "model": "product",
            "factors": [descriptor_to_json(f) for f in desc.factors],
            "freeRank": desc.free_rank,
        }
    raise MalformedDescriptor(f"unknown descriptor {desc!r}")


def descriptor_from_json(doc: Any) -> MonoidDescriptor:
    """Parse and structurally validate a descriptor document."""
    if not isinstance(doc, dict) or "model" not in doc:
        raise MalformedDescriptor("descriptor must be an object with a 'model' field")
    model = doc["model"]
    try:
        if model == "numerical":
            desc: MonoidDescriptor = Numerical(generators=tuple(doc["generators"]))
        elif model == "affine":
            desc = Affine(
                dim=doc["dim"],
                generators=tuple(tuple(g) for g in doc["generators"]),
            )
        elif model == "fp-value":
            desc = FinitelyPrimaryValue(
                rank=doc["rank"],
                exponent=doc["exponent"],
                exceptional=tuple(
                    Pattern(tuple(_pattern_entry(e) for e in pat))
                    for pat in doc.get("exceptional", [])
                ),
            )
        elif model == "sumset":
            desc = Sumset(
                generators=tuple(
                    tuple(sorted(set(g))) for g in doc["generators"]
                )
            )
        elif model == "product":
            desc = Product(
                factors=tuple(descriptor_from_json(f) for f in doc["factors"]),
                free_rank=doc["freeRank"],
            )
        else:
            raise MalformedDescriptor(f"unknown model {model!r}")
    except MalformedDescriptor:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDescriptor(f"bad descriptor document: {exc}") from exc
    check_descriptor(desc)
    return desc


def _pattern_entry(e: Any) -> tuple[str, int]:
    if isinstance(e, dict) and len(e) == 1:
        (kind, n), = e.items()
        if kind in ("exact", "atLeast"):
            return (kind, n)
    raise MalformedDescriptor(f"bad pattern entry {e!r}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON used for hashing and reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def descriptor_hash(desc: MonoidDescriptor) -> str:
    try:  # the interpreter's built-in SHA-256: hashlib's digest, no OpenSSL
        from _sha256 import sha256
    except ImportError:
        try:  # its name from Python 3.12
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(canonical_dumps(descriptor_to_json(desc)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# elements


def identity(desc: MonoidDescriptor) -> Element:
    if isinstance(desc, Numerical):
        return 0
    if isinstance(desc, Affine):
        return (0,) * desc.dim
    if isinstance(desc, FinitelyPrimaryValue):
        return (0,) * desc.rank
    if isinstance(desc, Sumset):
        return (0,)
    return (tuple(identity(f) for f in desc.factors), (0,) * desc.free_rank)


def canon(desc: MonoidDescriptor, raw: Any) -> Element:
    from . import search
    return search.canon(desc, raw)


def multiply(desc: MonoidDescriptor, a: Element, b: Element) -> Element:
    if isinstance(desc, Numerical):
        return a + b
    if isinstance(desc, (Affine, FinitelyPrimaryValue)):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(desc, Sumset):
        return set_add(a, b)
    ca, fa = a
    cb, fb = b
    return (
        tuple(multiply(f, x, y) for f, x, y in zip(desc.factors, ca, cb)),
        tuple(x + y for x, y in zip(fa, fb)),
    )


def product_of(desc: MonoidDescriptor, elements, counts) -> Element:
    """Product of elements[i] ** m over the (i, m) pairs of counts.

    Multiplies one factor at a time from the identity, so it makes one
    ``multiply`` call per factor.
    """
    out = identity(desc)
    for i, m in counts:
        for _ in range(m):
            out = multiply(desc, out, elements[i])
    return out


def weight(desc: MonoidDescriptor, el: Element) -> int:
    if isinstance(desc, Numerical):
        return el
    if isinstance(desc, (Affine, FinitelyPrimaryValue)):
        return sum(el)
    if isinstance(desc, Sumset):
        return el[-1]
    comps, free = el
    return sum(weight(f, c) for f, c in zip(desc.factors, comps)) + sum(free)


def element_sort_key(desc: MonoidDescriptor, el: Element):
    """Weight-then-lexicographic order on canonical forms."""
    if isinstance(desc, Numerical):
        return (el, (el,))
    if isinstance(desc, (Affine, FinitelyPrimaryValue, Sumset)):
        return (weight(desc, el), el)
    comps, free = el
    return (
        weight(desc, el),
        tuple(element_sort_key(f, c) for f, c in zip(desc.factors, comps)),
        free,
    )


def element_to_json(desc: MonoidDescriptor, el: Element) -> Any:
    if isinstance(desc, Numerical):
        return el
    if isinstance(desc, (Affine, FinitelyPrimaryValue, Sumset)):
        return list(el)
    comps, free = el
    return {
        "components": [element_to_json(f, c) for f, c in zip(desc.factors, comps)],
        "free": list(free),
    }


def parse_element_literal(desc: MonoidDescriptor, text: str) -> Element:
    from . import search
    return search.parse_element_literal(desc, text)


# ---------------------------------------------------------------------------
# membership


def membership(desc: MonoidDescriptor, candidate: Any) -> bool:
    from . import search
    return search.membership(desc, candidate)


def fp_member(desc: FinitelyPrimaryValue, v: Vector) -> bool:
    if not any(v):
        return True
    if min(v) < 1:
        return False
    if all(x >= desc.exponent for x in v):
        return True
    return any(pat.matches(v) for pat in desc.exceptional)


def set_add(a: Vector, b: Vector) -> Vector:
    return tuple(sorted({x + y for x in a for y in b}))


def sumset_reachable(desc: Sumset, target: Vector) -> frozenset[Vector]:
    """All generator products contained in target (as subsets).

    Containment is necessary for divisibility because every member holds 0,
    so this set carries every divisor candidate of target.
    """
    tset = set(target)
    seen = {(0,)}
    stack = [(0,)]
    while stack:
        p = stack.pop()
        for g in desc.generators:
            q = set_add(p, g)
            if q not in seen and set(q) <= tset:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# the box below a vector


def box_strides(top: Vector) -> list[int]:
    """Mixed-radix place values: v <= top is numbered sum(v[i] * strides[i]).

    Adding a point u <= top - v to v adds the number of u.
    """
    strides = [1]
    for e in top[:-1]:
        strides.append(strides[-1] * (e + 1))
    return strides


def box_mask(top: Vector, low: Vector, strides: list[int]) -> int:
    """Bit mask of the box points v with low <= v <= top, for low <= top."""
    mask = 1
    for e, x, s in zip(top, low, strides):
        # e - x + 1 copies of the mask so far, s apart, by doubling
        width, shift = (e - x + 1) * s, x * s
        while s < width:
            mask |= mask << s
            s <<= 1
        mask = (mask & ((1 << width) - 1)) << shift
    return mask


def close_under(mask: int, room: int, shift: int) -> int:
    """mask closed under adding the point u numbered shift, within room,
    the box points >= u. By doubling: after k rounds the mask holds the
    input plus at most 2^k - 1 copies of u, and wide marks the points
    >= 2^k u, where the next round may land."""
    wide = room
    while wide:
        mask |= wide & (mask << shift)
        wide &= wide << shift
        shift <<= 1
    return mask


_BITS = bytes.maketrans(b"01", b"\0\1")


def byte_table(mask: int, size: int) -> bytes:
    """Bit i of mask at index i, as 0 or 1, for i < size."""
    return format(mask, f"0{size}b")[::-1].encode().translate(_BITS)


def member_mask(desc: Numerical | Affine, top: Vector) -> int:
    """Bit mask of the members v <= top, numbered by ``box_strides(top)``:
    the identity closed under each generator (a numerical n is (n,))."""
    strides = box_strides(top)
    mask = 1
    for g in desc.generators:
        g = (g,) if isinstance(desc, Numerical) else g
        if all(map(le, g, top)):
            mask = close_under(mask, box_mask(top, g, strides),
                               sum(map(mul, g, strides)))
    return mask


def fp_box(desc: FinitelyPrimaryValue, top: Vector):
    """(members, their numbers, member mask, sums mask) of the box below top:
    the nonzero members in lexicographic order, and the member mask shifted
    by each member and cut to the points >= it, which marks the sums of two
    members in the box. Raises ClosureViolation, as ``validate`` does, when
    one of those sums is not a member."""
    strides = box_strides(top)
    box = itertools.product(*(range(1, x + 1) for x in top))
    members = [v for v in box if fp_member(desc, v)]
    offsets = [sum(map(mul, u, strides)) for u in members]
    mask, sums = sum(1 << d for d in offsets), 0
    for u, d in zip(members, offsets):
        sums |= (mask << d) & box_mask(top, u, strides)
    if sums & ~mask:
        from . import validation
        validation.check_closure(desc, members)
    return members, offsets, mask, sums


# ---------------------------------------------------------------------------
# atoms


def is_atom(desc: MonoidDescriptor, el: Element) -> bool:
    from . import search
    return search.is_atom(desc, el)


def atoms_dividing(desc: MonoidDescriptor, a: Element) -> list[Element]:
    from . import search
    return search.atoms_dividing(desc, a)


def max_generator_weight(desc: MonoidDescriptor) -> int | None:
    """Largest generator weight (a bound on atom weights); None without generators."""
    if isinstance(desc, Numerical):
        return max(desc.generators)
    if isinstance(desc, Affine):
        return max(sum(g) for g in desc.generators)
    if isinstance(desc, Sumset):
        return max(g[-1] for g in desc.generators)
    if isinstance(desc, Product):
        weights = [max_generator_weight(f) for f in desc.factors]
        known = [w for w in weights if w is not None]
        if len(known) < len(weights):
            return None
        return max(known + [1 if desc.free_rank else 0])
    return None
