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
here is pure, so results are memoised freely.

The ``weight`` of an element (value, coordinate sum, maximum, or the sum
over product slots) is additive under multiplication and strictly
positive away from the identity; it is the termination measure for every
search in the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator

from .errors import (
    ClosureViolation,
    MalformedDescriptor,
    NotAMember,
    ShapeMismatch,
)

Element = Any
Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class Pattern:
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


@dataclass(frozen=True)
class Numerical:
    generators: tuple[int, ...]


@dataclass(frozen=True)
class Affine:
    dim: int
    generators: tuple[Vector, ...]


@dataclass(frozen=True)
class FinitelyPrimaryValue:
    rank: int
    exponent: int
    exceptional: tuple[Pattern, ...]


@dataclass(frozen=True)
class Sumset:
    generators: tuple[Vector, ...]


@dataclass(frozen=True)
class Product:
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
        if any(not _is_int(g) or g < 1 for g in gens):
            raise MalformedDescriptor("numerical generators must be positive integers")
        if len(set(gens)) != len(gens):
            raise MalformedDescriptor("generators must be pairwise distinct")
    elif isinstance(desc, Affine):
        if not _is_int(desc.dim) or desc.dim < 1:
            raise MalformedDescriptor("affine dimension must be a positive integer")
        gens = desc.generators
        if not gens:
            raise MalformedDescriptor("affine model needs at least one generator")
        for g in gens:
            if len(g) != desc.dim or any(not _is_int(x) or x < 0 for x in g):
                raise MalformedDescriptor(f"bad affine generator {g!r}")
            if not any(g):
                raise MalformedDescriptor("affine generators must be nonzero")
        if len(set(gens)) != len(gens):
            raise MalformedDescriptor("generators must be pairwise distinct")
    elif isinstance(desc, FinitelyPrimaryValue):
        if desc.rank not in (1, 2, 3):
            raise MalformedDescriptor("fp-value rank must be 1, 2 or 3")
        if not _is_int(desc.exponent) or desc.exponent < 1:
            raise MalformedDescriptor("fp-value exponent must be a positive integer")
        for pat in desc.exceptional:
            if len(pat.entries) != desc.rank:
                raise MalformedDescriptor(f"pattern {pat!r} does not match the rank")
            for kind, n in pat.entries:
                if kind not in ("exact", "atLeast") or not _is_int(n) or n < 1:
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
            if not g or g[0] != 0 or any(not _is_int(x) or x < 0 for x in g):
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
        if not _is_int(desc.free_rank) or desc.free_rank < 0:
            raise MalformedDescriptor("product free rank must be a nonnegative integer")
        for f in desc.factors:
            if not isinstance(f, _BASE_MODELS):
                raise MalformedDescriptor("product factors must be base models")
            check_descriptor(f)
    else:
        raise MalformedDescriptor(f"unknown descriptor {desc!r}")


def _is_int(x) -> bool:
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
    """Deterministic JSON used for hashing and cache files."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def descriptor_hash(desc: MonoidDescriptor) -> str:
    return hashlib.sha256(
        canonical_dumps(descriptor_to_json(desc)).encode()
    ).hexdigest()


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
    """Bring a raw element (parsed literal or JSON value) to canonical form.

    Raises ShapeMismatch when the value cannot possibly denote an element
    of this model. Membership is a separate question, see ``membership``.
    """
    if isinstance(desc, Numerical):
        if not _is_int(raw) or raw < 0:
            raise ShapeMismatch(f"expected a nonnegative integer, got {raw!r}")
        return raw
    if isinstance(desc, (Affine, FinitelyPrimaryValue)):
        dim = desc.dim if isinstance(desc, Affine) else desc.rank
        v = _int_tuple(raw)
        if len(v) != dim or any(x < 0 for x in v):
            raise ShapeMismatch(f"expected a vector of {dim} nonnegative ints")
        return v
    if isinstance(desc, Sumset):
        v = _int_tuple(raw)
        if any(x < 0 for x in v):
            raise ShapeMismatch("sumset elements hold nonnegative ints")
        s = tuple(sorted(set(v)))
        if not s or s[0] != 0:
            raise ShapeMismatch("sumset elements must contain 0")
        return s
    if isinstance(desc, Product):
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


def _int_tuple(raw: Any) -> Vector:
    if isinstance(raw, (tuple, list)) and all(_is_int(x) for x in raw):
        return tuple(raw)
    raise ShapeMismatch(f"expected a sequence of ints, got {raw!r}")


def multiply(desc: MonoidDescriptor, a: Element, b: Element) -> Element:
    if isinstance(desc, Numerical):
        return a + b
    if isinstance(desc, (Affine, FinitelyPrimaryValue)):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(desc, Sumset):
        return _set_add(a, b)
    ca, fa = a
    cb, fb = b
    return (
        tuple(multiply(f, x, y) for f, x, y in zip(desc.factors, ca, cb)),
        tuple(x + y for x, y in zip(fa, fb)),
    )


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


def element_from_json(desc: MonoidDescriptor, doc: Any) -> Element:
    return canon(desc, doc)


def element_hash(desc: MonoidDescriptor, el: Element) -> str:
    return hashlib.sha256(
        canonical_dumps(element_to_json(desc, el)).encode()
    ).hexdigest()


def parse_element_literal(desc: MonoidDescriptor, text: str) -> Element:
    """Parse the CLI literal form of an element.

    ints for numerical ("12"), comma-separated vectors for value models
    ("3,3"), brace sets for sumsets ("{0,1,3}") and semicolon-joined
    component literals for products ("12;3,3", free exponents last).
    """
    text = text.strip()
    try:
        if isinstance(desc, Numerical):
            return canon(desc, int(text))
        if isinstance(desc, (Affine, FinitelyPrimaryValue)):
            return canon(desc, [int(p) for p in text.split(",")])
        if isinstance(desc, Sumset):
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


def format_element(desc: MonoidDescriptor, el: Element) -> str:
    if isinstance(desc, Numerical):
        return str(el)
    if isinstance(desc, (Affine, FinitelyPrimaryValue)):
        return ",".join(map(str, el))
    if isinstance(desc, Sumset):
        return "{" + ",".join(map(str, el)) + "}"
    comps, free = el
    parts = [format_element(f, c) for f, c in zip(desc.factors, comps)]
    if desc.free_rank:
        parts.append(",".join(map(str, free)))
    return ";".join(parts)


# ---------------------------------------------------------------------------
# membership


def membership(desc: MonoidDescriptor, candidate: Any) -> bool:
    """Decide membership for a raw or canonical element.

    Raises ShapeMismatch for values of the wrong shape; returns False for
    well-shaped non-members.
    """
    el = canon(desc, candidate)
    return _is_member(desc, el)


def _is_member(desc: MonoidDescriptor, el: Element) -> bool:
    if isinstance(desc, Numerical):
        return _numerical_member(desc, el)
    if isinstance(desc, Affine):
        return _affine_member(desc, el)
    if isinstance(desc, FinitelyPrimaryValue):
        return _fp_member(desc, el)
    if isinstance(desc, Sumset):
        return el == (0,) or el in sumset_reachable(desc, el)
    comps, _ = el
    return all(_is_member(f, c) for f, c in zip(desc.factors, comps))


_NUMERICAL_TABLES: dict[Numerical, list[bool]] = {}


def _numerical_member(desc: Numerical, n: int) -> bool:
    table = _NUMERICAL_TABLES.setdefault(desc, [True])
    while len(table) <= n:
        m = len(table)
        table.append(any(m >= g and table[m - g] for g in desc.generators))
    return table[n]


_AFFINE_MEMBERS: dict[Affine, dict[Vector, bool]] = {}


def _affine_member(desc: Affine, v: Vector) -> bool:
    """Depth-first search for a chain of generator steps from v down to 0.

    An explicit stack replaces recursion, so the depth of the search (the
    length of a factorization) is not bounded by the interpreter. Each
    vector is settled once per descriptor: it is a member as soon as one
    step lands on a member, and a non-member once every step is settled.
    """
    memo = _AFFINE_MEMBERS.get(desc)
    if memo is None:
        memo = _AFFINE_MEMBERS[desc] = {(0,) * desc.dim: True}
    known = memo.get(v)
    if known is not None:
        return known
    stack = [v]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        pending = None
        for g in desc.generators:
            w = tuple(x - y for x, y in zip(u, g))
            if min(w) < 0:
                continue
            known = memo.get(w)
            if known is None:
                pending = w
                break
            if known:
                memo[u] = True
                break
        else:
            memo[u] = False
        if pending is not None:
            stack.append(pending)
    return memo[v]


def _fp_member(desc: FinitelyPrimaryValue, v: Vector) -> bool:
    if not any(v):
        return True
    if min(v) < 1:
        return False
    if all(x >= desc.exponent for x in v):
        return True
    return any(pat.matches(v) for pat in desc.exceptional)


def _set_add(a: Vector, b: Vector) -> Vector:
    return tuple(sorted({x + y for x in a for y in b}))


@lru_cache(maxsize=None)
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
            q = _set_add(p, g)
            if q not in seen and set(q) <= tset:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


@lru_cache(maxsize=None)
def sumset_divisors(desc: Sumset, a: Vector) -> frozenset[Vector]:
    """Members p such that p + c = a has a member solution c."""
    reach = sumset_reachable(desc, a)
    by_max: dict[int, list[Vector]] = {}
    for p in reach:
        by_max.setdefault(p[-1], []).append(p)
    out = set()
    for p in reach:
        rest = a[-1] - p[-1]
        if any(_set_add(p, c) == a for c in by_max.get(rest, ())):
            out.add(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# atoms


@lru_cache(maxsize=None)
def generator_atoms(desc: Numerical | Affine | Sumset) -> tuple[Element, ...]:
    """The atoms of a finitely generated model, in weight-then-lex order.

    Every member is a sum of generators, so every atom is a generator. A
    generator g is not an atom exactly when g = h + c for another
    generator h and a nonzero member c: split a non-trivial g = b + c
    and take for h any generator in a sum for b.
    """
    atoms = [
        g for g in desc.generators
        if not any(_has_cofactor(desc, g, h) for h in desc.generators if h != g)
    ]
    return tuple(sorted(atoms, key=lambda u: element_sort_key(desc, u)))


def _has_cofactor(desc: Numerical | Affine | Sumset, g: Element, h: Element) -> bool:
    """True when g = h + c for some nonzero member c."""
    if isinstance(desc, Numerical):
        return h < g and _numerical_member(desc, g - h)
    if isinstance(desc, Affine):
        c = tuple(x - y for x, y in zip(g, h))
        return min(c) >= 0 and _affine_member(desc, c)
    rest = g[-1] - h[-1]
    return rest > 0 and any(
        c[-1] == rest and _set_add(h, c) == g for c in sumset_reachable(desc, g)
    )


@lru_cache(maxsize=None)
def is_atom(desc: MonoidDescriptor, el: Element) -> bool:
    """True when el is a member that admits no two-part nonzero splitting.

    Numerical, affine and sumset models look el up among their
    ``generator_atoms``. fp-value models, which have infinitely many
    atoms, try every split inside the box below el. A product atom is an
    atom of one slot or a free generator.
    """
    if isinstance(desc, (Numerical, Affine, Sumset)):
        return el in generator_atoms(desc)
    if el == identity(desc) or not _is_member(desc, el):
        return False
    if isinstance(desc, FinitelyPrimaryValue):
        ident = identity(desc)
        for b in _box(el):
            if b == ident or b == el:
                continue
            c = tuple(x - y for x, y in zip(el, b))
            if _is_member(desc, b) and _is_member(desc, c):
                return False
        return True
    comps, free = el
    slots = [
        (i, c) for i, c in enumerate(comps) if c != identity(desc.factors[i])
    ]
    if sum(free) == 0 and len(slots) == 1:
        i, c = slots[0]
        return is_atom(desc.factors[i], c)
    return sum(free) == 1 and not slots


def _box(el: Vector) -> Iterator[Vector]:
    return itertools.product(*(range(x + 1) for x in el))


def atoms_dividing(desc: MonoidDescriptor, a: Element) -> list[Element]:
    """Atoms u with u + c = a solvable, in weight-then-lexicographic order.

    Numerical, affine and sumset models test each of their
    ``generator_atoms`` for a member cofactor; fp-value models scan the
    box below a; products join the atoms of their slots and the free
    generators a uses. The table is finite for every element of every
    model even when the monoid has infinitely many atoms overall.
    """
    a = canon(desc, a)
    if not _is_member(desc, a):
        raise NotAMember(f"{a!r} is not a member")
    if isinstance(desc, Numerical):
        return [
            u for u in generator_atoms(desc)
            if u <= a and _numerical_member(desc, a - u)
        ]
    if isinstance(desc, Affine):
        rests = ((u, tuple(x - y for x, y in zip(a, u))) for u in generator_atoms(desc))
        return [u for u, c in rests if min(c) >= 0 and _affine_member(desc, c)]
    if isinstance(desc, Sumset):
        divisors = sumset_divisors(desc, a)
        return [u for u in generator_atoms(desc) if u in divisors]
    out: list[Element] = []
    if isinstance(desc, FinitelyPrimaryValue):
        ident = identity(desc)
        for u in _box(a):
            if u == ident:
                continue
            rest = tuple(x - y for x, y in zip(a, u))
            if _is_member(desc, rest) and is_atom(desc, u):
                out.append(u)
    else:
        comps, free = a
        for i, (f, c) in enumerate(zip(desc.factors, comps)):
            out.extend(embed_component(desc, i, u) for u in atoms_dividing(f, c))
        out.extend(free_generator(desc, j) for j, e in enumerate(free) if e >= 1)
    out.sort(key=lambda u: element_sort_key(desc, u))
    return out


def embed_component(desc: Product, i: int, u: Element) -> Element:
    comps = tuple(
        u if j == i else identity(f) for j, f in enumerate(desc.factors)
    )
    return (comps, (0,) * desc.free_rank)


def free_generator(desc: Product, j: int) -> Element:
    free = tuple(1 if k == j else 0 for k in range(desc.free_rank))
    return (tuple(identity(f) for f in desc.factors), free)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    cancellative: bool
    strongly_ring_like_candidate: bool | None
    smallest_value_element: Vector | None
    verified_bound: int
    non_minimal_generators: list | None

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "cancellative": self.cancellative,
            "nonMinimalGenerators": self.non_minimal_generators,
            "stronglyRingLikeCandidate": self.strongly_ring_like_candidate,
            "smallestValueElement": (
                None
                if self.smallest_value_element is None
                else list(self.smallest_value_element)
            ),
            "verifiedBound": self.verified_bound,
        }


def validate(desc: MonoidDescriptor, bound: int) -> ValidationReport:
    """Check structure, generator minimality, closure (fp-value) and flags.

    For fp-value models closure is verified exhaustively on all pairs of
    members with every coordinate <= bound; sums landing in the
    all-coordinates->exponent region are accepted without lookup. The
    smallest-value check is likewise truncated at the bound, which is why
    the report records it.
    """
    check_descriptor(desc)
    if isinstance(desc, FinitelyPrimaryValue):
        if bound < 2 * desc.exponent:
            raise MalformedDescriptor(
                f"validation bound {bound} below twice the exponent"
            )
        members = [
            v
            for v in itertools.product(*(range(bound + 1),) * desc.rank)
            if any(v) and _fp_member(desc, v)
        ]
        for e in members:
            for f in members:
                s = tuple(x + y for x, y in zip(e, f))
                if all(x >= desc.exponent for x in s):
                    continue
                if not _fp_member(desc, s):
                    raise ClosureViolation(e, f, s)
        mu = None
        if members:
            low = tuple(min(v[i] for v in members) for i in range(desc.rank))
            if _fp_member(desc, low):
                mu = low
        return ValidationReport(
            valid=True,
            cancellative=True,
            strongly_ring_like_candidate=mu is not None,
            smallest_value_element=mu,
            verified_bound=bound,
            non_minimal_generators=None,
        )
    min_weight = _max_generator_weight(desc)
    if min_weight is not None and bound < min_weight:
        raise MalformedDescriptor(
            f"validation bound {bound} below the largest generator weight"
        )
    return ValidationReport(
        valid=True,
        cancellative=cancellative(desc),
        strongly_ring_like_candidate=None,
        smallest_value_element=None,
        verified_bound=bound,
        non_minimal_generators=non_atom_generators(desc),
    )


def non_atom_generators(desc: MonoidDescriptor) -> list | None:
    """Generators that are sums of other generators, as JSON values.

    Every atom of a reduced monoid lies in every generating set, so the
    other generators are exactly its atoms. None for fp-value models,
    which have no generating set; one entry per factor for products.
    """
    if isinstance(desc, Product):
        return [non_atom_generators(f) for f in desc.factors]
    if isinstance(desc, FinitelyPrimaryValue):
        return None
    atoms = generator_atoms(desc)
    return [element_to_json(desc, g) for g in desc.generators if g not in atoms]


def _max_generator_weight(desc: MonoidDescriptor) -> int | None:
    if isinstance(desc, Numerical):
        return max(desc.generators)
    if isinstance(desc, Affine):
        return max(sum(g) for g in desc.generators)
    if isinstance(desc, Sumset):
        return max(g[-1] for g in desc.generators)
    if isinstance(desc, Product):
        weights = [_max_generator_weight(f) for f in desc.factors]
        known = [w for w in weights if w is not None]
        if len(known) < len(weights):
            return None
        return max(known + [1 if desc.free_rank else 0])
    return None


def max_generator_weight(desc: MonoidDescriptor) -> int | None:
    """Largest atom weight for finitely generated models, None otherwise."""
    return _max_generator_weight(desc)
