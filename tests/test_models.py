"""Descriptor, element, membership and atom layer."""

import hashlib
import importlib.util
import itertools
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from factorlab import (
    Affine,
    ClosureViolation,
    FinitelyPrimaryValue,
    MalformedDescriptor,
    NotAMember,
    Numerical,
    Pattern,
    Product,
    ShapeMismatch,
    Sumset,
    atoms_dividing,
    cancellative,
    canon,
    check_descriptor,
    descriptor_from_json,
    descriptor_hash,
    descriptor_to_json,
    identity,
    is_atom,
    membership,
    multiply,
    validate,
    weight,
)
from factorlab import models, search

N23 = Numerical(generators=(2, 3))
AFF = Affine(dim=2, generators=((2, 0), (1, 1), (0, 2), (3, 0), (0, 3)))
FP21 = FinitelyPrimaryValue(rank=2, exponent=1, exceptional=())
FP22 = FinitelyPrimaryValue(
    rank=2,
    exponent=2,
    exceptional=(Pattern(entries=(("exact", 1), ("atLeast", 1))),),
)
SUM = Sumset(generators=((0, 1), (0, 1, 3), (0, 2, 3)))
PROD = Product(factors=(N23, FP21), free_rank=1)

ALL = [N23, AFF, FP21, FP22, SUM, PROD]


# ---------------------------------------------------------------------------
# descriptors


def test_check_descriptor_accepts_all_fixtures():
    for desc in ALL:
        check_descriptor(desc)


def test_numerical_rejects_bad_generators():
    with pytest.raises(MalformedDescriptor):
        check_descriptor(Numerical(generators=()))
    with pytest.raises(MalformedDescriptor):
        check_descriptor(Numerical(generators=(0, 2)))


def test_fp_pattern_needs_small_exact_entry():
    bad = FinitelyPrimaryValue(
        rank=2,
        exponent=2,
        exceptional=(Pattern(entries=(("atLeast", 1), ("atLeast", 1))),),
    )
    with pytest.raises(MalformedDescriptor):
        check_descriptor(bad)
    also_bad = FinitelyPrimaryValue(
        rank=2,
        exponent=2,
        exceptional=(Pattern(entries=(("exact", 2), ("atLeast", 1))),),
    )
    with pytest.raises(MalformedDescriptor):
        check_descriptor(also_bad)


def test_sumset_generators_must_be_canonical():
    with pytest.raises(MalformedDescriptor):
        check_descriptor(Sumset(generators=((0,),)))
    with pytest.raises(MalformedDescriptor):
        check_descriptor(Sumset(generators=((1, 2),)))


N23_DOC = {"model": "numerical", "generators": [2, 3]}
FP_DOC = {"model": "fp-value", "rank": 2, "exponent": 2}


@pytest.mark.parametrize("parse,raw,message", [
    (descriptor_from_json, {"model": "numerical", "generators": [2, 2]},
     "generators must be pairwise distinct"),
    (descriptor_from_json, {"model": "affine", "dim": 0, "generators": [[1]]},
     "affine dimension must be a positive integer"),
    (descriptor_from_json, {"model": "affine", "dim": 1, "generators": []},
     "affine model needs at least one generator"),
    (descriptor_from_json, {"model": "affine", "dim": 2, "generators": [[1]]},
     "bad affine generator (1,)"),
    (descriptor_from_json, {"model": "affine", "dim": 1, "generators": [[0]]},
     "affine generators must be nonzero"),
    (descriptor_from_json, {"model": "affine", "dim": 1, "generators": [[2], [2]]},
     "generators must be pairwise distinct"),
    (descriptor_from_json, dict(FP_DOC, rank=4), "fp-value rank must be 1, 2 or 3"),
    (descriptor_from_json, dict(FP_DOC, rank=True), "fp-value rank must be 1, 2 or 3"),
    (descriptor_from_json, dict(FP_DOC, exponent=0),
     "fp-value exponent must be a positive integer"),
    (descriptor_from_json, dict(FP_DOC, exceptional=[[{"exact": 1}]]),
     "pattern Pattern(entries=(('exact', 1),)) does not match the rank"),
    (descriptor_from_json, dict(FP_DOC, exceptional=[[{"exact": 1}, {"atLeast": 0}]]),
     "bad pattern entry ('atLeast', 0)"),
    (descriptor_from_json, dict(FP_DOC, exceptional=[[{"exact": 1}, {"upTo": 1}]]),
     "bad pattern entry {'upTo': 1}"),
    (descriptor_from_json, dict(FP_DOC, exceptional=[[{"exact": 1}, {"exact": 1}]] * 2),
     "patterns must be pairwise distinct"),
    (descriptor_from_json, {"model": "sumset", "generators": []},
     "sumset model needs at least one generator"),
    (check_descriptor, Sumset(generators=((0, 2, 1),)),
     "sumset generator (0, 2, 1) is not canonical"),
    (descriptor_from_json, {"model": "sumset", "generators": [[0, 1], [1, 0]]},
     "generators must be pairwise distinct"),
    (descriptor_from_json, {"model": "product", "factors": [], "freeRank": 0},
     "product model needs at least one factor"),
    (descriptor_from_json, {"model": "product", "factors": [N23_DOC], "freeRank": -1},
     "product free rank must be a nonnegative integer"),
    (check_descriptor, None, "unknown descriptor None"),
    (descriptor_to_json, None, "unknown descriptor None"),
    (descriptor_from_json, [], "descriptor must be an object with a 'model' field"),
    (descriptor_from_json, {"model": "ring"}, "unknown model 'ring'"),
    (lambda raw: canon(SUM, raw), [0, -1], "sumset elements hold nonnegative ints"),
    (lambda raw: canon(PROD, raw), 5, "bad product element 5"),
    (lambda raw: canon(PROD, raw), {"components": [2]},
     "product element needs one entry per factor"),
    (lambda raw: canon(PROD, raw), {"components": [2, [1, 1]], "free": [-1]},
     "free part must have 1 entries >= 0"),
    (lambda raw: canon(None, raw), 5, "unknown descriptor None"),
    (lambda raw: canon(AFF, raw), "ab", "expected a sequence of ints, got 'ab'"),
    (lambda text: models.parse_element_literal(SUM, text), "0,1",
     "sumset literals look like {0,1,3}"),
    (lambda text: models.parse_element_literal(PROD, text), "2;1,1",
     "product literal needs 3 ';'-separated parts, got 2"),
    (lambda text: models.parse_element_literal(N23, text), "x",
     "cannot parse element literal 'x': invalid literal for int() with base 10: 'x'"),
])
def test_malformed_input_gets_its_message(parse, raw, message):
    with pytest.raises((MalformedDescriptor, ShapeMismatch)) as exc:
        parse(raw)
    assert str(exc.value) == message


def test_product_factors_must_be_base_models():
    nested = Product(factors=(PROD,), free_rank=0)
    with pytest.raises(MalformedDescriptor):
        check_descriptor(nested)


def test_json_roundtrip_and_hash_stability():
    for desc in ALL:
        doc = descriptor_to_json(desc)
        again = descriptor_from_json(json.loads(json.dumps(doc)))
        assert again == desc
        assert descriptor_hash(again) == descriptor_hash(desc)


def test_hash_distinguishes_descriptors():
    assert len({descriptor_hash(d) for d in ALL}) == len(ALL)


def test_cancellative_flags():
    assert cancellative(N23)
    assert cancellative(AFF)
    assert cancellative(FP21)
    assert not cancellative(SUM)
    assert not cancellative(Product(factors=(N23, SUM), free_rank=0))
    assert cancellative(PROD)


# ---------------------------------------------------------------------------
# elements


def test_canon_shapes():
    assert canon(N23, 5) == 5
    assert canon(AFF, [1, 1]) == (1, 1)
    assert canon(SUM, [3, 0, 1, 1]) == (0, 1, 3)
    with pytest.raises(ShapeMismatch):
        canon(N23, (1, 2))
    with pytest.raises(ShapeMismatch):
        canon(AFF, (1, 2, 3))
    with pytest.raises(ShapeMismatch):
        canon(N23, True)
    with pytest.raises(ShapeMismatch):
        canon(SUM, (1, 2))
    with pytest.raises(ShapeMismatch):
        canon(N23, -1)


def test_product_element_forms():
    el = canon(PROD, ((6, (2, 2)), (3,)))
    assert el == ((6, (2, 2)), (3,))
    same = canon(PROD, {"components": [6, [2, 2]], "free": [3]})
    assert same == el


def test_weight_is_additive():
    for desc in ALL:
        a = bruteforce.brute_members(desc, 5)
        for u in a[:8]:
            for v in a[:8]:
                w = weight(desc, multiply(desc, u, v))
                assert w == weight(desc, u) + weight(desc, v)


def test_multiply_commutative_and_associative_on_random_triples():
    bounds = {N23: 16, AFF: 9, FP21: 7, FP22: 9, SUM: 5, PROD: 7}
    rng = random.Random(411)
    for desc in ALL:
        pool = bruteforce.brute_members(desc, bounds[desc])
        assert pool
        for _ in range(1000):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab = multiply(desc, a, b)
            assert ab == multiply(desc, b, a)
            assert multiply(desc, ab, c) == multiply(desc, a, multiply(desc, b, c))


@given(st.integers(min_value=0, max_value=60))
def test_canon_idempotent_numerical(n):
    assert canon(N23, canon(N23, n)) == canon(N23, n)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
@settings(max_examples=60)
def test_canon_idempotent_sumset(raw):
    values = sorted(set([0] + raw))
    el = canon(SUM, values)
    assert canon(SUM, el) == el
    assert el[0] == 0


def test_element_literals():
    assert models.parse_element_literal(N23, "12") == 12
    assert models.parse_element_literal(AFF, "3,3") == (3, 3)
    assert models.parse_element_literal(SUM, "{0,1,3}") == (0, 1, 3)
    el = models.parse_element_literal(PROD, "6; 2,2; 3")
    assert el == ((6, (2, 2)), (3,))
    assert search.format_element(PROD, el) == "6;2,2;3"
    assert models.parse_element_literal(PROD, "6;2,2;3") == el


def test_element_json_roundtrip():
    for desc, raw in [
        (N23, 8),
        (AFF, (2, 2)),
        (FP22, (1, 5)),
        (SUM, (0, 1, 3)),
        (PROD, ((6, (2, 2)), (3,))),
    ]:
        el = canon(desc, raw)
        doc = models.element_to_json(desc, el)
        assert canon(desc, json.loads(json.dumps(doc))) == el


# ---------------------------------------------------------------------------
# membership


def test_numerical_membership_gaps():
    assert membership(N23, 0)
    assert not membership(N23, 1)
    assert all(membership(N23, n) for n in range(2, 30))


def test_affine_membership():
    assert membership(AFF, (0, 0))
    assert membership(AFF, (1, 1))
    assert not membership(AFF, (1, 0))
    assert membership(AFF, (3, 3))


def test_fp_membership_closed_form():
    assert membership(FP21, (0, 0))
    assert not membership(FP21, (1, 0))
    assert membership(FP21, (1, 7))
    assert membership(FP22, (1, 1))
    assert membership(FP22, (1, 9))
    assert not membership(FP22, (2, 1))
    assert membership(FP22, (2, 2))
    assert not membership(FP22, (0, 3))


def test_sumset_membership():
    assert membership(SUM, (0,))
    assert membership(SUM, (0, 1))
    assert membership(SUM, (0, 1, 2, 3, 4))
    assert not membership(SUM, (0, 4))
    assert membership(SUM, (0, 1, 2))


def test_product_membership():
    assert membership(PROD, canon(PROD, ((0, (0, 0)), (0,))))
    assert membership(PROD, canon(PROD, ((2, (1, 3)), (5,))))
    assert not membership(PROD, canon(PROD, ((1, (1, 1)), (0,))))


def test_membership_matches_bruteforce_universe():
    for desc, bound in [(N23, 12), (AFF, 8), (FP21, 6), (FP22, 8), (SUM, 5)]:
        brute = set(bruteforce.brute_members(desc, bound))
        lib = set(models.canon(desc, e) for e in brute)
        assert lib == brute
        for el in brute:
            assert membership(desc, el)


# ---------------------------------------------------------------------------
# atoms


def test_numerical_atoms():
    assert is_atom(N23, 2)
    assert is_atom(N23, 3)
    assert not is_atom(N23, 4)
    assert not is_atom(N23, 0)


def test_fp22_atom_families():
    for k in range(1, 8):
        assert is_atom(FP22, (1, k))
    for n in range(3, 8):
        assert is_atom(FP22, (n, 2))
    assert not is_atom(FP22, (2, 2))
    assert not is_atom(FP22, (2, 3))
    assert not is_atom(FP22, (3, 3))


def test_atoms_dividing_against_bruteforce():
    cases = [(N23, 12), (AFF, (3, 3)), (FP21, (3, 3)), (FP22, (4, 4)),
             (SUM, (0, 1, 2, 3, 4))]
    for desc, a in cases:
        el = canon(desc, a)
        lib = atoms_dividing(desc, el)
        assert sorted(lib) == sorted(bruteforce.brute_atoms_dividing(desc, el))


NUMERICAL = st.builds(
    Numerical,
    st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(tuple))
sumset_generators = st.sets(st.integers(1, 5), min_size=1, max_size=3).map(
    lambda rest: (0, *sorted(rest)))
SUMSETS = st.builds(
    Sumset, st.sets(sumset_generators, min_size=1, max_size=3).map(sorted).map(tuple))


@st.composite
def affine_models(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    point = st.tuples(*[st.integers(0, 3)] * dim).filter(any)
    gens = draw(st.sets(point, min_size=1, max_size=4))
    return Affine(dim=dim, generators=tuple(sorted(gens)))


@st.composite
def products(draw):
    """Products of one or two small slots with free rank 0 to 2."""
    small_numerical = st.builds(Numerical, st.lists(
        st.integers(1, 6), min_size=1, max_size=3, unique=True).map(tuple))
    slot = st.one_of(small_numerical, affine_models(max_dim=2), SUMSETS,
                     st.sampled_from([FP21, FP22]))
    factors = draw(st.lists(slot, min_size=1, max_size=2))
    return Product(factors=tuple(factors), free_rank=draw(st.integers(0, 2)))


@st.composite
def affine_and_top(draw):
    desc = draw(affine_models())
    top = draw(st.tuples(*[st.integers(0, (12, 6, 4)[desc.dim - 1])] * desc.dim))
    return desc, top


@given(st.one_of(st.tuples(NUMERICAL, st.integers(0, 40)), affine_and_top()))
@settings(max_examples=60, deadline=None)
def test_box_masks_agree_with_the_generated_oracle(case):
    """Membership of every point of a small box, and the atoms dividing
    its top, against the definition: v = 0 or v - g a member."""
    desc, top = case
    if isinstance(desc, Numerical):
        box = range(top + 1)
    else:
        box = itertools.product(*(range(x + 1) for x in top))
    for v in box:
        assert membership(desc, v) == bruteforce.generated(desc, v), v
    if bruteforce.generated(desc, top):
        assert sorted(atoms_dividing(desc, top)) == sorted(
            bruteforce.brute_atoms_dividing(desc, top))
    else:
        with pytest.raises(NotAMember):
            atoms_dividing(desc, top)


def test_atoms_dividing_requires_member():
    with pytest.raises(NotAMember):
        atoms_dividing(N23, 1)


def test_is_atom_agrees_with_bruteforce():
    for desc, bound in [(N23, 10), (AFF, 6), (FP22, 6), (SUM, 4)]:
        for el in bruteforce.brute_members(desc, bound):
            assert is_atom(desc, el) == bruteforce.brute_is_atom(desc, el), (
                desc,
                el,
            )


# ---------------------------------------------------------------------------
# validation


def test_validate_reports_closure_and_minimum():
    report = validate(FP22, 8)
    assert report.valid
    assert report.cancellative
    assert report.strongly_ring_like_candidate is True
    assert report.smallest_value_element == (1, 1)
    assert report.verified_bound == 8


def test_validate_detects_closure_violation():
    broken = FinitelyPrimaryValue(
        rank=2,
        exponent=3,
        exceptional=(Pattern(entries=(("exact", 1), ("atLeast", 1))),),
    )
    with pytest.raises(ClosureViolation) as exc:
        validate(broken, 6)
    assert exc.value.left == (1, 1)
    assert exc.value.right == (1, 1)
    assert exc.value.total == (2, 2)


@st.composite
def fp_value_descriptors(draw, max_exponent=4, max_patterns=3):
    """fp-value descriptors of rank 1-3, exponent 1 to max_exponent and up
    to max_patterns patterns, closed or not.

    Each pattern gets the exact entry below the exponent that
    ``check_descriptor`` asks for, so every descriptor is well-formed.
    """
    rank = draw(st.integers(1, 3))
    exponent = draw(st.integers(1, max_exponent))
    entry = st.tuples(st.sampled_from(["exact", "atLeast"]),
                      st.integers(1, exponent + 1))

    @st.composite
    def pattern(draw):
        entries = list(draw(st.tuples(*[entry] * rank)))
        entries[draw(st.integers(0, rank - 1))] = (
            "exact", draw(st.integers(1, exponent - 1)))
        return tuple(entries)

    patterns = draw(st.lists(pattern(), unique=True,
                             max_size=max_patterns if exponent > 1 else 0))
    return FinitelyPrimaryValue(
        rank=rank, exponent=exponent,
        exceptional=tuple(Pattern(entries=p) for p in patterns))


def check_validate_against_pair_scan(desc, bound):
    """validate reports what the pair scan over the members <= bound finds:
    its first failing pair, or a valid report with the meet of the members
    as the smallest value element when that meet is a member."""
    box = itertools.product(range(1, bound + 1), repeat=desc.rank)
    members = [v for v in box if membership(desc, v)]
    pair = bruteforce.brute_first_closure_violation(desc, members)
    if pair is not None:
        with pytest.raises(ClosureViolation) as exc:
            validate(desc, bound)
        assert (exc.value.left, exc.value.right, exc.value.total) == pair
        return
    meet = tuple(min(v[i] for v in members) for i in range(desc.rank))
    mu = meet if membership(desc, meet) else None
    assert validate(desc, bound) == (True, True, mu is not None, mu, bound, None)


@settings(max_examples=60, deadline=None)
@given(fp_value_descriptors(), st.integers(0, 4))
def test_validate_closure_matches_the_pair_scan(desc, extra):
    check_validate_against_pair_scan(desc, 2 * desc.exponent + extra)


def test_validate_closure_of_a_large_rank_three_box():
    """8,000 members, 64 million ordered pairs: decided by one mask pass."""
    desc = descriptor_from_json({
        "model": "fp-value", "rank": 3, "exponent": 2,
        "exceptional": [[{"exact": 1}, {"atLeast": 1}, {"atLeast": 1}]]})
    check_validate_against_pair_scan(desc, 20)


def test_validate_lists_generators_that_are_not_atoms():
    n234 = Numerical(generators=(2, 3, 4))
    assert validate(n234, 4).non_minimal_generators == [4]
    aff = Affine(dim=2, generators=((1, 0), (0, 1), (1, 1)))
    assert validate(aff, 2).non_minimal_generators == [[1, 1]]
    sums = Sumset(generators=((0, 1), (0, 2), (0, 1, 2)))
    assert validate(sums, 2).non_minimal_generators == [[0, 1, 2]]
    prod = Product(factors=(n234, FP21, sums), free_rank=1)
    assert validate(prod, 4).to_json()["nonMinimalGenerators"] == [
        [4], None, [[0, 1, 2]]]
    assert validate(N23, 3).non_minimal_generators == []
    assert validate(AFF, 3).non_minimal_generators == []
    assert validate(FP22, 8).non_minimal_generators is None


def test_validate_bound_preconditions():
    with pytest.raises(MalformedDescriptor):
        validate(FP22, 3)
    with pytest.raises(MalformedDescriptor):
        validate(N23, 2)


@pytest.mark.parametrize("desc,least", [
    (N23, 3), (AFF, 3), (FP22, 4), (SUM, 3), (PROD, 3),
    (Product(factors=(N23, FP22), free_rank=0), 4),
], ids=["numerical", "affine", "fp-value", "sumset", "product",
        "product-fp-value-bound"])
def test_validate_defaults_to_the_least_bound(desc, least):
    assert validate(desc).verified_bound == least
    with pytest.raises(MalformedDescriptor):
        validate(desc, least - 1)


def test_identity_membership_everywhere():
    for desc in ALL:
        e = identity(desc)
        assert membership(desc, e)
        assert weight(desc, e) == 0
        assert not is_atom(desc, e)


# ---------------------------------------------------------------------------
# descriptor hash: the interpreter's built-in SHA-256, else hashlib's

BENCH_DESCRIPTORS = sorted(
    (pathlib.Path(__file__).parents[1] / "perfbench" / "descriptors").glob("*.json"))
# CPython's SHA-256 module: _sha256 up to 3.11, _sha2 from 3.12
BUILTIN_SHA256 = ("_sha256", "_sha2")
# README's ``invariants`` example, on the descriptor {"model": "numerical",
# "generators": [2, 3]}
README_HASH = "f0f53a5816d985bb3ba7cf4b62d23ec0de400bebd41541328e7377c7e5df9530"


def check_hash(desc, hide_builtin: bool, want: str | None = None):
    """descriptor_hash is hashlib's sha256 of the canonical descriptor JSON.
    It comes from the built-in module where there is one; with
    ``hide_builtin`` none can be imported, and hashlib's fallback gives it."""
    doc = models.canonical_dumps(descriptor_to_json(desc)).encode()
    expected = hashlib.sha256(doc).hexdigest()
    assert want in (None, expected)
    builtin = not hide_builtin and any(
        importlib.util.find_spec(name) for name in BUILTIN_SHA256)
    calls = []
    real = hashlib.sha256
    with pytest.MonkeyPatch.context() as mp:
        if hide_builtin:
            for name in BUILTIN_SHA256:
                mp.setitem(sys.modules, name, None)
        mp.setattr(hashlib, "sha256", lambda data: calls.append(data) or real(data))
        assert descriptor_hash(desc) == expected
    assert calls == ([] if builtin else [doc])


HIDE = pytest.mark.parametrize("hide_builtin", [False, True],
                               ids=["built-in", "hashlib"])


@HIDE
@pytest.mark.parametrize("path", BENCH_DESCRIPTORS, ids=lambda p: p.stem)
def test_hash_of_each_bench_descriptor_is_hashlib_sha256(path, hide_builtin):
    check_hash(descriptor_from_json(json.loads(path.read_text())), hide_builtin)


@HIDE
def test_hash_keeps_the_readme_digest(hide_builtin):
    check_hash(N23, hide_builtin, README_HASH)


@HIDE
@given(st.one_of(NUMERICAL, affine_models(), fp_value_descriptors(), SUMSETS,
                 products()))
@settings(max_examples=60, deadline=None)
def test_hash_of_drawn_descriptors_is_hashlib_sha256(hide_builtin, desc):
    check_hash(desc, hide_builtin)
