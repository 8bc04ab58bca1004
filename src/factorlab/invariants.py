"""Arithmetic invariants computed from complete factorization sets.

Element level: the set of lengths with its distance set and elasticity,
the catenary degree (bottleneck threshold connecting all of Z(a)), its
equal-length and adjacent-length refinements, the monotone catenary
degree, and the successive-distance measures. Global level: truncated
estimates aggregated over every member below a weight bound, unions of
length sets over k, and the sumset arithmetic of length sets.

Every element invariant past the length set is read off one table, the
pairwise distances of Z(a) that FactorSet.distance_table builds once per
fiber; its readers live in ``pairwise``, which ``element_report`` loads
when it runs. Its rows are ordered by length, so each length fiber Z_k
is a contiguous block, and each row is one packed int, read with
fieldwise min and max. The catenary degree is the largest edge of a
minimum spanning tree of the complete distance graph (Prim), which
equals the smallest N whose threshold graph is connected; the
equal-length degree is the largest such bottleneck of a diagonal block.
The fieldwise minima and maxima of the (k, l) blocks give the set
distance d(Z_k, Z_l) and the one-sided sup distance, which yield the
adjacent-length degree, the successive distance and its weak form. The
monotone catenary degree is the larger of the equal-length and
adjacent-length degrees.

Every question about the members below a weight bound lists them once
with ``enumerate_elements`` and reads one run of ``factor.atom_recurrence``
over them, so a member overflows the budget exactly when enumerating it
would. Equal-length relations and the global estimates of sumsets take
its fibers (``fibers``), length-set questions (structure probes, unions
of length sets) only its length masks and counts (``length_table``): a
row per member within the budget that keeps its mask, decoded only where
a length set is read, and a warning per other member. A union U_k is the
OR of the row masks that hold k (``unions_containing``).
The global estimates of every cancellative model, products included,
read its length masks and each member's predecessors a - u in
``recurrence``, with no fiber: c and c_eq from the R-classes of the
atoms dividing each member, c_adj and delta_w from a gcd-length
recurrence between length pairs, delta from a walk down the
predecessors. Sumsets are not cancellative, so their estimates keep
the fold of ``element_report`` over the fibers.
``element_report`` refuses a fiber whose table would pass TABLE_LIMIT,
and ``pairwise.report_fiber`` enumerates no further. ``unions_of_lengths``
returns (report, warnings), the report in JSON values.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import errors, factor, models

if TYPE_CHECKING:
    from fractions import Fraction

    from . import pairwise


class LengthSet(NamedTuple):
    lengths: tuple[int, ...]

    def delta(self) -> tuple[int, ...]:
        """Distinct gaps between consecutive lengths."""
        ls = self.lengths
        return tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))

    def rho(self) -> Fraction:
        """max/min elasticity; the length set {0} has elasticity 1."""
        from fractions import Fraction
        ls = self.lengths
        if not ls:
            raise ValueError("empty length set has no elasticity")
        if ls == (0,):
            return Fraction(1)
        return Fraction(ls[-1], ls[0])

    def __contains__(self, k: int) -> bool:
        return k in self.lengths


def length_set_of(values: Iterable[int]) -> LengthSet:
    return LengthSet(tuple(sorted(set(values))))


def length_set(fs: factor.FactorSet) -> LengthSet:
    return LengthSet(fs.lengths)


def length_set_sumset(a: LengthSet, b: LengthSet) -> LengthSet:
    return length_set_of(x + y for x in a.lengths for y in b.lengths)


def unique_representations(
    a: LengthSet, b: LengthSet, target: int
) -> list[tuple[int, int]]:
    """All (x, y) with x in a, y in b and x + y = target."""
    bset = set(b.lengths)
    return [(x, target - x) for x in a.lengths if target - x in bset]


# ---------------------------------------------------------------------------
# element report


# The most entries, n^2 for a fiber of n factorizations, of the distance
# table ``element_report`` builds: at about 25 ns an entry on a 2-vCPU
# machine with Python 3.11, and two bytes while the longest length is
# below 32,767, a table at the limit takes about 0.6 s and 50 MB.
TABLE_LIMIT = 25_000_000


def element_report(fs: factor.FactorSet) -> pairwise.InvariantReport:
    """Every invariant of one element, read off its distance table; raises
    TableTooLarge, before building it, when it would pass TABLE_LIMIT."""
    from . import pairwise
    if len(fs.all) ** 2 > TABLE_LIMIT:
        raise errors.TableTooLarge(len(fs.all), TABLE_LIMIT)
    ls = length_set(fs)
    dists, sups = pairwise.pair_tables(fs)
    adjacent = list(zip(ls.lengths, ls.lengths[1:]))
    c_eq = pairwise.equal_catenary(fs)
    c_adj = max((dists[kl] for kl in adjacent), default=0)
    return pairwise.InvariantReport(
        element=fs.element,
        lengths=ls,
        elasticity=ls.rho(),
        c=pairwise.catenary(fs),
        c_eq=c_eq,
        c_adj=c_adj,
        c_mon=max(c_eq, c_adj),
        delta_elem=max((sups[kl] for kl in adjacent), default=0),
        delta_w=max((-(-d // (l - k)) for (k, l), d in dists.items()), default=0),
        pair_distance=dists,
        pair_dist_sup=sups,
    )


# ---------------------------------------------------------------------------
# element enumeration


def enumerate_elements(
    desc: models.MonoidDescriptor, weight_bound: int
) -> list[models.Element]:
    """Every member of weight <= bound, once, weight-then-lex ordered."""
    if weight_bound < 0:
        return []
    if isinstance(desc, models.Product):
        free = itertools.product(range(weight_bound + 1), repeat=desc.free_rank)
        free_vectors = [v for v in free if sum(v) <= weight_bound]
        slots = [enumerate_elements(f, weight_bound) for f in desc.factors]
        out = []
        for combo in itertools.product(*slots):
            used = sum(models.weight(f, c) for f, c in zip(desc.factors, combo))
            out.extend((combo, fv) for fv in free_vectors
                       if used + sum(fv) <= weight_bound)
    elif isinstance(desc, (models.Numerical, models.Affine)):
        # member_mask numbers the box with the first coordinate lowest, the
        # order in which product() yields the reversed points
        dim = getattr(desc, "dim", 1)
        top = (weight_bound,) * dim
        bits = models.byte_table(models.member_mask(desc, top),
                                 (weight_bound + 1) ** dim)
        box = itertools.product(range(weight_bound + 1), repeat=dim)
        out = [v[0] if isinstance(desc, models.Numerical) else v[::-1]
               for v in itertools.compress(box, bits)
               if sum(v) <= weight_bound]
    elif isinstance(desc, models.FinitelyPrimaryValue):
        box = models.fp_box(desc, (weight_bound,) * desc.rank)[0]
        out = [models.identity(desc)] + [v for v in box if sum(v) <= weight_bound]
    else:
        out = list(models.sumset_reachable(desc, tuple(range(weight_bound + 1))))
    out.sort(key=lambda el: models.element_sort_key(desc, el))
    return out


def mask_lengths(mask: int) -> tuple[int, ...]:
    """The lengths in a length mask (bit k set for each length k), in order."""
    size = mask.bit_length()
    return tuple(itertools.compress(range(size), models.byte_table(mask, size)))


def fibers(desc: models.MonoidDescriptor, weight_bound: int,
           budget: int = factor.DEFAULT_BUDGET):
    """(member, |Z(member)|, Z(member)) in weight order from one
    ``factor.atom_recurrence``, None for a fiber past the budget; each
    fiber is built, and its raw row freed, when its member is reached."""
    members = enumerate_elements(desc, weight_bound)
    atoms, _, counts, raw, *_ = factor.atom_recurrence(desc, members, budget)
    for i, el in enumerate(members):
        zs, raw[i] = raw[i], None
        yield el, counts[i], (None if counts[i] > budget else
                              factor.recurrence_fiber(desc, el, members, atoms, zs))


# ---------------------------------------------------------------------------
# global estimates


class GlobalEstimate(NamedTuple):
    """Lower estimate of a global invariant at a finite weight bound."""

    name: str
    value: object
    bound: int
    stabilized: bool

    def to_json(self) -> dict:
        from fractions import Fraction
        value = self.value
        if isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        return {
            "name": self.name,
            "value": value,
            "bound": self.bound,
            "stabilized": self.stabilized,
        }


def _estimate_start() -> dict:
    """Each estimate's value over no members: the running maxima start here."""
    from fractions import Fraction
    return {
        "delta_set": frozenset(), "rho": Fraction(1), "c": 0, "c_eq": 0,
        "c_adj": 0, "c_mon": 0, "delta": 0, "delta_w": 0,
    }


def running_maxima(rows, weight_bound: int, start: dict) -> dict:
    """Fold rows of (weight, values), in weight order, into running maxima.

    ``start`` gives each name's value over no rows; frozenset values
    accumulate by union, all others by max. Returns name -> (value,
    stabilized), where stabilized means the value did not change after
    weight ``weight_bound // 2``. Values never fall, so that is the value
    at the half weight equalling the final one: one snapshot, taken when
    the first heavier row arrives, decides it.
    """
    half = weight_bound // 2
    acc = dict(start)
    at_half = None
    for weight, values in rows:
        if at_half is None and weight > half:
            at_half = dict(acc)
        for name, value in values.items():
            old = acc[name]
            acc[name] = old | value if isinstance(old, frozenset) else max(old, value)
    if at_half is None:
        at_half = acc
    return {name: (value, value == at_half[name]) for name, value in acc.items()}


def global_estimates(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
):
    """Aggregate element invariants below the bound.

    Returns (estimates, warnings). An estimate is flagged stabilized when
    its value did not change over the top half of the bound range; budget
    overflows are recorded per element, never dropped silently. On a
    cancellative model the rows come from ``recurrence.estimate_rows``,
    one atom recurrence with no fiber or distance table; a sumset's
    fibers are streamed, one at a time, through ``element_report``.
    """
    warnings, start = [], _estimate_start()

    def summaries():
        most = math.isqrt(TABLE_LIMIT)
        for el, count, fs in fibers(desc, weight_bound, min(budget, most)):
            if count > budget:
                warnings.append(budget_warning(desc, el, budget))
                continue
            if fs is None:
                raise errors.TableTooLarge(count, TABLE_LIMIT)
            rep = element_report(fs)
            yield models.weight(desc, el), {
                "delta_set": frozenset(rep.lengths.delta()),
                "rho": rep.elasticity,
                "c": rep.c,
                "c_eq": rep.c_eq,
                "c_adj": rep.c_adj,
                "c_mon": rep.c_mon,
                "delta": rep.delta_elem,
                "delta_w": rep.delta_w,
            }

    if models.cancellative(desc):
        from . import recurrence

        rows = recurrence.estimate_rows(desc, weight_bound, budget, warnings, start)
    else:
        rows = summaries()
    maxima = running_maxima(rows, weight_bound, start)
    estimates = [
        GlobalEstimate(
            name=name,
            value=tuple(sorted(value)) if name == "delta_set" else value,
            bound=weight_bound,
            stabilized=stabilized,
        )
        for name, (value, stabilized) in maxima.items()
    ]
    return estimates, warnings


# ---------------------------------------------------------------------------
# length table


class LengthRow(NamedTuple):
    """One member of a length table: its length mask, |Z(element)|, weight."""

    element: models.Element
    mask: int
    count: int
    weight: int

    @property
    def lengths(self) -> LengthSet:
        return LengthSet(mask_lengths(self.mask))


def length_table(
    desc: models.MonoidDescriptor,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
) -> tuple[list[LengthRow], list[dict]]:
    """(rows, warnings) over the members of weight <= bound, in weight order,
    from one fiberless ``factor.atom_recurrence``: a row for each member
    with at most ``budget`` factorizations, a warning for each other."""
    members = enumerate_elements(desc, weight_bound)
    _, masks, counts, *_, weights = factor.atom_recurrence(desc, members)
    rows = [row for row in map(LengthRow, members, masks, counts, weights)
            if row.count <= budget]
    return rows, [budget_warning(desc, el, budget)
                  for el, count in zip(members, counts) if count > budget]


def budget_warning(desc: models.MonoidDescriptor, el, limit: int) -> dict:
    return {
        "element": models.element_to_json(desc, el),
        "error": "budget-exceeded",
        "budget": limit,
    }


def unions_containing(rows: list[LengthRow]):
    """k -> U_k, the union of k and the rows' length sets that contain k:
    the OR of 1 << k and each row mask with bit k set, none below 1 << k."""
    masks = sorted(row.mask for row in rows)

    def union(k: int) -> LengthSet:
        bit = out = 1 << k
        for m in masks[bisect.bisect_left(masks, bit):]:
            if m & bit:
                out |= m
        return LengthSet(mask_lengths(out) if out != bit else (k,))

    return union


def unions_of_lengths(
    desc: models.MonoidDescriptor,
    k: int,
    weight_bound: int,
    budget: int = factor.DEFAULT_BUDGET,
):
    """Union of all length sets below the bound containing k, with k itself.

    Returns (report, warnings), the report in JSON values with the union
    as a list. The k-th power of any atom realizes length k, so seeding
    with {k} keeps the estimate a true lower bound even at bounds too
    small to exhibit any such power.
    """
    if k < 0:
        raise ValueError("union indices must be nonnegative")
    rows, warnings = length_table(desc, weight_bound, budget)
    union = unions_containing(rows)(k).lengths
    return {"k": k, "union": list(union), "rhoK": union[-1],
            "bound": weight_bound}, warnings
