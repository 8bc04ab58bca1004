"""The element invariants ``invariants.element_report`` reads off the packed
rows of ``FactorSet.distance_table``; no sweep over length sets and no
cancellative global estimate loads this module."""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from typing import TYPE_CHECKING, NamedTuple

from . import errors, factor, invariants, models
from .fields import packing

if TYPE_CHECKING:
    from fractions import Fraction


def _bottleneck(table, span: range, top: int) -> int:
    """Largest MST edge (Prim) of the complete graph on span; 0 for <= 1 node.
    The nearest distances are one packed int, FAR at visited nodes; a node
    no farther than the largest edge so far joins unscanned: it cannot raise it."""
    if len(span) <= 1:
        return 0
    f = packing(top, len(span))
    shift, mask = f.width * span.start, f.far * f.ones
    seen, worst = f.far, 0
    best = table[span.start] >> shift & mask | seen
    for _ in span[1:]:
        if near := (worst * f.ones | f.high) - best & f.high:
            p = (near & -near).bit_length() // f.width - 1
        else:
            near = f.unpack(best)
            worst = min(near)
            p = near.index(worst)
        seen |= f.far << f.width * p
        best = f.min(best, table[span[p]] >> shift & mask) | seen
    return worst


def catenary(fs: factor.FactorSet) -> int:
    """Smallest N such that any two factorizations join by an N-chain."""
    return _bottleneck(fs.distance_table, range(len(fs.all)), fs.fields.top)


def equal_catenary(fs: factor.FactorSet) -> int:
    """Chains confined to one length fiber; 0 when all fibers are single."""
    table, top = fs.distance_table, fs.fields.top
    return max((_bottleneck(table, span, top) for span in fs.spans.values()), default=0)


def pair_tables(fs: factor.FactorSet):
    """(set distance, one-sided sup) for every pair of lengths k < l.

    By symmetry the fieldwise min of the rows of Z_l holds d({z_i}, Z_l)
    in field i. Transposed to a row per z_i, the fieldwise min and max over
    Z_k hold d(Z_k, Z_l) and the largest d({x}, Z_l), x in Z_k, at each l;
    the one-sided sup of (k, l) is the larger of Z_k's at l and Z_l's at k.
    """
    table, f, spans, n = fs.distance_table, fs.fields, fs.spans, len(fs.all)
    if len(spans) < 2:
        return {}, {}
    near = array(f.code, b"".join(f.unpack(functools.reduce(f.min, table[s.start:s.stop]))
                                  for s in spans.values()))
    g = packing(f.top, len(spans))
    rows = [g.pack(near[i::n]) for i in range(n)]
    lows, highs = ([g.unpack(functools.reduce(op, rows[s.start:s.stop]))
                    for s in spans.values()] for op in (g.min, g.max))
    keys = list(itertools.combinations(spans, 2))
    dists = dict(zip(keys, _upper(lows)))
    sups = dict(zip(keys, map(max, _upper(highs), _upper(zip(*highs)))))
    return dists, sups


def _upper(rows):
    """The entries right of the diagonal, row after row: the pairs k < l in
    ``itertools.combinations`` order."""
    return itertools.chain.from_iterable(row[k + 1:] for k, row in enumerate(rows))


class InvariantReport(NamedTuple):
    element: models.Element
    lengths: invariants.LengthSet
    elasticity: Fraction
    c: int
    c_eq: int
    c_adj: int
    c_mon: int
    delta_elem: int
    delta_w: int
    pair_distance: dict
    pair_dist_sup: dict

    def to_json(self, desc: models.MonoidDescriptor) -> dict:
        # pair_tables builds both dicts over the same pairs in the same order.
        keys = [f"{k},{l}" for k, l in self.pair_distance]
        return {
            "element": models.element_to_json(desc, self.element),
            "lengthSet": list(self.lengths.lengths),
            "delta": list(self.lengths.delta()),
            "rho": str(self.elasticity),
            "c": self.c,
            "cEq": self.c_eq,
            "cAdj": self.c_adj,
            "cMon": self.c_mon,
            "deltaElem": self.delta_elem,
            "deltaW": self.delta_w,
            "pairDistance": dict(zip(keys, self.pair_distance.values())),
            "pairDistSup": dict(zip(keys, self.pair_dist_sup.values())),
        }


def report_fiber(desc: models.MonoidDescriptor, el, budget: int) -> factor.FactorSet:
    """Z(el) enumerated to at most the isqrt(TABLE_LIMIT) factorizations
    ``element_report`` accepts; TableTooLarge when that cap stops it."""
    most = math.isqrt(invariants.TABLE_LIMIT)
    try:
        return factor.factorizations(desc, el, min(budget, most))
    except errors.BudgetExceeded:
        if budget <= most:
            raise
        raise errors.TableTooLarge(None, invariants.TABLE_LIMIT) from None
