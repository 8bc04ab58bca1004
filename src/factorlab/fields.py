"""Small values packed in one int and compared fieldwise by whole-int operations:
the rows of ``FactorSet.distance_table`` and the gap tables of ``recurrence``."""

from __future__ import annotations

import functools
from array import array


class Fields:
    """``count`` values up to ``top`` packed in one int, value j in the
    field at bit ``width`` * j, each field the fewest whole bytes that also
    hold FAR, all of a field's bits but its top one. With the top bits
    clear, (x | HIGH) - y borrows out of no field and keeps the top bit
    where x >= y, so ``min`` and ``max`` act on every field at once (SWAR)."""

    def __init__(self, top: int, count: int):
        self.top, self.count = top, count
        self.nbytes = next(b for b in (1, 2, 4, 8) if top < (1 << 8 * b - 1) - 1)
        self.width, self.code = 8 * self.nbytes, " BH I   Q"[self.nbytes]
        self.far = (1 << self.width - 1) - 1
        self.ones = int.from_bytes(b"\1".ljust(self.nbytes, b"\0") * count, "little")
        self.high = self.ones << self.width - 1

    def min(self, x: int, y: int) -> int:
        ge = ((x | self.high) - y) & self.high
        return x ^ (x ^ y) & ge - (ge >> self.width - 1)

    def max(self, x: int, y: int) -> int:
        ge = ((x | self.high) - y) & self.high
        return y ^ (x ^ y) & ge - (ge >> self.width - 1)

    def pack(self, values) -> int:
        return int.from_bytes(array(self.code, values), "little")

    def unpack(self, x: int) -> array:
        return array(self.code, x.to_bytes(self.count * self.nbytes, "little"))


@functools.lru_cache(maxsize=256)
def packing(top: int, count: int) -> Fields:
    """The Fields of ``count`` values up to ``top``, built once for each."""
    return Fields(top, count)
