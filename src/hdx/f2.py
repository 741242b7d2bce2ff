"""GF(2) linear algebra on int bitsets.

Vectors are Python ints; bit i is coordinate i. An echelon basis keeps one
row per pivot, the pivot being the row's lowest set bit. Reducing a vector
clears its pivot bits in ascending order; the result is the unique
representative of its coset that is zero at every pivot, whatever order the
rows were inserted in and whether or not they are fully reduced.
"""

from __future__ import annotations

from typing import Iterator


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit (x must be nonzero)."""
    return (x & -x).bit_length() - 1


class F2Space:
    """Echelon span of a set of bit-vectors, with optional tags.

    Tags ride along under the same XOR combinations as the vectors; they are
    used to carry preimages (e.g. a cochain c with delta(c) = row).

    `add` only reduces the new vector, so earlier rows may keep bits at later
    pivots. The first `rows()` or `tagged_rows()` after an insert
    back-substitutes once; from then until the next insert the rows are fully
    reduced (no row has a set bit at another row's pivot), which makes them
    the unique reduced row echelon basis of the span.
    """

    def __init__(self) -> None:
        self._pivot_rows: dict[int, int] = {}
        self._pivot_tags: dict[int, int] = {}
        self._mask = 0  # one bit per pivot
        self._reduced = True

    @property
    def dim(self) -> int:
        return len(self._pivot_rows)

    def rows(self) -> list[int]:
        """Fully reduced echelon rows ordered by increasing pivot index."""
        self._back_substitute()
        return [self._pivot_rows[p] for p in sorted(self._pivot_rows)]

    def tagged_rows(self) -> list[tuple[int, int]]:
        self._back_substitute()
        return [(self._pivot_rows[p], self._pivot_tags[p]) for p in sorted(self._pivot_rows)]

    def reduce(self, vec: int) -> int:
        """Canonical representative of vec modulo the span."""
        # lowest_bit is inlined here and below: cosystole calls this per element
        mask, rows = self._mask, self._pivot_rows
        hit = vec & mask
        while hit:
            vec ^= rows[(hit & -hit).bit_length() - 1]
            hit = vec & mask
        return vec

    def reduce_tagged(self, vec: int, tag: int = 0) -> tuple[int, int]:
        mask, rows, tags = self._mask, self._pivot_rows, self._pivot_tags
        hit = vec & mask
        while hit:
            p = (hit & -hit).bit_length() - 1
            vec ^= rows[p]
            tag ^= tags[p]
            hit = vec & mask
        return vec, tag

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    def add(self, vec: int, tag: int = 0) -> bool:
        """Insert vec into the span; returns True if the dimension grew."""
        vec, tag = self.reduce_tagged(vec, tag)
        if vec == 0:
            return False
        p = lowest_bit(vec)
        self._pivot_rows[p] = vec
        self._pivot_tags[p] = tag
        self._mask |= 1 << p
        self._reduced = False
        return True

    def _back_substitute(self) -> None:
        """Clear every row's bits at other pivots, highest pivot first.

        Rows with a higher pivot are already fully reduced when a row is
        visited, so XORing them in clears one pivot bit and sets no other.
        """
        if self._reduced:
            return
        rows, tags = self._pivot_rows, self._pivot_tags
        for p in sorted(rows, reverse=True):
            row, tag = rows[p], tags[p]
            for q in iter_bits((row & self._mask) ^ (1 << p)):
                row ^= rows[q]
                tag ^= tags[q]
            rows[p], tags[p] = row, tag
        self._reduced = True


def iter_span_gray(rows: list[int]) -> Iterator[int]:
    """All 2^len(rows) span elements, one XOR apart (Gray-code order)."""
    acc = 0
    yield acc
    for i in range(1, 1 << len(rows)):
        acc ^= rows[lowest_bit(i)]
        yield acc


def iter_bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b
