"""GF(2) linear algebra on int bitsets, and the span-enumeration kernel.

Vectors are Python ints; bit i is coordinate i. An echelon basis keeps one
row per pivot, the pivot being the row's lowest set bit. Reducing a vector
clears its pivot bits in ascending order; the result is the unique
representative of its coset that is zero at every pivot, whatever order the
rows were inserted in and whether or not they are fully reduced.

Every exhaustive search in the package (expansion, cosystoles, minimality,
local-minimization moves) enumerates a span with `SpanTable`: element m of
the span of rows r_0..r_{n-1} is off ^ XOR of r_i over the set bits of m,
and m runs in counting order. Elements are numpy arrays of W = ceil(width /
64) little-endian uint64 words, so cochains of any width take the same path.
The span of the low rows is one precomputed table of `SPAN_CHUNK` elements,
and each chunk of the counting range is that table XOR one vector, so memory
stays bounded whatever the span's dimension. `WeightTable` sums one int64
table per byte of an element to get its weighted popcount (the "Four
Russians" method), and `lexmin` reduces a chunk to its least (key, bits)
pairs, comparing multiword bits from the most significant word down.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Elements per kernel block, a power of two; one-word blocks are 128 KB.
# 2^13 ran the 2^17-element benchmark calls 17% slower at the same peak RSS.
SPAN_CHUNK = 1 << 14

_WORD = np.dtype("<u8")


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
        return self.reduce_tagged(vec)[0]

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


def iter_bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def from_words(words: np.ndarray) -> int:
    """The int whose little-endian uint64 words these are."""
    return int.from_bytes(words.astype(_WORD).tobytes(), "little")


class SpanTable:
    """Span elements off ^ XOR_{i in m} rows[i] of a list of width-bit rows.

    The rows need not be independent. The span of the low rows, those at
    the bits of m below SPAN_CHUNK, is tabulated once by doubling; `chunks`
    walks m in blocks of that size aligned on its multiples, and a block is
    the table XOR the rows at the high bits of its start (and off).
    """

    def __init__(self, rows: Sequence[int], width: int):
        self.words = max(1, -(-width // 64))
        self._rows = list(rows)
        low = min(len(self._rows), SPAN_CHUNK.bit_length() - 1)
        self._first = np.zeros((1 << low, self.words), dtype=_WORD)
        for i, row in enumerate(self._rows[:low]):
            self._first[1 << i : 2 << i] = self._first[: 1 << i] ^ self._words(row)

    def chunks(self, lo: int, hi: int, off: int = 0) -> Iterator[tuple[int, np.ndarray]]:
        """(start, (count, W) elements for m = start..) over m in [lo, hi), ascending."""
        size = len(self._first)
        if lo >= hi:
            return
        for base in range(lo - lo % size, hi, size):
            high = off
            for i in iter_bits(base):
                high ^= self._rows[i]
            start, stop = max(lo, base), min(hi, base + size)
            yield start, self._first[start - base : stop - base] ^ self._words(high)

    def _words(self, v: int) -> np.ndarray:
        return np.frombuffer(v.to_bytes(8 * self.words, "little"), dtype=_WORD)


class WeightTable:
    """Weighted popcount sum_{i in e} counts[i] of kernel elements."""

    def __init__(self, counts: Sequence[int]):
        n_bytes = -(-len(counts) // 8)
        per_bit = np.zeros(8 * n_bytes, dtype=np.int64)
        per_bit[: len(counts)] = counts
        self._tables = np.zeros((n_bytes, 256), dtype=np.int64)  # [j, v]: byte j equal to v
        for i in range(8):
            self._tables[:, 1 << i : 2 << i] = self._tables[:, : 1 << i] + per_bit[i::8, None]

    def __call__(self, elems: np.ndarray) -> np.ndarray:
        """int64 weights of contiguous (..., W) elements, shape (...)."""
        data = elems.astype(_WORD, copy=False).view(np.uint8)
        out = np.take(self._tables[0], data[..., 0])
        for j in range(1, len(self._tables)):
            out += np.take(self._tables[j], data[..., j])
        return out


def first_least(tie: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Per row of tie (G, B), the index of the least marked element of elems
    (G, B, W), compared as integers; every row marks at least one."""
    tie = tie.copy()
    for j in reversed(range(elems.shape[-1])):  # most significant word first
        col = elems[..., j]
        least = np.where(tie, col, np.iinfo(_WORD).max).min(axis=-1)
        tie &= col == least[:, None]
    return tie.argmax(axis=-1)


def lexmin(keys: np.ndarray, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the least (key, element) pair: keys (G, B), elems (G, B, W)."""
    least = keys.min(axis=-1)
    idx = first_least(keys == least[:, None], elems)
    return least, elems[np.arange(len(idx)), idx]
