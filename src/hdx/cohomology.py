"""F2 coboundary maps, cocycle/coboundary spaces, cosystoles, expansion.

Expansion parameters and cosystoles are computed by an exact coset-structured
brute force over the span kernel of `f2`. For expansion, C^k is the span of
the subspace rows (r of them) followed by the unit vectors at the f non-pivot
positions, so in counting order each run of 2^r consecutive elements is one
coset, and its index c among the cosets names the representative at the free
positions. Each coset is reduced to its least (norm, bits) element; the
coboundary is linear, so its norm per coset comes from a second span over the
coboundaries of the free unit vectors. The least (ratio, bits) over cosets is
decided exactly: the constant den_k / den_up is dropped and ratios are
compared by integer cross-multiplication, in int64 when the products provably
fit and in Python ints otherwise. Work proceeds in chunks of at most
`SPAN_CHUNK` elements whatever the dimensions. A flat scan over all of C^k
gives the same values and witnesses and is kept in the test suite as an
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Literal

import numpy as np

from .caps import check_enumeration
from .core import Cochain, Complex
from .errors import BadDimension
from .f2 import (
    SPAN_CHUNK,
    F2Space,
    SpanTable,
    WeightTable,
    first_least,
    from_words,
    iter_bits,
    lexmin,
)

INFINITE = math.inf

Kind = Literal["cocycles", "coboundaries"]
Mode = Literal["coboundary", "cocycle"]


def coboundary(A: Cochain) -> Cochain:
    """The (k+1)-faces containing an odd number of members of A."""
    X = A.complex
    if A.k >= X.d:
        raise BadDimension(f"no coboundary map out of dimension {X.d}")
    up = X.up_rows(A.k)
    bits = 0
    for i in iter_bits(A.bits):
        bits ^= up[i]
    return Cochain(X, A.k + 1, bits)


@dataclass(frozen=True)
class F2Basis:
    """Row-reduced basis of a cocycle or coboundary space.

    For coboundary bases, ``preimages[i]`` is a (k-1)-cochain whose
    coboundary equals ``rows[i]``.
    """

    complex: Complex
    k: int
    kind: Kind
    rows: tuple[Cochain, ...]
    preimages: tuple[Cochain, ...] | None
    _space: F2Space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, A: Cochain) -> bool:
        self.complex.check_bound(A, self.k)
        return self._space.contains(A.bits)

    def reduce(self, A: Cochain) -> Cochain:
        """Canonical coset representative of A modulo this space."""
        self.complex.check_bound(A, self.k)
        return Cochain(self.complex, self.k, self._space.reduce(A.bits))

    def row_bits(self) -> list[int]:
        return [r.bits for r in self.rows]

    @cached_property
    def span(self) -> SpanTable:
        """The rows as a span-kernel table; built once per memoized basis."""
        return SpanTable(self.row_bits(), self.complex.n_faces(self.k))

    @cached_property
    def least_weight(self) -> int:
        """Least top-count sum of a nonzero element (0 for the zero space)."""
        weigh = self.complex.weight_table(self.k)
        chunks = self.span.chunks(1, 1 << self.dim)
        return min((int(weigh(e).min()) for _, e in chunks), default=0)


def space_basis(X: Complex, k: int, kind: Kind) -> F2Basis:
    """Echelon basis of ker(delta^k) or im(delta^(k-1)); memoized per complex.

    One tagged elimination of delta^j fills two memo entries, Z^j and
    B^(j+1), whichever is asked for first. The images delta(e_i), i in X(j)
    ascending, are reduced with tag e_i: those that stay independent give the
    rows of B^(j+1) and their tags its preimages; the tags of those that
    reduce to zero span Z^j. At j = d delta is zero, so every tag lands in
    the kernel.
    """
    if kind not in ("cocycles", "coboundaries"):
        raise ValueError(f"unknown kind {kind!r}")
    lo = -1 if kind == "cocycles" else 0
    if not lo <= k <= X.d:
        raise BadDimension(f"no {kind} basis at dimension {k} (valid {lo}..{X.d})")
    key = ("basis", k, kind)
    memo = X.memo
    if key in memo:
        return memo[key]

    j = k if kind == "cocycles" else k - 1
    image, kernel = F2Space(), F2Space()
    for i, img in enumerate(X.up_rows(j)):
        img, tag = image.reduce_tagged(img, 1 << i)
        if img:
            image.add(img, tag)
        else:
            kernel.add(tag)
    rows = tuple(Cochain(X, j, v) for v in kernel.rows())
    memo[("basis", j, "cocycles")] = F2Basis(X, j, "cocycles", rows, None, kernel)
    if j < X.d:
        pairs = image.tagged_rows()
        rows = tuple(Cochain(X, j + 1, v) for v, _ in pairs)
        preimages = tuple(Cochain(X, j, t) for _, t in pairs)
        memo[("basis", j + 1, "coboundaries")] = F2Basis(
            X, j + 1, "coboundaries", rows, preimages, image
        )
    return memo[key]


def cohomology_dim(X: Complex, k: int) -> int:
    """dim H^k = dim Z^k - dim B^k (coefficients in F2)."""
    z = space_basis(X, k, "cocycles").dim
    b = space_basis(X, k, "coboundaries").dim if k >= 0 else 0
    return z - b


@dataclass(frozen=True)
class CosystoleReport:
    k: int
    value: Fraction | float  # math.inf when Z^k = B^k
    witness: Cochain | None


def cosystole(X: Complex, k: int, cap: int | None = None) -> CosystoleReport:
    """Minimum norm over cocycles that are not coboundaries.

    At the top dimension every cochain is a cocycle, so k = d is allowed."""
    if not 0 <= k <= X.d:
        raise BadDimension(f"cosystole dimension {k} outside 0..{X.d}")
    zbasis = space_basis(X, k, "cocycles")
    bbasis = space_basis(X, k, "coboundaries")
    check_enumeration(1 << zbasis.dim, cap, f"cocycle space at dimension {k}")
    # Z^k \ B^k is every element of span(B rows, C rows) with a nonzero
    # C part, where C spans the cocycle rows reduced modulo B^k.
    complement = F2Space()
    for z in zbasis.rows:
        complement.add(bbasis.reduce(z).bits)
    rows = bbasis.row_bits() + complement.rows()
    span = SpanTable(rows, X.n_faces(k))
    weigh = X.weight_table(k)
    best: tuple[int, int] | None = None  # (top_sum, bits)
    for _, elems in span.chunks(1 << bbasis.dim, 1 << len(rows)):
        t, bits = lexmin(weigh(elems)[None], elems[None])
        cand = (int(t[0]), from_words(bits[0]))
        if best is None or cand < best:
            best = cand
    if best is None:
        return CosystoleReport(k, INFINITE, None)
    value = Fraction(best[0], X.norm_den(k))
    return CosystoleReport(k, value, Cochain(X, k, best[1]))


@dataclass(frozen=True)
class ExpansionReport:
    k: int
    mode: Mode
    value: Fraction | float  # math.inf when C^k equals the subspace
    witness: Cochain | None


def expansion(X: Complex, k: int, mode: Mode, cap: int | None = None) -> ExpansionReport:
    """Coboundary or cocycle expansion parameter at dimension k.

    Minimizes ||delta(A)|| / dist(A, S) over A outside S, where S is B^k
    (mode "coboundary") or Z^k (mode "cocycle"). The witness returned is the
    minimum-norm element of the minimizing coset.
    """
    if mode not in ("coboundary", "cocycle"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= k <= X.d - 1:
        raise BadDimension(f"expansion dimension {k} outside 0..{X.d - 1}")
    n = X.n_faces(k)
    check_enumeration(1 << n, cap, f"cochain space at dimension {k}")

    basis = space_basis(X, k, "coboundaries" if mode == "coboundary" else "cocycles")
    rows = basis.row_bits()
    pivot_set = {(r & -r).bit_length() - 1 for r in rows}
    free = [i for i in range(n) if i not in pivot_set]

    r, n_cosets = len(rows), 1 << len(free)
    span = SpanTable(rows + [1 << i for i in free], n)
    up = X.up_rows(k)
    dspan = SpanTable([up[i] for i in free], X.n_faces(k + 1))
    weigh, weigh_up = X.weight_table(k), X.weight_table(k + 1)

    best: tuple[Fraction, int] | None = None  # (d_top / coset norm, witness bits)
    per_batch = max(1, SPAN_CHUNK >> r)
    c0 = 1
    while c0 < n_cosets:
        c1 = min(c0 - c0 % per_batch + per_batch, n_cosets)  # ends on a chunk boundary
        norms, mins = _coset_minima(span, weigh, r, c0, c1)
        d_tops = weigh_up(np.concatenate([e for _, e in dspan.chunks(c0, c1)]))
        i = _least_ratio(d_tops, norms, mins)
        cand = (Fraction(int(d_tops[i]), int(norms[i])), from_words(mins[i]))
        if best is None or cand < best:
            best = cand
        c0 = c1
    if best is None:
        return ExpansionReport(k, mode, INFINITE, None)
    value = best[0] * Fraction(X.norm_den(k), X.norm_den(k + 1))
    return ExpansionReport(k, mode, value, Cochain(X, k, best[1]))


def _coset_minima(
    span: SpanTable, weigh: WeightTable, r: int, c0: int, c1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least (norm, bits) of each coset c0..c1-1: elements c*2^r .. (c+1)*2^r - 1.

    The cosets lie in one chunk, or c1 = c0 + 1 and the coset spans whole
    chunks; it is then reduced chunk by chunk, then over the chunk minima."""
    size = min(1 << r, SPAN_CHUNK)
    norms, mins = [], []
    for _, elems in span.chunks(c0 << r, c1 << r):
        elems = elems.reshape(-1, size, span.words)
        t, e = lexmin(weigh(elems), elems)
        norms.append(t)
        mins.append(e)
    if len(norms) == 1:
        return norms[0], mins[0]
    return lexmin(np.concatenate(norms)[None], np.concatenate(mins)[None])


def _least_ratio(p: np.ndarray, q: np.ndarray, elems: np.ndarray) -> int:
    """Index of the least (p/q, element) pair, q > 0, decided in integers.

    A float argmin only picks where to start; a candidate stays only when no
    p*q_i < p_i*q remains. Products go to Python ints unless int64 holds them.
    """
    if int(p.max()) * int(q.max()) >= 1 << 63:
        p, q = p.astype(object), q.astype(object)
    ratio = p / q
    i = int(np.argmin(ratio))
    while True:
        less = np.flatnonzero(p * q[i] < p[i] * q)
        if not len(less):
            break
        i = int(less[np.argmin(ratio[less])])
    tie = (p * q[i] == p[i] * q).astype(bool)
    return int(first_least(tie[None], elems[None])[0])
