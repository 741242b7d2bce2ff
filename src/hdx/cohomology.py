"""F2 coboundary maps, cocycle/coboundary spaces, cosystoles, expansion.

Expansion parameters and cosystoles are computed by an exact coset-structured
brute force: enumerate canonical representatives of C^k modulo the subspace
(coboundaries or cocycles), and within each coset find the minimum-norm
element. The norm of the coboundary is constant on each coset, so one
division per coset suffices. A flat scan over all of C^k gives the same
values and is kept in the test suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .caps import check_enumeration
from .core import Cochain, Complex
from .errors import BadDimension
from .f2 import F2Space, iter_bits, iter_span_gray

INFINITE = math.inf

Kind = Literal["cocycles", "coboundaries"]
Mode = Literal["coboundary", "cocycle"]


def coboundary(A: Cochain) -> Cochain:
    """The (k+1)-faces containing an odd number of members of A."""
    X = A.complex
    if A.k >= X.d:
        raise BadDimension(f"no coboundary map out of dimension {X.d}")
    up = X._up[A.k]
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
    if key in X._cache:
        return X._cache[key]

    j = k if kind == "cocycles" else k - 1
    image, kernel = F2Space(), F2Space()
    up = X._up[j] if j < X.d else [0] * X.n_faces(j)
    for i, img in enumerate(up):
        img, tag = image.reduce_tagged(img, 1 << i)
        if img:
            image.add(img, tag)
        else:
            kernel.add(tag)
    rows = tuple(Cochain(X, j, v) for v in kernel.rows())
    X._cache[("basis", j, "cocycles")] = F2Basis(X, j, "cocycles", rows, None, kernel)
    if j < X.d:
        pairs = image.tagged_rows()
        rows = tuple(Cochain(X, j + 1, v) for v, _ in pairs)
        preimages = tuple(Cochain(X, j, t) for _, t in pairs)
        X._cache[("basis", j + 1, "coboundaries")] = F2Basis(
            X, j + 1, "coboundaries", rows, preimages, image
        )
    return X._cache[key]


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
    tops = X.top_counts(k)
    best: tuple[int, int] | None = None  # (top_sum, bits)
    for z in iter_span_gray(zbasis.row_bits()):
        if z == 0 or bbasis._space.contains(z):
            continue
        t = sum(tops[i] for i in iter_bits(z))
        cand = (t, z)
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

    tops = X.top_counts(k)
    den_k = X.norm_den(k)
    den_up = X.norm_den(k + 1)
    up = X._up[k]

    best: tuple[Fraction, int] | None = None  # (ratio, witness bits)
    for c in range(1, 1 << len(free)):
        rep = 0
        for t in iter_bits(c):
            rep |= 1 << free[t]
        db = 0
        for i in iter_bits(rep):
            db ^= up[i]
        d_top = sum(X.top_counts(k + 1)[i] for i in iter_bits(db))
        coset_best: tuple[int, int] | None = None
        for s in iter_span_gray(rows):
            cand = rep ^ s
            t = sum(tops[i] for i in iter_bits(cand))
            item = (t, cand)
            if coset_best is None or item < coset_best:
                coset_best = item
        ratio = Fraction(d_top * den_k, den_up * coset_best[0])
        item = (ratio, coset_best[1])
        if best is None or item < best:
            best = item
    if best is None:
        return ExpansionReport(k, mode, INFINITE, None)
    return ExpansionReport(k, mode, best[0], Cochain(X, k, best[1]))
