"""Minimality tests and the constructive local-minimization procedure.

A cochain is minimal if no coboundary shift lowers its norm, and locally
minimal if each localization into a link is minimal there, that is if no
link-coboundary move lowers its norm. Both questions run one shift scan,
`_first_lighter_shift`; local minimality is the move search finding no move.
Local minimization repeatedly applies the canonically-first strictly
improving link-coboundary move; the integer numerator of the norm strictly
decreases, which bounds the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .caps import check_enumeration
from .cohomology import F2Basis, coboundary, space_basis
from .core import Cochain, Complex, Face
from .errors import BadDimension
from .f2 import iter_bits


def _first_lighter_shift(basis: F2Basis, A: Cochain) -> int | None:
    """First m >= 1 in counting order whose shift of A by the span element m
    of `basis` (B^k of A's complex) is strictly lighter than A, or None."""
    weigh = basis.complex.weight_table(A.k)
    base = A.top_sum()
    for lo, shifted in basis.span.chunks(1, 1 << basis.dim, A.bits):
        better = weigh(shifted) < base
        if better.any():
            return lo + int(better.argmax())
    return None


def is_minimal(X: Complex, A: Cochain, cap: int | None = None) -> bool:
    """True iff no element of B^k strictly lowers the norm of A."""
    X.check_bound(A)
    if A.k == -1:
        return True  # B^(-1) is trivial
    basis = space_basis(X, A.k, "coboundaries")
    check_enumeration(1 << basis.dim, cap, f"coboundary space at dimension {A.k}")
    return _first_lighter_shift(basis, A) is None


def _candidate_sites(X: Complex, A: Cochain) -> list[Face]:
    """Nonempty faces with a nonempty localization of A, i.e. the subfaces of
    its members, by dimension then canonical order (the order of X.faces)."""
    seen: set[Face] = set()
    for f in A.faces():
        for size in range(1, A.k + 1):
            seen.update(combinations(f, size))
    return sorted(seen, key=lambda f: (len(f), f))


def is_locally_minimal(X: Complex, A: Cochain, cap: int | None = None) -> bool:
    """True iff every localization of A is minimal in its link, that is iff
    no link coboundary move lowers the norm of A."""
    X.check_bound(A)
    return _first_improving_move(X, A, cap) is None


@dataclass(frozen=True)
class MinimizeTrace:
    initial: Cochain
    final: Cochain
    gamma: Cochain  # final = initial + coboundary(gamma)
    steps: tuple[tuple[Face, Cochain], ...]  # (site face, link corrector)


def _first_improving_move(
    X: Complex, A: Cochain, cap: int | None
) -> tuple[Face, Cochain] | None:
    """First (site, corrector) strictly lowering a localized norm.

    Sites are the faces with a nonempty localization, scanned by dimension
    ascending then canonical face order; candidate link coboundaries in
    echelon-combination counting order.
    """
    for sigma in _candidate_sites(X, A):
        loc = X.localize(sigma, A)
        link = X.link(sigma)
        basis = space_basis(link, loc.k, "coboundaries")
        check_enumeration(
            1 << basis.dim, cap, lambda: f"link coboundary space at {X.tokens_of(sigma)}"
        )
        # a shift s lowers the norm only if w(s) < 2 w(loc & s) <= 2 w(loc)
        if basis.least_weight >= 2 * loc.top_sum():
            continue
        m = _first_lighter_shift(basis, loc)
        if m is not None:
            c_bits = 0
            for i in iter_bits(m):
                c_bits ^= basis.preimages[i].bits
            return sigma, Cochain(link, loc.k - 1, c_bits)
    return None


def locally_minimize(X: Complex, A: Cochain, cap: int | None = None) -> MinimizeTrace:
    """Drive A to a locally minimal cochain by coboundary corrections.

    The returned trace satisfies final = initial + coboundary(gamma),
    ||final|| <= ||initial||, and the step count is bounded by the integer
    norm numerator of the initial cochain.
    """
    X.check_bound(A)
    if A.k < 0:
        raise BadDimension("local minimization needs a cochain of dimension >= 0")
    initial = A
    gamma = X.empty_cochain(A.k - 1)
    steps: list[tuple[Face, Cochain]] = []
    budget = initial.top_sum()
    while True:
        move = _first_improving_move(X, A, cap)
        if move is None:
            break
        sigma, corrector = move
        lifted = X.lift(sigma, corrector)
        new = A + coboundary(lifted)
        if not new.top_sum() < A.top_sum():
            raise AssertionError("improving move failed to lower the norm")
        A = new
        gamma = gamma + lifted
        steps.append((sigma, corrector))
        if len(steps) > budget:
            raise AssertionError("step count exceeded the integer decrease bound")
    return MinimizeTrace(initial, A, gamma, tuple(steps))
