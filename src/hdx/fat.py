"""Fat faces, fat ladders, degenerate faces, and their inequality checks.

Fixing a k-cochain A and a fatness constant eta in (0,1), faces are graded
by how much of the next fat level localizes onto them: level k is A itself,
and a face of dimension i-1 is fat when the localized norm of level i meets
the exact rational threshold eta^(2^(k-i)). Ladders collect the members of A
reachable from a fat face through a chain of fat faces, one dimension at a
time. A (k+1)-face is degenerate when it contains two equal-sized fat faces
meeting in a non-fat face of codimension one.

All thresholds and inequality sides are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cohomology import coboundary
from .core import Cochain, Complex
from .errors import BadDimension, BadEta, BadParam, PreconditionUnverified
from .f2 import iter_bits
from .minimize import is_locally_minimal


def _check_eta(eta: Fraction) -> Fraction:
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise BadEta(f"fatness constant must lie in (0,1), got {eta}")
    return eta


def localized_norm(X: Complex, i: int, level_bits: int, face_idx: int) -> Fraction:
    """Norm, inside the link of the face, of a level of i-faces localized there.

    The face has dimension i-1; the value equals the weighted count of level
    members containing it, divided by (i+1) times the face weight.
    """
    cof = X.up_rows(i - 1)[face_idx] & level_bits
    if cof == 0:
        return Fraction(0)
    s = Cochain(X, i, cof).top_sum()
    return Fraction(
        s * X.norm_den(i - 1), X.norm_den(i) * (i + 1) * X.top_counts(i - 1)[face_idx]
    )


@dataclass(frozen=True)
class FatProfile:
    complex: Complex
    cochain: Cochain
    eta: Fraction
    levels: dict[int, Cochain]  # i -> fat i-faces, i = -1..k
    ladders: dict[int, Cochain]  # i -> members of A reachable from level i
    degenerate: Cochain  # (k+1)-faces containing a dead-end

    @property
    def k(self) -> int:
        return self.cochain.k

    def threshold(self, i: int) -> Fraction:
        """Fatness threshold applied when deciding level i-1 from level i."""
        return self.eta ** (2 ** (self.k - i))

    def ladder_at(self, sigma) -> Cochain:
        """Members of A reachable from one face through fat chains."""
        X = self.complex
        f = X.as_face(sigma)
        level = len(f) - 1
        if level not in self.levels:
            raise BadDimension(f"no fat level at dimension {level}")
        return _climb(X, self.levels, X.cochain(level, [f]))


def _climb(X: Complex, levels: dict[int, Cochain], start: Cochain) -> Cochain:
    """Members of the top level reachable from the fat faces of start, one
    dimension a step through the fat levels."""
    reach = start & levels[start.k]
    for j in range(start.k, max(levels)):
        reach = X.container(reach, j + 1) & levels[j + 1]
    return reach


def fat_profile(X: Complex, A: Cochain, eta: Fraction) -> FatProfile:
    """Compute the fat levels, ladders and degenerate faces for (A, eta)."""
    X.check_bound(A)
    eta = _check_eta(eta)
    k = A.k
    if not 0 <= k <= X.d - 1:
        raise BadDimension(f"cochain dimension {k} outside 0..{X.d - 1}")

    levels: dict[int, Cochain] = {k: A}
    for i in range(k, -1, -1):
        thr = eta ** (2 ** (k - i))
        bits = 0
        src = levels[i].bits
        if src:
            for t in range(X.n_faces(i - 1)):
                if localized_norm(X, i, src, t) >= thr:
                    bits |= 1 << t
        levels[i - 1] = Cochain(X, i - 1, bits)

    ladders = {i: _climb(X, levels, levels[i]) for i in range(-1, k + 1)}

    # two fat j-faces through a non-fat (j-1)-face t meet exactly in t, and
    # their union is a face exactly when it is a common coface of both
    degenerate = X.empty_cochain(k + 1)
    for j in range(0, k + 1):
        fat, fat_prev, up = levels[j].bits, levels[j - 1].bits, X.up_rows(j)
        unions = 0
        for t, cof in enumerate(X.up_rows(j - 1)):
            if (fat_prev >> t) & 1:
                continue
            once = twice = 0
            for a in iter_bits(cof & fat):
                twice |= once & up[a]
                once |= up[a]
            unions |= twice
        degenerate |= X.container(Cochain(X, j + 1, unions), k + 1)

    return FatProfile(X, A, eta, levels, ladders, degenerate)


@dataclass(frozen=True)
class SeepRow:
    i: int
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class SeepReport:
    """Per-level comparison of ladder mass against coboundary plus error terms."""

    k: int
    eta: Fraction
    beta: Fraction
    rows: tuple[SeepRow, ...]
    delta_norm: Fraction
    degenerate_norm: Fraction

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_seep(
    X: Complex,
    A: Cochain,
    eta: Fraction,
    beta: Fraction,
    cap: int | None = None,
) -> SeepReport:
    """Check, per level i, beta/C(k+2,i+1) * ||L(A,i)|| against
    ||dA|| + (k+2)*||L(A,i-1)|| + ||degenerate||, with exact values.

    A must be locally minimal, which is checked first, and beta a lower bound
    for the coboundary expansion of every proper link (the caller supplies
    it, typically the exact measured minimum).
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise BadParam(f"beta must be positive, got {beta}")
    if not is_locally_minimal(X, A, cap):
        raise PreconditionUnverified("cochain is not locally minimal")
    profile = fat_profile(X, A, eta)
    k = A.k
    d_norm = coboundary(A).norm()
    u_norm = profile.degenerate.norm()
    rows = []
    for i in range(0, k + 1):
        lhs = beta * profile.ladders[i].norm() / comb(k + 2, i + 1)
        rhs = d_norm + (k + 2) * profile.ladders[i - 1].norm() + u_norm
        rows.append(SeepRow(i, lhs, rhs))
    return SeepReport(k, profile.eta, beta, tuple(rows), d_norm, u_norm)


@dataclass(frozen=True)
class DegenerateBoundReport:
    """Degenerate-face mass against the linear-in-eta bound."""

    k: int
    eta: Fraction
    alpha_star: Fraction
    alpha_required: Fraction  # eta^(2^(k+1))
    hypothesis_ok: bool
    lhs: Fraction | None
    rhs: Fraction | None

    @property
    def passed(self) -> bool:
        return bool(self.hypothesis_ok and self.lhs is not None and self.lhs <= self.rhs)


def verify_upsilon_bound(
    X: Complex,
    A: Cochain,
    eta: Fraction,
    alpha_star: Fraction,
) -> DegenerateBoundReport:
    """Check ||degenerate|| <= (k+2) * 2^(k+4) * eta * ||A||.

    alpha_star must be the exact measured skeleton-expansion constant,
    maximized over the complex and every link of dimension >= 1; the bound
    is only claimed when alpha_star <= eta^(2^(k+1)), which is verified
    first (exactly) and reported rather than assumed.
    """
    eta = _check_eta(eta)
    alpha_star = Fraction(alpha_star)
    k = A.k
    required = eta ** (2 ** (k + 1))
    if alpha_star > required:
        return DegenerateBoundReport(k, eta, alpha_star, required, False, None, None)
    lhs = fat_profile(X, A, eta).degenerate.norm()
    rhs = (k + 2) * 2 ** (k + 4) * eta * A.norm()
    return DegenerateBoundReport(k, eta, alpha_star, required, True, lhs, rhs)


def admissible_eta(alpha_star: Fraction, k: int, floor: Fraction = Fraction(1, 1000)) -> Fraction:
    """A rational eta in (0,1) with eta^(2^(k+1)) >= alpha_star, near the root."""
    alpha_star = Fraction(alpha_star)
    if alpha_star >= 1:
        raise BadEta(f"no admissible eta below 1 for alpha_star={alpha_star}")
    if alpha_star <= 0:
        return _check_eta(Fraction(floor))
    e = 2 ** (k + 1)
    res = 10**6
    guess = Fraction(max(1, int(float(alpha_star) ** (1.0 / e) * res)), res)
    while guess**e < alpha_star:
        guess += Fraction(1, res)
    guess = max(guess, Fraction(floor))
    return _check_eta(guess)
