"""Regular-structure detection, type-graph spectra, and mixing certificates.

A complex is regular when its vertices split into d+1 types with every top
face containing one vertex per type and constant face-extension counts
between type sets. For each pair of types the induced bipartite graph is
biregular; its normalized second eigenvalue is computed by a dense cyclic
Jacobi iteration, and the maximum over pairs certifies one-sided mixing for
all vertex-set pairs, hence skeleton expansion.

Exhaustive skeleton-expansion constants are exact rationals; eigenvalues
and the mixing right-hand side are floats with an explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .caps import check_enumeration
from .core import Complex, Face
from .errors import BadDimension, NotBiregular, NotRegular, NoValidTyping
from .f2 import iter_bits

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
MIXING_SLACK = 1e-9
ALPHA_EXHAUSTIVE_CAP = 1 << 20  # vertex subsets


# -- regular structure --------------------------------------------------------


@dataclass(frozen=True)
class RegularStructure:
    complex: Complex
    types: dict[int, int]  # vertex id -> type in 0..d
    part_sizes: tuple[int, ...]
    table: dict[tuple[frozenset, frozenset], int]  # (I, J) -> constant count

    def vertices_of_type(self, t: int) -> tuple[int, ...]:
        return tuple(v for v in sorted(self.types) if self.types[v] == t)


def _infer_types(X: Complex) -> dict[int, int]:
    """Greedy (d+1)-coloring driven by top-face constraints.

    Forced assignments propagate first; when nothing is forced, the
    canonically first untyped vertex of the canonically first incomplete top
    face receives the smallest type unused in that face. No backtracking.
    """
    d = X.d
    tops = X.faces(d)
    types: dict[int, int] = {}
    while True:
        progress = False
        for top in tops:
            assigned = [(v, types[v]) for v in top if v in types]
            used = [t for _, t in assigned]
            if len(set(used)) != len(used):
                u, v = _clash(top, types)
                raise NoValidTyping(
                    f"vertices {X.vertex_names[u]} and {X.vertex_names[v]} share a "
                    f"top face but were forced to the same type"
                )
            missing = [v for v in top if v not in types]
            if len(missing) == 1:
                types[missing[0]] = min(set(range(d + 1)) - set(used))
                progress = True
        if progress:
            continue
        for top in tops:
            missing = [v for v in top if v not in types]
            if missing:
                used = {types[v] for v in top if v in types}
                types[missing[0]] = min(set(range(d + 1)) - used)
                progress = True
                break
        if not progress:
            return types


def _clash(top: Face, types: dict[int, int]) -> tuple[int, int]:
    seen: dict[int, int] = {}
    for v in top:
        if v in types:
            if types[v] in seen:
                return seen[types[v]], v
            seen[types[v]] = v
    raise AssertionError("no clash found")


def regularity(X: Complex, types: dict[str, int] | None = None) -> RegularStructure:
    """Verify regularity exhaustively, inferring a typing if none is given."""
    d = X.d
    if types is None:
        vtypes = _infer_types(X)
    else:
        vtypes = {}
        for name, t in types.items():
            ids = X.vertex_ids([name])
            vtypes[ids.pop()] = int(t)
    if set(vtypes) != set(range(len(X.vertex_names))):
        raise NoValidTyping("typing does not cover every vertex")
    if not all(0 <= t <= d for t in vtypes.values()):
        raise NoValidTyping(f"types must lie in 0..{d}")

    for top in X.faces(d):
        if sorted(vtypes[v] for v in top) != list(range(d + 1)):
            raise NoValidTyping(
                f"top face {X.tokens_of(top)} does not carry one vertex of each type"
            )

    # counter[(sigma, J)] = number of J-typed faces containing sigma
    faces_by_typeset: dict[frozenset, list[Face]] = {}
    counter: dict[tuple[Face, frozenset], int] = {}
    for k in range(-1, d + 1):
        for tau in X.faces(k):
            J = frozenset(vtypes[v] for v in tau)
            faces_by_typeset.setdefault(J, []).append(tau)
            for size in range(0, k + 2):
                for sigma in combinations(tau, size):
                    key = (sigma, J)
                    counter[key] = counter.get(key, 0) + 1

    table: dict[tuple[frozenset, frozenset], int] = {}
    all_types = list(range(d + 1))
    for jsize in range(0, d + 2):
        for J in map(frozenset, combinations(all_types, jsize)):
            for isize in range(0, jsize + 1):
                for I in map(frozenset, combinations(sorted(J), isize)):
                    ifaces = faces_by_typeset.get(I, [])
                    if not ifaces:
                        continue
                    counts = [counter.get((s, J), 0) for s in ifaces]
                    if len(set(counts)) > 1:
                        bad = next(
                            s for s, c in zip(ifaces, counts) if c != counts[0]
                        )
                        raise NotRegular(I, J, X.tokens_of(bad), counts)
                    table[(I, J)] = counts[0]

    sizes = [0] * (d + 1)
    for v, t in vtypes.items():
        sizes[t] += 1
    return RegularStructure(X, vtypes, tuple(sizes), table)


# -- type-induced bipartite graphs and their spectra ---------------------------


@dataclass(frozen=True)
class BipartiteTypeGraph:
    i: int
    j: int
    left: tuple[int, ...]  # vertex ids of type i
    right: tuple[int, ...]
    matrix: np.ndarray  # adjacency, left block then right block
    left_degree: int
    right_degree: int
    connected: bool

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)


def type_graph(X: Complex, R: RegularStructure, i: int, j: int) -> BipartiteTypeGraph:
    if i == j:
        raise BadDimension("type pair must be distinct")
    if i > j:
        i, j = j, i
    left = R.vertices_of_type(i)
    right = R.vertices_of_type(j)
    pos = {v: p for p, v in enumerate(left)}
    pos.update({v: len(left) + p for p, v in enumerate(right)})
    n = len(left) + len(right)
    a = np.zeros((n, n))
    for (u, v) in X.faces(1):
        tu, tv = R.types[u], R.types[v]
        if {tu, tv} == {i, j}:
            a[pos[u], pos[v]] = 1.0
            a[pos[v], pos[u]] = 1.0
    degrees = a.sum(axis=1)
    left_deg = {int(degrees[pos[v]]) for v in left}
    right_deg = {int(degrees[pos[v]]) for v in right}
    if len(left_deg) != 1 or len(right_deg) != 1:
        raise NotBiregular(
            f"type pair ({i},{j}) has degree sets {sorted(left_deg)} / {sorted(right_deg)}"
        )
    # BFS connectivity
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for w in np.flatnonzero(a[u]):
            if int(w) not in seen:
                seen.add(int(w))
                queue.append(int(w))
    return BipartiteTypeGraph(
        i, j, left, right, a, left_deg.pop(), right_deg.pop(), len(seen) == n
    )


def jacobi_eigh(
    a: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues descending, eigenvectors as columns, reconstruction
    residual in Frobenius norm, final off-diagonal norm).
    """
    a0 = np.array(a, dtype=float)
    a = a0.copy()
    n = a.shape[0]
    v = np.eye(n)

    def _off(mat: np.ndarray) -> float:
        # sum the squared off-diagonal entries directly; the algebraically
        # equal ||A||_F^2 - ||diag||^2 cancels catastrophically near zero
        return math.sqrt(float(((mat - np.diag(np.diag(mat))) ** 2).sum()))

    for _ in range(max_sweeps):
        off = _off(a)
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    off = _off(a)
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    v = v[:, order]
    residual = float(np.linalg.norm(v @ np.diag(vals) @ v.T - a0))
    return vals, v, residual, off


@dataclass(frozen=True)
class SpectralReport:
    pair: tuple[int, int]
    lambda1: float
    second_eigenvalue: float  # raw, before normalization
    lambda2_normalized: float  # max(second/lambda1, 0)
    residual: float
    offdiag: float
    degrees: tuple[int, int]
    connected: bool

    @property
    def lambda1_expected(self) -> float:
        return math.sqrt(self.degrees[0] * self.degrees[1])


def lambda2(G: BipartiteTypeGraph) -> SpectralReport:
    """Normalized second largest adjacency eigenvalue of a type graph."""
    vals, _, residual, off = jacobi_eigh(G.matrix)
    lam1 = float(vals[0])
    second = float(vals[1])
    # a bipartite spectrum is symmetric; clamping at zero keeps the
    # normalized value in [0,1] even when only the trivial pair remains
    normalized = max(second / lam1, 0.0)
    return SpectralReport(
        (G.i, G.j),
        lam1,
        second,
        normalized,
        residual,
        off,
        (G.left_degree, G.right_degree),
        G.connected,
    )


def lambda_max(
    X: Complex, R: RegularStructure
) -> tuple[float, tuple[SpectralReport, ...]]:
    """Largest normalized non-trivial eigenvalue over all type pairs."""
    if X.d < 1:
        raise BadDimension("type graphs need dimension >= 1")
    reports = []
    for i in range(X.d + 1):
        for j in range(i + 1, X.d + 1):
            reports.append(lambda2(type_graph(X, R, i, j)))
    return max(r.lambda2_normalized for r in reports), tuple(reports)


# -- mixing and skeleton expansion --------------------------------------------


@dataclass(frozen=True)
class MixingReport:
    lhs: Fraction  # exact ||E(A,B)||
    rhs: float  # float right-hand side, before slack
    lam: float
    norm_a: Fraction
    norm_b: Fraction
    verdict: str  # pass / marginal / fail

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def _vertex_norm(X: Complex, ids: set[int]) -> Fraction:
    tops = X.top_counts(0)
    return Fraction(sum(tops[v] for v in ids), X.norm_den(0))


def mixing_check(
    X: Complex,
    R: RegularStructure,
    a,
    b,
    lam: float | None = None,
    slack: float = MIXING_SLACK,
) -> MixingReport:
    """One-sided mixing bound for a single pair of vertex sets."""
    if lam is None:
        lam, _ = lambda_max(X, R)
    sa = X.vertex_ids(a)
    sb = X.vertex_ids(b)
    lhs = X.edges_between(sa, sb).norm() if X.d >= 1 else Fraction(0)
    na = _vertex_norm(X, sa)
    nb = _vertex_norm(X, sb)
    prod = float(na) * float(nb)
    rhs = 2.0 * (X.d + 1) / X.d * (prod + lam * math.sqrt(prod))
    f = float(lhs)
    verdict = "pass" if f <= rhs else ("marginal" if f <= rhs + slack else "fail")
    return MixingReport(lhs, rhs, lam, na, nb, verdict)


@dataclass(frozen=True)
class MixingScan:
    pairs: int
    passed: int
    marginal: int
    failed: int
    max_margin: float  # max over pairs of lhs - rhs
    failures: tuple[tuple[int, int], ...]  # (a_mask, b_mask), at most 8


def mixing_check_all(
    X: Complex,
    R: RegularStructure,
    lam: float | None = None,
    slack: float = MIXING_SLACK,
    cap: int | None = None,
    chunk: int = 512,
) -> MixingScan:
    """Exhaustive mixing check over every pair of vertex subsets.

    Vectorized float scan; agreement with mixing_check on individual pairs
    is exercised in the test suite.
    """
    if lam is None:
        lam, _ = lambda_max(X, R)
    n = len(X.vertex_names)
    check_enumeration(4**n, cap, "vertex subset pairs")
    size = 1 << n
    w = np.zeros((n, n))
    for (u, v) in X.faces(1):
        wf = float(X.weight((u, v)))
        w[u, v] = wf
        w[v, u] = wf
    wv = np.array([float(X.weight((v,))) for v in range(n)])
    masks = np.arange(size, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    normv = bits @ wv
    contrib = bits @ w  # contrib[m, v] = sum of w[u, v] for u in m
    inner = np.zeros(size)
    for m in range(1, size):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        inner[m] = inner[rest] + contrib[rest, low]

    coef = 2.0 * (X.d + 1) / X.d
    passed = marginal = failed = 0
    max_margin = -math.inf
    failures: list[tuple[int, int]] = []
    for start in range(0, size, chunk):
        sel = masks[start : start + chunk]
        m1 = bits[sel] @ w @ bits.T
        t3 = inner[sel[:, None] & masks[None, :]]
        lhs = m1 - t3
        prod = normv[sel][:, None] * normv[None, :]
        rhs = coef * (prod + lam * np.sqrt(prod))
        margin = lhs - rhs
        max_margin = max(max_margin, float(margin.max()))
        ok = margin <= 0.0
        marg = (~ok) & (margin <= slack)
        bad = margin > slack
        passed += int(ok.sum())
        marginal += int(marg.sum())
        failed += int(bad.sum())
        if bad.any() and len(failures) < 8:
            for r, c in np.argwhere(bad)[: 8 - len(failures)]:
                failures.append((int(sel[r]), int(c)))
    return MixingScan(size * size, passed, marginal, failed, max_margin, tuple(failures))


@dataclass(frozen=True)
class AlphaReport:
    mode: str  # exhaustive / spectral
    value: Fraction | float
    raw_max: Fraction | None  # exhaustive only, before clamping at zero
    witness: tuple[str, ...] | None  # subset attaining the raw maximum
    spectral_reports: tuple[SpectralReport, ...] | None = None


def skeleton_alpha(
    X: Complex,
    mode: str = "exhaustive",
    cap: int | None = None,
    R: RegularStructure | None = None,
) -> AlphaReport:
    """Least valid skeleton-expansion constant.

    Exhaustive mode maximizes (||E(A,A)||/4 - ||A||^2)/||A|| exactly over
    every nonempty vertex subset and clamps at zero. Spectral mode returns
    the normalized largest non-trivial eigenvalue as a certified constant
    for regular complexes.
    """
    if mode == "spectral":
        if R is None:
            R = regularity(X)
        lam, reports = lambda_max(X, R)
        return AlphaReport("spectral", lam, None, None, reports)
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    n = len(X.vertex_names)
    check_enumeration(1 << n, ALPHA_EXHAUSTIVE_CAP if cap is None else cap, "vertex subsets")
    vt = X.top_counts(0)
    size = 1 << n
    etop = [0] * size
    vtop = [0] * size
    pair_tops = [[0] * n for _ in range(n)]
    if X.d >= 1:
        t1 = X.top_counts(1)
        for idx, (u, v) in enumerate(X.faces(1)):
            pair_tops[u][v] = t1[idx]
            pair_tops[v][u] = t1[idx]
    for m in range(1, size):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        vtop[m] = vtop[rest] + vt[low]
        row = pair_tops[low]
        etop[m] = etop[rest] + sum(row[u] for u in iter_bits(rest))
    den0 = X.norm_den(0)
    den1 = X.norm_den(1) if X.d >= 1 else 1
    best: tuple[Fraction, int] | None = None
    for m in range(1, size):
        na = Fraction(vtop[m], den0)
        val = (Fraction(etop[m], 4 * den1) - na * na) / na
        if best is None or val > best[0]:
            best = (val, m)
    raw, mask = best
    witness = tuple(X.vertex_names[v] for v in iter_bits(mask))
    return AlphaReport("exhaustive", max(raw, Fraction(0)), raw, witness)
