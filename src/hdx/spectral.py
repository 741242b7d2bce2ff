"""Regular-structure detection, type-graph spectra, and mixing certificates.

A complex is regular when its vertices split into d+1 types with every top
face containing one vertex per type and constant face-extension counts
between type sets. Without a given typing, a greedy sweep over the top faces
infers one; each top face keeps its typed-vertex count and used-type bitmask,
so a sweep visits only the faces a new typing left with a clash or a single
untyped vertex, and the whole inference is linear in the top faces up to a
heap's logarithm. The extension counts are read off the top faces alone, each
a row of vertices in type order: one np.unique per type set indexes its faces,
and one bincount per pair of type sets counts the extensions of each face.
For each pair of types the induced bipartite graph is one biadjacency matrix,
built from the edge array, and is biregular; its normalized second eigenvalue
is a singular value of that matrix from one LAPACK SVD, certified by the
reconstruction residual, and the maximum over pairs certifies one-sided mixing
for all vertex-set pairs, hence skeleton expansion.
Both subset scans read one exact table of integer top counts per subset:
skeleton-expansion constants are exact rationals, and a mixing margin rounds
only in its eigenvalue term, so exact ties never fail. The exhaustive mixing
scan is sign-first: the integer part E = N L - v_A v_B of every margin comes
from one BLAS product, in float32 while all its partial sums stay below 2^24
(so it is exact), and since lam >= 0 a pair with E <= 0 cannot fail. Only
the pairs with E > 0, usually none, get a float64 margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, combinations

import numpy as np

from .caps import check_enumeration
from .core import Complex, Face
from .errors import BadDimension, BadParam, NotBiregular, NotRegular, NoValidTyping
from .f2 import iter_bits

MIXING_SLACK = 1e-9
SUBSET_BLOCK = 1 << 17  # subsets, or subset pairs, per vectorized block
FLOAT32_EXACT = 1 << 24  # float32 holds every integer of smaller absolute value


# -- regular structure --------------------------------------------------------


@dataclass(frozen=True)
class RegularStructure:
    complex: Complex
    types: dict[int, int]  # vertex id -> type in 0..d
    part_sizes: tuple[int, ...]
    table: dict[tuple[frozenset, frozenset], int]  # (I, J) -> constant count

    def vertices_of_type(self, t: int) -> tuple[int, ...]:
        return tuple(v for v in sorted(self.types) if self.types[v] == t)


def _face_array(X: Complex, k: int) -> np.ndarray:
    """The k-faces of X (k >= 0) as the rows of a read-only int64 array, in
    canonical order; built once per complex."""
    if ("face_array", k) not in X.memo:
        F = np.fromiter(chain.from_iterable(X.faces(k)), np.int64, X.n_faces(k) * (k + 1))
        F.flags.writeable = False
        X.memo["face_array", k] = F.reshape(-1, k + 1)
    return X.memo["face_array", k]


def _infer_types(X: Complex) -> dict[int, int]:
    """Greedy (d+1)-coloring driven by top-face constraints.

    Sweeps visit the top faces in canonical order. A visited face whose typed
    vertices share a type raises NoValidTyping; one with a single untyped
    vertex gives it the smallest type unused in the face. After a sweep that
    typed nothing, the canonically first untyped vertex of the canonically
    first incomplete top face gets the smallest type unused in that face, and
    a new sweep starts. No backtracking.

    Each top face keeps its typed-vertex count and used-type bitmask, and a
    sweep visits only the faces that a typing since their last visit left
    with a clash or a single untyped vertex; a visit to any other face does
    nothing. Typing a vertex queues such a face in this sweep if it comes
    later, else in the next sweep.
    """
    d = X.d
    tops = X.faces(d)
    star: list[list[int]] = [[] for _ in X.vertex_names]
    for i, top in enumerate(tops):
        for v in top:
            star[v].append(i)
    count = [0] * len(tops)  # typed vertices of each top face
    used = [0] * len(tops)  # bitmask of their types
    types: dict[int, int] = {}
    # this sweep's visits as a heap (a sorted list is one); at d = 0 every top
    # face has a single untyped vertex from the start
    now = list(range(len(tops))) if d == 0 else []
    later: set[int] = set()  # the next sweep's visits

    def give(i: int, at: int) -> None:
        """Type the first untyped vertex of top face i, during the visit of
        face at (-1 between sweeps)."""
        v = next(u for u in tops[i] if u not in types)
        bit = ~used[i] & (used[i] + 1)  # the lowest type unused in face i
        types[v] = bit.bit_length() - 1
        for f in star[v]:
            count[f] += 1
            # a visit does something only to a face with a clash or a single
            # untyped vertex
            if count[f] == d or used[f] & bit:
                if f > at:
                    heappush(now, f)
                elif f < at:
                    later.add(f)
            used[f] |= bit

    first = 0  # every top face before it is complete
    while True:
        while now:
            i = heappop(now)
            if used[i].bit_count() != count[i]:
                u, v = _clash(tops[i], types)
                raise NoValidTyping(
                    f"vertices {X.vertex_names[u]} and {X.vertex_names[v]} share a "
                    f"top face but were forced to the same type"
                )
            if count[i] == d:
                give(i, i)
        if later:
            now.extend(sorted(later))
            later.clear()
            continue
        while first < len(tops) and count[first] > d:
            first += 1
        if first == len(tops):
            return types
        give(first, -1)


def _clash(top: Face, types: dict[int, int]) -> tuple[int, int]:
    seen: dict[int, int] = {}
    for v in top:
        if v in types:
            if types[v] in seen:
                return seen[types[v]], v
            seen[types[v]] = v
    raise AssertionError("no clash found")


def regularity(X: Complex, types: dict[str, int] | None = None) -> RegularStructure:
    """Verify regularity exhaustively, inferring a typing if none is given.

    table[(I, J)] is the number of J-typed faces through each I-typed face.
    Every face lies in a top face, and a top face has one vertex of each type,
    so with the top-face columns in type order its S-face is its columns S.
    index[S] ranks the S-face of each top face among all S-faces (np.unique on
    index[S minus its last type] * n + the vertex of that type), and first[S]
    is one top face through each S-face: the J-faces through each I-face are
    one bincount of index[I] over first[J].
    """
    d = X.d
    n = len(X.vertex_names)
    if types is None:
        vtypes = _infer_types(X)
    else:
        vtypes = {X.vertex_ids([name]).pop(): int(t) for name, t in types.items()}
    if set(vtypes) != set(range(n)):
        raise NoValidTyping("typing does not cover every vertex")
    if not all(0 <= t <= d for t in vtypes.values()):
        raise NoValidTyping(f"types must lie in 0..{d}")

    type_of = np.array([vtypes[v] for v in range(n)], dtype=np.int64)
    tops = _face_array(X, d)
    by_type = np.full_like(tops, -1)  # by_type[:, t] is the type-t vertex of each top face
    np.put_along_axis(by_type, type_of[tops], tops, axis=1)
    wrong = np.flatnonzero((by_type < 0).any(axis=1))  # a repeated type leaves a slot at -1
    if wrong.size:
        raise NoValidTyping(
            f"top face {X.tokens_of(X.faces(d)[wrong[0]])} does not carry one vertex of each type"
        )

    type_sets = [T for size in range(d + 2) for T in combinations(range(d + 1), size)]
    index = {(): np.zeros(len(tops), dtype=np.int64)}
    first = {(): np.zeros(1, dtype=np.int64)}
    for S in type_sets[1:]:  # keys stay below n_top * n
        keys = index[S[:-1]] * n + by_type[:, S[-1]]
        _, first[S], index[S] = np.unique(keys, return_index=True, return_inverse=True)

    table: dict[tuple[frozenset, frozenset], int] = {}
    for J in type_sets:
        for size in range(len(J) + 1):
            for I in combinations(J, size):
                if size == 0:
                    count = len(first[J])
                elif size == len(J):
                    count = 1
                else:
                    seen = np.bincount(index[I][first[J]])
                    count = int(seen[0])
                    if (seen != count).any():
                        # canonical order of the I-faces; name the first whose count differs
                        faces = np.sort(by_type[first[I]][:, I], axis=1).tolist()
                        pairs = sorted(zip(map(tuple, faces), seen.tolist()))
                        face = next(f for f, c in pairs if c != pairs[0][1])
                        raise NotRegular(I, J, X.tokens_of(face), [c for _, c in pairs])
                table[(frozenset(I), frozenset(J))] = count

    sizes = np.bincount(type_of, minlength=d + 1).tolist()
    return RegularStructure(X, vtypes, tuple(sizes), table)


# -- type-induced bipartite graphs and their spectra ---------------------------


@dataclass(frozen=True)
class BipartiteTypeGraph:
    i: int
    j: int
    left: tuple[int, ...]  # vertex ids of type i
    right: tuple[int, ...]
    biadjacency: np.ndarray  # float64, a row per left and a column per right vertex
    left_degree: int
    right_degree: int
    connected: bool


def type_graph(X: Complex, R: RegularStructure, i: int, j: int) -> BipartiteTypeGraph:
    """The bipartite graph of the edges between types i and j as its biadjacency
    matrix, its degrees (the row and column sums), and whether it is connected:
    a biregular graph is when a frontier walk over the matrix in booleans from
    left vertex 0 reaches every right vertex."""
    if i == j:
        raise BadDimension("type pair must be distinct")
    if not (0 <= i <= X.d and 0 <= j <= X.d):
        raise BadDimension(f"types must lie in 0..{X.d}, got ({i},{j})")
    if i > j:
        i, j = j, i
    u, v = _face_array(X, 1).T
    bit = np.zeros(len(X.vertex_names), dtype=np.int64)
    bit[list(R.types)] = [1 << t for t in R.types.values()]
    left = (bit == 1 << i).nonzero()[0]
    right = (bit == 1 << j).nonzero()[0]
    nl, nr = len(left), len(right)
    # the flat index of a matrix entry is the row part of its left end plus the
    # column part of its right end
    pos = np.zeros(len(bit), dtype=np.int64)
    pos[left] = np.arange(nl) * nr
    pos[right] = np.arange(nr)
    adj = np.zeros(nl * nr, dtype=bool)
    adj[(pos[u] + pos[v])[(bit[u] | bit[v]) == (1 << i | 1 << j)]] = True
    adj = adj.reshape(nl, nr)
    left_deg = set(adj.sum(1).tolist())
    right_deg = set(adj.sum(0).tolist())
    if len(left_deg) != 1 or len(right_deg) != 1:
        raise NotBiregular(
            f"type pair ({i},{j}) has degree sets {sorted(left_deg)} / {sorted(right_deg)}"
        )
    reach = adj[0]  # the right vertices reached from left vertex 0
    size, last = np.count_nonzero(reach), -1
    while last < size < nr:
        reach = (adj @ reach) @ adj
        size, last = np.count_nonzero(reach), size
    return BipartiteTypeGraph(
        i, j, tuple(left.tolist()), tuple(right.tolist()), adj.astype(float),
        left_deg.pop(), right_deg.pop(), bool(size == nr),
    )


@dataclass(frozen=True)
class SpectralReport:
    pair: tuple[int, int]
    lambda1: float
    lambda2_normalized: float  # second/lambda1
    residual: float
    degrees: tuple[int, int]
    connected: bool

    @property
    def lambda1_expected(self) -> float:
        return math.sqrt(self.degrees[0] * self.degrees[1])


def lambda2(G: BipartiteTypeGraph) -> SpectralReport:
    """Normalized second largest adjacency eigenvalue of a type graph.

    The adjacency eigenvalues of a bipartite graph are plus and minus the
    singular values s of its biadjacency matrix B, and zeros, so the largest
    is s[0] and the second s[1] (0 when a side has one vertex). One thin SVD
    gives them, certified by the reconstruction residual ||U diag(s) V^T - B||.
    """
    u, s, vt = np.linalg.svd(G.biadjacency, full_matrices=False)
    residual = float(np.linalg.norm((u * s) @ vt - G.biadjacency))
    lam1 = float(s[0])
    second = float(s[1]) if len(s) > 1 else 0.0
    return SpectralReport(
        (G.i, G.j),
        lam1,
        second / lam1,
        residual,
        (G.left_degree, G.right_degree),
        G.connected,
    )


def lambda_max(
    X: Complex, R: RegularStructure
) -> tuple[float, tuple[SpectralReport, ...]]:
    """Largest normalized non-trivial eigenvalue over all type pairs."""
    if X.d < 1:
        raise BadDimension("type graphs need dimension >= 1")
    reports = [lambda2(type_graph(X, R, i, j)) for i, j in combinations(range(X.d + 1), 2)]
    return max(r.lambda2_normalized for r in reports), tuple(reports)


# -- mixing and skeleton expansion --------------------------------------------


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """out[m] = sum of the rows w[i] over the set bits i of m, as int64."""
    out = np.zeros((1 << len(w),) + w.shape[1:], dtype=np.int64)
    for i, x in enumerate(w):
        out[1 << i : 2 << i] = out[: 1 << i] + x
    return out


def _top_weights(X: Complex) -> tuple[np.ndarray, np.ndarray]:
    """The top counts of each vertex, and of each edge as a symmetric matrix."""
    n = len(X.vertex_names)
    tops = np.array(X.top_counts(0), dtype=np.int64)
    pair = np.zeros((n, n), dtype=np.int64)
    if X.d >= 1:
        u, v = _face_array(X, 1).T
        pair[u, v] = pair[v, u] = X.top_counts(1)
    return tops, pair


def _subset_blocks(tops: np.ndarray, pair: np.ndarray, k: int):
    """Yield (lo, vtop, inner) for the blocks lo .. lo + 2^k - 1 of vertex
    subsets in ascending order: the exact top counts of each subset and of its
    inner edges, from _top_weights. A subset is its low bits l plus the high
    vertices H of lo, so inner = inner_low[l] + edges(H, l) + inner[H]; the low
    tables are built once and each block adds only its high-vertex terms."""
    inner_low = np.zeros(1 << k, dtype=np.int64)
    for i in range(k):  # adding i to a subset below 2^i adds its edges into it
        inner_low[1 << i : 2 << i] = inner_low[: 1 << i] + _subset_sums(pair[i, :i])
    vtop_low = _subset_sums(tops[:k])
    yield 0, vtop_low, inner_low
    for lo in range(1 << k, 1 << len(tops), 1 << k):
        high = list(iter_bits(lo))
        yield (
            lo,
            vtop_low + tops[high].sum(),
            inner_low + _subset_sums(pair[high, :k].sum(0)) + pair[np.ix_(high, high)].sum() // 2,
        )


def _mixing_margin(X: Complex, edge_tops, va, vb, lam: float):
    """||E(A,B)|| minus the mixing right-hand side, from integer top counts.

    With N top faces, top counts L of E(A,B) and v_A of A, the margin is
    2 (N L - v_A v_B - (d+1) N lam sqrt(v_A v_B)) / (d(d+1)N^2). N L - v_A v_B
    is exact, in float64 too while (d+1)N < 2^26 (the default 4^n cap keeps
    n <= 12, so N <= 924): a tie gives 0.0 at lam = 0, never a positive margin.
    """
    d, N = X.d, X.n_top
    lam_term = (d + 1) * N * lam * np.sqrt(va) * np.sqrt(vb)
    return (N * edge_tops - va * vb - lam_term) * (2.0 / (d * (d + 1) * N * N))


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


def _mixing_lam(X: Complex, R: RegularStructure, lam: float | None) -> float:
    """lam, or lambda_max when it is None. The mixing bound needs d >= 1 and
    a finite lam >= 0, which makes its eigenvalue term >= 0."""
    if lam is None:
        lam, _ = lambda_max(X, R)  # raises BadDimension below d = 1
    elif X.d < 1:
        raise BadDimension("mixing needs dimension >= 1")
    elif not (math.isfinite(lam) and lam >= 0):
        raise BadParam(f"lam must be a finite number >= 0, got {lam}")
    return lam


def mixing_check(X: Complex, R: RegularStructure, a, b, lam: float | None = None) -> MixingReport:
    """One-sided mixing bound for a single pair of vertex sets."""
    lam = _mixing_lam(X, R, lam)
    sa = X.vertex_ids(a)
    sb = X.vertex_ids(b)
    lhs = X.edges_between(sa, sb).norm()
    na = X.cochain(0, [(v,) for v in sa]).norm()
    nb = X.cochain(0, [(v,) for v in sb]).norm()
    prod = float(na) * float(nb)
    rhs = 2.0 * (X.d + 1) / X.d * (prod + lam * math.sqrt(prod))
    den0 = X.norm_den(0)
    margin = _mixing_margin(X, int(lhs * X.norm_den(1)), int(na * den0), int(nb * den0), lam)
    verdict = "pass" if margin <= 0.0 else ("marginal" if margin <= MIXING_SLACK else "fail")
    return MixingReport(lhs, rhs, lam, na, nb, verdict)


@dataclass(frozen=True)
class MixingScan:
    pairs: int
    passed: int
    marginal: int
    failed: int
    max_margin: float  # max over pairs of lhs - rhs
    failures: tuple[tuple[int, int], ...]  # (a_mask, b_mask), at most 8
    scanned: int  # pairs multiplied: both subsets live, see mixing_check_all


def mixing_check_all(
    X: Complex, R: RegularStructure, lam: float | None = None, cap: int | None = None
) -> MixingScan:
    """Exhaustive mixing check over every pair of vertex subsets.

    Pairs are decided first by the sign of the exact integer
    E = N L - v_A v_B (see _mixing_margin). With g_A[v] = N L(A,{v}) - v_A t_v,
    E(A,B) = sum of g_A over B - N inner[A & B] <= sum of g_A over B, and E is
    symmetric, so E(A,B) > 0 only if A and B are both live: some g[v] > 0.
    Per block of live A, one BLAS product of subset sums of vertex rows,
    [N pair | -tops] over A by [I | tops] over the live B (an edge inside A & B
    counted twice), less the gathered N inner[A & B], gives E. scanned counts
    these live pairs; every other pair passes.

    - Exactness: every term and partial sum is an integer of absolute value at
      most 2 N inner[all] + v_top[all]^2, and the subtraction adds at most
      N inner[all]. While 3 N inner[all] + v_top[all]^2 < 2^24 float32 holds
      all of them exactly; otherwise the same product runs in float64.
    - Sign first: with lam >= 0 the eigenvalue term is >= 0, and subtracting it
      from an exact E <= 0 rounds to a value <= 0.0, so such a pair passes. Ties
      (E = 0) stay passes, as in mixing_check.
    - Only pairs with E > 0, usually none, get a float64 margin, from
      _mixing_margin on the same integers as mixing_check: their margins and
      verdicts are bit-identical to a per-pair check. max_margin is the largest
      of those and 0.0, the exact margin of the pair (empty, empty).
    """
    lam = _mixing_lam(X, R, lam)
    n = len(X.vertex_names)
    pairs = 4**n
    check_enumeration(pairs, cap, "vertex subset pairs")
    N = X.n_top
    tops, pair = _top_weights(X)
    _, vtop, inner = next(_subset_blocks(tops, pair, n))
    exact32 = 3 * N * int(inner[-1]) + int(vtop[-1]) ** 2 < FLOAT32_EXACT
    dtype = np.float32 if exact32 else np.float64
    sums = _subset_sums(np.hstack([N * pair, -tops[:, None], np.eye(n, dtype=np.int64), tops[:, None]]))
    live = np.flatnonzero((sums[:, :n] + sums[:, n : n + 1] * tops > 0).any(axis=1))
    left, right = sums[live, : n + 1].astype(dtype), sums[live, n + 1 :].T.astype(dtype, order="C")
    N_inner = (N * inner).astype(dtype)
    step = max(1, SUBSET_BLOCK // max(1, len(live)))

    marginal = failed = 0
    max_margin = 0.0  # the pair (empty, empty) has margin exactly 0.0
    failures: list[tuple[int, int]] = []
    for start in range(0, len(live), step):
        rows = live[start : start + step]
        excess = left[start : start + step] @ right
        excess -= N_inner[rows[:, None] & live]
        if excess.max() <= 0:
            continue
        hot = np.flatnonzero(excess > 0)  # row-major, far faster than 2-D nonzero
        a, c = rows[hot // len(live)], live[hot % len(live)]
        va, vb = vtop[a], vtop[c]
        edge_tops = (excess.ravel()[hot].astype(np.int64) + va * vb) // N  # L, exactly
        margin = _mixing_margin(X, edge_tops.astype(float), va, vb, lam)
        max_margin = max(max_margin, float(margin.max()))
        bad = margin > MIXING_SLACK
        n_bad = int(np.count_nonzero(bad))
        marginal += int(np.count_nonzero(margin > 0.0)) - n_bad
        failed += n_bad
        for i in np.flatnonzero(bad)[: 8 - len(failures)]:
            failures.append((int(a[i]), int(c[i])))
    return MixingScan(
        pairs, pairs - marginal - failed, marginal, failed, max_margin, tuple(failures), len(live) ** 2
    )


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
) -> AlphaReport:
    """Least valid skeleton-expansion constant.

    Exhaustive mode maximizes (||E(A,A)||/4 - ||A||^2)/||A|| exactly over
    every nonempty vertex subset and clamps at zero; on ties the smallest
    bitmask is the witness. Spectral mode returns the normalized largest
    non-trivial eigenvalue as a certified constant for regular complexes.
    """
    if mode == "spectral":
        lam, reports = lambda_max(X, regularity(X))
        return AlphaReport("spectral", lam, None, None, reports)
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    n = len(X.vertex_names)
    check_enumeration(1 << n, cap, "vertex subsets")
    den0 = X.norm_den(0)
    den1 = X.norm_den(1) if X.d >= 1 else 1
    # inner <= den1 and 1 <= vtop <= den0 put both terms in [0, B], B = den0/4 + 1;
    # five roundings leave each value within 5 * 2^-53 B of the exact one. The
    # running maximum is at most the global one, so a shortlist 2^-40 B below
    # it holds every exact maximizer; blocks ascend and a tie keeps the first
    bound = (den0 / 4 + 1) * 2.0**-40
    k = min(n, SUBSET_BLOCK.bit_length() - 1)  # SUBSET_BLOCK >= 2: block 0 has a nonempty subset
    top = -math.inf
    best: tuple[Fraction, int] | None = None
    for lo, vtop, inner in _subset_blocks(*_top_weights(X), k):
        skip = int(lo == 0)  # the empty subset has no ratio
        approx = inner[skip:] * (den0 / (4 * den1)) / vtop[skip:] - vtop[skip:] / den0
        top = max(top, float(approx.max()))
        for m in np.flatnonzero(approx >= top - bound) + skip:
            na = Fraction(int(vtop[m]), den0)
            val = (Fraction(int(inner[m]), 4 * den1) - na * na) / na
            if best is None or val > best[0]:
                best = (val, lo + int(m))
    raw, mask = best
    witness = tuple(X.vertex_names[v] for v in iter_bits(mask))
    return AlphaReport("exhaustive", max(raw, Fraction(0)), raw, witness)
