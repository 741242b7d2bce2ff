"""Shared test utilities: random instances and independent oracles.

The oracles here recompute values by definition-level enumeration with
their own tiny GF(2) routines, deliberately sharing no search logic with
the library paths they check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from hdx.caps import check_enumeration
from hdx.cohomology import space_basis
from hdx.core import Cochain, Complex, Face, build_complex
from hdx.errors import BadDimension, NotBiregular, NotRegular, NoValidTyping
from hdx.f2 import iter_bits
from hdx.spectral import (
    MIXING_SLACK,
    MixingScan,
    RegularStructure,
    SpectralReport,
    _mixing_margin,
    _subset_blocks,
    _top_weights,
)

# -- random instances --------------------------------------------------------


def random_pure_complex(
    rng: random.Random,
    dims=(1, 2, 3),
    min_n: int = 4,
    max_n: int = 10,
    max_tops: int = 8,
) -> Complex:
    d = rng.choice(list(dims))
    n = rng.randint(max(d + 2, min_n), max_n)
    pool = list(combinations(range(n), d + 1))
    tops = rng.sample(pool, rng.randint(1, min(max_tops, len(pool))))
    return build_complex([tuple(str(v) for v in f) for f in tops])


def random_cochain(rng: random.Random, X: Complex, k: int) -> Cochain:
    return X.cochain_from_bits(k, rng.getrandbits(X.n_faces(k)))


def relabeled(rng: random.Random, X: Complex) -> Complex:
    """X with its vertex names shuffled, so its vertex ids are permuted."""
    names = list(X.vertex_names)
    rng.shuffle(names)
    rename = dict(zip(X.vertex_names, names))
    return build_complex([[rename[t] for t in X.tokens_of(top)] for top in X.faces(X.d)])


# -- isomorphism ----------------------------------------------------------------


def is_isomorphism(X: Complex, Y: Complex, phi) -> bool:
    """phi is a bijection from the vertex ids of X onto those of Y that maps
    the top faces of X onto the top faces of Y."""
    n = len(X.vertex_names)
    if X.d != Y.d or len(phi) != n or sorted(phi) != list(range(len(Y.vertex_names))):
        return False
    return {tuple(sorted(phi[v] for v in top)) for top in X.faces(X.d)} == set(Y.faces(Y.d))


def oracle_isomorphic(X: Complex, Y: Complex) -> bool:
    """Whether any of the n! vertex maps is an isomorphism (n <= 7). With
    equally many top faces, a bijection mapping each into Y's maps them onto."""
    n = len(X.vertex_names)
    assert n <= 7, "the oracle tries all n! vertex maps"
    if X.d != Y.d or n != len(Y.vertex_names) or X.n_top != Y.n_top:
        return False
    tops = set(Y.faces(Y.d))
    return any(
        all(tuple(sorted(phi[v] for v in top)) in tops for top in X.faces(X.d))
        for phi in permutations(range(n))
    )


# -- independent GF(2) helpers -------------------------------------------------


def gf2_echelon_rows(vectors: list[int]) -> list[int]:
    """Naive row echelon (not fully reduced), lowest set bit as pivot."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            low = r & -r
            if v & low:
                v ^= r
        if v:
            rows.append(v)
            rows.sort(key=lambda x: x & -x)
    return rows


def gf2_canonical(v: int, rows: list[int]) -> int:
    """Coset representative with zero pivot coordinates.

    rows must be echelon with ascending pivots; one ascending pass suffices
    because each reduction only touches bits at or above its pivot."""
    for r in rows:
        if v & (r & -r):
            v ^= r
    return v


# -- definition-level oracles ----------------------------------------------------


def oracle_coboundary_bits(X: Complex, k: int, bits: int) -> int:
    """Parity count over codimension-one subfaces, straight from face tuples."""
    members = [set(X.faces(k)[i]) for i in range(X.n_faces(k)) if (bits >> i) & 1]
    out = 0
    for j, tau in enumerate(X.faces(k + 1)):
        taus = set(tau)
        count = sum(1 for m in members if m < taus)
        if count % 2:
            out |= 1 << j
    return out


def oracle_subspace_rows(X: Complex, k: int, kind: str) -> list[int]:
    """Echelon rows of B^k or Z^k built by raw enumeration of images/kernel."""
    if kind == "coboundaries":
        images = [
            oracle_coboundary_bits(X, k - 1, 1 << j) for j in range(X.n_faces(k - 1))
        ]
        return gf2_echelon_rows(images)
    assert kind == "cocycles"
    n = X.n_faces(k)
    if k == X.d:
        return [1 << i for i in range(n)]
    singles = [oracle_coboundary_bits(X, k, 1 << i) for i in range(n)]
    rows: list[int] = []
    for bits in range(1, 1 << n):
        img = 0
        for i in range(n):
            if (bits >> i) & 1:
                img ^= singles[i]
        if img == 0:
            rows = gf2_echelon_rows(rows + [bits])
    return rows


def _norm_table(tops, n: int) -> list[int]:
    """Integer norm numerator for every bitmask, by one-bit recurrence."""
    table = [0] * (1 << n)
    for bits in range(1, 1 << n):
        low = (bits & -bits).bit_length() - 1
        table[bits] = table[bits & (bits - 1)] + tops[low]
    return table


def _top_sum(tops, bits: int) -> int:
    total = 0
    while bits:
        low = bits & -bits
        total += tops[low.bit_length() - 1]
        bits ^= low
    return total


def report_pair(rep) -> tuple:
    """(value, witness bits or None) of an expansion or cosystole report."""
    return rep.value, rep.witness.bits if rep.witness is not None else None


def oracle_flat_expansion(X: Complex, k: int, mode: str):
    """Flat scan of every k-cochain; returns (value, witness bits), or
    (inf, None) when C^k equals the subspace.

    Coboundaries of singletons come from direct subset counting; a flat
    pass groups cochains into cosets by an independent echelon reduction.
    The witness is the least (norm, bits) element of its coset, and the
    least (ratio, witness bits) pair wins.
    """
    n = X.n_faces(k)
    kind = "coboundaries" if mode == "coboundary" else "cocycles"
    rows = oracle_subspace_rows(X, k, kind)
    singles = [oracle_coboundary_bits(X, k, 1 << i) for i in range(n)]
    norm_k = _norm_table(X.top_counts(k), n)
    tops_up = X.top_counts(k + 1)
    den_k = X.norm_den(k)
    den_up = X.norm_den(k + 1)
    coset_min: dict[int, tuple[int, int]] = {}
    for bits in range(1 << n):
        key = gf2_canonical(bits, rows)
        cand = (norm_k[bits], bits)
        if key not in coset_min or cand < coset_min[key]:
            coset_min[key] = cand
    best = None
    for bits in range(1 << n):
        key = gf2_canonical(bits, rows)
        if key == 0:
            continue
        db = 0
        for i in range(n):
            if (bits >> i) & 1:
                db ^= singles[i]
        norm, witness = coset_min[key]
        cand = (Fraction(_top_sum(tops_up, db) * den_k, den_up * norm), witness)
        if best is None or cand < best:
            best = cand
    return (float("inf"), None) if best is None else best


def oracle_flat_cosystole(X: Complex, k: int):
    """(value, witness bits) of the least (norm, bits) cocycle outside B^k by a
    flat scan of C^k, or (inf, None)."""
    n = X.n_faces(k)
    brows = oracle_subspace_rows(X, k, "coboundaries")
    singles = (
        [oracle_coboundary_bits(X, k, 1 << i) for i in range(n)] if k < X.d else None
    )
    norm_k = _norm_table(X.top_counts(k), n)
    best = None
    for bits in range(1, 1 << n):
        if singles is not None:
            img = 0
            for i in range(n):
                if (bits >> i) & 1:
                    img ^= singles[i]
            if img != 0:
                continue
        if gf2_canonical(bits, brows) == 0:
            continue
        cand = (norm_k[bits], bits)
        if best is None or cand < best:
            best = cand
    if best is None:
        return float("inf"), None
    return Fraction(best[0], X.norm_den(k)), best[1]


def oracle_is_minimal(X: Complex, A: Cochain) -> bool:
    """Compare against every coboundary shift, enumerating correctors directly."""
    if A.k == -1:
        return True
    base = A.norm()
    n_low = X.n_faces(A.k - 1)
    for gamma in range(1 << n_low):
        shifted = A.bits ^ oracle_coboundary_bits(X, A.k - 1, gamma)
        if X.cochain_from_bits(A.k, shifted).norm() < base:
            return False
    return True


def oracle_minimal_representative(X: Complex, A: Cochain) -> Cochain:
    """Minimum-norm element of A's coboundary coset, by direct enumeration."""
    best = (A.norm(), A.bits)
    n_low = X.n_faces(A.k - 1) if A.k >= 0 else 0
    for gamma in range(1 << n_low):
        bits = A.bits ^ oracle_coboundary_bits(X, A.k - 1, gamma)
        cand = (X.cochain_from_bits(A.k, bits).norm(), bits)
        if cand < best:
            best = cand
    return X.cochain_from_bits(A.k, best[1])


def oracle_first_improving_move(X: Complex, A: Cochain, cap: int | None):
    """Reference move search by direct loops over Python ints: sites by
    dimension then canonical order, and at each site the first strictly
    improving combination m of the link's B^k rows in counting order."""
    for size in range(1, A.k + 1):
        for sigma in X.faces(size - 1):
            loc = X.localize(sigma, A)
            if not loc:
                continue
            link = X.link(sigma)
            basis = space_basis(link, loc.k, "coboundaries")
            check_enumeration(
                1 << basis.dim, cap, f"link coboundary space at {X.tokens_of(sigma)}"
            )
            rows = basis.row_bits()
            tops = link.top_counts(loc.k)
            base = loc.top_sum()
            for m in range(1, 1 << basis.dim):
                b = 0
                for i in iter_bits(m):
                    b ^= rows[i]
                if sum(tops[i] for i in iter_bits(loc.bits ^ b)) < base:
                    c_bits = 0
                    for i in iter_bits(m):
                        c_bits ^= basis.preimages[i].bits
                    return sigma, Cochain(link, loc.k - 1, c_bits)
    return None


def oracle_is_locally_minimal(X: Complex, A: Cochain, cap: int | None = None) -> bool:
    """Local minimality as its own site loop: every subface of a member of A,
    by dimension then canonical order, has a localization minimal in its link."""
    from hdx.minimize import is_minimal

    X.check_bound(A)
    seen = set()
    for f in A.faces():
        for size in range(1, A.k + 1):
            for sub in combinations(f, size):
                seen.add(sub)
    for sigma in sorted(seen, key=lambda f: (len(f), f)):
        loc = X.localize(sigma, A)
        if loc and not is_minimal(X.link(sigma), loc, cap):
            return False
    return True


# -- regular-structure oracles: the dict-counting implementations ---------------


def oracle_infer_types(X: Complex) -> dict[int, int]:
    """Greedy (d+1)-coloring driven by top-face constraints.

    Forced assignments propagate first; when nothing is forced, the
    canonically first untyped vertex of the canonically first incomplete top
    face receives the smallest type unused in that face. No backtracking.
    Every sweep visits every top face and counts its types in lists.
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
                u, v = _oracle_clash(top, types)
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


def _oracle_clash(top: Face, types: dict[int, int]) -> tuple[int, int]:
    seen: dict[int, int] = {}
    for v in top:
        if v in types:
            if types[v] in seen:
                return seen[types[v]], v
            seen[types[v]] = v
    raise AssertionError("no clash found")


def oracle_regularity(X: Complex, types: dict[str, int] | None = None) -> RegularStructure:
    """regularity by dict counting: every subset of every face is counted
    under the type set of the face."""
    d = X.d
    if types is None:
        vtypes = oracle_infer_types(X)
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


@dataclass(frozen=True)
class OracleTypeGraph:
    """A type graph as its full adjacency matrix, left block then right block."""

    i: int
    j: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    matrix: np.ndarray
    left_degree: int
    right_degree: int
    connected: bool


def oracle_type_graph(X: Complex, R: RegularStructure, i: int, j: int) -> OracleTypeGraph:
    """type_graph from a dense square matrix: entries set edge by edge, degrees
    as row sums, connectivity by a search over matrix rows."""
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
    return OracleTypeGraph(
        i, j, left, right, a, left_deg.pop(), right_deg.pop(), len(seen) == n
    )


def oracle_lambda2(G: OracleTypeGraph) -> SpectralReport:
    """Normalized second largest adjacency eigenvalue of a type graph."""
    vals, vecs = np.linalg.eigh(G.matrix)
    residual = float(np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - G.matrix))
    lam1 = float(vals[-1])
    second = float(vals[-2])
    # a bipartite spectrum is symmetric; clamping at zero keeps the
    # normalized value in [0,1] even when only the trivial pair remains
    normalized = max(second / lam1, 0.0)
    return SpectralReport(
        (G.i, G.j),
        lam1,
        normalized,
        residual,
        (G.left_degree, G.right_degree),
        G.connected,
    )


def oracle_skeleton_alpha(X: Complex):
    """(value, raw_max, witness) of the exhaustive skeleton-expansion constant:
    every nonempty vertex subset in bitmask order, exact norms from
    X.edges_between and X.weight, the first subset kept on ties."""
    names = X.vertex_names
    best = None
    for bits in range(1, 1 << len(names)):
        a = tuple(names[i] for i in range(len(names)) if (bits >> i) & 1)
        na = sum((X.weight((v,)) for v in a), Fraction(0))
        e = X.edges_between(a, a).norm() if X.d >= 1 else Fraction(0)
        val = (e / 4 - na * na) / na
        if best is None or val > best[0]:
            best = (val, a)
    return max(best[0], Fraction(0)), best[0], best[1]


def _subset_tops(X: Complex) -> tuple[np.ndarray, np.ndarray]:
    """Exact top counts of every vertex subset and of its inner edges."""
    _, vtop, inner = next(_subset_blocks(*_top_weights(X), len(X.vertex_names)))
    return vtop, inner


def oracle_mixing_scan(X: Complex, lam: float) -> MixingScan:
    """mixing_check_all as a float64 scan: every pair's margin from
    _mixing_margin, blocks of 2^16 pairs, the maximum over all margins."""
    n = len(X.vertex_names)
    size = 1 << n
    vtop, inner = _subset_tops(X)
    masks = np.arange(size, dtype=np.int64)
    one = 1 << np.arange(n, dtype=np.int64)
    bits = ((masks[:, None] & one) != 0).astype(float)
    rows = bits @ inner[one[:, None] | one].astype(float)

    passed = marginal = failed = 0
    max_margin = -math.inf
    failures: list[tuple[int, int]] = []
    step = max(1, (1 << 16) >> n)
    for start in range(0, size, step):
        sel = masks[start : start + step]
        # ordered pairs (u in A, v in B) count an edge inside A & B twice
        edge_tops = rows[sel] @ bits.T
        edge_tops -= inner[sel[:, None] & masks]
        margin = _mixing_margin(X, edge_tops, vtop[sel, None], vtop, lam)
        max_margin = max(max_margin, float(margin.max()))
        above = int(np.count_nonzero(margin > 0.0))
        bad = margin > MIXING_SLACK
        n_bad = int(np.count_nonzero(bad))
        passed += margin.size - above
        marginal += above - n_bad
        failed += n_bad
        if n_bad and len(failures) < 8:
            for r, c in np.argwhere(bad)[: 8 - len(failures)]:
                failures.append((int(sel[r]), int(c)))
    pairs = size * size
    return MixingScan(pairs, passed, marginal, failed, max_margin, tuple(failures), pairs)


# -- fat-machinery oracles ----------------------------------------------------------


def oracle_ladder(X: Complex, level_sets: dict[int, set], sigma, k: int) -> set:
    """Reachable members of the top level via fat chains; memoized recursion on
    face tuples, no bitsets."""
    memo: dict = {}

    def reach(face) -> set:
        if face in memo:
            return memo[face]
        lvl = len(face) - 1
        if face not in level_sets[lvl]:
            memo[face] = set()
        elif lvl == k:
            memo[face] = {face}
        else:
            out = set()
            for tau in level_sets[lvl + 1]:
                if set(face) < set(tau):
                    out |= reach(tau)
            memo[face] = out
        return memo[face]

    return reach(tuple(sigma))


def oracle_degenerate(X: Complex, level_sets: dict[int, set], k: int) -> set:
    """Degenerate (k+1)-faces by scanning subset pairs of each face."""
    out = set()
    for p in X.faces(k + 1):
        found = False
        for j in range(0, k + 1):
            for a, b in combinations(combinations(sorted(p), j + 1), 2):
                inter = tuple(sorted(set(a) & set(b)))
                if len(inter) != j:
                    continue
                if (
                    a in level_sets[j]
                    and b in level_sets[j]
                    and inter not in level_sets[j - 1]
                ):
                    found = True
                    break
            if found:
                break
        if found:
            out.add(p)
    return out


def level_sets_of(profile) -> dict[int, set]:
    return {i: set(c.faces()) for i, c in profile.levels.items()}
