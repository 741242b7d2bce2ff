import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdx.cohomology import (
    _least_ratio,
    coboundary,
    cohomology_dim,
    cosystole,
    expansion,
    space_basis,
)
from hdx.core import build_complex
from hdx.errors import BadDimension, TooLarge
from hdx.f2 import SPAN_CHUNK, F2Space, SpanTable, WeightTable, from_words, lexmin
from hdx.generators import complete, complete_partite, cycle
from hdx.minimize import is_minimal
from helpers import (
    oracle_coboundary_bits,
    oracle_flat_cosystole,
    oracle_flat_expansion,
    oracle_is_minimal,
    oracle_minimal_representative,
    random_cochain,
    random_pure_complex,
    report_pair,
)


def test_coboundary_examples():
    E = build_complex([("u", "v")])
    dA = coboundary(E.cochain(0, [("u",)]))
    assert dA.token_faces() == [("u", "v")]

    C4 = cycle(4)
    dv = coboundary(C4.cochain(0, [("0",)]))
    assert sorted(dv.token_faces()) == [("0", "1"), ("0", "3")]

    with pytest.raises(BadDimension):
        coboundary(E.full_cochain(1))


def test_coboundary_squares_to_zero():
    rng = random.Random(3)
    for _ in range(40):
        X = random_pure_complex(rng)
        for k in range(-1, X.d - 1):
            A = random_cochain(rng, X, k)
            assert not coboundary(coboundary(A))


def test_coboundary_matches_oracle():
    rng = random.Random(5)
    for _ in range(25):
        X = random_pure_complex(rng)
        k = rng.randint(-1, X.d - 1)
        A = random_cochain(rng, X, k)
        assert coboundary(A).bits == oracle_coboundary_bits(X, k, A.bits)


def test_space_basis_dims():
    G = cycle(6)
    assert space_basis(G, 0, "cocycles").dim == 1
    assert space_basis(G, 0, "coboundaries").dim == 1
    assert cohomology_dim(G, 0) == 0

    two = build_complex([("a", "b", "c"), ("x", "y", "z")])
    assert space_basis(two, 0, "cocycles").dim == 2
    assert space_basis(two, 0, "coboundaries").dim == 1

    for n in range(3, 9):
        C = cycle(n)
        assert space_basis(C, 1, "cocycles").dim == n
        assert space_basis(C, 1, "coboundaries").dim == n - 1
        assert cohomology_dim(C, 1) == 1


def test_space_basis_echelon_invariants():
    rng = random.Random(9)
    vec_rng = random.Random(10)  # own stream, so rng draws the same complexes
    for _ in range(25):
        X = random_pure_complex(rng)
        k = rng.randint(0, X.d)
        z = space_basis(X, k, "cocycles")
        b = space_basis(X, k, "coboundaries")
        for basis in (z, b):
            leads = [(r.bits & -r.bits).bit_length() - 1 for r in basis.rows]
            assert leads == sorted(set(leads))
            # fully reduced: no row has a set bit at another row's pivot
            pivots = sum(1 << p for p in leads)
            for row, p in zip(basis.rows, leads):
                assert row.bits & pivots == 1 << p
        # coboundaries are cocycles
        for row in b.rows:
            assert z.contains(row)
        # preimages really map down through the coboundary
        for row, pre in zip(b.rows, b.preimages):
            assert coboundary(pre) == row
        assert z.dim >= b.dim
        # every cochain of the top dimension is a cocycle
        top = space_basis(X, X.d, "cocycles")
        assert top.row_bits() == [1 << i for i in range(X.n_faces(X.d))]
        # Z^k and B^(k+1) share one elimination; the order they are asked in
        # does not change either of them
        if k < X.d:
            tops = [X.tokens_of(f) for f in X.faces(X.d)]
            bases = []
            for kinds in ((k, "cocycles"), (k + 1, "coboundaries")), (
                (k + 1, "coboundaries"), (k, "cocycles")
            ):
                Y = build_complex(tops)
                for j, kind in kinds:
                    space_basis(Y, j, kind)
                zy = space_basis(Y, k, "cocycles")
                by = space_basis(Y, k + 1, "coboundaries")
                bases.append((zy.row_bits(), by.row_bits(), [p.bits for p in by.preimages]))
            assert bases[0] == bases[1]
        # reduce() gives the same representative before and after rows()
        # back-substitutes an echelon built by add()
        n = X.n_faces(k)
        space = F2Space()
        for _ in range(n):
            space.add(vec_rng.getrandbits(n))
        probes = [vec_rng.getrandbits(n) for _ in range(10)]
        before = [space.reduce(v) for v in probes]
        pivots = sum(r & -r for r in space.rows())
        assert [space.reduce(v) for v in probes] == before
        for v, rep in zip(probes, before):
            assert rep & pivots == 0 and space.contains(v ^ rep)


def test_cosystole_examples():
    assert cosystole(cycle(5), 0).value == math.inf
    for n in range(3, 9):
        rep = cosystole(cycle(n), 1)
        assert rep.value == Fraction(1, n)
        assert len(rep.witness) == 1
    two = build_complex([("a", "b", "c"), ("x", "y", "z")])
    rep = cosystole(two, 0)
    assert rep.value == Fraction(1, 2)
    # witness is a cocycle and not a coboundary
    zb = space_basis(two, 0, "cocycles")
    bb = space_basis(two, 0, "coboundaries")
    assert zb.contains(rep.witness) and not bb.contains(rep.witness)


def test_expansion_examples():
    E = build_complex([("u", "v")])
    rep = expansion(E, 0, "coboundary")
    assert rep.value == 2
    assert rep.witness.norm() == Fraction(1, 2)
    assert coboundary(rep.witness).norm() == rep.value * rep.witness.norm()

    D = build_complex([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")])
    assert expansion(D, 0, "coboundary").value == 0
    assert expansion(D, 0, "cocycle").value > 0


def test_cocycle_expansion_decomposes_over_components():
    # on a disconnected graph the cocycle parameter is the worst value
    # attained by cochains supported inside a single component
    D = build_complex(
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z"),
         ("x", "w"), ("w", "z")]
    )
    rep = expansion(D, 0, "cocycle")
    comps = [("a", "b", "c"), ("w", "x", "y", "z")]
    zb = space_basis(D, 0, "cocycles")
    per_component = []
    for comp in comps:
        ids = D.vertex_ids(comp)
        best = None
        for bits in range(1, 1 << len(ids)):
            support = sorted(ids)
            A = D.cochain_from_bits(
                0, sum(1 << support[i] for i in range(len(ids)) if (bits >> i) & 1)
            )
            if zb.contains(A):
                continue
            dist = min(
                (A + z).norm()
                for z in _span_cochains(D, zb)
            )
            ratio = coboundary(A).norm() / dist
            if best is None or ratio < best:
                best = ratio
        per_component.append(best)
    assert rep.value == min(per_component)


def _span_cochains(X, basis):
    out = [X.empty_cochain(basis.k)]
    for row in basis.rows:
        out += [c + row for c in out]
    return out


def test_expansion_equivalences():
    rng = random.Random(13)
    for _ in range(25):
        X = random_pure_complex(rng, max_n=7, max_tops=6)
        for k in range(0, X.d):
            if X.n_faces(k) > 14:
                continue
            h = cohomology_dim(X, k)
            eb = expansion(X, k, "coboundary").value
            zb = space_basis(X, k, "cocycles")
            bb = space_basis(X, k, "coboundaries")
            assert (eb > 0) == (h == 0) == (zb.dim == bb.dim)
            if h == 0:
                assert eb == expansion(X, k, "cocycle").value


def test_flat_scan_oracle_agreement():
    rng = random.Random(17)
    cases = 0
    for _ in range(30):
        X = random_pure_complex(rng, max_n=7, max_tops=5)
        for k in range(0, X.d):
            if X.n_faces(k) > 12 or X.n_faces(k - 1) > 12:
                continue
            for mode in ("coboundary", "cocycle"):
                assert report_pair(expansion(X, k, mode)) == oracle_flat_expansion(X, k, mode)
            assert report_pair(cosystole(X, k)) == oracle_flat_cosystole(X, k)
            cases += 1
    assert cases >= 20


def test_expansion_witness_attains_value():
    rng = random.Random(19)
    for _ in range(15):
        X = random_pure_complex(rng, max_n=7, max_tops=6)
        k = rng.randint(0, X.d - 1)
        if X.n_faces(k) > 14:
            continue
        for mode in ("coboundary", "cocycle"):
            rep = expansion(X, k, mode)
            if rep.value == math.inf:
                continue
            w = rep.witness
            kind = "coboundaries" if mode == "coboundary" else "cocycles"
            basis = space_basis(X, k, kind)
            dist = min(
                (w + X.cochain_from_bits(k, s)).norm()
                for s in _span_bits(basis)
            )
            assert dist == w.norm()  # witness is its coset's minimum
            assert coboundary(w).norm() == rep.value * dist


def _span_bits(basis):
    out = [0]
    for row in basis.rows:
        out += [x ^ row.bits for x in out]
    return out


def test_enumeration_cap():
    X = complete(7, 2)
    with pytest.raises(TooLarge):
        expansion(X, 1, "coboundary", cap=1 << 10)
    # explicit larger cap allows it
    assert expansion(X, 1, "coboundary", cap=1 << 22).value > 0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_pure_complex(random.Random(seed), max_n=7, max_tops=5)
    )
)
@example(complete(12, 1))  # delta^0 has 66 > 64 bits: two-word coboundary rows
@example(complete(5, 2))  # many coset and ratio ties
@example(complete_partite(2, 2))
def test_kernel_matches_oracles(X):
    rng = random.Random(X.n_top)
    for k in range(0, X.d + 1):
        if X.n_faces(k) > 12 or X.n_faces(k - 1) > 12:
            continue
        if k < X.d:
            for mode in ("coboundary", "cocycle"):
                assert report_pair(expansion(X, k, mode)) == oracle_flat_expansion(X, k, mode)
        assert report_pair(cosystole(X, k)) == oracle_flat_cosystole(X, k)
        A = random_cochain(rng, X, k)
        assert is_minimal(X, A) == oracle_is_minimal(X, A)
        assert is_minimal(X, oracle_minimal_representative(X, A))


def _two_cycles(a: int, b: int):
    """Disjoint cycles on vertices p00.. and q00..; the p-cycle sorts first."""
    def ring(tag, n):
        return [(f"{tag}{i:02d}", f"{tag}{(i + 1) % n:02d}") for i in range(n)]

    return build_complex(ring("p", a) + ring("q", b))


def test_wide_cochains():
    # 70 vertices: every 0-cochain spans two uint64 words
    X = _two_cycles(40, 30)
    rep = cosystole(X, 0)
    q_cycle = X.cochain(0, [(f"q{i:02d}",) for i in range(30)])
    assert rep.value == Fraction(60, 140) and rep.witness == q_cycle
    # equal components tie on norm; the witness is the smaller integer
    Y = _two_cycles(35, 35)
    assert cosystole(Y, 0).witness == Y.cochain(0, [(f"p{i:02d}",) for i in range(35)])
    # Z^0 = B^0 on a connected graph: the cocycle space has no non-coboundary
    C = cycle(70)
    assert report_pair(cosystole(C, 0)) == (math.inf, None)
    half = C.cochain_from_bits(0, (1 << 35) - 1)
    assert is_minimal(C, half)  # ties its complement
    assert not is_minimal(C, C.cochain_from_bits(0, (1 << 36) - 1))
    assert is_minimal(C, C.cochain_from_bits(0, ((1 << 34) - 1) << 36))


@pytest.mark.parametrize("chunk", [4, SPAN_CHUNK])
def test_span_kernel_against_ints(monkeypatch, chunk):
    monkeypatch.setattr("hdx.f2.SPAN_CHUNK", chunk)
    rng = random.Random(23)
    for width in (1, 7, 63, 64, 65, 130, 200):
        for dim in (0, 1, 5, 11):
            rows = [rng.getrandbits(width) for _ in range(dim)]
            off = rng.getrandbits(width)
            span = SpanTable(rows, width)
            want = []
            for m in range(1 << dim):
                v = off
                for i in range(dim):
                    if (m >> i) & 1:
                        v ^= rows[i]
                want.append(v)
            lo = rng.randrange(1 << dim)
            hi = rng.randrange(lo, (1 << dim) + 1)
            pieces = list(span.chunks(lo, hi, off))
            assert [from_words(e) for _, c in pieces for e in c] == want[lo:hi]
            size = min(1 << dim, chunk)
            starts = [lo] + list(range(lo - lo % size + size, hi, size)) if lo < hi else []
            assert [start for start, _ in pieces] == starts
            elems = np.concatenate([c for _, c in span.chunks(0, 1 << dim, off)])
            counts = [rng.randint(1, 50) for _ in range(width)]
            weights = WeightTable(counts)(elems)
            assert list(weights) == [sum(c for i, c in enumerate(counts) if (v >> i) & 1)
                                     for v in want]
            # lexmin over groups of two (the grid of a one-row subspace)
            if dim:
                keys = weights % 3  # many ties on the key
                t, e = lexmin(keys.reshape(-1, 2), elems.reshape(-1, 2, span.words))
                expect = [min((int(keys[j]), want[j]) for j in (i, i + 1))
                          for i in range(0, len(want), 2)]
                assert [(int(a), from_words(b)) for a, b in zip(t, e)] == expect


@pytest.mark.parametrize("chunk", [1, 4])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # with tiny chunks every coset spans several of them, and the cross-chunk
    # merge of coset minima and of ratio candidates decides the witness
    monkeypatch.setattr("hdx.f2.SPAN_CHUNK", chunk)
    monkeypatch.setattr("hdx.cohomology.SPAN_CHUNK", chunk)
    rng = random.Random(29)
    for X in [complete(5, 2), cycle(6)] + [
        random_pure_complex(rng, max_n=6, max_tops=4) for _ in range(6)
    ]:
        for k in range(0, X.d + 1):
            if X.n_faces(k) > 10:
                continue
            if k < X.d:
                for mode in ("coboundary", "cocycle"):
                    assert report_pair(expansion(X, k, mode)) == oracle_flat_expansion(X, k, mode)
            assert report_pair(cosystole(X, k)) == oracle_flat_cosystole(X, k)


def test_least_ratio_is_exact():
    elems = np.array([[5], [3]], dtype=np.uint64)
    # float64 rounds 2^53 + 1 down and calls index 0 the least; exactly,
    # 1 - 1/(2^53 + 1) < 1 - 1/(2^53 + 2). The products need Python ints.
    p = np.array([2**53 + 1, 2**53], dtype=np.int64)
    q = np.array([2**53 + 2, 2**53 + 1], dtype=np.int64)
    assert p[0] / q[0] <= p[1] / q[1]
    assert _least_ratio(p, q, elems) == 1
    # here p[1] * q[0] < p[0] * q[1] modulo 2^64, but not in the integers
    p = np.array([1385316916042, 2141487530237], dtype=np.int64)
    q = np.array([2133900681129, 1521424866611], dtype=np.int64)
    assert _least_ratio(p, q, elems) == 0
    # equal ratios: the smaller element wins
    assert _least_ratio(np.array([2, 1]), np.array([4, 2]), elems) == 1
    assert _least_ratio(np.array([0, 0]), np.array([1, 7]), elems[::-1]) == 0
