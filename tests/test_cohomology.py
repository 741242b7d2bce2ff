import math
import random
from fractions import Fraction

import pytest

from hdx.cohomology import (
    coboundary,
    cohomology_dim,
    cosystole,
    expansion,
    space_basis,
)
from hdx.core import build_complex
from hdx.errors import BadDimension, TooLarge
from hdx.f2 import F2Space
from hdx.generators import complete, cycle
from helpers import (
    oracle_coboundary_bits,
    oracle_flat_cosystole,
    oracle_flat_expansion,
    random_cochain,
    random_pure_complex,
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
                assert expansion(X, k, mode).value == oracle_flat_expansion(X, k, mode)
            assert cosystole(X, k).value == oracle_flat_cosystole(X, k)
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
