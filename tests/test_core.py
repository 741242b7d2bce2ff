import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdx.core import Complex, build_complex
from hdx.errors import (
    BadDimension,
    ComplexMismatch,
    EmptyInput,
    FaceNotInComplex,
    NotPure,
    UnknownVertex,
)
from hdx.generators import complete, complete_partite, projective_flag
from helpers import (
    is_isomorphism,
    oracle_isomorphic,
    random_cochain,
    random_pure_complex,
    relabeled,
)


def test_build_single_simplex():
    X = build_complex([("a", "b", "c")])
    assert X.d == 2
    assert [X.n_faces(k) for k in range(-1, 3)] == [1, 3, 3, 1]
    assert X.tokens_of(X.faces(2)[0]) == ("a", "b", "c")


def test_build_cycle_closure():
    X = build_complex([("a", "b"), ("b", "c"), ("a", "c")])
    assert X.d == 1
    assert X.n_faces(1) == 3
    assert X.n_faces(0) == 3


def test_build_mixed_dimensions_rejected():
    with pytest.raises(NotPure):
        build_complex([("a", "b", "c"), ("c", "d")])


def test_build_absorbs_subset_faces():
    X = build_complex([("a", "b", "c"), ("a", "b")])
    assert X.d == 2
    assert X.n_top == 1


def test_build_absorption_whatever_the_input_order():
    # ("b", "c") is absorbed by a top face, ("c",) and ("a", "b") by several
    faces = [("a", "b", "c"), ("a", "b"), ("c",), ("b", "c", "d"), ("b", "c"), ("a", "b", "c")]
    expected = build_complex([("a", "b", "c"), ("b", "c", "d")])
    for order in permutations(faces):
        assert build_complex(order) == expected

    rng = random.Random(7)
    for _ in range(40):
        X = random_pure_complex(rng, max_n=12)
        tops = [X.tokens_of(f) for f in X.faces(X.d)]
        subs = [f for top in tops for r in range(1, len(top)) for f in combinations(top, r)]
        faces = tops + rng.sample(subs, min(len(subs), 30))
        rng.shuffle(faces)
        assert build_complex(faces) == X


def test_build_mixed_dimensions_message():
    # ("e",) lies only under ("e", "f"), a face smaller than the largest one
    with pytest.raises(NotPure) as info:
        build_complex([("a", "b", "c", "d"), ("e",), ("e", "f"), ("a", "b")])
    assert str(info.value) == (
        "maximal faces of mixed dimensions: ['e', 'f'] has 2 vertices, expected 4"
    )


def test_build_mixed_dimensions_message_is_reproducible():
    # ("d", "e") and ("f", "g") tie for the least face; the message names the
    # one with the least sorted tokens, whatever the string hash seed
    script = (
        "from hdx.core import build_complex\n"
        "from hdx.errors import NotPure\n"
        "try:\n"
        "    build_complex([('a', 'b', 'c'), ('d', 'e'), ('f', 'g')])\n"
        "except NotPure as e:\n"
        "    print(e)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    messages = set()
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(out.stdout.strip())
    assert messages == {
        "maximal faces of mixed dimensions: ['d', 'e'] has 2 vertices, expected 3"
    }


def test_build_empty_input():
    with pytest.raises(EmptyInput):
        build_complex([])
    with pytest.raises(EmptyInput):
        build_complex([()])


def test_build_canonical_and_input_order_independent():
    X = build_complex([("b", "a"), ("c", "b"), ("a", "c")])
    Y = build_complex([("a", "c"), ("a", "b"), ("b", "c")])
    assert X == Y
    assert X.vertex_names == ("a", "b", "c")


def test_weight_examples():
    T = build_complex([("a", "b", "c")])
    assert T.weight(("a",)) == Fraction(1, 3)
    assert T.weight(()) == 1

    from hdx.generators import complete

    X = complete(4, 2)
    assert X.weight(("0",)) == Fraction(1, 4)
    Y = build_complex([("a", "b"), ("b", "c")])
    with pytest.raises(FaceNotInComplex):
        Y.weight(("a", "c"))  # both vertices known, but not a face


def test_unknown_vertex():
    T = build_complex([("a", "b", "c")])
    with pytest.raises(UnknownVertex):
        T.face_from_tokens(("a", "z"))


def test_norm_examples():
    from hdx.generators import complete

    X = complete(4, 2)
    assert X.empty_cochain(1).norm() == 0
    assert X.full_cochain(1).norm() == 1
    A = X.cochain(1, [("0", "1"), ("0", "2"), ("0", "3")])
    assert A.norm() == Fraction(1, 2)


def test_cochain_addition_is_symmetric_difference():
    from hdx.generators import complete

    X = complete(4, 2)
    A = X.cochain(1, [("0", "1"), ("0", "2")])
    B = X.cochain(1, [("0", "2"), ("1", "2")])
    assert sorted((A + B).token_faces()) == [("0", "1"), ("1", "2")]


def test_cochain_complex_mismatch():
    X = build_complex([("a", "b")])
    Y = build_complex([("a", "c")])
    with pytest.raises(ComplexMismatch):
        X.cochain(0, [("a",)]) + Y.cochain(0, [("a",)])


def test_container_examples():
    from hdx.generators import complete

    X = complete(4, 2)
    A = X.cochain(0, [("0",)])
    assert X.container(A, 0) == A
    G = X.container(A, 1)
    assert G.norm() == Fraction(1, 2) == comb(2, 1) * A.norm()
    assert not X.container(X.empty_cochain(0), 2)
    with pytest.raises(BadDimension):
        X.container(X.cochain(1, [("0", "1")]), 0)


def test_container_sandwich_random():
    rng = random.Random(11)
    for _ in range(25):
        X = random_pure_complex(rng)
        for k in range(-1, X.d + 1):
            A = random_cochain(rng, X, k)
            for r in range(k, X.d + 1):
                g = X.container(A, r).norm()
                assert A.norm() <= g <= comb(r + 1, k + 1) * A.norm()


def test_link_examples():
    from hdx.generators import complete

    X = complete(4, 2)
    L = X.link(("0",))
    assert L.d == 1 and L.n_faces(0) == 3 and L.n_faces(1) == 3
    assert X.link(()) is X

    T = build_complex([("a", "b", "c")])
    L2 = T.link(("a", "b"))
    assert L2.d == 0 and L2.n_faces(0) == 1
    with pytest.raises(BadDimension):
        T.link(("a", "b", "c"))
    with pytest.raises(FaceNotInComplex):
        build_complex([("a", "b"), ("c", "d")]).link(("a", "c"))


def test_localize_and_lift_examples():
    from hdx.generators import complete

    X = complete(4, 2)
    A = X.full_cochain(1)
    loc = X.localize(("0",), A)
    assert loc.complex == X.link(("0",)) and len(loc) == 3
    assert X.localize((), A) == A
    assert not X.localize(("0",), X.empty_cochain(1))

    L = X.link(("0",))
    B = L.cochain(0, [("1",)])
    lifted = X.lift(("0",), B)
    assert lifted.token_faces() == [("0", "1")]
    assert lifted.norm() == Fraction(1, 6)
    assert lifted.norm() == comb(2, 1) * X.weight(("0",)) * B.norm()


def _random_sigma(rng, X, max_size=None):
    k = rng.randint(0, X.d - 1) if X.d >= 1 else 0
    if max_size is not None:
        k = min(k, max_size)
    faces = X.faces(k)
    return faces[rng.randrange(len(faces))]


def test_lift_localize_identities_random():
    rng = random.Random(23)
    for _ in range(30):
        X = random_pure_complex(rng)
        sigma = _random_sigma(rng, X)
        link = X.link(sigma)
        for k_link in range(-1, link.d + 1):
            B = random_cochain(rng, link, k_link)
            # localize(lift(B)) = B
            assert X.localize(sigma, X.lift(sigma, B)) == B
            # exact norm transfer
            assert X.lift(sigma, B).norm() == comb(
                len(sigma) + k_link + 1, k_link + 1
            ) * X.weight(sigma) * B.norm()
        k = rng.randint(len(sigma) - 1, X.d)
        A = random_cochain(rng, X, k)
        # lift(localize(A)) keeps exactly the members containing sigma
        back = X.lift(sigma, X.localize(sigma, A))
        expect = {f for f in A.faces() if set(sigma) <= set(f)}
        assert set(back.faces()) == expect
        assert back == X.faces_containing(sigma, A)


def test_lift_commutes_with_coboundary():
    from hdx.cohomology import coboundary

    rng = random.Random(5)
    for _ in range(30):
        X = random_pure_complex(rng)
        sigma = _random_sigma(rng, X)
        link = X.link(sigma)
        if link.d < 1:
            continue
        for k_link in range(-1, link.d):
            B = random_cochain(rng, link, k_link)
            assert coboundary(X.lift(sigma, B)) == X.lift(sigma, coboundary(B))


def test_norm_inequality_transfer_random():
    rng = random.Random(37)
    checked = 0
    for _ in range(60):
        X = random_pure_complex(rng)
        sigma = _random_sigma(rng, X)
        link = X.link(sigma)
        k_link = rng.randint(0, link.d)
        A = random_cochain(rng, X, k_link + len(sigma))
        B = random_cochain(rng, link, k_link)
        if A.norm() <= (A + X.lift(sigma, B)).norm():
            loc = X.localize(sigma, A)
            assert loc.norm() <= (loc + B).norm()
            checked += 1
    assert checked > 10


def test_norm_link_summation_identity():
    rng = random.Random(41)
    for _ in range(15):
        X = random_pure_complex(rng, max_n=8, max_tops=6)
        for k in range(0, X.d + 1):
            A = random_cochain(rng, X, k)
            for j in range(0, k + 1):
                total = sum(
                    (X.faces_containing(sigma, A).norm() for sigma in X.faces(j)),
                    Fraction(0),
                )
                assert total == comb(k + 1, j + 1) * A.norm()


def test_weight_sums_exactly_one():
    rng = random.Random(2)
    for _ in range(20):
        X = random_pure_complex(rng)
        for k in range(-1, X.d + 1):
            assert X.full_cochain(k).norm() == 1


def test_skeleton_examples():
    from hdx.generators import complete

    X = complete(4, 2)
    assert X.skeleton(2) is X
    S = X.skeleton(1)
    assert S.d == 1 and S.n_faces(1) == 6 and S.n_top == 6
    T = build_complex([("a", "b", "c")])
    S0 = T.skeleton(0)
    assert S0.d == 0 and S0.n_faces(0) == 3
    with pytest.raises(BadDimension):
        X.skeleton(3)
    # faces at preserved dimensions are identical, so cochain bits transfer
    assert S.faces(0) == X.faces(0)
    assert S.faces(1) == X.faces(1)


def test_skeleton_norm_comparability():
    rng = random.Random(59)
    for _ in range(20):
        X = random_pure_complex(rng)
        for k in range(1, X.d + 1):
            S = X.skeleton(k)
            q = max(X.top_counts(k))
            for t in range(0, k + 1):
                A = random_cochain(rng, X, t)
                a_sk = S.cochain_from_bits(t, A.bits)
                lo = A.norm() / (q * comb(X.d - t, k - t))
                hi = q * comb(X.d + 1, k + 1) * A.norm()
                assert lo <= a_sk.norm() <= hi


def test_edges_between():
    from hdx.generators import complete

    X = complete(4, 2)
    allv = X.vertex_names
    assert X.edges_between(allv, allv) == X.full_cochain(1)
    K22 = build_complex(
        [("l0", "r0"), ("l0", "r1"), ("l1", "r0"), ("l1", "r1")]
    )
    E = K22.edges_between(("l0", "l1"), ("r0", "r1"))
    assert E.norm() == 1
    D = build_complex([("a", "b"), ("c", "d")])
    assert not D.edges_between(("a",), ("c",))
    with pytest.raises(UnknownVertex):
        X.edges_between(("0",), ("zz",))


def test_total_face_count_and_q():
    from hdx.generators import complete

    X = complete(4, 2)
    assert X.total_face_count == 1 + 4 + 6 + 4
    # link of a vertex is a triangle graph: 1 + 3 + 3 faces
    assert X.max_vertex_link_size() == 7


def _same_complex(A, B):
    assert A.d == B.d and A.vertex_names == B.vertex_names
    for k in range(-1, A.d + 1):
        assert A.faces(k) == B.faces(k)
        assert A.top_counts(k) == B.top_counts(k)
        assert A.up_rows(k) == B.up_rows(k)
        assert A.norm_den(k) == B.norm_den(k)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    # max_n = 12 mixes the tokens "10", "11" into "0".."9": id order is string order
    st.integers(0, 2**32 - 1).map(lambda seed: random_pure_complex(random.Random(seed), max_n=12))
)
@example(complete(6, 3))
@example(projective_flag(2, 4))
@example(complete_partite(2, 3))
@example(build_complex([("a",), ("b",)]))
def test_links_and_skeletons_equal_their_token_builds(X):
    for k in range(0, X.d):
        for sigma in X.faces(k):
            toks = X.tokens_of(sigma)
            L = X.link(sigma)
            _same_complex(L, Complex.build(
                [tuple(t for t in X.tokens_of(top) if t not in toks)
                 for top in X.faces(X.d) if set(sigma) <= set(top)]
            ))
            for j in range(-1, L.d + 1):
                for i, lf in enumerate(L.faces(j)):
                    assert X.lift(sigma, L.cochain_from_bits(j, 1 << i)).faces() == [
                        X.face_from_tokens(toks + L.tokens_of(lf))
                    ]
    for k in range(0, X.d + 1):
        _same_complex(X.skeleton(k), Complex.build([X.tokens_of(f) for f in X.faces(k)]))
    assert X.max_vertex_link_size() == (
        1 if X.d == 0 else max(X.link((v,)).total_face_count for v in range(len(X.vertex_names)))
    )


# -- isomorphism ------------------------------------------------------------------


def _filter_key(X):
    return tuple(tuple(sorted(X.top_counts(k))) for k in range(X.d + 1))


def _assert_matches_oracle(X, Y):
    phi = X.isomorphism(Y)
    assert (phi is not None) == oracle_isomorphic(X, Y)
    assert phi is None or is_isomorphism(X, Y, phi)
    return phi


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_isomorphism_matches_brute_force(seed):
    rng = random.Random(seed)
    X = random_pure_complex(rng, dims=(1, 2), min_n=3, max_n=7, max_tops=10)
    assert _assert_matches_oracle(X, relabeled(rng, X)) is not None
    _assert_matches_oracle(X, random_pure_complex(rng, dims=(X.d,), min_n=3, max_n=7, max_tops=10))


def test_isomorphism_on_pairs_sharing_the_filter_key():
    # C6 and two disjoint triangles are both 2-regular on 6 vertices
    c6 = build_complex([(str(i), str((i + 1) % 6)) for i in range(6)])
    triangles = build_complex([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")])
    assert _filter_key(c6) == _filter_key(triangles)
    assert _assert_matches_oracle(c6, triangles) is None
    # few vertices and top faces: many seeded draws share a key, isomorphic or not
    rng = random.Random(18)
    groups = {}
    for _ in range(400):
        X = random_pure_complex(rng, dims=(1, 2), min_n=5, max_n=6, max_tops=6)
        groups.setdefault(_filter_key(X), []).append(X)
    found = {True: 0, False: 0}
    for same in groups.values():
        for X, Y in combinations(same[:5], 2):
            found[_assert_matches_oracle(X, Y) is not None] += 1
    assert min(found.values()) >= 20


def test_isomorphism_shrikhande_is_not_the_rook_graph():
    # both are strongly regular with parameters (16, 6, 2, 2), so every
    # degree and face count agrees
    cells = [(a, b) for a in range(4) for b in range(4)]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = build_complex(
        [(f"{a}{b}", f"{c}{e}") for a, b in cells for c, e in cells
         if ((c - a) % 4, (e - b) % 4) in steps]
    )
    rook = build_complex(
        [(f"{a}{b}", f"{c}{e}") for (a, b), (c, e) in combinations(cells, 2) if a == c or b == e]
    )
    assert _filter_key(shrikhande) == _filter_key(rook)
    assert shrikhande.isomorphism(rook) is None
    assert rook.isomorphism(shrikhande) is None
    phi = rook.isomorphism(relabeled(random.Random(3), rook))
    assert phi is not None


def test_isomorphism_edge_cases():
    points = build_complex([("a",), ("b",), ("c",)])
    assert points.isomorphism(build_complex([("x",), ("y",), ("z",)])) == (0, 1, 2)
    assert complete(4, 2).isomorphism(complete(4, 1)) is None
    assert complete(4, 1).isomorphism(complete(5, 1)) is None
    P = projective_flag(2, 3)
    assert is_isomorphism(P, P, P.isomorphism(P))
