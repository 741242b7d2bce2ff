import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdx.cohomology import coboundary
from hdx.core import build_complex
from hdx.errors import BadDimension, TooLarge
from hdx.generators import complete, cycle, projective_flag
from hdx.minimize import is_locally_minimal, is_minimal, locally_minimize
from helpers import (
    oracle_first_improving_move,
    oracle_is_locally_minimal,
    oracle_is_minimal,
    oracle_minimal_representative,
    random_cochain,
    random_pure_complex,
)


def test_is_minimal_examples():
    E = build_complex([("u", "v")])
    assert is_minimal(E, E.empty_cochain(0))
    assert not is_minimal(E, E.full_cochain(0))  # coset minimum is the empty cochain
    assert is_minimal(E, E.cochain(0, [("u",)]))  # ties at 1/2 within its coset


def test_is_minimal_matches_oracle():
    rng = random.Random(7)
    for _ in range(40):
        X = random_pure_complex(rng, max_n=7, max_tops=5)
        k = rng.randint(0, X.d)
        if X.n_faces(k - 1) > 12:
            continue
        A = random_cochain(rng, X, k)
        assert is_minimal(X, A) == oracle_is_minimal(X, A)


def test_move_search_cap_message():
    X = complete(5, 2)
    for search in (locally_minimize, is_locally_minimal):
        with pytest.raises(TooLarge) as info:
            search(X, X.full_cochain(1), cap=1)
        assert str(info.value) == (
            "link coboundary space at ('0',) needs 2 elements, cap is 1 "
            "(raise the cap explicitly if you really want this)"
        )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    X=st.integers(0, 2**32 - 1).map(lambda seed: random_pure_complex(random.Random(seed))),
    seed=st.integers(0, 2**32 - 1),
)
@example(X=complete(6, 3), seed=0)
@example(X=projective_flag(2, 4), seed=0)
def test_is_locally_minimal_matches_its_site_loop(X, seed):
    rng = random.Random(seed)
    for k in range(0, X.d + 1):
        dense = random_cochain(rng, X, k)
        mask = rng.getrandbits(X.n_faces(k)) & rng.getrandbits(X.n_faces(k))
        sparse = X.cochain_from_bits(k, dense.bits & mask)
        for A in (dense, sparse, locally_minimize(X, sparse).final):
            got = is_locally_minimal(X, A)
            assert got == oracle_is_locally_minimal(X, A)
            assert got == (oracle_first_improving_move(X, A, None) is None)


def test_locally_minimal_examples():
    C4 = cycle(4)
    A = C4.cochain(1, [("0", "1"), ("0", "3")])
    assert not is_locally_minimal(C4, A)
    assert is_locally_minimal(C4, C4.empty_cochain(1))
    # the localization at vertex 0 spans the whole link, which is the
    # coboundary of the link's (-1)-cochain, so it is not minimal there
    link = C4.link(("0",))
    loc = C4.localize(("0",), A)
    assert loc == link.full_cochain(0)
    assert not is_minimal(link, loc)


def test_minimal_implies_locally_minimal():
    rng = random.Random(11)
    for _ in range(30):
        X = random_pure_complex(rng, max_n=7, max_tops=5)
        k = rng.randint(0, X.d)
        if X.n_faces(k - 1) > 10:
            continue
        A = oracle_minimal_representative(X, random_cochain(rng, X, k))
        assert is_minimal(X, A)
        assert is_locally_minimal(X, A)


def test_subsets_of_minimal_are_minimal():
    rng = random.Random(13)
    for _ in range(30):
        X = random_pure_complex(rng, max_n=7, max_tops=5)
        k = rng.randint(0, X.d)
        if X.n_faces(k - 1) > 10:
            continue
        A = oracle_minimal_representative(X, random_cochain(rng, X, k))
        for _ in range(4):
            sub_bits = A.bits & rng.getrandbits(X.n_faces(k))
            assert is_minimal(X, X.cochain_from_bits(k, sub_bits))


def test_locally_minimize_fixed_point():
    C4 = cycle(4)
    A = C4.cochain(1, [("0", "1")])
    assert is_locally_minimal(C4, A)
    tr = locally_minimize(C4, A)
    assert tr.final == A and not tr.gamma and tr.steps == ()


def test_locally_minimize_c4_example():
    C4 = cycle(4)
    A = C4.cochain(1, [("0", "1"), ("0", "3")])
    tr = locally_minimize(C4, A)
    assert tr.final.norm() < A.norm()
    assert is_locally_minimal(C4, tr.final)
    # the initial cochain is the coboundary of {vertex 0}, so the coset
    # minimum is empty, and so is the locally minimized result here
    assert not tr.final
    assert (tr.initial + tr.final) == coboundary(tr.gamma)


def test_locally_minimize_trace_invariants():
    rng = random.Random(17)
    for _ in range(60):
        X = random_pure_complex(rng, max_n=8, max_tops=6)
        k = rng.randint(0, X.d)
        A = random_cochain(rng, X, k)
        tr = locally_minimize(X, A)
        assert tr.final == tr.initial + coboundary(tr.gamma) if k >= 0 else True
        assert tr.final.norm() <= tr.initial.norm()
        assert tr.gamma.norm() <= X.max_vertex_link_size() * tr.initial.norm()
        assert len(tr.steps) <= tr.initial.top_sum()
        assert is_locally_minimal(X, tr.final)


def test_locally_minimize_deterministic():
    rng = random.Random(19)
    X = complete(6, 2)
    A = random_cochain(rng, X, 1)
    t1 = locally_minimize(X, A)
    t2 = locally_minimize(X, A)
    assert t1.final == t2.final and t1.gamma == t2.gamma
    assert [(s, c.bits) for s, c in t1.steps] == [(s, c.bits) for s, c in t2.steps]


def test_locally_minimize_rejects_negative_dimension():
    X = build_complex([("a", "b")])
    with pytest.raises(BadDimension):
        locally_minimize(X, X.cochain_from_bits(-1, 1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_locally_minimize_takes_the_first_improving_move(monkeypatch, d):
    rng = random.Random(41 + d)
    cases = []
    for _ in range(25):
        X = random_pure_complex(rng, dims=(d,), max_n=8, max_tops=8)
        k = rng.randint(1, X.d)
        cases.append((X, random_cochain(rng, X, k)))
    if d == 2:
        # the apex link is cycle(70): its 0-cochains span two uint64 words
        ring = [(f"v{i:02d}", f"v{(i + 1) % 70:02d}") for i in range(70)]
        cone = build_complex([("apex",) + e for e in ring])
        cases.append((cone, cone.cochain(1, [("apex", f"v{i:02d}") for i in range(41)])))

    def run():
        return [locally_minimize(X, A) for X, A in cases]

    got = run()
    monkeypatch.setattr("hdx.minimize._first_improving_move", oracle_first_improving_move)
    want = run()
    assert sum(len(t.steps) for t in want) >= 10
    for g, w in zip(got, want):
        assert g.final == w.final and g.gamma == w.gamma
        assert [(s, c.bits) for s, c in g.steps] == [(s, c.bits) for s, c in w.steps]
