import random
from fractions import Fraction

import pytest

from hdx.cohomology import expansion
from hdx.core import build_complex
from hdx.errors import BadDimension, BadEta, PreconditionUnverified
from hdx.fat import (
    admissible_eta,
    fat_profile,
    localized_norm,
    verify_seep,
    verify_upsilon_bound,
)
from hdx.generators import complete, projective_flag
from hdx.minimize import locally_minimize
from hdx.spectral import skeleton_alpha
from helpers import (
    level_sets_of,
    oracle_degenerate,
    oracle_ladder,
    random_cochain,
    random_pure_complex,
)


def test_empty_cochain_profile():
    X = complete(5, 2)
    prof = fat_profile(X, X.empty_cochain(1), Fraction(1, 3))
    assert all(not prof.levels[i] for i in range(-1, 1))
    assert all(not prof.ladders[i] for i in range(-1, 2))
    assert not prof.degenerate


def test_dimension_zero_threshold_is_eta():
    X = complete(5, 2)
    rng = random.Random(1)
    for _ in range(10):
        A = random_cochain(rng, X, 0)
        eta = Fraction(rng.randint(1, 9), 10)
        prof = fat_profile(X, A, eta)
        assert bool(prof.levels[-1]) == (A.norm() >= eta)


def test_small_cochain_has_nonfat_empty_face():
    rng = random.Random(3)
    for _ in range(40):
        X = random_pure_complex(rng, dims=(2, 3))
        k = rng.randint(0, X.d - 1)
        A = random_cochain(rng, X, k)
        eta = Fraction(rng.randint(1, 19), 20)
        if A.norm() < eta ** (2 ** (k + 1)):
            prof = fat_profile(X, A, eta)
            assert not prof.levels[-1]


def test_fat_level_size_bound():
    rng = random.Random(5)
    for _ in range(40):
        X = random_pure_complex(rng, dims=(2, 3))
        k = rng.randint(0, X.d - 1)
        A = random_cochain(rng, X, k)
        eta = Fraction(rng.randint(1, 19), 20)
        prof = fat_profile(X, A, eta)
        for i in range(-1, k + 1):
            assert prof.levels[i].norm() <= eta ** -(2 ** (k - i)) * A.norm()


def test_localized_norm_matches_link_route():
    rng = random.Random(7)
    for _ in range(25):
        X = random_pure_complex(rng, dims=(2, 3))
        i = rng.randint(0, X.d)
        S = random_cochain(rng, X, i)
        for t in range(X.n_faces(i - 1)):
            sigma = X.faces(i - 1)[t]
            direct = localized_norm(X, i, S.bits, t)
            if len(sigma) <= X.d:  # proper link exists
                assert direct == X.localize(sigma, S).norm()


def _fat_inputs(rng, n, max_tops):
    """n random complexes with a random k < d, then complete(6,3) and
    projective_flag(2,4) at every k < d."""
    for _ in range(n):
        X = random_pure_complex(rng, dims=(2, 3), max_tops=max_tops)
        yield X, rng.randint(0, X.d - 1)
    for X in (complete(6, 3), projective_flag(2, 4)):
        for k in range(X.d):
            yield X, k


def test_ladders_cover_top_level_and_match_oracle():
    rng = random.Random(9)
    for X, k in _fat_inputs(rng, 25, max_tops=6):
        A = random_cochain(rng, X, k)
        eta = Fraction(rng.randint(1, 9), 10)
        prof = fat_profile(X, A, eta)
        assert prof.ladders[k] == A
        sets = level_sets_of(prof)
        for i in range(-1, k + 1):
            expect = set()
            for sigma in sets[i]:
                expect |= oracle_ladder(X, sets, sigma, k)
            assert set(prof.ladders[i].faces()) == expect
        # single-site ladders
        for i in range(-1, k + 1):
            for sigma in list(sets[i])[:3]:
                assert set(prof.ladder_at(sigma).faces()) == oracle_ladder(
                    X, sets, sigma, k
                )


def test_degenerate_matches_oracle():
    rng = random.Random(11)
    for X, k in _fat_inputs(rng, 30, max_tops=7):
        A = random_cochain(rng, X, k)
        eta = Fraction(rng.randint(1, 9), 10)
        prof = fat_profile(X, A, eta)
        assert set(prof.degenerate.faces()) == oracle_degenerate(
            X, level_sets_of(prof), k
        )


def test_ladder_disjunction():
    # inside any (k+1)-face holding a ladder member and another member of A,
    # the second member either joins a ladder at the intersection or the face
    # is degenerate
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        X = random_pure_complex(rng, dims=(2, 3), max_tops=7)
        k = rng.randint(0, X.d - 1)
        A = random_cochain(rng, X, k)
        eta = Fraction(rng.randint(1, 9), 10)
        prof = fat_profile(X, A, eta)
        sets = level_sets_of(prof)
        deg = set(prof.degenerate.faces())
        for i in range(-1, k + 1):
            for sigma in sets[i]:
                ladder = oracle_ladder(X, sets, sigma, k)
                for t in ladder:
                    for p in X.container(X.cochain(k, [t]), k + 1).faces():
                        pset = set(p)
                        for t2 in A.faces():
                            if not set(t2) <= pset:
                                continue
                            inter = tuple(sorted(set(t2) & set(sigma)))
                            ok = t2 in oracle_ladder(X, sets, inter, k) or p in deg
                            assert ok, (sigma, t, t2, p)
                            checked += 1
    assert checked > 50


def test_verify_seep_trivial_and_random():
    X = complete(5, 2)
    empty = X.empty_cochain(1)
    rep = verify_seep(X, empty, Fraction(1, 3), Fraction(1))
    assert rep.passed and all(r.lhs == 0 for r in rep.rows)

    beta = min(
        expansion(X.link((v,)), 0, "coboundary").value
        for v in range(len(X.vertex_names))
    )
    rng = random.Random(17)
    for _ in range(10):
        A = locally_minimize(X, random_cochain(rng, X, 1)).final
        for eta in (Fraction(1, 8), Fraction(1, 3), Fraction(3, 5)):
            rep = verify_seep(X, A, eta, beta)
            assert rep.passed


RP2_TRIANGLES = [
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
]


def test_verify_seep_cocycle_with_no_lower_fat_faces():
    # a 2-complex with nontrivial 1-cohomology carries a cocycle witness
    # with empty coboundary; with a fatness constant close to 1 the lower
    # fat levels vanish and every ladder below the top is empty, so each
    # lower row reads 0 <= error terms
    from hdx.cohomology import coboundary, cohomology_dim, cosystole, expansion
    from hdx.minimize import is_locally_minimal, locally_minimize

    X = build_complex([tuple(str(v) for v in t) for t in RP2_TRIANGLES])
    assert cohomology_dim(X, 1) == 1
    witness = cosystole(X, 1).witness
    A = locally_minimize(X, witness).final
    assert A and not coboundary(A)
    assert is_locally_minimal(X, A)
    eta = Fraction(99, 100)
    prof = fat_profile(X, A, eta)
    assert not prof.levels[0] and not prof.levels[-1]
    assert not prof.ladders[0] and not prof.ladders[-1]
    beta = min(
        expansion(X.link((v,)), 0, "coboundary").value
        for v in range(len(X.vertex_names))
    )
    rep = verify_seep(X, A, eta, beta)
    assert rep.passed
    assert rep.delta_norm == 0
    assert all(r.lhs == 0 for r in rep.rows if r.i < A.k)


def test_verify_seep_precondition():
    X = complete(5, 2)
    rng = random.Random(19)
    A = None
    from hdx.minimize import is_locally_minimal

    while A is None:
        cand = random_cochain(rng, X, 1)
        if not is_locally_minimal(X, cand):
            A = cand
    with pytest.raises(PreconditionUnverified):
        verify_seep(X, A, Fraction(1, 3), Fraction(1))


def test_verify_upsilon_bound():
    X = complete(5, 2)
    alphas = [skeleton_alpha(X).value] + [
        skeleton_alpha(X.link((v,))).value for v in range(len(X.vertex_names))
    ]
    alpha_star = max(alphas)
    rng = random.Random(23)
    for _ in range(10):
        A = random_cochain(rng, X, 1)
        eta = admissible_eta(alpha_star, 1, floor=Fraction(rng.randint(1, 8), 9))
        rep = verify_upsilon_bound(X, A, eta, alpha_star)
        assert rep.hypothesis_ok and rep.passed

    # guard fires when the measured constant exceeds eta^(2^(k+1))
    A = random_cochain(rng, X, 1)
    rep = verify_upsilon_bound(X, A, Fraction(1, 10), Fraction(1, 2))
    assert not rep.hypothesis_ok and rep.lhs is None and not rep.passed


def test_bad_eta_rejected():
    X = complete(5, 2)
    A = X.empty_cochain(1)
    for eta in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(BadEta):
            fat_profile(X, A, eta)
    with pytest.raises(BadDimension):
        fat_profile(X, X.full_cochain(2), Fraction(1, 2))


def test_admissible_eta():
    a = Fraction(1, 100)
    eta = admissible_eta(a, 1)
    assert eta ** (2 ** 2) >= a and 0 < eta < 1
    assert admissible_eta(Fraction(0), 2, floor=Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(BadEta):
        admissible_eta(Fraction(2), 1)
