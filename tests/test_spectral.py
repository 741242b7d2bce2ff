import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hdx.spectral
from hdx.core import build_complex
from hdx.errors import (
    BadDimension,
    BadParam,
    EmptyInput,
    HdxError,
    NotBiregular,
    NotRegular,
    NoValidTyping,
    TooLarge,
)
from hdx.generators import (
    complete,
    complete_partite,
    complete_partite_types,
    cycle,
    linial_meshulam,
    projective_flag,
    projective_flag_types,
)
from hdx.spectral import (
    RegularStructure,
    _face_array,
    lambda2,
    lambda_max,
    mixing_check,
    mixing_check_all,
    regularity,
    skeleton_alpha,
    type_graph,
)
from helpers import (
    oracle_lambda2,
    oracle_mixing_scan,
    oracle_regularity,
    oracle_skeleton_alpha,
    oracle_type_graph,
    random_pure_complex,
)


def kab(a, b):
    return build_complex([(f"l{i}", f"r{j}") for i in range(a) for j in range(b)])


REGULAR_CORPUS = None


def regular_corpus():
    global REGULAR_CORPUS
    if REGULAR_CORPUS is None:
        REGULAR_CORPUS = [
            kab(1, 1),
            kab(2, 2),
            kab(2, 3),
            kab(3, 3),
            kab(4, 4),
            kab(5, 6),
            kab(6, 6),
            cycle(6),
            cycle(8),
            complete_partite(2, 2),
            complete_partite(2, 3),
            complete_partite(3, 2),
            complete(4, 3),
        ]
    return REGULAR_CORPUS


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("natural", [True, False])
def test_regularity_complete_partite(d, m, natural):
    # an I-face extends to m^(|J| - |I|) J-faces, one per choice in each part
    # of J outside I; inference finds an equivalent typing
    X = complete_partite(d, m)
    R = regularity(X, complete_partite_types(X) if natural else None)
    assert R.part_sizes == (m,) * (d + 1)
    assert len(R.table) == 3 ** (d + 1)
    assert all(c == m ** (len(J) - len(I)) for (I, J), c in R.table.items())


def test_face_array_is_built_once_and_read_only():
    X = projective_flag(2, 3)
    F = _face_array(X, 1)
    assert _face_array(X, 1) is F and F.shape == (21, 2)
    with pytest.raises(ValueError):
        F[0, 0] = 0


def test_regularity_k4_fails():
    with pytest.raises(NoValidTyping):
        regularity(complete(4, 1))


def test_regularity_flag_complex():
    P = projective_flag(2, 3)
    R = regularity(P, projective_flag_types(P))
    assert R.table[(frozenset(), frozenset({0}))] == 7
    G = type_graph(P, R, 0, 1)
    assert (G.left_degree, G.right_degree) == (3, 3)
    assert G.connected


def test_regularity_violation_witness():
    # path a-b-c-d typed alternately: type-0 vertices have degrees 1 and 2
    X = build_complex([("a", "b"), ("b", "c"), ("c", "d")])
    types = {"a": 0, "b": 1, "c": 0, "d": 1}
    with pytest.raises(NotRegular) as info:
        regularity(X, types)
    err = info.value
    assert err.i_types and err.j_types


def test_not_biregular_direct():
    X = build_complex([("a", "b"), ("b", "c"), ("c", "d")])
    # hand-build a structure bypassing the table check to hit the graph check
    from hdx.spectral import RegularStructure

    ids = X.vertex_ids(["a", "b", "c", "d"])
    types = {v: (0 if X.vertex_names[v] in ("a", "c") else 1) for v in ids}
    R = RegularStructure(X, types, (2, 2), {})
    with pytest.raises(NotBiregular):
        type_graph(X, R, 0, 1)


def test_type_graph_rejects_types_out_of_range():
    P = projective_flag(2, 3)
    R = regularity(P)
    for i, j in ((-1, 0), (0, -1), (2, 3), (0, 2)):
        with pytest.raises(BadDimension, match=r"types must lie in 0\.\.1"):
            type_graph(P, R, i, j)
    with pytest.raises(BadDimension, match="type pair must be distinct"):
        type_graph(P, R, 1, 1)


def test_lambda2_matches_full_square_oracle():
    """The SVD of the biadjacency matrix against eigh of the full adjacency
    matrix, on every type pair of the regular corpus and four buildings."""
    buildings = [projective_flag(q, n) for q in (2, 3) for n in (3, 4)]
    complete_pairs = 0
    for X in regular_corpus() + buildings:
        R = regularity(X)
        for i, j in combinations(range(X.d + 1), 2):
            G = type_graph(X, R, i, j)
            got = lambda2(G)
            want = oracle_lambda2(oracle_type_graph(X, R, i, j))
            assert abs(got.lambda1 - want.lambda1) <= 1e-12, (X, i, j)
            assert abs(got.lambda2_normalized - want.lambda2_normalized) <= 1e-12, (X, i, j)
            assert (got.pair, got.degrees, got.connected) == (want.pair, want.degrees, want.connected)
            assert got.residual <= 1e-9
            if G.left_degree == len(G.right) and G.right_degree == len(G.left):
                # complete bipartite: the only nonzero singular value is lambda1,
                # which a Gram-matrix route (eigvalsh of B B^T) blurs to ~1e-8
                assert got.lambda2_normalized <= 1e-12, (X, i, j, got)
                complete_pairs += 1
    assert complete_pairs >= 20


@pytest.mark.parametrize("q", [2, 3])
def test_building_type_graph_closed_forms(q):
    """PG(3,q): points-lines and lines-planes have normalized second eigenvalue
    sqrt(q/(q^2+q+1)), points-planes (a point-hyperplane design) q/(q^2+q+1)."""
    P = projective_flag(q, 4)
    R = regularity(P, projective_flag_types(P))
    plane = q * q + q + 1
    want = {(0, 1): math.sqrt(q / plane), (1, 2): math.sqrt(q / plane), (0, 2): q / plane}
    lam, reports = lambda_max(P, R)
    assert {r.pair: r.lambda2_normalized for r in reports} == pytest.approx(want, abs=1e-12)
    assert all(r.residual <= 1e-9 for r in reports)
    assert abs(lam - max(want.values())) <= 1e-12


def test_lambda_complete_bipartite_and_trivial():
    for a in range(1, 7):
        for b in range(a, 7):
            X = kab(a, b)
            lam, reports = lambda_max(X, regularity(X))
            assert abs(lam) <= 1e-9
            r = reports[0]
            assert abs(r.lambda1 - math.sqrt(r.degrees[0] * r.degrees[1])) <= 1e-9
            assert r.residual <= 1e-9
            assert 0 <= r.lambda2_normalized <= 1 + 1e-9


def test_lambda_heawood():
    P = projective_flag(2, 3)
    lam, _ = lambda_max(P, regularity(P))
    assert abs(lam - math.sqrt(2) / 3) <= 1e-9


def test_lambda_flag_complexes_below_one():
    # the thickness-based bound is vacuous at this scale; record the actual
    # spectra and check they are genuine certificates
    for q, n in [(2, 3), (3, 3), (2, 4)]:
        X = projective_flag(q, n)
        lam, reports = lambda_max(X, regularity(X))
        assert 0 <= lam <= 1
        for r in reports:
            assert 0 <= r.lambda2_normalized <= 1 + 1e-9
            assert abs(r.lambda1 - math.sqrt(r.degrees[0] * r.degrees[1])) <= 1e-9
            assert r.residual <= 1e-9


def test_lambda_six_cycle():
    C = cycle(6)
    lam, _ = lambda_max(C, regularity(C))
    assert abs(lam - 0.5) <= 1e-9


def test_disconnected_flagged():
    X = build_complex([("a", "b"), ("c", "d")])
    R = regularity(X)
    rep = lambda2(type_graph(X, R, 0, 1))
    assert not rep.connected
    assert rep.lambda2_normalized > 0.99  # trivial eigenvalue repeats


def test_mixing_check_examples():
    X = kab(2, 2)
    R = regularity(X)
    rep = mixing_check(X, R, [], [])
    assert rep.lhs == 0 and rep.verdict == "pass"
    rep = mixing_check(X, R, ["l0", "l1"], ["r0", "r1"])
    assert rep.lhs == 1 and rep.verdict in ("pass", "marginal")


def test_mixing_scan_matches_single_checks():
    rng = random.Random(3)
    X = complete_partite(2, 2)
    R = regularity(X)
    lam, _ = lambda_max(X, R)
    scan = mixing_check_all(X, R, lam=lam)
    assert scan.failed == 0
    n = len(X.vertex_names)
    for _ in range(25):
        am = rng.getrandbits(n)
        bm = rng.getrandbits(n)
        a = [X.vertex_names[i] for i in range(n) if (am >> i) & 1]
        b = [X.vertex_names[i] for i in range(n) if (bm >> i) & 1]
        rep = mixing_check(X, R, a, b)
        assert rep.verdict in ("pass", "marginal")
        assert float(rep.lhs) - rep.rhs <= scan.max_margin + 1e-12

    # every pair at lam = 0, where some pairs fail; with three disjoint edges
    # A = B = {a, b} fails only if the edge inside A & B is counted twice
    for C in (cycle(6), build_complex([("a", "b"), ("c", "d"), ("e", "f")])):
        R = regularity(C)
        scan = mixing_check_all(C, R, lam=0.0)
        subsets = [[C.vertex_names[i] for i in range(6) if (m >> i) & 1] for m in range(64)]
        verdicts = [
            ((am, bm), mixing_check(C, R, a, b, lam=0.0).verdict)
            for am, a in enumerate(subsets)
            for bm, b in enumerate(subsets)
        ]
        fails = [pair for pair, v in verdicts if v == "fail"]
        assert scan.failed == len(fails) > 0 and scan.failures == tuple(fails[:8])
        assert scan.marginal == sum(v == "marginal" for _, v in verdicts)


def test_mixing_exhaustive_regular_corpus():
    for X in regular_corpus():
        if len(X.vertex_names) > 12:
            continue
        R = regularity(X)
        scan = mixing_check_all(X, R)
        assert scan.failed == 0, (X, scan.failures)


def test_mixing_exact_ties_are_not_marginal():
    # these complexes meet the mixing bound with equality on many pairs; a
    # float margin used to count some of those ties as marginal
    for X, lam in ((kab(3, 6), 0.0), (complete_partite(2, 4), 0.0), (kab(3, 6), None)):
        scan = mixing_check_all(X, regularity(X), lam=lam)
        assert (scan.marginal, scan.failed, scan.max_margin) == (0, 0, 0.0)


def disjoint_edges(k):
    return build_complex([(f"a{i}", f"b{i}") for i in range(k)])


def scan_fields(scan):
    return (
        scan.pairs, scan.passed, scan.marginal, scan.failed,
        float.hex(scan.max_margin), scan.failures,
    )


def assert_scan_matches_oracle(X, lam):
    # with lam given the scan reads no regular structure, so X need not be regular
    scan = mixing_check_all(X, None, lam=lam)
    assert scan_fields(scan) == scan_fields(oracle_mixing_scan(X, lam))
    return scan


MIXING_FAMILIES = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda ab: kab(*ab)),
    st.integers(2, 5).map(lambda k: cycle(2 * k)),
    st.sampled_from([(1, 2), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2), (4, 2)]).map(
        lambda dm: complete_partite(*dm)
    ),
    st.integers(1, 5).map(disjoint_edges),
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(MIXING_FAMILIES, st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.0)))
@example(complete_partite(2, 4), None)
@example(complete_partite(2, 4), 0.0)
@example(cycle(12), 0.25)
@example(cycle(12), 0.0)
@example(disjoint_edges(6), 0.0)
def test_mixing_scan_matches_oracle(X, lam):
    # the oracle scores every pair in float64; the scan decides most pairs by
    # the sign of an exact integer and scores only the rest, the pairs of live
    # subsets; at n = 12 and lam = 0 these two have a strict live subset and
    # over 8 failures, so the order of failures over the gathered live rows
    # and columns is checked
    if lam is None:
        lam, _ = lambda_max(X, regularity(X))
    assert_scan_matches_oracle(X, lam)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_pure_complex(random.Random(seed), dims=(1, 2, 3), max_n=9)
    ),
    st.floats(0.0, 1.0),
)
def test_mixing_scan_matches_oracle_off_regular(X, lam):
    assert_scan_matches_oracle(X, lam)


def test_mixing_scan_marginal_branch():
    # the least lam at which every pair of cycle(6) passes, lowered so that
    # the tightest pair's margin is about 5e-10: marginal, not failed
    X = cycle(6)
    d, N, n = X.d, X.n_top, len(X.vertex_names)
    den0 = X.norm_den(0)
    best = None
    for am in range(1, 1 << n):
        a = [X.vertex_names[i] for i in range(n) if (am >> i) & 1]
        va = int(sum(X.weight((v,)) for v in a) * den0)
        for bm in range(1, 1 << n):
            b = [X.vertex_names[i] for i in range(n) if (bm >> i) & 1]
            vb = int(sum(X.weight((v,)) for v in b) * den0)
            edge_tops = int(X.edges_between(a, b).norm() * X.norm_den(1))
            ratio = (N * edge_tops - va * vb) / ((d + 1) * N * math.sqrt(va * vb))
            if best is None or ratio > best[0]:
                best = (ratio, va * vb)
    lam_star, vv = best
    scale = 2.0 / (d * N)  # margin per unit of lam below lam_star, over sqrt(v_A v_B)
    lam = lam_star - 5e-10 / (scale * math.sqrt(vv))
    scan = assert_scan_matches_oracle(X, lam)
    assert scan.marginal > 0 and scan.failed == 0
    assert 0.0 < scan.max_margin <= hdx.spectral.MIXING_SLACK


def test_mixing_scan_many_failures():
    for X in (cycle(6), cycle(8), disjoint_edges(3)):
        scan = assert_scan_matches_oracle(X, 0.0)
        assert scan.failed > 8 and len(scan.failures) == 8


def test_mixing_scan_float64_path(monkeypatch):
    # no complex within the default cap reaches the float32 bound, so lower it
    monkeypatch.setattr(hdx.spectral, "FLOAT32_EXACT", 0)
    for X, lam in ((cycle(6), 0.0), (complete_partite(2, 3), None), (kab(3, 4), 0.1)):
        if lam is None:
            lam, _ = lambda_max(X, regularity(X))
        assert_scan_matches_oracle(X, lam)


def test_mixing_positive_pairs_have_live_subsets():
    # the bound behind the scan, from edges_between alone: N L(A,B) - v_A v_B > 0
    # needs some v with N L(A,{v}) - v_A t_v > 0, and the same for B
    positive = 0
    for seed in range(15):
        X = random_pure_complex(random.Random(seed), dims=(1, 2), max_n=7)
        N, n, tops = X.n_top, len(X.vertex_names), X.top_counts(0)
        subsets = [[X.vertex_names[i] for i in range(n) if (m >> i) & 1] for m in range(1 << n)]
        vtop = [sum(tops[i] for i in range(n) if (m >> i) & 1) for m in range(1 << n)]
        live = [
            any(
                N * X.edges_between(a, [v]).top_sum() - vtop[m] * tops[i] > 0
                for i, v in enumerate(X.vertex_names)
            )
            for m, a in enumerate(subsets)
        ]
        for am, a in enumerate(subsets):
            for bm, b in enumerate(subsets):
                if N * X.edges_between(a, b).top_sum() - vtop[am] * vtop[bm] > 0:
                    positive += 1
                    assert live[am] and live[bm], (seed, am, bm)
    assert positive > 0


def test_mixing_scan_counts_live_pairs():
    # no subset of complete_partite(2, 4) or complete(12, 2) is live; in
    # cycle(6), N = 6 and t_v = 2, so A is live when some vertex has more than
    # 2|A|/3 neighbours in A: the 6 single vertices and the 6 pairs at distance 2
    cases = ((complete_partite(2, 4), None, 0), (complete(12, 2), 0.0, 0), (cycle(6), 0.0, 144))
    for X, lam, scanned in cases:
        R = regularity(X) if lam is None else None
        assert mixing_check_all(X, R, lam=lam).scanned == scanned


def test_mixing_scan_on_a_building():
    # 4^14 pairs, of which 4,123^2 are multiplied; every pair passes
    X = projective_flag(2, 3)
    scan = mixing_check_all(X, regularity(X), cap=4**14)
    assert (scan.failed, scan.marginal, scan.max_margin) == (0, 0, 0.0)
    assert scan.pairs == 4**14 and scan.scanned == 4123**2


@pytest.mark.parametrize("lam", [-1e-12, -1.0, math.nan, math.inf, -math.inf])
def test_mixing_rejects_bad_lam(lam):
    X = kab(2, 2)
    R = regularity(X)
    with pytest.raises(BadParam):
        mixing_check_all(X, R, lam=lam)
    with pytest.raises(BadParam):
        mixing_check(X, R, ["l0"], ["r0"], lam=lam)


def test_mixing_needs_dimension_one():
    X = build_complex([("a",), ("b",)])
    R = regularity(X)
    for lam in (None, 0.5):
        with pytest.raises(BadDimension):
            mixing_check_all(X, R, lam=lam)
        with pytest.raises(BadDimension):
            mixing_check(X, R, ["a"], ["b"], lam=lam)


def test_skeleton_alpha_examples():
    T = build_complex([("a", "b", "c")])
    rep = skeleton_alpha(T)
    assert rep.value == 0 and rep.raw_max < 0

    X = complete(4, 2)
    single = skeleton_alpha(X)
    assert single.value == 0
    # single vertex contributes zero self-edges
    assert X.edges_between(("0",), ("0",)).norm() == 0


def test_skeleton_alpha_positive_case():
    # two triangles sharing an edge: the shared edge's endpoints form a
    # dense pair relative to their weight
    X = build_complex([("a", "b", "c"), ("b", "c", "d")])
    rep = skeleton_alpha(X)
    assert rep.value >= 0
    # exact check of the witness value
    na = sum((X.weight((v,)) for v in rep.witness), Fraction(0))
    e = X.edges_between(rep.witness, rep.witness).norm()
    assert rep.raw_max == (e / 4 - na * na) / na


def test_skeleton_alpha_spectral_certificate():
    for X in regular_corpus():
        if len(X.vertex_names) > 14:
            continue
        exact = skeleton_alpha(X, "exhaustive")
        spectral = skeleton_alpha(X, "spectral")
        assert float(exact.value) <= spectral.value + 1e-9


def test_skeleton_alpha_cap():
    X = complete(6, 2)
    with pytest.raises(TooLarge):
        skeleton_alpha(X, cap=1 << 4)
    # the default is the one DEFAULT_CAP of every exhaustive search
    assert skeleton_alpha(cycle(21)).value == Fraction(5, 168)
    with pytest.raises(TooLarge, match="cap is 16777216"):
        skeleton_alpha(cycle(25))


def test_skeleton_alpha_isolated_vertices():
    X = build_complex([("a",), ("b",), ("c",)])
    assert X.d == 0
    rep = skeleton_alpha(X)
    assert rep.value == 0


def alpha_corpus(test):
    """The derandomized skeleton_alpha corpus. complete(6, 2) and
    complete_partite(2, 2) have many tied subsets, which checks that the float
    shortlist keeps the smallest exact maximizer."""
    for X in (complete(6, 2), complete_partite(2, 2), build_complex([("a",), ("b",), ("c",)])):
        test = example(X=X)(test)
    complexes = st.integers(0, 2**32 - 1).map(
        lambda seed: random_pure_complex(random.Random(seed), dims=(0, 1, 2, 3), max_n=9)
    )
    return settings(derandomize=True, deadline=None, max_examples=60)(given(X=complexes)(test))


@alpha_corpus
def test_skeleton_alpha_matches_oracle(X):
    rep = skeleton_alpha(X)
    assert (rep.value, rep.raw_max, rep.witness) == oracle_skeleton_alpha(X)


@pytest.mark.parametrize("block", [2, 4])
@alpha_corpus
def test_skeleton_alpha_does_not_depend_on_the_block_size(block, X):
    # with tiny blocks the running shortlist maximum and the ties span blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hdx.spectral, "SUBSET_BLOCK", block)
        rep = skeleton_alpha(X)
    assert (rep.value, rep.raw_max, rep.witness) == oracle_skeleton_alpha(X)


def test_skeleton_alpha_memory_is_one_block():
    # the full tables of 2^22 subsets alone take over 100 MB
    script = (
        "import resource\n"
        "from fractions import Fraction\n"
        "from hdx.generators import linial_meshulam\n"
        "from hdx.spectral import skeleton_alpha\n"
        "skeleton_alpha(linial_meshulam(22, 2, Fraction(1, 2), 1).complex, cap=1 << 22)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 100 * 1024  # KiB


def _typing_instances():
    """Seeded complexes, each with None (inferred) and explicit typings.

    Random subcomplexes of complete_partite(d, m) get their natural typing under
    a random relabelling of the parts, so most are typed validly and many are
    not regular; complete(n, d) subcomplexes and linial_meshulam complexes get
    random types, which usually fail the top-face check. At d = 4 inference
    often meets a clash in a face with several untyped vertices. Two typings
    fail the range and cover checks."""
    rng = random.Random(20)
    for _ in range(70):
        d = rng.randint(0, 3)
        m = rng.randint(1, 3)
        full = complete_partite(d, m)
        tops = rng.sample(full.faces(d), rng.randint(1, full.n_top))
        X = build_complex([full.tokens_of(t) for t in tops])
        perm = list(range(d + 1))
        rng.shuffle(perm)
        yield X, None
        yield X, {name: perm[int(name.split(":")[0])] for name in X.vertex_names}
    for _ in range(60):
        d = rng.randint(0, 4)
        n = rng.randint(d + 1, 8)
        full = complete(n, d)
        tops = rng.sample(full.faces(d), rng.randint(1, min(full.n_top, 12)))
        X = build_complex([full.tokens_of(t) for t in tops])
        yield X, None
        yield X, {name: rng.randint(0, d) for name in X.vertex_names}
    for seed in range(30):
        d = 1 + seed % 3
        try:
            X = linial_meshulam(rng.randint(d + 2, 8), d, Fraction(rng.randint(1, 3), 4), seed).complex
        except EmptyInput:
            continue
        yield X, None
        yield X, {name: rng.randint(0, d) for name in X.vertex_names}
    # inference types two vertices of one face alike while the face still has
    # two untyped vertices; the sweep must visit that face at once
    yield build_complex(["01236", "01247", "01467", "02356", "02457", "12347", "13467",
                         "14567", "23457"]), None
    # the first count that differs is at a different I-face in canonical order
    # than in type order: (0,1) -> (0,1,2) breaks at 0:0 1:1, not at 0:1 1:0
    X = build_complex([("0:0", "1:0", "2:0"), ("0:0", "1:1", "2:0"), ("0:0", "1:1", "2:1"),
                       ("0:1", "1:0", "2:0"), ("0:1", "1:0", "2:1"), ("0:1", "1:1", "2:1")])
    yield X, {name: {"0": 1, "1": 0, "2": 2}[name[0]] for name in X.vertex_names}
    X = complete_partite(2, 2)
    yield X, {name: 3 for name in X.vertex_names}
    yield X, {name: 0 for name in X.vertex_names[1:]}
    for X in (projective_flag(2, 3), projective_flag(2, 4), complete(6, 3), cycle(7), cycle(8)):
        yield X, None


def _outcome(f, *args):
    """f(*args), or the exception it raises with every field the CLI reports."""
    try:
        return "ok", f(*args)
    except HdxError as exc:
        fields = [getattr(exc, a, None) for a in ("i_types", "j_types", "face_tokens", "counts")]
        return "raised", (type(exc), str(exc), fields)


def _graph_fields(G):
    return (G.i, G.j, G.left, G.right, G.left_degree, G.right_degree, G.connected)


def test_regularity_matches_oracle():
    regular = non_regular = 0
    for X, types in _typing_instances():
        got, want = _outcome(regularity, X, types), _outcome(oracle_regularity, X, types)
        if want[0] == "raised":
            assert got == want, (X, types)
            non_regular += 1
        else:
            assert got[0] == "ok", (X, types, got)
            R, O = got[1], want[1]
            assert list(R.types.items()) == list(O.types.items())
            assert R.part_sizes == O.part_sizes
            assert list(R.table.items()) == list(O.table.items())
            regular += 1
        if X.d < 1:
            continue
        # type graphs of the regular structure, or of any complete in-range typing
        if got[0] == "ok":
            R = got[1]
        elif types and set(types) == set(X.vertex_names) and max(types.values()) <= X.d:
            vtypes = {X.vertex_ids([name]).pop(): t for name, t in types.items()}
            R = RegularStructure(X, vtypes, (), {})
        else:
            continue
        for i in range(X.d + 1):
            for j in range(X.d + 1):
                if i == j:
                    continue
                got_g = _outcome(type_graph, X, R, i, j)
                want_g = _outcome(oracle_type_graph, X, R, i, j)
                assert got_g[0] == want_g[0], (X, R.types, i, j)
                if got_g[0] == "raised":
                    assert got_g == want_g
                    continue
                G, H = got_g[1], want_g[1]
                assert _graph_fields(G) == _graph_fields(H)
                B = G.biadjacency
                assert np.array_equal(B, H.matrix[: len(G.left), len(G.left) :]) and B.dtype == np.float64
    # the corpus reaches both outcomes often
    assert regular > 50 and non_regular > 50, (regular, non_regular)
