"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every exact claim is asserted with rational equality; spectral claims use
the stated 1e-9 tolerances. Random instances are seeded, so the suite is
deterministic.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from math import comb

from hdx.cohomology import (
    coboundary,
    cohomology_dim,
    cosystole,
    expansion,
)
from hdx.core import build_complex
from hdx.criterion import constants, criterion_report
from hdx.fat import admissible_eta, fat_profile, verify_seep, verify_upsilon_bound
from hdx.generators import (
    complete,
    complete_partite,
    cycle,
    linial_meshulam,
    projective_flag,
)
from hdx.minimize import is_locally_minimal, is_minimal, locally_minimize
from hdx.spectral import (
    lambda_max,
    mixing_check_all,
    regularity,
    skeleton_alpha,
)
from helpers import (
    level_sets_of,
    oracle_flat_cosystole,
    oracle_flat_expansion,
    oracle_is_minimal,
    oracle_ladder,
    oracle_minimal_representative,
    random_cochain,
    random_pure_complex,
    report_pair,
)


def _report(number: int, title: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({title}): PASS [{time.time() - started:.1f}s]")


def generator_outputs():
    return [
        complete(4, 2),
        complete(5, 2),
        complete(5, 3),
        complete_partite(2, 2),
        complete_partite(1, 3),
        cycle(5),
        cycle(8),
        projective_flag(2, 3),
        projective_flag(3, 3),
        linial_meshulam(7, 2, Fraction(1, 2), 7).complex,
        linial_meshulam(6, 3, Fraction(2, 3), 11).complex,
    ]


# -- criterion 1: exact identity suite ------------------------------------------


def _identity_battery(X, rng):
    for k in range(-1, X.d + 1):
        assert X.full_cochain(k).norm() == 1

    for k in range(-1, X.d - 1):
        assert not coboundary(coboundary(random_cochain(rng, X, k)))

    for k in range(-1, X.d + 1):
        A = random_cochain(rng, X, k)
        for r in range(k, X.d + 1):
            g = X.container(A, r).norm()
            assert A.norm() <= g <= comb(r + 1, k + 1) * A.norm()

    sigmas = []
    for size in range(1, X.d + 1):
        faces = X.faces(size - 1)
        for i in rng.sample(range(len(faces)), min(2, len(faces))):
            sigmas.append(faces[i])
    for sigma in sigmas:
        link = X.link(sigma)
        w = X.weight(sigma)
        for k_link in range(-1, link.d + 1):
            B = random_cochain(rng, link, k_link)
            assert X.localize(sigma, X.lift(sigma, B)) == B
            assert X.lift(sigma, B).norm() == comb(
                len(sigma) + k_link + 1, k_link + 1
            ) * w * B.norm()
            if k_link <= link.d - 1:
                assert coboundary(X.lift(sigma, B)) == X.lift(
                    sigma, coboundary(B)
                )
        k = rng.randint(len(sigma) - 1, X.d)
        A = random_cochain(rng, X, k)
        back = X.lift(sigma, X.localize(sigma, A))
        assert set(back.faces()) == {
            f for f in A.faces() if set(sigma) <= set(f)
        }
        k_link = k - len(sigma)
        B = random_cochain(rng, link, k_link)
        if A.norm() <= (A + X.lift(sigma, B)).norm():
            loc = X.localize(sigma, A)
            assert loc.norm() <= (loc + B).norm()

    for k in range(0, X.d + 1):
        A = random_cochain(rng, X, k)
        for j in range(0, k + 1):
            total = sum(
                (X.faces_containing(s, A).norm() for s in X.faces(j)),
                Fraction(0),
            )
            assert total == comb(k + 1, j + 1) * A.norm()

    for k in range(1, X.d + 1):
        S = X.skeleton(k)
        q = max(X.top_counts(k))
        for t in range(0, k + 1):
            A = random_cochain(rng, X, t)
            a_sk = S.cochain_from_bits(t, A.bits)
            lo = A.norm() / (q * comb(X.d - t, k - t))
            hi = q * comb(X.d + 1, k + 1) * A.norm()
            assert lo <= a_sk.norm() <= hi


def test_acceptance_1_exact_identities():
    started = time.time()
    rng = random.Random(20250811)
    corpus = [
        random_pure_complex(rng, max_n=12, max_tops=8) for _ in range(200)
    ] + generator_outputs()
    for X in corpus:
        _identity_battery(X, rng)
    assert time.time() - started < 120
    _report(1, "exact identity suite", started)


# -- criterion 2: cohomology oracles ---------------------------------------------


def test_acceptance_2_cohomology_oracles():
    started = time.time()
    for n in range(3, 9):
        C = cycle(n)
        assert cosystole(C, 1).value == Fraction(1, n)
        assert cohomology_dim(C, 1) == 1
    two = build_complex([("a", "b", "c"), ("x", "y", "z")])
    assert cosystole(two, 0).value == Fraction(1, 2)
    edge = build_complex([("u", "v")])
    assert expansion(edge, 0, "coboundary").value == 2

    rng = random.Random(2)
    corpus = [
        edge,
        two,
        complete(4, 2),
        complete(5, 2),
        complete(6, 2),
        complete_partite(2, 2),
        cycle(4),
        cycle(7),
        linial_meshulam(7, 2, Fraction(1, 2), 7).complex,
    ] + [random_pure_complex(rng, max_n=8, max_tops=6) for _ in range(25)]
    compared = 0
    for X in corpus:
        for k in range(0, X.d):
            if X.n_faces(k) > 16 or X.n_faces(k - 1) > 16:
                continue
            for mode in ("coboundary", "cocycle"):
                assert report_pair(expansion(X, k, mode)) == oracle_flat_expansion(
                    X, k, mode
                )
            assert report_pair(cosystole(X, k)) == oracle_flat_cosystole(X, k)
            compared += 1
    assert compared >= 25
    assert time.time() - started < 120
    _report(2, f"cohomology oracles ({compared} flat-scan comparisons)", started)


# -- criterion 3: minimization suite ----------------------------------------------


def test_acceptance_3_minimization():
    started = time.time()
    rng = random.Random(3)
    runs = 0
    while runs < 500:
        X = random_pure_complex(rng, max_n=9, max_tops=7)
        for _ in range(5):
            if runs >= 500:
                break
            k = rng.randint(0, X.d)
            A = random_cochain(rng, X, k)
            tr = locally_minimize(X, A)
            assert is_locally_minimal(X, tr.final)
            assert tr.final.norm() <= tr.initial.norm()
            assert tr.gamma.norm() <= X.max_vertex_link_size() * tr.initial.norm()
            assert len(tr.steps) <= tr.initial.top_sum()
            assert tr.final == tr.initial + coboundary(tr.gamma)
            runs += 1

    minimal_checked = subset_checked = 0
    while minimal_checked < 50:
        X = random_pure_complex(rng, max_n=7, max_tops=5)
        k = rng.randint(0, X.d)
        if X.n_faces(k - 1) > 10:
            continue
        A = oracle_minimal_representative(X, random_cochain(rng, X, k))
        assert oracle_is_minimal(X, A) and is_minimal(X, A)
        assert is_locally_minimal(X, A)
        minimal_checked += 1
        for _ in range(3):
            sub = X.cochain_from_bits(k, A.bits & rng.getrandbits(X.n_faces(k)))
            assert is_minimal(X, sub)
            subset_checked += 1
    assert time.time() - started < 300
    _report(
        3,
        f"minimization ({runs} traces, {minimal_checked} minimal, "
        f"{subset_checked} subsets)",
        started,
    )


# -- criterion 4: fat machinery ----------------------------------------------------


def test_acceptance_4_fat_machinery():
    started = time.time()
    rng = random.Random(4)

    triples = 0
    ladd_checked = 0
    while triples < 1000:
        X = random_pure_complex(rng, dims=(2, 3), max_n=9, max_tops=7)
        for _ in range(20):
            if triples >= 1000:
                break
            k = rng.randint(0, X.d - 1)
            A = random_cochain(rng, X, k)
            eta = Fraction(rng.randint(1, 19), 20)
            prof = fat_profile(X, A, eta)
            for i in range(-1, k + 1):
                assert prof.levels[i].norm() <= eta ** -(2 ** (k - i)) * A.norm()
            if A.norm() < eta ** (2 ** (k + 1)):
                assert not prof.levels[-1]
            assert prof.ladders[k] == A
            triples += 1
            if triples % 25 == 0 and A:
                sets = level_sets_of(prof)
                deg = set(prof.degenerate.faces())
                for i in range(-1, k + 1):
                    for sigma in list(sets[i])[:2]:
                        for t in list(oracle_ladder(X, sets, sigma, k))[:2]:
                            for p in X.container(X.cochain(k, [t]), k + 1).faces():
                                for t2 in A.faces():
                                    if not set(t2) <= set(p):
                                        continue
                                    inter = tuple(sorted(set(t2) & set(sigma)))
                                    assert (
                                        t2 in oracle_ladder(X, sets, inter, k)
                                        or p in deg
                                    )
                                    ladd_checked += 1

    seep_runs = 0
    for X in (complete(5, 2), complete(6, 2)):
        beta = min(
            expansion(X.link((v,)), 0, "coboundary").value
            for v in range(len(X.vertex_names))
        )
        alpha_star = max(
            [skeleton_alpha(X).value]
            + [
                skeleton_alpha(X.link((v,))).value
                for v in range(len(X.vertex_names))
            ]
        )
        for _ in range(50):
            k = rng.choice([0, 1])
            A = locally_minimize(X, random_cochain(rng, X, k)).final
            eta = rng.choice([Fraction(1, 8), Fraction(1, 3), Fraction(3, 5)])
            rep = verify_seep(X, A, eta, beta)
            assert rep.passed, (X, sorted(A.indices()), eta, rep.rows)
            eta_up = max(admissible_eta(alpha_star, k), eta)
            upo = verify_upsilon_bound(X, A, eta_up, alpha_star)
            assert upo.hypothesis_ok and upo.passed
            seep_runs += 1
    assert time.time() - started < 600
    _report(
        4,
        f"fat machinery ({triples} profiles, {ladd_checked} ladder configs, "
        f"{seep_runs} seep/degenerate checks)",
        started,
    )


# -- criterion 5: spectral suite -----------------------------------------------------


def _kab(a, b):
    return build_complex([(f"l{i}", f"r{j}") for i in range(a) for j in range(b)])


def test_acceptance_5_spectral():
    started = time.time()
    corpus = []
    for a in range(1, 7):
        for b in range(a, 7):
            X = _kab(a, b)
            R = regularity(X)
            lam, reports = lambda_max(X, R)
            assert abs(lam) <= 1e-9
            for r in reports:
                assert abs(r.lambda1 - math.sqrt(r.degrees[0] * r.degrees[1])) <= 1e-9
                assert r.residual <= 1e-9
            corpus.append((X, R))

    P = projective_flag(2, 3)
    RP = regularity(P)
    lam, reports = lambda_max(P, RP)
    assert abs(lam - math.sqrt(2) / 3) <= 1e-9
    corpus.append((P, RP))

    for X in (
        cycle(6),
        cycle(8),
        complete_partite(2, 2),
        complete_partite(2, 3),
        complete_partite(3, 2),
        complete(4, 3),
    ):
        R = regularity(X)
        _, reports = lambda_max(X, R)
        for r in reports:
            assert abs(r.lambda1 - math.sqrt(r.degrees[0] * r.degrees[1])) <= 1e-9
            assert r.residual <= 1e-9
        corpus.append((X, R))

    scanned = 0
    for X, R in corpus:
        if len(X.vertex_names) > 12:
            continue
        scan = mixing_check_all(X, R)
        assert scan.failed == 0, (X, scan.failures)
        scanned += scan.pairs

    certified = 0
    for X, R in corpus:
        if len(X.vertex_names) > 14:
            continue
        exact = skeleton_alpha(X, "exhaustive").value
        lam, _ = lambda_max(X, R)
        assert float(exact) <= lam + 1e-9
        certified += 1
    assert time.time() - started < 300
    _report(
        5,
        f"spectral suite ({scanned} mixing pairs, {certified} certificates)",
        started,
    )


# -- criterion 6: constants -----------------------------------------------------------


def test_acceptance_6_constants():
    started = time.time()
    rng = random.Random(6)
    for _ in range(20):
        d = rng.randint(1, 5)
        beta = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        rep = constants(d, beta, rng.randint(1, 10**9))
        assert rep.mu == rep.mu_bar
    assert constants(2, Fraction(1), 7).eps_bar == Fraction(1, 12288)
    assert constants(2, Fraction(1), 7).theta_d == 7664025600
    assert constants(3, Fraction(1), 7, q=256).ramanujan_lambda_bound == Fraction(1, 32)
    assert time.time() - started < 1
    _report(6, "constant formulas", started)


# -- criterion 7: criterion pipeline ----------------------------------------------------


_RAT = {
    "oneOf": [
        {"type": "null"},
        {"const": "inf"},
        {
            "type": "object",
            "required": ["num", "den"],
            "properties": {"num": {"type": "integer"}, "den": {"type": "integer"}},
        },
    ]
}

_CRITERION_SCHEMA = {
    "type": "object",
    "required": [
        "schema",
        "kind",
        "complex",
        "Q",
        "beta_star",
        "links",
        "alpha_x",
        "alpha_star_max",
        "constants",
        "hypotheses",
        "conclusions",
    ],
    "properties": {
        "schema": {"const": "hdx-report/1"},
        "kind": {"const": "criterion"},
        "Q": {"type": "integer", "minimum": 1},
        "beta_star": _RAT,
        "alpha_x": _RAT,
        "alpha_star_max": _RAT,
        "links": {"type": "array"},
        "hypotheses": {
            "type": "object",
            "required": ["verdict", "note", "alpha_measured"],
            "properties": {
                "verdict": {
                    "enum": ["met", "unmet", "marginal", "not_applicable"]
                }
            },
        },
    },
}


def test_acceptance_7_criterion_pipeline():
    started = time.time()
    import jsonschema

    for X, expect_met in ((complete(5, 2), True), (projective_flag(2, 3), False)):
        rep = criterion_report(X)
        json.dumps(rep)  # must be serializable
        jsonschema.validate(rep, _CRITERION_SCHEMA)
        verdict = rep["hypotheses"]["verdict"]
        if verdict != "met":
            assert rep["conclusions"] is None
        else:
            assert rep["conclusions"]["all_ok"]
        assert (verdict == "met") == expect_met
    assert time.time() - started < 600
    _report(7, "criterion pipeline", started)


# -- criterion 8: determinism --------------------------------------------------------------


def test_acceptance_8_determinism(tmp_path, capsys, monkeypatch):
    started = time.time()
    from hdx.cli import main

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    cx = str(tmp_path / "k52.cx")
    pg = str(tmp_path / "pg.cx")
    ty = str(tmp_path / "pg.types")
    lm = str(tmp_path / "lm.cx")
    kp = str(tmp_path / "kp.cx")

    commands = {
        "generate": ["generate", "--kind", "complete", "--n", "5", "--d", "2", "--out", cx],
        "generate2": [
            "generate", "--kind", "projective_flag", "--q", "2", "--n", "3",
            "--out", pg, "--types-out", ty,
        ],
        "generate3": [
            "generate", "--kind", "linial_meshulam", "--n", "7", "--d", "2",
            "--p", "1/2", "--seed", "7", "--out", lm,
        ],
        "generate4": [
            "generate", "--kind", "complete_partite", "--d", "1", "--m", "2",
            "--out", kp,
        ],
    }
    outs = {}
    files = {}
    for name, argv in commands.items():
        code, out = run(*argv)
        assert code == 0
        outs[name] = out
        files[name] = open(argv[argv.index("--out") + 1]).read()
    for name, argv in commands.items():
        code, out = run(*argv)
        assert out == outs[name]
        assert open(argv[argv.index("--out") + 1]).read() == files[name]

    verbs = [
        ["info", cx],
        ["expansion", "--k", "1", "--mode", "coboundary", cx],
        ["expansion", "--k", "0", "--mode", "cocycle", cx],
        ["cosystole", "--k", "1", cx],
        ["minimize", "--k", "1", "--cochain", "0,1,2,5", cx],
        ["fat-profile", "--k", "1", "--eta", "1/3", "--cochain", "0,2,4", cx],
        ["seep-check", "--k", "1", "--eta", "1/3", "--cochain", "0", cx],
        ["spectrum", pg, "--types", ty],
        ["mixing-check", "--a", "0:0,0:1", "--b", "1:0,1:1", kp],
        ["skeleton-alpha", cx],
        ["constants", "--d", "3", "--beta", "4/3", "--Q", "121", "--q", "9"],
        ["criterion", cx],
        ["criterion", pg],
    ]
    for argv in verbs:
        first_code, first = run(*argv)
        second_code, second = run(*argv)
        assert first == second and first_code == second_code, argv

    # hdx is single-process and reads no worker-count variable
    monkeypatch.delenv("HDX_THREADS", raising=False)
    _, a = run("criterion", cx)
    monkeypatch.setenv("HDX_THREADS", "8")
    _, b = run("criterion", cx)
    assert a == b

    # cross-platform reproducibility of the seeded generator
    lm_result = linial_meshulam(8, 2, Fraction(1, 3), 2024)
    faces = sorted(lm_result.complex.tokens_of(f) for f in lm_result.complex.faces(2))
    digest = hashlib.sha256(repr(faces).encode()).hexdigest()
    assert digest == "1c1f47dffc04a8e86084079572fa2bb1e072cd134aacf8ced64ecafb6a4012eb"
    _report(8, "determinism", started)
