import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdx.cohomology import expansion
from hdx.core import build_complex
from hdx.criterion import (
    constants,
    criterion_report,
    least_link_expansion,
    link_expansions,
    log2_fraction,
)
from hdx.errors import BadParam, TooLarge
from hdx.generators import complete, complete_partite, projective_flag
from hdx.reportio import rat_from_json, rat_json
from hdx.spectral import AlphaReport, skeleton_alpha
from helpers import random_pure_complex


def test_constants_worked_values():
    rep = constants(2, Fraction(1), 100)
    assert rep.eps_bar == Fraction(1, 12288)
    assert rep.theta_d == 7664025600
    assert rep.mu == rep.mu_bar
    assert rep.eps == min(Fraction(1, 100), rep.mu)

    rep3 = constants(3, Fraction(1), 10, q=256)
    assert rep3.ramanujan_lambda_bound == 1 / 32
    assert rep3.theta_d == 192 * math.factorial(11)
    assert rep3.log2_Q_dq == rep3.theta_d * math.log2(4 * 257)


def test_constants_mu_equals_mu_bar_randomized():
    rng = random.Random(6)
    for _ in range(20):
        d = rng.randint(1, 5)
        beta = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        rep = constants(d, beta, rng.randint(1, 10**6))
        assert rep.mu == rep.mu_bar
        assert 0 < rep.eps <= rep.mu
        assert rep.alpha_base == rep.mu
        assert rep.alpha_exp_num == rep.alpha_exp_den + 1 == 2 ** (d + 1) + 1


def test_constants_alpha_log_matches_exact():
    rep = constants(2, Fraction(4, 3), 11)
    expect = log2_fraction(rep.mu) * (1 + 1 / 2**3)
    assert abs(rep.alpha_log2 - expect) < 1e-9
    if rep.alpha_float > 0:
        assert abs(math.log2(rep.alpha_float) - rep.alpha_log2) < 1e-6


def test_constants_validation():
    with pytest.raises(BadParam):
        constants(0, Fraction(1), 1)
    with pytest.raises(BadParam):
        constants(2, Fraction(0), 1)
    with pytest.raises(BadParam):
        constants(2, Fraction(1), 0)
    with pytest.raises(BadParam):
        constants(2, Fraction(1), 5, q=1)


def test_criterion_report_complete_5_2():
    X = complete(5, 2)
    rep = criterion_report(X)
    assert rep["schema"] == "hdx-report/1"
    assert rep["Q"] == 11
    assert rat_from_json(rep["beta_star"]) == Fraction(4, 3)
    assert rat_from_json(rep["alpha_star_max"]) == 0
    hyp = rep["hypotheses"]
    assert hyp["verdict"] == "met"
    conclusions = rep["conclusions"]
    assert conclusions is not None and conclusions["all_ok"]
    assert [row["k"] for row in conclusions["cocycle_expansion"]] == [0]
    assert [row["k"] for row in conclusions["cosystoles"]] == [0, 1]
    assert [row["k"] for row in conclusions["isoperimetry"]] == [0, 1]


def test_least_link_expansion_takes_the_first_least_link():
    # every vertex link of complete(5, 2) is K4, so all five links tie
    X = complete(5, 2)
    rows = list(link_expansions(X))
    assert [X.tokens_of(sigma) for sigma, _, _ in rows] == [(str(v),) for v in range(5)]
    assert all(values == [Fraction(4, 3)] for _, _, values in rows)
    first = (Fraction(4, 3), {"link": ["0"], "k": 0})
    assert least_link_expansion(X, rows) == first
    assert criterion_report(X)["beta_witness"] == first[1]
    # a later link with a strictly smaller value wins; inf never counts
    rows = [rows[0], (rows[1][0], None, [math.inf, Fraction(1, 2)]), rows[2]]
    assert least_link_expansion(X, rows) == (Fraction(1, 2), {"link": ["1"], "k": 1})
    assert least_link_expansion(X, [(rows[0][0], None, [math.inf])]) == (None, None)


def test_criterion_report_no_proper_links():
    P = projective_flag(2, 3)
    rep = criterion_report(P)
    assert rep["hypotheses"]["verdict"] == "not_applicable"
    assert rep["conclusions"] is None
    assert rep["beta_star"] is None
    assert rep["constants"] is None


def test_criterion_report_vanishing_link_expansion():
    # two triangles glued at a single vertex: the link of the shared vertex
    # is a disconnected graph, so its coboundary expansion vanishes
    X = build_complex([("a", "b", "v"), ("c", "d", "v")])
    rep = criterion_report(X)
    assert rat_from_json(rep["beta_star"]) == 0
    hyp = rep["hypotheses"]
    assert hyp["verdict"] == "unmet"
    assert rep["conclusions"] is None
    assert rep["beta_witness"]["link"] == ["v"]


def test_criterion_never_concludes_without_hypotheses():
    for X in (
        projective_flag(2, 3),
        build_complex([("a", "b", "v"), ("c", "d", "v")]),
    ):
        rep = criterion_report(X)
        if rep["hypotheses"]["verdict"] != "met":
            assert rep["conclusions"] is None


def test_criterion_eps_le_mu_le_one_on_corpus():
    for X in (complete(5, 2), complete(4, 2), complete(6, 2)):
        rep = criterion_report(X)
        if rep["constants"] is None:
            continue
        eps = rat_from_json(rep["constants"]["eps"])
        mu = rat_from_json(rep["constants"]["mu"])
        assert 0 < eps <= mu <= 1


def test_alpha_verdict_is_exact(monkeypatch):
    # complete(5, 2): d = 2, beta* = 4/3, Q = 11; the required alpha is
    # mu^(9/8) ~ 2^-178, rational because mu is an 8th power
    X = complete(5, 2)
    c = constants(2, Fraction(4, 3), 11)
    required = c.mu * (c.c0**2 / (3 * 4 * 2**5))
    assert required**8 == c.mu**9
    for alpha, verdict in (
        (required, "met"),
        (required + Fraction(1, 2**300), "unmet"),
        (Fraction(1, 10**13), "unmet"),  # a float slack of 1e-12 called this marginal
    ):
        monkeypatch.setattr(
            "hdx.criterion.skeleton_alpha",
            lambda Y, mode, cap, alpha=alpha: AlphaReport(mode, alpha, alpha, None),
        )
        hyp = criterion_report(X)["hypotheses"]
        assert (hyp["verdict"], hyp["marginal"]) == (verdict, False)


# -- one measurement per isomorphism class of links ------------------------------


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_pure_complex(random.Random(seed), dims=(2, 3), max_n=8, max_tops=10)
    )
)
@example(complete(6, 3))
@example(complete_partite(2, 2))
@example(build_complex([("a", "b", "v"), ("c", "d", "v")]))
def test_link_reuse_equals_direct_calls(X):
    rows = list(link_expansions(X))
    direct = [
        (sigma, X.link(sigma), [expansion(X.link(sigma), k, "coboundary").value
                                for k in range(X.link(sigma).d)])
        for size in range(1, X.d) for sigma in X.faces(size - 1)
    ]
    assert [(s, L) for s, L, _ in rows] == [(s, L) for s, L, _ in direct]
    assert all(r[1] is L for r, (_, L, _) in zip(rows, direct))
    assert [v for _, _, v in rows] == [v for _, _, v in direct]
    assert len({id(values) for _, _, values in rows}) == len(rows)  # no shared lists
    report = criterion_report(X)
    assert [row["alpha_star"] for row in report["links"]] == [
        rat_json(skeleton_alpha(L).value) for _, L, _ in direct
    ]
    assert [[rat_from_json(e["value"]) for e in row["exp_b"]] for row in report["links"]] == [
        v for _, _, v in direct
    ]


def test_link_sweep_logs_links_classes_and_expansions(caplog):
    # complete(6, 3): 6 vertex links complete(5, 2) and 15 edge links complete(4, 1)
    with caplog.at_level(logging.DEBUG, logger="hdx"):
        list(link_expansions(complete(6, 3)))
    assert [r.getMessage() for r in caplog.records] == [
        "link sweep: 21 links, 2 classes, 3 expansions"
    ]


def test_link_reuse_raises_at_the_first_link_over_the_cap():
    # the links of b, c, d, e are paths on 3 vertices, that of the apex z a
    # 4-cycle: with cap 8 only z, the last link, is too large
    X = build_complex([("z", "b", "c"), ("z", "c", "d"), ("z", "d", "e"), ("z", "e", "b")])
    rows = link_expansions(X, cap=8)
    assert [X.tokens_of(sigma) for sigma, _, _ in (next(rows) for _ in range(4))] == [
        ("b",), ("c",), ("d",), ("e",)
    ]
    with pytest.raises(TooLarge) as direct:
        expansion(X.link(("z",)), 0, "coboundary", 8)
    with pytest.raises(TooLarge) as reused:
        next(rows)
    assert str(reused.value) == str(direct.value)
    with pytest.raises(TooLarge) as report:
        criterion_report(X, cap=8)
    assert str(report.value) == str(direct.value)
