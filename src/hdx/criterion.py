"""Constant formulas and the end-to-end hypothesis/conclusion report.

The report measures, for one complex: the degree bound Q, the exact minimum
coboundary expansion over proper links, and exact skeleton-expansion
constants for the complex and its links. It instantiates the promised
(epsilon, mu, alpha) from those measurements, decides whether the measured
skeleton constants meet the required alpha, and only when they do verifies
the concluded expansion, cosystole, and small-cochain isoperimetry bounds
by brute force. Instances failing the hypotheses are labeled silent, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .caps import check_enumeration
from .cohomology import coboundary, cosystole, expansion
from .core import Complex
from .errors import BadParam
from .minimize import is_locally_minimal
from .reportio import rat_json
from .spectral import skeleton_alpha


def _log2_int(n: int) -> float:
    bl = n.bit_length()
    if bl <= 512:
        return math.log2(n)
    return math.log2(n >> (bl - 512)) + (bl - 512)


def log2_fraction(x: Fraction) -> float:
    return _log2_int(x.numerator) - _log2_int(x.denominator)


@dataclass(frozen=True)
class ConstantsReport:
    d: int
    beta: Fraction
    Q: int
    q: int | None
    c0: Fraction  # beta / ((d+2) * 2^(d+2))
    mu_bar: Fraction
    eps_bar: Fraction
    mu: Fraction
    eps: Fraction
    alpha_base: Fraction  # alpha = alpha_base ** (exp_num / exp_den)
    alpha_exp_num: int
    alpha_exp_den: int
    alpha_float: float
    alpha_log2: float
    theta_d: int
    log2_Q_dq: float | None
    ramanujan_lambda_bound: float | None

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "beta": rat_json(self.beta),
            "Q": self.Q,
            "q": self.q,
            "c0": rat_json(self.c0),
            "mu_bar": rat_json(self.mu_bar),
            "eps_bar": rat_json(self.eps_bar),
            "mu": rat_json(self.mu),
            "eps": rat_json(self.eps),
            "alpha": {
                "base": rat_json(self.alpha_base),
                "exp_num": self.alpha_exp_num,
                "exp_den": self.alpha_exp_den,
                "float": self.alpha_float,
                "log2": self.alpha_log2,
            },
            "theta_d": self.theta_d,
            "log2_Q_dq": self.log2_Q_dq,
            "ramanujan_lambda_bound": self.ramanujan_lambda_bound,
        }


def _mu_root(d: int, c0: Fraction) -> Fraction:
    """c0^d / (3 (d+2) 2^(d+3)), whose 2^(d+1)-th power is mu."""
    return c0**d / (3 * (d + 2) * 2 ** (d + 3))


def constants(d: int, beta: Fraction, Q: int, q: int | None = None) -> ConstantsReport:
    """Evaluate every constant formula, exactly where the value is rational.

    mu and mu_bar share one expression; eps = min(1/Q, mu). The required
    skeleton constant alpha = mu^(1 + 1/2^(d+1)) is rational, since mu is
    the 2^(d+1)-th power of `_mu_root`, so alpha = mu * _mu_root. Its
    numerator and denominator run to thousands of bits, so the report keeps
    it symbolically alongside float and log2 evaluations. The flag-complex
    size bound is reported in log2 only; it overflows any fixed-width
    integer already for small d.
    """
    beta = Fraction(beta)
    if d < 1:
        raise BadParam(f"dimension must be >= 1, got {d}")
    if beta <= 0:
        raise BadParam(f"beta must be positive, got {beta}")
    if Q < 1:
        raise BadParam(f"degree bound must be >= 1, got {Q}")
    if q is not None and q < 2:
        raise BadParam(f"thickness must be >= 2, got {q}")

    c0 = beta / ((d + 2) * 2 ** (d + 2))
    mu_bar = _mu_root(d, c0) ** (2 ** (d + 1))
    eps_bar = Fraction(1, 3) * c0**d
    mu = mu_bar
    eps = min(Fraction(1, Q), mu)

    exp_den = 2 ** (d + 1)
    exp_num = exp_den + 1
    alpha_log2 = log2_fraction(mu) * exp_num / exp_den
    alpha_float = 2.0**alpha_log2  # underflows to 0.0 when astronomically small

    theta_d = max(2**d * factorial(d + 1), 192 * factorial(11))
    log2_q = theta_d * math.log2((d + 1) * (q + 1)) if q is not None else None
    ram = 2**d * float(q) ** (-(d - 1) / 2) if q is not None else None
    return ConstantsReport(
        d, beta, Q, q, c0, mu_bar, eps_bar, mu, eps,
        mu, exp_num, exp_den, alpha_float, alpha_log2, theta_d, log2_q, ram,
    )


# -- the pipeline report -------------------------------------------------------


def _proper_links(X: Complex):
    for size in range(1, X.d):
        for sigma in X.faces(size - 1):
            yield sigma


def _link_classes(X: Complex):
    """Yield (sigma, link, rep) for every proper link in canonical order: rep
    is the first earlier link isomorphic to this one, or the link itself.

    An isomorphism carries top counts, norm denominators and coboundaries
    over, so every expansion value and skeleton constant of rep is the
    link's. Candidates share the sorted top counts of every dimension; a
    match is accepted only with an explicit vertex bijection.
    """
    reps: dict[tuple, list[Complex]] = {}
    links = classes = expansions = 0
    for sigma in _proper_links(X):
        link = X.link(sigma)
        links += 1
        key = tuple(tuple(sorted(link.top_counts(k))) for k in range(link.d + 1))
        same = reps.setdefault(key, [])
        rep = next((r for r in same if link.isomorphism(r) is not None), None)
        if rep is None:
            rep = link
            same.append(link)
            classes += 1
            expansions += link.d
        yield sigma, link, rep
    import logging  # here, so that `import hdx` does not pay for it

    logging.getLogger("hdx").debug(
        "link sweep: %d links, %d classes, %d expansions", links, classes, expansions
    )


def _coboundary_expansions(link: Complex, cap: int | None) -> list:
    return [expansion(link, k, "coboundary", cap).value for k in range(link.d)]


def link_expansions(X: Complex, cap: int | None = None):
    """Yield (sigma, link, coboundary expansions at k = 0..link.d-1) for every
    proper link, lazily and in canonical order; each isomorphism class of
    links is measured once."""
    values = {}
    for sigma, link, rep in _link_classes(X):
        if rep is link:
            values[rep] = _coboundary_expansions(link, cap)
        yield sigma, link, list(values[rep])


def least_link_expansion(X: Complex, rows) -> tuple[Fraction | None, dict | None]:
    """beta*: the least finite value among `link_expansions` rows, and the
    first (link, k) attaining it; (None, None) when no value is finite."""
    best = witness = None
    for sigma, _, values in rows:
        for k, value in enumerate(values):
            if value != math.inf and (best is None or value < best):
                best, witness = value, {"link": list(X.tokens_of(sigma)), "k": k}
    return best, witness


def _small_cochain_scan(
    X: Complex, k: int, mu_bar: Fraction, eps_bar: Fraction, cap: int | None
) -> dict:
    """Exhaustively test every locally minimal A with ||A|| <= mu_bar."""
    n = X.n_faces(k)
    tops = X.top_counts(k)
    den = X.norm_den(k)
    min_top = min(tops)
    max_support = int(mu_bar * den / min_top)
    total = sum(comb(n, s) for s in range(1, max_support + 1))
    check_enumeration(total, cap, f"small-cochain isoperimetry scan at k={k}")
    examined = 1  # the empty cochain holds trivially
    locally_minimal = 1
    ok = True
    worst = None
    for s in range(1, max_support + 1):
        for idxs in combinations(range(n), s):
            bits = 0
            for i in idxs:
                bits |= 1 << i
            A = X.cochain_from_bits(k, bits)
            if A.norm() > mu_bar:
                continue
            examined += 1
            if not is_locally_minimal(X, A, cap):
                continue
            locally_minimal += 1
            if coboundary(A).norm() < eps_bar * A.norm():
                ok = False
                worst = sorted(idxs)
    return {
        "k": k,
        "max_support": max_support,
        "examined": examined,
        "locally_minimal": locally_minimal,
        "ok": ok,
        "violation": worst,
    }


def criterion_report(X: Complex, cap: int | None = None) -> dict:
    """Measure the local hypotheses on X and, when met, verify the conclusions."""
    d = X.d
    Q = X.max_vertex_link_size()

    links = []
    rows = []
    alpha_values = []
    measured = {}  # class representative -> (expansions, skeleton constant)
    for sigma, link, rep in _link_classes(X):
        if rep is link:
            measured[rep] = (
                _coboundary_expansions(link, cap),
                skeleton_alpha(link, "exhaustive", cap).value,
            )
        values, alpha = measured[rep]
        links.append({
            "face": list(X.tokens_of(sigma)),
            "dim": link.d,
            "exp_b": [{"k": k, "value": rat_json(v)} for k, v in enumerate(values)],
            "alpha_star": rat_json(alpha),
        })
        rows.append((sigma, link, values))
        alpha_values.append(alpha)
    beta_star, beta_witness = least_link_expansion(X, rows)

    alpha_x = skeleton_alpha(X, "exhaustive", cap)
    alpha_max: Fraction = max([alpha_x.value] + alpha_values)

    proper_exists = bool(links)
    consts = None
    verdict = "unmet"
    note = ""
    alpha_required = None
    alpha_required_log2 = None
    if not proper_exists:
        verdict = "not_applicable"
        note = "no proper links at this dimension; beta is unconstrained and the promised constants cannot be instantiated"
    elif beta_star is None:
        verdict = "not_applicable"
        note = "every proper link has trivial cochain structure; beta is unconstrained"
    elif beta_star == 0:
        verdict = "unmet"
        note = (
            f"link {beta_witness['link']} has vanishing coboundary expansion at "
            f"k={beta_witness['k']} (nontrivial cohomology)"
        )
    else:
        consts = constants(d, beta_star, Q)
        alpha_required = consts.alpha_float
        alpha_required_log2 = consts.alpha_log2
        if alpha_max <= consts.mu * _mu_root(d, consts.c0):
            verdict = "met"
        else:
            note = (
                f"measured skeleton constant {float(alpha_max):.6g} exceeds the required "
                f"alpha (log2 = {alpha_required_log2:.6g})"
            )

    conclusions = None
    if verdict == "met":
        cocycle_rows = []
        for k in range(0, d - 1):
            rep = expansion(X, k, "cocycle", cap)
            cocycle_rows.append(
                {
                    "k": k,
                    "value": rat_json(rep.value),
                    "threshold": rat_json(consts.eps),
                    "ok": bool(rep.value >= consts.eps),
                }
            )
        syst_rows = []
        for r in range(0, d):
            rep = cosystole(X, r, cap)
            syst_rows.append(
                {
                    "k": r,
                    "value": rat_json(rep.value),
                    "threshold": rat_json(consts.mu),
                    "ok": bool(rep.value >= consts.mu),
                }
            )
        iso_rows = [
            _small_cochain_scan(X, k, consts.mu_bar, consts.eps_bar, cap)
            for k in range(0, d)
        ]
        conclusions = {
            "cocycle_expansion": cocycle_rows,
            "cosystoles": syst_rows,
            "isoperimetry": iso_rows,
            "all_ok": all(
                row["ok"] for row in cocycle_rows + syst_rows + iso_rows
            ),
            # the theorem promises expansion below the top dimension and
            # cosystole bounds one dimension higher; the ranges above differ
            # on purpose
        }

    return {
        "schema": "hdx-report/1",
        "kind": "criterion",
        "complex": {
            "d": d,
            "vertices": len(X.vertex_names),
            "top_faces": X.n_top,
            "f_vector": [X.n_faces(k) for k in range(0, d + 1)],
        },
        "Q": Q,
        "beta_star": rat_json(beta_star) if beta_star is not None else None,
        "beta_witness": beta_witness,
        "links": links,
        "alpha_x": rat_json(alpha_x.value),
        "alpha_star_max": rat_json(alpha_max),
        "constants": consts.to_json() if consts is not None else None,
        "hypotheses": {
            "proper_links_exist": proper_exists,
            "beta_positive": bool(beta_star) and beta_star != math.inf
            and beta_star > 0,
            "alpha_required": alpha_required,
            "alpha_required_log2": alpha_required_log2,
            "alpha_measured": float(alpha_max),
            "marginal": False,  # the verdict is exact
            "verdict": verdict,
            "note": note or ("all hypotheses verified" if verdict == "met" else
                             "hypotheses unmet; the theorem is silent here"),
        },
        "conclusions": conclusions,
    }
