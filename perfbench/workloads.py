"""The four benchmark workloads: inputs from a seed, fresh complexes, calls, checks.

Each workload has three steps. `generate(seed, scale, workdir)` makes the
inputs from the seed (and, for sweep-small, writes the .cx files); it may
build throwaway complexes to choose inputs. `build(gen)` builds fresh
complexes that nothing has queried yet, because `Complex` memoizes bases,
links and skeletons and a CLI user pays those costs cold. `calls(gen,
built)` returns the fixed call list of one pass.

Every call carries `verify(result)`, run after the pass and outside the
timed window. It checks exact certificates through the public API and
raises `Mismatch` when one fails; otherwise it returns the canonical result
that is digested and, for the default seed, compared with golden.json. It
also carries `elements(result)`, the exhaustively enumerated elements,
counted from the inputs after the call has returned.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

import hdx
import hdx.cli

RESIDUAL_TOL = 1e-8
LAMBDA1_TOL = 1e-9
FLOAT_DIGITS = 9  # floats are digested rounded, so a reordered sum cannot flip a digest


class Mismatch(Exception):
    """A result failed its certificate or its golden digest."""


@dataclass
class Call:
    name: str
    run: Callable[[], Any]
    verify: Callable[[Any], Any]
    elements: Callable[[Any], int]


# -- helpers -----------------------------------------------------------------------


def derive_seed(seed: int, *labels) -> int:
    text = ":".join(str(x) for x in (seed,) + labels)
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rat(x):
    return "inf" if x == math.inf else [Fraction(x).numerator, Fraction(x).denominator]


def fnum(x: float) -> float:
    return round(float(x), FLOAT_DIGITS) + 0.0  # + 0.0 turns -0.0 into 0.0


def canonical(obj):
    """A JSON value with floats rounded and residuals reduced to a tolerance check."""
    if isinstance(obj, dict):
        return {k: (v < RESIDUAL_TOL if k == "residual" else canonical(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return fnum(obj)
    return obj


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def tokens_faces(X) -> list[tuple[str, ...]]:
    return [X.tokens_of(f) for f in X.faces(X.d)]


def relabel(faces, seed: int) -> list[list[str]]:
    """The same complex with vertex tokens renamed by a seeded permutation."""
    names = sorted({t for f in faces for t in f})
    perm = list(range(len(names)))
    random.Random(seed).shuffle(perm)
    width = len(str(len(names)))
    new = {name: f"v{perm[i]:0{width}d}" for i, name in enumerate(names)}
    return [[new[t] for t in f] for f in faces]


def is_connected(edges) -> bool:
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(adj)


def seeded_lm(n: int, p: Fraction, seed: int, label: str, accept) -> int:
    """First derived seed whose linial_meshulam(n, 2, p, s) complex passes `accept`."""
    for i in range(100000):
        s = derive_seed(seed, label, i) & ((1 << 63) - 1)
        try:
            X = hdx.linial_meshulam(n, 2, p, s).complex
        except hdx.errors.EmptyInput:
            continue
        if accept(X):
            return s
    raise RuntimeError(f"no accepted {label} complex for seed {seed}")


def exp_elements(X, k: int, mode: str) -> int:
    kind = "coboundaries" if mode == "coboundary" else "cocycles"
    return (1 << X.n_faces(k)) - (1 << hdx.space_basis(X, k, kind).dim)


def verify_expansion(X, k: int, mode: str, value, witness_bits) -> None:
    kind = "coboundaries" if mode == "coboundary" else "cocycles"
    basis = hdx.space_basis(X, k, kind)
    if value == math.inf:
        require(witness_bits is None and basis.dim == X.n_faces(k),
                "infinite value with a proper subspace")
        return
    w = X.cochain_from_bits(k, witness_bits)
    require(not basis.contains(w), "expansion witness lies in S")
    require(w.norm() > 0, "expansion witness is empty")
    require(hdx.coboundary(w).norm() / w.norm() == value, "expansion value is not ||dw||/||w||")


def verify_cosystole(X, k: int, value, witness_bits) -> None:
    if value == math.inf:
        require(witness_bits is None, "infinite cosystole with a witness")
        return
    w = X.cochain_from_bits(k, witness_bits)
    if k < X.d:
        require(not hdx.coboundary(w), "cosystole witness is not a cocycle")
    require(not hdx.space_basis(X, k, "coboundaries").contains(w),
            "cosystole witness is a coboundary")
    require(w.norm() == value, "cosystole value is not the witness norm")


def bits_of(indices) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


# -- enum-large ------------------------------------------------------------------------


class EnumLarge:
    """Exhaustive enumerations of about 2^17 elements each (see README.md)."""

    name = "enum-large"
    SIZES = {
        # edges per input; (n, p) of the two seeded linial_meshulam complexes;
        # vertices of the seeded graph; vertices and extra edges of the trees
        "full": dict(edges=17, l7=(7, Fraction(1, 4)), l8=(8, Fraction(1, 6)),
                     graph_v=10, tree_v=18, tree_extra=6, trees=2),
        "tiny": dict(edges=9, l7=(5, Fraction(1, 2)), l8=(6, Fraction(1, 4)),
                     graph_v=6, tree_v=10, tree_extra=3, trees=1),
    }

    def generate(self, seed: int, scale: str, workdir: str) -> dict:
        z = self.SIZES[scale]
        e = z["edges"]
        gen = {"edges": e}
        for label in ("l7", "l8"):
            n, p = z[label]
            s = seeded_lm(n, p, seed, label,
                          lambda X: X.n_faces(1) == e and X.n_faces(0) == n)
            gen[label] = (n, p, s)
        rng = random.Random(derive_seed(seed, "graph"))
        pairs = [(str(u), str(v)) for u, v in combinations(range(z["graph_v"]), 2)]
        while True:
            edges = rng.sample(pairs, e)
            if len({t for f in edges for t in f}) == z["graph_v"] and is_connected(edges):
                break
        gen["graph"] = edges
        gen["trees"] = []
        for t in range(z["trees"]):
            rng = random.Random(derive_seed(seed, "tree", t))
            n = z["tree_v"]
            order = list(range(n))
            rng.shuffle(order)
            tree = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
            extra = set()
            while len(extra) < z["tree_extra"]:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in tree:
                    extra.add((u, v))
            # an edge outside a spanning tree closes a cycle, so it is not a
            # bridge and {edge} is not a coboundary
            a = rng.choice(sorted(extra))
            edges = sorted(tree | extra)
            gen["trees"].append(([(f"{u:02d}", f"{v:02d}") for u, v in edges],
                                 (f"{a[0]:02d}", f"{a[1]:02d}")))
        return gen

    def build(self, gen: dict) -> dict:
        built = {}
        for label in ("l7", "l8"):
            n, p, s = gen[label]
            built[label] = hdx.linial_meshulam(n, 2, p, s).complex
        built["cycle"] = hdx.cycle(gen["edges"])
        built["graph"] = hdx.build_complex(gen["graph"])
        built["trees"] = []
        for edges, a in gen["trees"]:
            T = hdx.build_complex(edges)
            built["trees"].append((T, T.cochain(1, [a])))
        return built

    def calls(self, gen: dict, built: dict) -> list[Call]:
        out = []
        for label in ("l7", "l8"):
            X = built[label]
            n, p, s = gen[label]
            for mode in ("coboundary", "cocycle"):
                out.append(self._expansion(f"expansion(lm({n},2,{p},{s}),1,{mode})", X, mode))
        for label in ("cycle", "graph"):
            out.append(self._cosystole(f"cosystole({label}{gen['edges']},1)", built[label]))
        for t, (T, A) in enumerate(built["trees"]):
            out.append(self._is_minimal(f"is_minimal(tree{t},edge)", T, A))
        return out

    @staticmethod
    def _expansion(name, X, mode) -> Call:
        def verify(rep):
            bits = rep.witness.bits if rep.witness else None
            verify_expansion(X, 1, mode, rep.value, bits)
            return {"k": rep.k, "mode": rep.mode, "value": rat(rep.value), "witness": bits}

        return Call(name, lambda: hdx.expansion(X, 1, mode), verify,
                    lambda rep: exp_elements(X, 1, mode))

    @staticmethod
    def _cosystole(name, X) -> Call:
        def verify(rep):
            bits = rep.witness.bits if rep.witness else None
            verify_cosystole(X, 1, rep.value, bits)
            return {"k": rep.k, "value": rat(rep.value), "witness": bits}

        return Call(name, lambda: hdx.cosystole(X, 1), verify,
                    lambda rep: 1 << hdx.space_basis(X, 1, "cocycles").dim)

    @staticmethod
    def _is_minimal(name, T, A) -> Call:
        def verify(result):
            # A is one edge of a graph, where every edge has the same weight:
            # a shift lowers its norm only to zero, i.e. iff A is a coboundary
            require(len(A) == 1, "is_minimal input is not a single edge")
            expected = not hdx.space_basis(T, 1, "coboundaries").contains(A)
            require(result is expected, "is_minimal verdict disagrees with the certificate")
            return {"minimal": result}

        return Call(name, lambda: hdx.is_minimal(T, A), verify,
                    lambda r: (1 << hdx.space_basis(T, 1, "coboundaries").dim) if r else 0)


# -- sweep-small -------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    stderr: str


def cli_call(argv: list[str]) -> CliResult:
    """One in-process `hdx` invocation; the report goes to the --out file."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = hdx.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, argv[argv.index("--out") + 1], err.getvalue())


class SweepSmall:
    """At least 1000 small CLI calls through hdx.cli.main (see README.md)."""

    name = "sweep-small"
    SIZES = {
        "full": dict(lm=(8, 6), rounds=10,
                     fixed=(("complete63", "complete", (6, 3)),
                            ("pflag23", "projective_flag", (2, 3)),
                            ("partite23", "complete_partite", (2, 3)))),
        "tiny": dict(lm=(6, 1), rounds=4,
                     fixed=(("complete43", "complete", (4, 3)),
                            ("pflag23", "projective_flag", (2, 3)),
                            ("partite22", "complete_partite", (2, 2)))),
    }
    FREE_VERBS = (["info"], ["criterion"], ["expansion", "--k", "0"], ["spectrum"])
    ETA = "1/3"
    BETA = "1/2"  # only for complexes without proper links, where hdx cannot measure beta

    def generate(self, seed: int, scale: str, workdir: str) -> dict:
        z = self.SIZES[scale]
        complexes = []
        n, count = z["lm"]
        for i in range(count):
            s = seeded_lm(n, Fraction(1, 2), seed, f"sweep-lm{i}", vertex_links_connected)
            complexes.append((f"lm{i}", hdx.linial_meshulam(n, 2, Fraction(1, 2), s).complex))
        for label, kind, params in z["fixed"]:
            complexes.append((label, getattr(hdx, kind)(*params)))
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        files = []
        for label, X in complexes:
            path = os.path.join(workdir, f"{label}.cx")
            hdx.save_complex(X, path)
            files.append({"label": label, "path": path, "d": X.d})
        rounds = []
        for r in range(z["rounds"]):
            per_file = []
            for (label, X), f in zip(complexes, files):
                entries = []
                for k in range(X.d):
                    rng = random.Random(derive_seed(seed, "cochain", label, k, r))
                    idx = [i for i in range(X.n_faces(k)) if rng.random() < 0.3]
                    idx = idx or [rng.randrange(X.n_faces(k))]
                    # seep-check requires a locally minimal cochain
                    final = hdx.locally_minimize(X, X.cochain_from_bits(k, bits_of(idx))).final
                    entries.append((k, idx, sorted(final.indices())))
                per_file.append(entries)
            rounds.append(per_file)
        return {"files": files, "rounds": rounds}

    def build(self, gen: dict) -> dict:
        return {}  # every CLI call loads its complex afresh

    def calls(self, gen: dict, built: dict) -> list[Call]:
        out: list[Call] = []
        checker = _SweepChecker()
        for r, per_file in enumerate(gen["rounds"]):
            for f, entries in zip(gen["files"], per_file):
                verb = self.FREE_VERBS[r % len(self.FREE_VERBS)]
                out.append(self._cli(checker, len(out), verb, f, []))
                for k, idx, minimal in entries:
                    kk = ["--k", str(k)]
                    eta = kk + ["--eta", self.ETA]
                    beta = ["--beta", self.BETA] if f["d"] < 2 else []
                    out.append(self._cli(checker, len(out), ["minimize"] + kk, f, idx))
                    out.append(self._cli(checker, len(out), ["fat-profile"] + eta, f, idx))
                    out.append(self._cli(checker, len(out), ["seep-check"] + eta + beta, f, minimal))
        return out

    @staticmethod
    def _cli(checker, index, verb, f, cochain) -> Call:
        args = list(verb)
        if verb[0] in ("minimize", "fat-profile", "seep-check"):
            args += ["--cochain", ",".join(map(str, cochain))]
        out = os.path.join(os.path.dirname(f["path"]), "out", f"{index}.json")
        argv = args + [f["path"], "--out", out]
        return Call(f"{index:04d} " + " ".join(args + [os.path.basename(f["path"])]),
                    lambda: cli_call(argv),
                    lambda res: checker.verify(verb, f, args, res),
                    lambda res: checker.elements(verb, f, args, res))


def vertex_links_connected(X) -> bool:
    """Every vertex link is a connected graph, so hdx's measured beta is positive."""
    for v in X.vertex_names:
        edges = [tuple(t for t in f if t != v) for f in tokens_faces(X) if v in f]
        if not is_connected(edges):
            return False
    return True


class _SweepChecker:
    """Certificates and element counts for CLI reports, on separately loaded complexes."""

    def __init__(self) -> None:
        self._complexes: dict[str, Any] = {}
        self._link_elements: dict[str, tuple[int, int]] = {}

    def complex(self, path):
        if path not in self._complexes:
            self._complexes[path] = hdx.load_complex(path)
        return self._complexes[path]

    def verify(self, verb, f, args, res: CliResult):
        require(res.code in (0, 2), f"exit {res.code}: {res.stderr.strip()}")
        with open(res.out, encoding="utf-8") as fh:
            report = json.load(fh)
        result = report["result"]
        X = self.complex(f["path"])
        v = verb[0]
        if v == "expansion":
            w = result["witness"]
            value = hdx.reportio.rat_from_json(result["value"])
            verify_expansion(X, result["k"], result["mode"], value,
                             None if w is None else bits_of(w))
        elif v == "minimize":
            k = result["k"]
            cochain = [int(i) for i in args[args.index("--cochain") + 1].split(",") if i]
            initial = X.cochain_from_bits(k, bits_of(result["initial"]["faces"]))
            final = X.cochain_from_bits(k, bits_of(result["final"]["faces"]))
            gamma = X.cochain_from_bits(k - 1, bits_of(result["gamma"]["faces"]))
            require(initial.bits == bits_of(cochain), "minimize echoed another cochain")
            require(final == initial + hdx.coboundary(gamma),
                    "final != initial + coboundary(gamma)")
            require(hdx.is_locally_minimal(X, final), "minimize result is not locally minimal")
        elif v == "seep-check":
            require(res.code == (0 if result["passed"] else 2),
                    "seep exit code disagrees with verdict")
        elif v == "criterion":
            met = result["hypotheses"]["verdict"] == "met"
            require(res.code == (0 if met else 2), "criterion exit code disagrees with verdict")
        elif v == "info":
            require(result["weight_sums_exact"] is True, "weights do not sum to 1")
        elif v == "spectrum" and res.code == 0:
            require(all(p["residual"] < RESIDUAL_TOL for p in result["pairs"]),
                    "spectral residual too large")
        return {"exit": res.code, "sha256": report["input"]["sha256"], "result": canonical(result)}

    def elements(self, verb, f, args, res: CliResult) -> int:
        v = verb[0]
        X = self.complex(f["path"])
        if v == "expansion":
            return exp_elements(X, 0, "coboundary")
        if v == "seep-check" and "--beta" not in args:
            return self._links(f["path"])[0]
        if v != "criterion":
            return 0
        n = self._links(f["path"])[0] + self._links(f["path"])[1] + (1 << len(X.vertex_names))
        with open(res.out, encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        if result["conclusions"] is not None:
            n += sum(exp_elements(X, k, "cocycle") for k in range(X.d - 1))
            n += sum(1 << hdx.space_basis(X, r, "cocycles").dim for r in range(X.d))
            for row in result["conclusions"]["isoperimetry"]:
                n_k = X.n_faces(row["k"])
                n += sum(math.comb(n_k, s) for s in range(1, row["max_support"] + 1))
        return n

    def _links(self, path) -> tuple[int, int]:
        """(cochains enumerated by link expansions, subsets scanned by link alphas)."""
        if path not in self._link_elements:
            X = self.complex(path)
            cochains = subsets = 0
            for size in range(1, X.d):
                for sigma in X.faces(size - 1):
                    L = X.link(sigma)
                    cochains += sum(exp_elements(L, k, "coboundary") for k in range(L.d))
                    subsets += 1 << len(L.vertex_names)
            self._link_elements[path] = (cochains, subsets)
        return self._link_elements[path]


# -- spectral ------------------------------------------------------------------------------


class Spectral:
    """Type-graph spectra, the mixing scan and the subset DP (see README.md)."""

    name = "spectral"
    SIZES = {
        # (q, n, repetitions) of projective flag complexes; complete_partite
        # (d, m) for the mixing scan; complete (n, d) for skeleton_alpha
        "full": dict(flags=((2, 4, 8), (3, 3, 4), (2, 3, 4)), partite=(2, 4),
                     complete=(16, 2), alphas=2),
        "tiny": dict(flags=((2, 3, 1),), partite=(1, 3), complete=(8, 2), alphas=1),
    }

    def generate(self, seed: int, scale: str, workdir: str) -> dict:
        z = self.SIZES[scale]
        flags = [((q, n, reps), tokens_faces(hdx.projective_flag(q, n)))
                 for q, n, reps in z["flags"]]
        partite = relabel(tokens_faces(hdx.complete_partite(*z["partite"])),
                          derive_seed(seed, "partite"))
        complete = relabel(tokens_faces(hdx.complete(*z["complete"])),
                           derive_seed(seed, "complete"))
        return {"flags": flags, "partite": partite, "complete": complete, "sizes": z}

    def build(self, gen: dict) -> dict:
        return {
            "flags": [hdx.build_complex(faces) for _, faces in gen["flags"]],
            "partite": hdx.build_complex(gen["partite"]),
            "complete": hdx.build_complex(gen["complete"]),
        }

    def calls(self, gen: dict, built: dict) -> list[Call]:
        out = []
        ctx: dict[str, Any] = {}
        z = gen["sizes"]
        for ((q, n, reps), _), X in zip(gen["flags"], built["flags"]):
            label = f"projective_flag({q},{n})"
            for _ in range(reps):
                out.append(self._regularity(label, X, ctx))
                out.append(self._lambda_max(label, X, ctx))
        P = built["partite"]
        plabel = "complete_partite({},{})".format(*z["partite"])
        out.append(self._regularity(plabel, P, ctx))
        out.append(self._mixing(plabel, P, ctx))
        K = built["complete"]
        for _ in range(z["alphas"]):
            out.append(self._alpha("complete({},{})".format(*z["complete"]), K))
        return out

    @staticmethod
    def _regularity(label, X, ctx) -> Call:
        def run():
            ctx[label] = hdx.regularity(X)
            return ctx[label]

        def verify(R):
            require(sum(R.part_sizes) == len(X.vertex_names) and len(R.part_sizes) == X.d + 1,
                    "typing does not partition the vertices into d+1 parts")
            table = sorted([sorted(i), sorted(j), c] for (i, j), c in R.table.items())
            return {"part_sizes": list(R.part_sizes), "table": table}

        return Call(f"regularity({label})", run, verify, lambda R: 0)

    @staticmethod
    def _lambda_max(label, X, ctx) -> Call:
        def verify(res):
            lam, reports = res
            for r in reports:
                require(r.residual < RESIDUAL_TOL, "Jacobi residual too large")
                require(abs(r.lambda1 - r.lambda1_expected) < LAMBDA1_TOL, "lambda1 != sqrt(dL*dR)")
                require(0.0 <= r.lambda2_normalized <= 1.0, "normalized lambda2 outside [0,1]")
            require(lam == max(r.lambda2_normalized for r in reports), "lambda_max is not the max")
            return {"lambda_max": fnum(lam),
                    "pairs": [[list(r.pair), list(r.degrees), r.connected,
                               fnum(r.lambda2_normalized)] for r in reports]}

        return Call(f"lambda_max({label})", lambda: hdx.lambda_max(X, ctx[label]), verify,
                    lambda r: 0)

    @staticmethod
    def _mixing(label, X, ctx) -> Call:
        pairs = 4 ** len(X.vertex_names)

        def verify(scan):
            require(scan.pairs == pairs, "mixing scan skipped pairs")
            require(scan.passed + scan.marginal + scan.failed == scan.pairs,
                    "mixing counts do not add up")
            return {"pairs": scan.pairs, "passed": scan.passed, "marginal": scan.marginal,
                    "failed": scan.failed, "failures": [list(f) for f in scan.failures],
                    "max_margin": fnum(scan.max_margin)}

        return Call(f"mixing_check_all({label})", lambda: hdx.mixing_check_all(X, ctx[label]),
                    verify, lambda scan: pairs)

    @staticmethod
    def _alpha(label, X) -> Call:
        def verify(rep):
            a = X.vertex_ids(rep.witness)
            na = Fraction(sum(X.top_counts(0)[v] for v in a), X.norm_den(0))
            raw = (X.edges_between(a, a).norm() / 4 - na * na) / na
            require(raw == rep.raw_max, "alpha witness does not attain raw_max")
            require(rep.value == max(raw, Fraction(0)), "alpha value is not max(raw_max, 0)")
            return {"value": rat(rep.value), "raw_max": rat(rep.raw_max),
                    "witness": sorted(rep.witness)}

        return Call(f"skeleton_alpha({label})", lambda: hdx.skeleton_alpha(X), verify,
                    lambda rep: 1 << len(X.vertex_names))


# -- elimination -----------------------------------------------------------------------------


class Elimination:
    """F2 elimination at scale: space_basis and cohomology_dim (see README.md)."""

    name = "elimination"
    SIZES = {
        "full": dict(flag=(3, 4), lm=(24, 6)),
        "tiny": dict(flag=(2, 3), lm=(8, 1)),
    }

    def generate(self, seed: int, scale: str, workdir: str) -> dict:
        z = self.SIZES[scale]
        n, count = z["lm"]
        lms = []
        for i in range(count):
            s = derive_seed(seed, "elim-lm", i) & ((1 << 63) - 1)
            lms.append((n, s))
        return {"flag": (z["flag"], tokens_faces(hdx.projective_flag(*z["flag"]))), "lms": lms}

    def build(self, gen: dict) -> dict:
        return {
            "flag": hdx.build_complex(gen["flag"][1]),
            "lms": [hdx.linial_meshulam(n, 2, Fraction(1, 2), s).complex for n, s in gen["lms"]],
        }

    def calls(self, gen: dict, built: dict) -> list[Call]:
        out = []
        X = built["flag"]
        label = "projective_flag({},{})".format(*gen["flag"][0])
        for k in range(-1, X.d + 1):
            out.append(self._basis(label, X, k, "cocycles"))
            if k >= 0:
                out.append(self._basis(label, X, k, "coboundaries"))
        for (n, s), L in zip(gen["lms"], built["lms"]):
            # only the top dimension: the lower ones take about a millisecond,
            # and a pass full of them would put the median call among them
            out.append(self._cohomology_dim(f"lm({n},2,1/2,{s})", L, L.d))
        return out

    @staticmethod
    def _basis(label, X, k, kind) -> Call:
        def verify(b):
            require(b.dim == len(b.rows) and all(r.k == k for r in b.rows), "malformed basis")
            if kind == "cocycles" and k < X.d:
                require(not any(hdx.coboundary(r) for r in b.rows), "cocycle row has a coboundary")
            if kind == "coboundaries":
                require(all(hdx.coboundary(p) == r for p, r in zip(b.preimages, b.rows)),
                        "preimage does not map to its row")
                # rank-nullity: dim Z^(k-1) + dim B^k = |X(k-1)|
                z = hdx.space_basis(X, k - 1, "cocycles").dim
                require(z + b.dim == X.n_faces(k - 1), "rank-nullity fails")
            rows = digest([format(r.bits, "x") for r in b.rows])
            pre = digest([format(p.bits, "x") for p in b.preimages]) if b.preimages else None
            return {"k": k, "kind": kind, "dim": b.dim, "rows": rows, "preimages": pre}

        work = X.n_faces(k) if kind == "cocycles" else X.n_faces(k - 1)
        return Call(f"space_basis({label},{k},{kind})", lambda: hdx.space_basis(X, k, kind),
                    verify, lambda b: work)

    @staticmethod
    def _cohomology_dim(label, X, k) -> Call:
        def verify(h):
            z = hdx.space_basis(X, k, "cocycles").dim
            b = hdx.space_basis(X, k, "coboundaries").dim
            require(h == z - b and h >= 0, "cohomology_dim != dim Z - dim B")
            if k < X.d:
                require(z + hdx.space_basis(X, k + 1, "coboundaries").dim == X.n_faces(k),
                        "rank-nullity fails")
            return {"k": k, "h": h}

        # both bases are computed by this call: |X(k)| cochains for Z^k and
        # the |X(k-1)| generators of B^k
        return Call(f"cohomology_dim({label},{k})", lambda: hdx.cohomology_dim(X, k),
                    verify, lambda h: X.n_faces(k) + X.n_faces(k - 1))


WORKLOADS = {w.name: w for w in (EnumLarge(), SweepSmall(), Spectral(), Elimination())}
