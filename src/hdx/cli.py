"""Command-line front end: one JSON (or TSV) document per invocation.

Exit codes: 0 success, 1 errors (including usage), 2 hypothesis-failure
verdicts. Every report carries a reproducibility header with the package
version, a hash of the input, and the full semantic options. Every verb
takes the same output and cap options; `generate` requires its `--out`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from fractions import Fraction

from . import __version__
from .caps import DEFAULT_CAP
from .cohomology import cosystole, expansion
from .core import Complex
from .criterion import constants, criterion_report, least_link_expansion, link_expansions
from .errors import HdxError, NotRegular, NoValidTyping
from .fat import fat_profile, verify_seep
from .generators import (
    GenSpec,
    generate,
    linial_meshulam,
    load_complex,
    load_types,
    natural_types,
    save_complex,
    save_types,
)
from .minimize import locally_minimize
from .reportio import cochain_json, json_dumps, rat_json, tsv_dumps
from .spectral import lambda_max, mixing_check, regularity, skeleton_alpha


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; that is reserved
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _load_input(args) -> tuple[Complex, dict]:
    X = load_complex(args.input)
    return X, {"path": args.input, "sha256": _sha256_file(args.input)}


def _cochain(X: Complex, args):
    bits = 0
    for i in args.cochain:
        if not 0 <= i < X.n_faces(args.k):
            raise HdxError(f"face index {i} outside X({args.k}) of size {X.n_faces(args.k)}")
        bits |= 1 << i
    return X.cochain_from_bits(args.k, bits)


# -- verb implementations (result dict, exit code) ------------------------------


def _run_generate(args):
    spec = GenSpec(
        kind=args.kind, n=args.n, d=args.d, m=args.m, q=args.q, p=args.p, seed=args.seed
    )
    result = {"genspec": spec.canonical_string()}
    if args.kind == "linial_meshulam":
        lm = linial_meshulam(args.n, args.d, args.p, args.seed, args.cap)
        X = lm.complex
        result["kept_top_faces"] = lm.kept
        result["candidate_top_faces"] = lm.candidates
        result["dropped_faces"] = [list(f) for f in lm.dropped]
    else:
        X = generate(spec, args.cap)
    save_complex(X, args.out)
    result["out"] = args.out
    result["d"] = X.d
    result["vertices"] = len(X.vertex_names)
    result["f_vector"] = [X.n_faces(k) for k in range(0, X.d + 1)]
    if args.types_out:
        types = natural_types(args.kind, X)
        if types is None:
            raise HdxError(f"kind {args.kind!r} has no natural vertex typing")
        save_types(types, args.types_out)
        result["types_out"] = args.types_out
    input_info = {"genspec": spec.canonical_string(),
                  "sha256": _sha256_text(spec.canonical_string())}
    return result, input_info, 0


def _run_info(args):
    X, input_info = _load_input(args)
    sums_ok = all(
        sum((X.weight(f) for f in X.faces(k)), Fraction(0)) == 1
        for k in range(-1, X.d + 1)
    )
    result = {
        "d": X.d,
        "vertices": list(X.vertex_names),
        "f_vector": [X.n_faces(k) for k in range(0, X.d + 1)],
        "top_faces": X.n_top,
        "total_faces_with_empty": X.total_face_count,
        "Q": X.max_vertex_link_size(),
        "weight_sums_exact": sums_ok,
    }
    return result, input_info, 0


def _run_expansion(args):
    X, input_info = _load_input(args)
    rep = expansion(X, args.k, args.mode, args.cap)
    result = {
        "k": rep.k,
        "mode": rep.mode,
        "value": rat_json(rep.value),
        "witness": sorted(rep.witness.indices()) if rep.witness else None,
    }
    return result, input_info, 0


def _run_cosystole(args):
    X, input_info = _load_input(args)
    rep = cosystole(X, args.k, args.cap)
    result = {
        "k": rep.k,
        "value": rat_json(rep.value),
        "witness": sorted(rep.witness.indices()) if rep.witness else None,
    }
    return result, input_info, 0


def _run_minimize(args):
    X, input_info = _load_input(args)
    A = _cochain(X, args)
    trace = locally_minimize(X, A, args.cap)
    result = {
        "k": args.k,
        "initial": cochain_json(trace.initial),
        "initial_norm": rat_json(trace.initial.norm()),
        "final": cochain_json(trace.final),
        "final_norm": rat_json(trace.final.norm()),
        "gamma": cochain_json(trace.gamma),
        "gamma_norm": rat_json(trace.gamma.norm()),
        "steps": [
            {
                "site": list(X.tokens_of(sigma)),
                "corrector": [list(f) for f in c.token_faces()],
            }
            for sigma, c in trace.steps
        ],
    }
    return result, input_info, 0


def _run_fat_profile(args):
    X, input_info = _load_input(args)
    A = _cochain(X, args)
    prof = fat_profile(X, A, args.eta)
    result = {
        "k": A.k,
        "eta": rat_json(prof.eta),
        "levels": [
            {"i": i, "faces": sorted(prof.levels[i].indices()),
             "threshold": rat_json(prof.threshold(i + 1)) if i < A.k else None}
            for i in range(-1, A.k + 1)
        ],
        "ladders": [
            {"i": i, "faces": sorted(prof.ladders[i].indices()),
             "norm": rat_json(prof.ladders[i].norm())}
            for i in range(-1, A.k + 1)
        ],
        "degenerate": {
            "faces": sorted(prof.degenerate.indices()),
            "norm": rat_json(prof.degenerate.norm()),
        },
    }
    return result, input_info, 0


def _run_seep_check(args):
    X, input_info = _load_input(args)
    A = _cochain(X, args)
    beta = args.beta
    if beta is None:
        beta, _ = least_link_expansion(X, link_expansions(X, args.cap))
        if beta is None:
            raise HdxError("no proper links to measure beta from; pass --beta")
    rep = verify_seep(X, A, args.eta, beta, cap=args.cap)
    result = {
        "k": rep.k,
        "eta": rat_json(rep.eta),
        "beta": rat_json(rep.beta),
        "delta_norm": rat_json(rep.delta_norm),
        "degenerate_norm": rat_json(rep.degenerate_norm),
        "rows": [
            {"i": r.i, "lhs": rat_json(r.lhs), "rhs": rat_json(r.rhs), "ok": r.ok}
            for r in rep.rows
        ],
        "passed": rep.passed,
    }
    return result, input_info, 0 if rep.passed else 2


def _regularity_or_report(X, args):
    """RegularStructure, or a failure report dict for non-regular input."""
    try:
        return regularity(X, load_types(args.types) if args.types else None), None
    except (NotRegular, NoValidTyping) as exc:
        report = {"regular": False, "reason": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, NotRegular):
            report["violation"] = {
                "i_types": list(exc.i_types),
                "j_types": list(exc.j_types),
                "face": list(exc.face_tokens),
            }
        return None, report


def _run_spectrum(args):
    X, input_info = _load_input(args)
    R, failure = _regularity_or_report(X, args)
    if failure is not None:
        return failure, input_info, 2
    lam, reports = lambda_max(X, R)
    result = {
        "lambda_max": lam,
        "part_sizes": list(R.part_sizes),
        "pairs": [
            {
                "pair": list(r.pair),
                "lambda1": r.lambda1,
                "lambda2_norm": r.lambda2_normalized,
                "residual": r.residual,
                "degrees": list(r.degrees),
                "connected": r.connected,
            }
            for r in reports
        ],
    }
    return result, input_info, 0


def _run_mixing_check(args):
    X, input_info = _load_input(args)
    R, failure = _regularity_or_report(X, args)
    if failure is not None:
        return failure, input_info, 2
    a = [t for t in args.a.split(",") if t]
    b = [t for t in args.b.split(",") if t]
    rep = mixing_check(X, R, a, b)
    result = {
        "a": sorted(a),
        "b": sorted(b),
        "lhs": rat_json(rep.lhs),
        "rhs": rep.rhs,
        "lambda": rep.lam,
        "norm_a": rat_json(rep.norm_a),
        "norm_b": rat_json(rep.norm_b),
        "verdict": rep.verdict,
    }
    return result, input_info, 0 if rep.verdict != "fail" else 2


def _run_skeleton_alpha(args):
    X, input_info = _load_input(args)
    rep = skeleton_alpha(X, args.mode, args.cap)
    result = {
        "mode": rep.mode,
        "value": rat_json(rep.value) if rep.mode == "exhaustive" else rep.value,
        "raw_max": rat_json(rep.raw_max) if rep.raw_max is not None else None,
        "witness": list(rep.witness) if rep.witness else None,
    }
    return result, input_info, 0


def _run_constants(args):
    rep = constants(args.d, args.beta, args.Q, args.q)
    text = f"d={args.d} beta={args.beta} Q={args.Q} q={args.q}"
    return rep.to_json(), {"genspec": text, "sha256": _sha256_text(text)}, 0


def _run_criterion(args):
    X, input_info = _load_input(args)
    report = criterion_report(X, args.cap)
    code = 0 if report["hypotheses"]["verdict"] == "met" else 2
    return report, input_info, code


# -- parser ----------------------------------------------------------------------


def _add_common(sub, input_path=True) -> argparse.Action:
    """Add the options every verb takes; returns the `--out` action."""
    sub.set_defaults(_parser=sub)  # usage errors name the verb
    if input_path:
        sub.add_argument("input", help="path to a .cx complex file")
    out = sub.add_argument("--out", default=None,
                           help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "tsv"), default="json")
    sub.add_argument("--cap", type=int, default=None,
                     help=f"enumeration cap (default {DEFAULT_CAP})")
    sub.add_argument("--i-know-this-is-exponential", action="store_true",
                     dest="ack_exponential",
                     help="required to raise --cap beyond the default")
    return out


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="hdx", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("generate", help="emit an example complex as a .cx file")
    p.add_argument("--kind", required=True, choices=GenSpec.KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=_rational)
    p.add_argument("--seed", type=int)
    p.add_argument("--types-out", default=None)
    out = _add_common(p, input_path=False)
    out.required, out.help = True, "write the .cx file here"
    p.set_defaults(func=_run_generate, writes_file=True)

    p = subs.add_parser("info", help="dimensions, counts, and exact weight sums")
    _add_common(p)
    p.set_defaults(func=_run_info)

    p = subs.add_parser("expansion", help="coboundary or cocycle expansion parameter")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("coboundary", "cocycle"), default="coboundary")
    _add_common(p)
    p.set_defaults(func=_run_expansion)

    p = subs.add_parser("cosystole", help="minimum norm of a non-coboundary cocycle")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_run_cosystole)

    p = subs.add_parser("minimize", help="drive a cochain to local minimality")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cochain", type=_indices, default=[],
                   help="comma-separated face indices at dimension k")
    _add_common(p)
    p.set_defaults(func=_run_minimize)

    p = subs.add_parser("fat-profile", help="fat levels, ladders, degenerate faces")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eta", type=_rational, required=True)
    p.add_argument("--cochain", type=_indices, default=[])
    _add_common(p)
    p.set_defaults(func=_run_fat_profile)

    p = subs.add_parser("seep-check", help="per-level ladder inequality check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eta", type=_rational, required=True)
    p.add_argument("--beta", type=_rational, default=None,
                   help="default: exact minimum link coboundary expansion")
    p.add_argument("--cochain", type=_indices, default=[])
    _add_common(p)
    p.set_defaults(func=_run_seep_check)

    p = subs.add_parser("spectrum", help="type-graph eigenvalues of a regular complex")
    p.add_argument("--types", default=None, help="optional .types sidecar")
    _add_common(p)
    p.set_defaults(func=_run_spectrum)

    p = subs.add_parser("mixing-check", help="one-sided mixing bound for two vertex sets")
    p.add_argument("--a", required=True, help="comma-separated vertex tokens")
    p.add_argument("--b", required=True)
    p.add_argument("--types", default=None)
    _add_common(p)
    p.set_defaults(func=_run_mixing_check)

    p = subs.add_parser("skeleton-alpha", help="least valid skeleton-expansion constant")
    p.add_argument("--mode", choices=("exhaustive", "spectral"), default="exhaustive")
    _add_common(p)
    p.set_defaults(func=_run_skeleton_alpha)

    p = subs.add_parser("constants", help="evaluate the promised constant formulas")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    _add_common(p, input_path=False)
    p.set_defaults(func=_run_constants)

    p = subs.add_parser("criterion", help="full hypothesis/conclusion report")
    _add_common(p)
    p.set_defaults(func=_run_criterion)

    return parser


_EXCLUDED_OPTIONS = {"func", "verb", "out", "format", "writes_file", "input"}


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args._parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.cap is not None and args.cap > DEFAULT_CAP and not args.ack_exponential:
        args._parser.error("raising --cap beyond the default needs --i-know-this-is-exponential")
    options = {
        key: (str(value) if isinstance(value, Fraction) else value)
        for key, value in sorted(vars(args).items())
        if key not in _EXCLUDED_OPTIONS and not key.startswith("_")
    }
    try:
        result, input_info, code = args.func(args)
        envelope = {
            "schema": "hdx-report/1",
            "version": __version__,
            "verb": args.verb,
            "options": options,
            "input": input_info,
            "result": result,
        }
        text = json_dumps(envelope) if args.format == "json" else tsv_dumps(envelope)
        if args.out and not getattr(args, "writes_file", False):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (HdxError, OSError) as exc:  # unreadable input, unwritable --out
        sys.stderr.write(f"hdx: error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
