"""Constructors for the example complexes, and the .cx / .types file formats.

The random generator uses an explicit SplitMix64 stream so that a fixed
(n, d, p, seed) tuple reproduces the same complex on every platform: the
candidate top faces are visited in lexicographic order of their sorted
vertex index tuples, one 64-bit draw per face, and a face is kept when
draw / 2^64 < p as an exact rational comparison.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod

from .caps import check_enumeration
from .core import Complex, Face, build_complex
from .errors import BadParam, EmptyInput, NotPrime, ParseError

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream; deterministic across platforms."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# -- deterministic families ----------------------------------------------------


def complete(n: int, d: int) -> Complex:
    """All (d+1)-subsets of n vertices as top faces."""
    if not 0 <= d < n:
        raise BadParam(f"complete complex needs 0 <= d < n, got n={n}, d={d}")
    return build_complex(combinations([str(v) for v in range(n)], d + 1))


def complete_partite(d: int, m: int) -> Complex:
    """Top faces are all transversals of d+1 parts of size m.

    Vertex tokens are "part:index"; the natural typing maps each vertex to
    its part.
    """
    if d < 0 or m < 1:
        raise BadParam(f"complete partite complex needs d >= 0 and m >= 1")
    parts = [[f"{i}:{a}" for a in range(m)] for i in range(d + 1)]
    return build_complex(product(*parts))


def cycle(n: int) -> Complex:
    """The n-cycle as a pure 1-complex."""
    if n < 3:
        raise BadParam(f"cycle needs n >= 3, got {n}")
    return build_complex([(str(i), str((i + 1) % n)) for i in range(n)])


# -- flag complex of proper subspaces -------------------------------------------


def _rref_subspaces(q: int, n: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All k-dimensional subspaces of F_q^n as reduced row echelon matrices."""
    out = []
    for pivots in combinations(range(n), k):
        free_pos = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in product(range(q), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free_pos, values):
                rows[r][c] = val
            out.append(tuple(tuple(row) for row in rows))
    return out


def _span(rows: tuple[tuple[int, ...], ...], q: int) -> set[tuple[int, ...]]:
    """Every vector of the row space over F_q."""
    return {
        tuple(sum(c * x for c, x in zip(coefs, col)) % q for col in zip(*rows))
        for coefs in product(range(q), repeat=len(rows))
    }


def _subspace_token(rows: tuple[tuple[int, ...], ...]) -> str:
    return "|".join("".join(str(x) for x in row) for row in rows)


def projective_flag(q: int, n: int, cap: int | None = None) -> Complex:
    """Flags of proper nonzero subspaces of F_q^n, a pure (n-2)-complex.

    Vertices are subspaces keyed by their reduced row echelon form; top
    faces are the complete flags with one subspace per dimension 1..n-1.
    """
    if not is_prime(q):
        raise NotPrime(f"field size must be prime, got {q}")
    if n < 2:
        raise BadParam(f"flag complex needs n >= 2, got {n}")
    check_enumeration(q**n, cap, "field vectors")
    check_enumeration(prod((q**k - 1) // (q - 1) for k in range(1, n + 1)), cap, "complete flags")
    by_dim = {k: _rref_subspaces(q, n, k) for k in range(1, n)}
    tokens = {k: [_subspace_token(w) for w in by_dim[k]] for k in by_dim}
    spans = {k: [_span(w, q) for w in by_dim[k]] for k in range(2, n)}
    step_up: dict[int, list[list[int]]] = {}
    for k in range(1, n - 1):
        step_up[k] = [
            [j for j, span in enumerate(spans[k + 1]) if all(row in span for row in small)]
            for small in by_dim[k]
        ]

    flags: list[tuple[str, ...]] = []

    def grow(k: int, idx: int, chain: list[str]) -> None:
        chain.append(tokens[k][idx])
        if k == n - 1:
            flags.append(tuple(chain))
        else:
            for nxt in step_up[k][idx]:
                grow(k + 1, nxt, chain)
        chain.pop()

    for i in range(len(by_dim[1])):
        grow(1, i, [])
    return build_complex(flags)


def projective_flag_types(X: Complex) -> dict[str, int]:
    """Natural typing of a flag complex: subspace dimension minus one."""
    return {name: name.count("|") for name in X.vertex_names}


def complete_partite_types(X: Complex) -> dict[str, int]:
    """Natural typing of a complete partite complex: the part index."""
    return {name: int(name.split(":")[0]) for name in X.vertex_names}


# -- random complexes ------------------------------------------------------------


@dataclass(frozen=True)
class LinialMeshulamResult:
    complex: Complex
    kept: int
    candidates: int
    dropped: tuple[Face, ...]  # faces of the full (d-1)-skeleton not in the pure part


def linial_meshulam(
    n: int, d: int, p: Fraction, seed: int, cap: int | None = None
) -> LinialMeshulamResult:
    """Full (d-1)-skeleton plus independent d-faces, restricted to its pure part.

    Lower faces of the (d-1)-skeleton that end up under no surviving d-face
    violate purity; they are dropped and reported, not silently kept.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise BadParam(f"probability must lie in [0,1], got {p}")
    if not 1 <= d < n:
        raise BadParam(f"need 1 <= d < n, got n={n}, d={d}")
    from math import comb

    check_enumeration(comb(n, d + 1), cap, "candidate top faces")
    rng = SplitMix64(seed)
    kept = []
    total = 0
    bound = p.numerator << 64  # draw / 2^64 < p, cleared of denominators
    for face in combinations(range(n), d + 1):
        total += 1
        if rng.next_u64() * p.denominator < bound:
            kept.append(face)
    if not kept:
        raise EmptyInput(
            f"no top faces survived sampling (n={n}, d={d}, p={p}, seed={seed})"
        )
    X = build_complex([tuple(str(v) for v in f) for f in kept])
    surviving: set[tuple[str, ...]] = set()
    for k in range(-1, d):
        for f in X.faces(k):
            surviving.add(X.tokens_of(f))
    dropped = []
    for k in range(0, d):
        for f in combinations(range(n), k + 1):
            toks = tuple(str(v) for v in f)
            if tuple(sorted(toks)) not in surviving:  # tokens_of is in string order
                dropped.append(toks)
    return LinialMeshulamResult(X, len(kept), total, tuple(dropped))


# -- generation specs -------------------------------------------------------------


@dataclass(frozen=True)
class GenSpec:
    kind: str
    n: int | None = None
    d: int | None = None
    m: int | None = None
    q: int | None = None
    p: Fraction | None = None
    seed: int | None = None

    KINDS = ("complete", "complete_partite", "cycle", "projective_flag", "linial_meshulam")

    def canonical_string(self) -> str:
        parts = [f"kind={self.kind}"]
        for field in ("n", "d", "m", "q", "p", "seed"):
            value = getattr(self, field)
            if value is not None:
                parts.append(f"{field}={value}")
        return " ".join(parts)


def generate(spec: GenSpec, cap: int | None = None) -> Complex:
    """Build the complex described by a generation spec."""

    def need(*fields: str) -> list:
        missing = [f for f in fields if getattr(spec, f) is None]
        if missing:
            raise BadParam(f"kind {spec.kind!r} needs parameters {missing}")
        return [getattr(spec, f) for f in fields]

    if spec.kind == "complete":
        n, d = need("n", "d")
        return complete(n, d)
    if spec.kind == "complete_partite":
        d, m = need("d", "m")
        return complete_partite(d, m)
    if spec.kind == "cycle":
        (n,) = need("n")
        return cycle(n)
    if spec.kind == "projective_flag":
        q, n = need("q", "n")
        return projective_flag(q, n, cap)
    if spec.kind == "linial_meshulam":
        n, d, p, seed = need("n", "d", "p", "seed")
        return linial_meshulam(n, d, p, seed, cap).complex
    raise BadParam(f"unknown generator kind {spec.kind!r}; known: {GenSpec.KINDS}")


def natural_types(spec_kind: str, X: Complex) -> dict[str, int] | None:
    if spec_kind == "complete_partite":
        return complete_partite_types(X)
    if spec_kind == "projective_flag":
        return projective_flag_types(X)
    return None


# -- file formats -----------------------------------------------------------------


def save_complex(X: Complex, path: str) -> None:
    """Write the maximal faces, one per line, in canonical order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pure {X.d}-complex: {X.n_top} top faces, "
                 f"{len(X.vertex_names)} vertices\n")
        for face in X.faces(X.d):
            fh.write(" ".join(X.tokens_of(face)) + "\n")


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, newlines translated as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        # the sentinel byte makes a partial last line count as a line
        line = len((data[: exc.start] + b".").splitlines())
        raise ParseError(f"{path} is not UTF-8 text", line) from None


def load_complex(path: str) -> Complex:
    """Parse a .cx file: whitespace-separated vertex tokens, one maximal face
    per line; '#' starts a comment."""
    faces = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        seen: dict[str, int] = {}
        for col, tok in enumerate(tokens, start=1):
            if tok in seen:
                raise ParseError(f"vertex {tok!r} repeated in one face", lineno, col)
            seen[tok] = col
        faces.append(tokens)
    if not faces:
        raise EmptyInput(f"no faces in {path}")
    return build_complex(faces)


def save_types(types: dict[str, int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(types):
            fh.write(f"{name} {types[name]}\n")


def load_types(path: str) -> dict[str, int]:
    """Parse a .types sidecar: lines of "vertex_token type_integer", each
    vertex listed once."""
    out: dict[str, int] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex type' pair", lineno)
        name, value = parts
        if name in first_line:
            raise ParseError(
                f"vertex {name!r} listed twice, first on line {first_line[name]}", lineno, 1
            )
        first_line[name] = lineno
        try:
            out[name] = int(value)
        except ValueError:
            raise ParseError(f"type {value!r} is not an integer", lineno, 2) from None
    return out
