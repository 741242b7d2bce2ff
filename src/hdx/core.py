"""Pure simplicial complexes with exact weighted norms.

A complex is built from its maximal faces and is immutable afterwards.
Vertex identifiers are opaque strings at the boundary; internally they are
interned to dense integers in sorted-token order, so face enumeration is
canonical (dimension-major, then lexicographic) and reproducible.

The unique (-1)-face (the empty set) is materialized explicitly: it is a
face of every nonempty complex, carries weight 1, and makes the spaces of
(-1)-cochains and their coboundary map ordinary cases.

All weights and norms are exact `fractions.Fraction` values.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadDimension,
    ComplexMismatch,
    EmptyInput,
    FaceNotInComplex,
    NotPure,
    UnknownVertex,
)
from .f2 import WeightTable, iter_bits

Face = tuple[int, ...]  # sorted internal vertex ids; () is the (-1)-face


class Complex:
    """A finite pure d-dimensional simplicial complex."""

    def __init__(self, d: int, vertex_names: tuple[str, ...], faces: dict, tops: dict):
        """Internal constructor; use :meth:`build` or a generator instead.

        faces[k] lists the k-faces in canonical order, k = -1..d, and tops[k]
        the number of top faces containing each of them."""
        self.d = d
        self.vertex_names = vertex_names
        self._vid = {name: i for i, name in enumerate(vertex_names)}
        self._faces = faces
        self._tops = tops
        self._index = {k: {f: i for i, f in enumerate(fs)} for k, fs in faces.items()}
        n_top = len(faces[d])
        self._den = {k: comb(d + 1, k + 1) * n_top for k in range(-1, d + 1)}

        # up[k][i] = bitmask over X(k+1) of the cofaces of face i in X(k)
        up: dict[int, list[int]] = {k: [0] * len(self._faces[k]) for k in range(-1, d + 1)}
        for k in range(0, d + 1):
            idx_down = self._index[k - 1]
            up_row = up[k - 1]
            for i, f in enumerate(self._faces[k]):
                bit = 1 << i
                for sub in combinations(f, k):
                    up_row[idx_down[sub]] |= bit
        self._up = {k: tuple(rows) for k, rows in up.items()}

        # per proper face f: (link, per link dimension the parent index of
        # each link face)
        self._links: dict[Face, tuple[Complex, dict[int, list[int]]]] = {}
        self._skeletons: dict[int, Complex] = {}
        self._weight_tables: dict[int, WeightTable] = {}
        self.memo: dict = {}  # objects other modules derive from this complex, by key
        self._hash = hash((d, vertex_names, self._faces[d]))

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, maximal_faces: Iterable[Iterable[object]]) -> "Complex":
        """Downward closure of the given maximal faces.

        Faces that are subsets of other input faces are absorbed silently;
        after absorption all maximal faces must share one dimension. Only a
        face smaller than the largest input face can be absorbed, and it is
        tested only against the input faces through its least-used vertex,
        so pure input costs no subset test and builds in time linear in its
        faces.
        """
        sets = {frozenset(str(t) for t in f) for f in maximal_faces}
        sets = {s for s in sets if s}
        if not sets:
            raise EmptyInput("no nonempty maximal faces given")
        top = max(map(len, sets))
        star = defaultdict(list)  # vertex -> input faces through it
        if any(len(s) < top for s in sets):
            for t in sets:
                for v in t:
                    star[v].append(t)
        maximal = [
            s for s in sets
            if len(s) == top or not any(s < t for t in min((star[v] for v in s), key=len))
        ]
        sizes = {len(s) for s in maximal}
        if len(sizes) != 1:
            small = min(maximal, key=lambda s: (len(s), sorted(s)))
            raise NotPure(
                f"maximal faces of mixed dimensions: {sorted(small)} has "
                f"{len(small)} vertices, expected {max(sizes)}"
            )
        d = sizes.pop() - 1
        names = tuple(sorted({t for s in maximal for t in s}))
        vid = {name: i for i, name in enumerate(names)}
        tops = [tuple(sorted(vid[t] for t in s)) for s in maximal]
        return cls(d, names, *_closure(d, tops))

    # -- basic accessors ----------------------------------------------------

    def faces(self, k: int) -> tuple[Face, ...]:
        self._check_dim(k)
        return self._faces[k]

    def n_faces(self, k: int) -> int:
        self._check_dim(k)
        return len(self._faces[k])

    @property
    def n_top(self) -> int:
        return len(self._faces[self.d])

    @property
    def total_face_count(self) -> int:
        """Number of faces including the empty face."""
        return sum(len(v) for v in self._faces.values())

    def _check_dim(self, k: int) -> None:
        if not -1 <= k <= self.d:
            raise BadDimension(f"dimension {k} outside -1..{self.d}")

    def face_index(self, face: Face) -> int:
        k = len(face) - 1
        self._check_dim(k)
        try:
            return self._index[k][face]
        except KeyError:
            raise FaceNotInComplex(f"{self.tokens_of(face)} is not a face") from None

    def has_face(self, face: Face) -> bool:
        k = len(face) - 1
        return -1 <= k <= self.d and face in self._index[k]

    def face_from_tokens(self, tokens: Iterable[object]) -> Face:
        ids = []
        for t in tokens:
            name = str(t)
            if name not in self._vid:
                raise UnknownVertex(f"unknown vertex {name!r}")
            ids.append(self._vid[name])
        face = tuple(sorted(ids))
        if len(set(face)) != len(face):
            raise FaceNotInComplex(f"repeated vertices in {tuple(tokens)}")
        self.face_index(face)  # existence check
        return face

    def as_face(self, face: Iterable[object]) -> Face:
        """Coerce tokens or internal ids to a validated internal face."""
        items = tuple(face)
        if all(isinstance(t, int) for t in items):
            f = tuple(sorted(items))
            self.face_index(f)
            return f
        return self.face_from_tokens(items)

    def tokens_of(self, face: Face) -> tuple[str, ...]:
        return tuple(self.vertex_names[v] for v in face)

    def vertex_ids(self, vertices: Iterable[object]) -> set[int]:
        out = set()
        for t in vertices:
            if isinstance(t, int):
                if not 0 <= t < len(self.vertex_names):
                    raise UnknownVertex(f"vertex id {t} out of range")
                out.add(t)
            else:
                name = str(t)
                if name not in self._vid:
                    raise UnknownVertex(f"unknown vertex {name!r}")
                out.add(self._vid[name])
        return out

    # -- weights and cochains ------------------------------------------------

    def weight(self, face: Iterable[object]) -> Fraction:
        f = self.as_face(face)
        k = len(f) - 1
        return Fraction(self._tops[k][self._index[k][f]], self._den[k])

    def top_counts(self, k: int) -> tuple[int, ...]:
        self._check_dim(k)
        return self._tops[k]

    def up_rows(self, k: int) -> tuple[int, ...]:
        """Rows of delta^k: row i is the bitmask over X(k+1) of the cofaces of
        face i of X(k); all zero at k = d."""
        self._check_dim(k)
        return self._up[k]

    def weight_table(self, k: int) -> WeightTable:
        """top_counts(k) as a span-kernel weight table, built once."""
        self._check_dim(k)
        if k not in self._weight_tables:
            self._weight_tables[k] = WeightTable(self._tops[k])
        return self._weight_tables[k]

    def norm_den(self, k: int) -> int:
        self._check_dim(k)
        return self._den[k]

    def cochain_from_bits(self, k: int, bits: int) -> "Cochain":
        self._check_dim(k)
        if bits < 0 or bits >> len(self._faces[k]):
            raise BadDimension(f"bits outside X({k}) of size {len(self._faces[k])}")
        return Cochain(self, k, bits)

    def cochain(self, k: int, faces: Iterable[Iterable[object]] = ()) -> "Cochain":
        bits = 0
        for f in faces:
            face = self.as_face(f)
            if len(face) - 1 != k:
                raise BadDimension(f"{face} has dimension {len(face) - 1}, expected {k}")
            bits |= 1 << self._index[k][face]
        self._check_dim(k)
        return Cochain(self, k, bits)

    def empty_cochain(self, k: int) -> "Cochain":
        self._check_dim(k)
        return Cochain(self, k, 0)

    def full_cochain(self, k: int) -> "Cochain":
        self._check_dim(k)
        return Cochain(self, k, (1 << len(self._faces[k])) - 1)

    def check_bound(self, A: "Cochain", k: int | None = None) -> None:
        if A.complex is not self and A.complex != self:
            raise ComplexMismatch("cochain belongs to a different complex")
        if k is not None and A.k != k:
            raise BadDimension(f"cochain has dimension {A.k}, expected {k}")

    # -- containers ----------------------------------------------------------

    def container(self, A: "Cochain", r: int) -> "Cochain":
        """All r-faces containing a member of A (for r >= dim A)."""
        self.check_bound(A)
        if not A.k <= r <= self.d:
            raise BadDimension(f"container dimension {r} outside {A.k}..{self.d}")
        bits = A.bits
        for k in range(A.k, r):
            up = self._up[k]
            nxt = 0
            for i in iter_bits(bits):
                nxt |= up[i]
            bits = nxt
        return Cochain(self, r, bits)

    # -- links, localization, lifting ----------------------------------------

    def link(self, sigma: Iterable[object]) -> "Complex":
        """The link of sigma, as a fresh complex with its own weights."""
        f = self.as_face(sigma)
        if len(f) == self.d + 1:
            raise BadDimension("the link of a top face is the empty complex")
        if not f:
            return self
        if f not in self._links:
            # the link's j-faces are the star's (|f|+j)-faces less f, kept in
            # parent order: faces of one size compare by the least element of
            # their symmetric difference, which removing f and renumbering the
            # rest in id order leave alone, so this is Complex.build of the
            # link's tokens
            s = len(f)
            star = self.cochain(s - 1, [f])
            maps = {-1: list(star.indices())}
            for j in range(self.d - s + 1):
                star = self.container(star, s + j)
                maps[j] = list(star.indices())
            ids = [v for p in maps[0] for v in self._faces[s][p] if v not in f]
            new = {v: i for i, v in enumerate(ids)}
            link = Complex(
                self.d - s,
                tuple(self.vertex_names[v] for v in ids),
                {j: tuple(tuple(new[v] for v in self._faces[s + j][p] if v not in f) for p in ps)
                 for j, ps in maps.items()},
                {j: tuple(self._tops[s + j][p] for p in ps) for j, ps in maps.items()},
            )
            self._links[f] = (link, maps)
        return self._links[f][0]

    def localize(self, sigma: Iterable[object], A: "Cochain") -> "Cochain":
        """Restrict A to the faces containing sigma, viewed inside the link."""
        f = self.as_face(sigma)
        self.check_bound(A)
        k_link = A.k - len(f)
        if k_link < -1:
            raise BadDimension(f"cannot localize a {A.k}-cochain at a face of {len(f)} vertices")
        link = self.link(f)
        if not f:
            return A
        to_parent = self._links[f][1][k_link]
        bits = 0
        a = A.bits
        for j, p in enumerate(to_parent):
            if (a >> p) & 1:
                bits |= 1 << j
        return Cochain(link, k_link, bits)

    def lift(self, sigma: Iterable[object], B: "Cochain") -> "Cochain":
        """Adjoin sigma to every face of the link cochain B."""
        f = self.as_face(sigma)
        link = self.link(f)
        if not f:
            self.check_bound(B)
            return B
        link.check_bound(B)
        to_parent = self._links[f][1][B.k]
        bits = 0
        for j in iter_bits(B.bits):
            bits |= 1 << to_parent[j]
        return Cochain(self, B.k + len(f), bits)

    def faces_containing(self, sigma: Iterable[object], A: "Cochain") -> "Cochain":
        """The members of A that contain sigma, as a cochain of the same
        dimension; equals lift(localize(A)) wherever the link is proper, and
        stays defined even when sigma is a top face."""
        f = self.as_face(sigma)
        self.check_bound(A)
        if len(f) > A.k + 1:
            return Cochain(self, A.k, 0)
        mask = self.container(self.cochain(len(f) - 1, [f]), A.k).bits
        return Cochain(self, A.k, mask & A.bits)

    # -- skeletons and vertex-set edges ---------------------------------------

    def skeleton(self, k: int) -> "Complex":
        """The k-skeleton, reweighted as a pure k-complex."""
        if not 0 <= k <= self.d:
            raise BadDimension(f"skeleton dimension {k} outside 0..{self.d}")
        if k == self.d:
            return self
        if k not in self._skeletons:
            # every vertex lies in a k-face and the k-faces are distinct, so
            # this is Complex.build of their tokens
            self._skeletons[k] = Complex(k, self.vertex_names, *_closure(k, self._faces[k]))
        return self._skeletons[k]

    def edges_between(self, a: Iterable[object], b: Iterable[object]) -> "Cochain":
        """Edges with one endpoint in a and the other in b (a = b allowed)."""
        if self.d < 1:
            raise BadDimension("complex has no edges")
        sa = self.vertex_ids(a)
        sb = self.vertex_ids(b)
        bits = 0
        for i, (u, v) in enumerate(self._faces[1]):
            if (u in sa and v in sb) or (v in sa and u in sb):
                bits |= 1 << i
        return Cochain(self, 1, bits)

    def max_vertex_link_size(self) -> int:
        """Largest total face count (including the empty face) of a vertex link:
        the link of v has one face for each face through v."""
        return max(Counter(v for fs in self._faces.values() for f in fs for v in f).values())

    # -- isomorphism ------------------------------------------------------------

    def isomorphism(self, other: "Complex") -> tuple[int, ...] | None:
        """A vertex bijection phi (vertex v goes to vertex phi[v] of other)
        that maps every top face of self to a top face of other, or None.

        The top counts of every dimension, sorted, filter first. Then vertices
        are placed in BFS order over shared top faces: each vertex's images are
        the unused neighbours of its anchor's image with its top count, and a
        top face is checked as soon as all of its vertices are placed. The
        counts are equal, so the map is onto, and it preserves every weight,
        norm denominator and coboundary.
        """
        d = self.d
        if other.d != d or any(
            sorted(self._tops[k]) != sorted(other._tops[k]) for k in range(d + 1)
        ):
            return None
        n = len(self.vertex_names)
        tops, other_tops = self._faces[d], set(other._faces[d])
        count, other_count = self._tops[0], other._tops[0]
        near = [set() for _ in range(n)]  # vertices sharing a top face, that is an edge
        other_near = [set() for _ in range(n)]
        if d:
            for edges, nb in ((self._faces[1], near), (other._faces[1], other_near)):
                for u, v in edges:
                    nb[u].add(v)
                    nb[v].add(u)
        order: list[int] = []
        anchor: list[int | None] = []
        pos: dict[int, int] = {}
        for root in range(n):
            if root in pos:
                continue
            pos[root] = len(order)
            order.append(root)
            anchor.append(None)
            i = len(order) - 1
            while i < len(order):
                u = order[i]
                i += 1
                for w in sorted(near[u]):
                    if w not in pos:
                        pos[w] = len(order)
                        order.append(w)
                        anchor.append(u)
        closes: list[list[Face]] = [[] for _ in range(n)]  # top faces complete at each step
        for top in tops:
            closes[max(pos[v] for v in top)].append(top)

        phi = [-1] * n
        used = [False] * n

        def images(j: int):
            v, a = order[j], anchor[j]
            pool = range(n) if a is None else sorted(other_near[phi[a]])
            return (w for w in pool if other_count[w] == count[v] and not used[w])

        stack = [images(0)]
        while stack:
            j = len(stack) - 1
            v = order[j]
            if phi[v] >= 0:
                used[phi[v]] = False
            for w in stack[-1]:
                phi[v] = w
                if all(tuple(sorted(phi[u] for u in top)) in other_tops for top in closes[j]):
                    break
            else:
                phi[v] = -1
                stack.pop()
                continue
            used[w] = True
            if j + 1 == n:
                return tuple(phi)
            stack.append(images(j + 1))
        return None

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Complex)
            and self.d == other.d
            and self.vertex_names == other.vertex_names
            and self._faces[self.d] == other._faces[other.d]
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fvec = ", ".join(str(len(self._faces[k])) for k in range(0, self.d + 1))
        return f"Complex(d={self.d}, faces=[{fvec}])"


def _closure(d: int, top_faces: Sequence[Face]) -> tuple[dict, dict]:
    """Faces of each dimension of the downward closure, in canonical order, and
    the number of top faces containing each."""
    faces, tops = {}, {}
    for k in range(-1, d + 1):
        counts = Counter(chain.from_iterable(combinations(top, k + 1) for top in top_faces))
        faces[k] = tuple(sorted(counts))
        tops[k] = tuple(counts[f] for f in faces[k])
    return faces, tops


class Cochain:
    """A subset of X(k) as a bitset bound to its complex.

    Addition is symmetric difference (F2)."""

    __slots__ = ("complex", "k", "bits")

    def __init__(self, complex: Complex, k: int, bits: int):
        self.complex = complex
        self.k = k
        self.bits = bits

    def norm(self) -> Fraction:
        return Fraction(self.top_sum(), self.complex.norm_den(self.k))

    def top_sum(self) -> int:
        """Integer numerator of the norm over the fixed per-dimension denominator."""
        tops = self.complex.top_counts(self.k)
        return sum(tops[i] for i in iter_bits(self.bits))

    def indices(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def faces(self) -> list[Face]:
        fs = self.complex.faces(self.k)
        return [fs[i] for i in iter_bits(self.bits)]

    def token_faces(self) -> list[tuple[str, ...]]:
        return [self.complex.tokens_of(f) for f in self.faces()]

    def _binop_check(self, other: "Cochain") -> None:
        if not isinstance(other, Cochain):
            raise TypeError("expected a Cochain")
        if other.complex is not self.complex and other.complex != self.complex:
            raise ComplexMismatch("cochains bound to different complexes")
        if other.k != self.k:
            raise BadDimension(f"cochain dimensions differ: {self.k} vs {other.k}")

    def __xor__(self, other: "Cochain") -> "Cochain":
        self._binop_check(other)
        return Cochain(self.complex, self.k, self.bits ^ other.bits)

    __add__ = __xor__  # F2 addition is symmetric difference

    def __and__(self, other: "Cochain") -> "Cochain":
        self._binop_check(other)
        return Cochain(self.complex, self.k, self.bits & other.bits)

    def __or__(self, other: "Cochain") -> "Cochain":
        self._binop_check(other)
        return Cochain(self.complex, self.k, self.bits | other.bits)

    def __contains__(self, face: Face) -> bool:
        return bool((self.bits >> self.complex.face_index(face)) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cochain)
            and self.k == other.k
            and self.bits == other.bits
            and (self.complex is other.complex or self.complex == other.complex)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.bits))

    def __repr__(self) -> str:
        return f"Cochain(k={self.k}, size={len(self)})"


def build_complex(maximal_faces: Iterable[Iterable[object]]) -> Complex:
    """Functional alias for :meth:`Complex.build`."""
    return Complex.build(maximal_faces)
