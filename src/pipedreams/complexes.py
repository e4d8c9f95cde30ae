"""Abstract simplicial complexes, face/h-vectors, and the pipe dream
complex of a permutation.

The pipe dream complex of w has the staircase boxes as potential vertices;
a set of boxes is a face when the letters on the complementary boxes still
contain w, and the facets are the elbow sets of the reduced pipe dreams.
Interior faces are the elbow sets whose complementary cross set has
Demazure product exactly w, i.e. the pipe dreams of w.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable

from .dreams import (
    DEFAULT_LIMIT_N,
    Box,
    PipeDream,
    box_letter,
    reduced_pipe_dreams,
    staircase_boxes,
)
from .perms import Permutation, demazure_window, word_contains
from .poly import MultiPolynomial

Face = frozenset


def _downward_closure(faces: Iterable[Face]) -> frozenset[Face]:
    """Every subset of every given face, the empty face included."""
    out: set[Face] = set()
    for face in faces:
        elems = sorted(face)
        for k in range(len(elems) + 1):
            for sub in combinations(elems, k):
                out.add(frozenset(sub))
    return frozenset(out)


class SimplicialComplex:
    """A complex given by its facets over a finite, sortable vertex set."""

    __slots__ = ("vertices", "facets", "_faces")

    def __init__(self, facets: Iterable[Iterable[Hashable]]):
        facet_sets = sorted({frozenset(f) for f in facets}, key=sorted)
        for a in facet_sets:
            for b in facet_sets:
                if a < b:
                    raise ValueError(f"facet {sorted(a)} is contained in {sorted(b)}")
        if not facet_sets:
            raise ValueError("a complex needs at least one facet (possibly empty)")
        self.facets: tuple[Face, ...] = tuple(facet_sets)
        vertices: set = set()
        for f in self.facets:
            vertices |= f
        self.vertices = tuple(sorted(vertices))
        self._faces: frozenset[Face] | None = None

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def faces(self) -> frozenset[Face]:
        """Downward closure of the facets, including the empty face."""
        if self._faces is None:
            self._faces = _downward_closure(self.facets)
        return self._faces

    def boundary_faces(self) -> frozenset[Face]:
        """Topological boundary: the closure of the codimension-1 faces
        lying in exactly one facet.  Meaningful for pure complexes."""
        if not self.is_pure():
            raise ValueError("boundary computation expects a pure complex")
        ridges = Counter(
            frozenset(r) for facet in self.facets for r in combinations(sorted(facet), self.dim)
        )
        return _downward_closure(ridge for ridge, count in ridges.items() if count == 1)

    def to_jsonable(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": [list(v) if isinstance(v, tuple) else v for v in self.vertices],
            "facets": sorted(sorted(index[v] for v in f) for f in self.facets),
        }

    @classmethod
    def from_jsonable(cls, data) -> "SimplicialComplex":
        vertices = [tuple(v) if isinstance(v, list) else v for v in data["vertices"]]
        return cls([(vertices[i] for i in facet) for facet in data["facets"]])

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"


@dataclass(frozen=True, slots=True)
class FaceVector:
    """Counts f = (f_{-1}, f_0, ..., f_{d-1}) with f_{-1} = 1."""

    f: tuple[int, ...]

    def __post_init__(self):
        if not self.f or self.f[0] != 1 or any(c < 0 for c in self.f):
            raise ValueError(f"bad face vector {self.f}")

    @property
    def d(self) -> int:
        return len(self.f) - 1


def f_vector(C: SimplicialComplex) -> FaceVector:
    """Count all faces by dimension, the empty face included.

    >>> f_vector(SimplicialComplex([("a", "b")])).f
    (1, 2, 1)
    """
    counts = [0] * (C.dim + 2)
    for face in C.faces():
        counts[len(face)] += 1
    return FaceVector(tuple(counts))


def h_polynomial(C: SimplicialComplex) -> MultiPolynomial:
    """h-polynomial sum h_i x^i via the standard f-to-h transform.

    Requires a pure complex so that d below is the common facet size:
    sum_i f_{i-1} (x-1)^{d-i} = sum_i h_i x^{d-i}.
    """
    if not C.is_pure():
        raise ValueError("h-polynomial computed only for pure complexes")
    fv = f_vector(C).f
    d = len(fv) - 1
    # coefficients of sum f_{i-1} (x-1)^(d-i), as a dense list in x
    acc = [0] * (d + 1)
    for i, fi in enumerate(fv):
        # fi * (x-1)^(d-i)
        power = d - i
        coeffs = [1]
        for _ in range(power):
            nxt = [0] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] += c
                nxt[k] -= c
            coeffs = nxt
        for k, c in enumerate(coeffs):
            acc[k] += fi * c
    # acc[k] is the coefficient of x^k; h_i is the coefficient of x^(d-i)
    h = [acc[d - i] for i in range(d + 1)]
    vars = ("x",)
    return MultiPolynomial(vars, {(i,): c for i, c in enumerate(h) if c})


def build_pdc(w: Permutation, limit_n: int = DEFAULT_LIMIT_N) -> SimplicialComplex:
    """The pipe dream complex of w: facets are the elbow sets of the
    reduced pipe dreams.

    >>> C = build_pdc(Permutation((1, 4, 3, 2)))
    >>> len(C.vertices), len(C.facets)
    (6, 5)
    """
    facets = [frozenset(P.elbows()) for P in reduced_pipe_dreams(w, limit_n)]
    return SimplicialComplex(facets)


def is_face_of_pdc(boxes: Iterable[Box], w: Permutation) -> bool:
    """Whether a box set is a face of the pipe dream complex of w: the
    letters on the complementary boxes must contain w."""
    removed = set(boxes)
    return word_contains([box_letter(b) for b in staircase_boxes(w.n) if b not in removed], w)


def interior_faces(
    C: SimplicialComplex, w: Permutation
) -> list[tuple[Face, int]]:
    """Faces whose complementary cross set is a pipe dream for w, with
    their codimensions.  These are exactly the faces labeled by Pipes(w)."""
    boxes = staircase_boxes(w.n)
    d = max(len(f) for f in C.facets)
    out = []
    for face in C.faces():
        crosses = [b for b in boxes if b not in face]
        letters = [box_letter(b) for b in crosses]
        if demazure_window(letters, w.n) == w.window:
            out.append((face, d - len(face)))
    out.sort(key=lambda t: (t[1], sorted(t[0])))
    return out


def h_from_interior(C: SimplicialComplex, w: Permutation) -> MultiPolynomial:
    """Interior-face form of the h-polynomial: sum of b^codim over interior
    faces, which equals h(C, b+1) for a ball."""
    terms: dict[tuple[int, ...], int] = {}
    for _face, codim in interior_faces(C, w):
        terms[(codim,)] = terms.get((codim,), 0) + 1
    return MultiPolynomial(("b",), terms)


def interior_pipe_dreams(C: SimplicialComplex, w: Permutation) -> list[PipeDream]:
    """The pipe dreams labeling the interior faces (complement cross sets)."""
    boxes = staircase_boxes(w.n)
    out = []
    for face, _codim in interior_faces(C, w):
        out.append(PipeDream(w.n, tuple(b for b in boxes if b not in face)))
    out.sort(key=lambda p: (p.size, p.crosses))
    return out
