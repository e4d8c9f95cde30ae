"""Geometric realization of the pipe dream complex of 1 n n-1 ... 2 as the
canonical triangulation of the root polytope vertex figure.

The elbow box (r, c) corresponds to the edge (c, n-r+1) and to the point
(e_c - e_{n-r+1}) / ((n-r+1) - c) on the level-1 hyperplane.  Under this
correspondence reduced pipe dreams become noncrossing alternating spanning
trees, interior faces become common edge sets of trees, and the whole face
poset of the complex transfers onto the triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import (
    SimplicialComplex,
    build_pdc,
    h_polynomial,
    interior_faces,
    is_face_of_pdc,
)
from .dreams import Box, PipeDream, reduced_pipe_dreams, staircase_boxes
from .perms import catalan_permutation
from .polytopes import (
    AcyclicGraph,
    Point,
    Simplex,
    noncrossing_alternating_trees,
    vertex_figure_point,
    vertex_figure_simplices,
)
from .report import VerifyResult
from .subdivision import Edge


class RealizationError(AssertionError):
    """A face of the pipe dream complex fails to match the triangulation."""


def catalan_number(m: int) -> int:
    """Catalan numbers by the convolution recurrence (independent of any
    closed form used elsewhere).

    >>> [catalan_number(m) for m in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    values = [1]
    for k in range(1, m + 1):
        values.append(sum(values[i] * values[k - 1 - i] for i in range(k)))
    return values[m]


def narayana_number(m: int, k: int) -> int:
    """N(m, k) = C(m, k) C(m, k-1) / m."""
    return comb(m, k) * comb(m, k - 1) // m


def box_edge(box: Box, n: int) -> Edge:
    """The edge (c, n-r+1) attached to the staircase box (r, c)."""
    r, c = box
    return (c, n - r + 1)


def tree_of_pipedream(P: PipeDream) -> AcyclicGraph:
    """Edges of the elbow boxes of a reduced pipe dream of 1 n n-1 ... 2;
    always a spanning tree.

    >>> tree_of_pipedream(PipeDream(4, ((1, 2), (1, 3), (2, 2)))).edges
    ((1, 2), (1, 3), (1, 4))
    """
    n = P.n
    pi = catalan_permutation(n)
    if P.permutation() != pi or P.size != pi.length():
        raise ValueError(f"{P} is not a reduced pipe dream for {pi}")
    return AcyclicGraph(n, tuple(box_edge(b, n) for b in P.elbows()))


def verify_bijection(n: int) -> VerifyResult:
    """tree_of_pipedream is injective on reduced pipe dreams of
    1 n n-1 ... 2 and its image is exactly the noncrossing alternating
    spanning trees; both sets have Catalan(n-1) elements."""
    name = f"bijection:{n}"
    dreams = reduced_pipe_dreams(catalan_permutation(n))
    images = [tree_of_pipedream(P) for P in dreams]
    image_set = {T.edges for T in images}
    trees = {T.edges for T in noncrossing_alternating_trees(n)}
    cat = catalan_number(n - 1)
    details = {
        "dreams": len(dreams),
        "distinct_images": len(image_set),
        "trees": len(trees),
        "catalan": cat,
    }
    if len(image_set) != len(images):
        return VerifyResult(name, False, {**details, "reason": "not injective"})
    if image_set != trees:
        missing = sorted(trees - image_set)
        extra = sorted(image_set - trees)
        return VerifyResult(name, False, {**details, "missing": missing, "extra": extra})
    if not (len(dreams) == len(trees) == cat):
        return VerifyResult(name, False, {**details, "reason": "count mismatch"})
    return VerifyResult(name, True, details)


def verify_face_map(n: int) -> VerifyResult:
    """Interior faces of the complex map onto the nonempty common edge
    sets of the trees, as a poset isomorphism.  Both are read from one
    listing, `interior_faces`: the trees are the edge images of its
    codim-0 faces, the facets.  Two checks suffice: box_edge is injective
    on the boxes, and the edge images of the interior faces are exactly
    the nonempty intersections of the trees.  Then each interior face is
    an intersection of facets, hence of the facets above it (its crosses
    are the union of theirs), its image is their common tree edge set,
    and inclusion transfers both ways.  The boundary faces need no check
    here: they follow from the facet check of `realize`."""
    name = f"face-map:{n}"
    pi = catalan_permutation(n)
    boxes = staircase_boxes(n)
    if len({box_edge(b, n) for b in boxes}) != len(boxes):
        return VerifyResult(name, False, {"reason": "box_edge is not injective"})

    images = {frozenset(box_edge(b, n) for b in face): codim for face, codim in interior_faces(pi)}
    trees = {edges for edges, codim in images.items() if not codim}
    intersections, frontier = set(trees), trees
    while frontier:
        frontier = {c for a in frontier for b in trees if (c := a & b)} - intersections
        intersections |= frontier

    if images.keys() != intersections:
        return VerifyResult(
            name, False,
            {"reason": "images differ from nonempty tree intersections",
             "images": len(images), "intersections": len(intersections)},
        )
    return VerifyResult(name, True, {"interior_faces": len(images)})


def triangulation_complex(n: int) -> SimplicialComplex:
    """The canonical vertex-figure triangulation as an abstract complex
    whose vertex labels are the simplex corner points."""
    return SimplicialComplex([S.vertex_points() for S in vertex_figure_simplices(n)])


@dataclass(frozen=True, slots=True)
class RealizationMap:
    """The box-to-point and facet-to-simplex data of the realization."""

    n: int
    vertex_map: dict[Box, Point]
    facet_map: dict[PipeDream, Simplex]

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "vertex_map": [
                {"box": list(b), "point": [str(c) for c in p]}
                for b, p in sorted(self.vertex_map.items())
            ],
            "facets": [
                {"crosses": [list(b) for b in P.crosses], "simplex": S.to_jsonable()}
                for P, S in sorted(self.facet_map.items(), key=lambda kv: kv[0].crosses)
            ],
        }


def require_realizable(n: int) -> None:
    """For n < 3 the complex is the degenerate case and is not realized."""
    if n < 3:
        raise ValueError("realization needs n >= 3")


def require_narayana(n: int) -> None:
    """For n < 2 the Narayana row N(n-1, 1..n-1) is empty."""
    if n < 2:
        raise ValueError("the Narayana check needs n >= 2")


def realize(n: int) -> RealizationMap:
    """Build the realization and check it: the vertex map is injective,
    facet images coincide with the vertex-figure simplices, and a box set
    is a face of the complex exactly when its image spans a face of the
    triangulation (tested on the faces and on each face plus one box).
    Boundary then matches boundary with no further test, since the
    boundary depends only on the facets and commutes with an injective
    relabelling.  Raises RealizationError at the first failure.
    """
    require_realizable(n)
    pi = catalan_permutation(n)
    boxes = staircase_boxes(n)
    vmap = {b: vertex_figure_point(n, *box_edge(b, n)) for b in boxes}
    if len(set(vmap.values())) != len(boxes):
        raise RealizationError("vertex map is not injective")

    C = build_pdc(pi)
    fmap = {
        PipeDream(n, tuple(b for b in boxes if b not in facet)):
            Simplex(n, tuple(vmap[b] for b in facet), with_origin=False)
        for facet in C.facets
    }

    tri = triangulation_complex(n)
    got = {frozenset(S.vertex_points()) for S in fmap.values()}
    if got != set(tri.facets):
        raise RealizationError("facet images differ from the vertex-figure simplices")

    # Both face predicates are closed under subsets (the pipe dream complex
    # is a subword complex), so they agree on every box set iff they agree
    # on the faces of C, which the facet check above carries onto the
    # triangulation's faces, and on each such face plus one box.
    faces = C.faces()
    for face in faces:
        if not is_face_of_pdc(face, pi):
            raise RealizationError(f"face mismatch at boxes {sorted(face)}")
    for subset in {face | {b} for face in faces for b in boxes if b not in face} - faces:
        if is_face_of_pdc(subset, pi):
            raise RealizationError(f"face mismatch at boxes {sorted(subset)}")

    return RealizationMap(n, vmap, fmap)


def verify_realization(n: int) -> VerifyResult:
    name = f"realize:{n}"
    try:
        rm = realize(n)
    except RealizationError as exc:
        return VerifyResult(name, False, {"reason": str(exc)})
    return VerifyResult(name, True, {"boxes": len(rm.vertex_map), "facets": len(rm.facet_map)})


def narayana_check(n: int) -> VerifyResult:
    """The h-vector of the complex of 1 n n-1 ... 2 is the Narayana row
    N(n-1, 1), ..., N(n-1, n-1), by the independent binomial formula."""
    require_narayana(n)
    name = f"narayana:{n}"
    pi = catalan_permutation(n)
    h = h_polynomial(build_pdc(pi), pi).coefficient_vector()
    expected = tuple(narayana_number(n - 1, k) for k in range(1, n))
    if h != expected:
        return VerifyResult(name, False, {"h": list(h), "narayana": list(expected)})
    return VerifyResult(name, True, {"h": list(h)})
