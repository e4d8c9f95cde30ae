"""Root polytopes of acyclic graphs, flow polytope vertices, the
projection relating the two, reduction-driven dissections, and the
canonical triangulation of the path root polytope with its vertex figure.

All geometry is exact: points are tuples of Fractions in R^n.  The root
polytope of an acyclic graph G on [n] is the convex hull of the origin and
the roots e_p - e_q over increasing paths p -> q of G.  Reductions of G
dissect it; noncrossing alternating spanning trees triangulate the path
case.  The vertex figure at the origin is cut by the hyperplane
sum_k (n-k) x_k = 1, which every root meets at positive integer level.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .linalg import IntMat, IntVec, Vec, clear_denominators, det_int, matvec
from .linalg import solve_unique
from .report import read_canonical
from .subdivision import Edge, EdgeMonomial, ReductionNode, Strategy, Triple, reduction_tree
from .subdivision import _checked_edges, is_alternating

Point = Vec


@dataclass(frozen=True, slots=True)
class AcyclicGraph:
    """A simple graph on [n] with edges (i, j), i < j, and no cycles."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        edges = _checked_edges(self.n, self.edges)
        if len(set(edges)) != len(edges):
            raise ValueError(f"edges {tuple(self.edges)} repeat an edge (a 2-cycle)")
        parent = list(range(self.n + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                raise ValueError(f"edges {edges} contain a cycle")
            parent[ri] = rj
        object.__setattr__(self, "edges", edges)

    @classmethod
    def path(cls, n: int) -> "AcyclicGraph":
        return cls(n, tuple((i, i + 1) for i in range(1, n)))

    def to_jsonable(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_jsonable(cls, data) -> "AcyclicGraph":
        return read_canonical(cls, data, lambda d: cls(
            int(d["n"]), tuple(tuple(map(int, e)) for e in d["edges"])))

    def __str__(self):
        return "{" + ",".join(f"{i}{j}" if j <= 9 else f"({i},{j})" for i, j in self.edges) + "}"


def origin(n: int) -> Point:
    return tuple(Fraction(0) for _ in range(n))


def root(n: int, i: int, j: int) -> Point:
    """e_i - e_j in R^n."""
    return tuple(Fraction(1 if k == i else (-1 if k == j else 0)) for k in range(1, n + 1))


def positive_roots_in_cone(G: AcyclicGraph) -> frozenset[Point]:
    """Roots e_p - e_q over increasing paths p -> q of G; for a forest this
    is exactly the set of positive roots inside the cone of G's edges."""
    up: dict[int, list[int]] = {}
    for i, j in G.edges:
        up.setdefault(i, []).append(j)
    roots = set()
    for p in range(1, G.n + 1):
        stack = [p]
        seen = set()
        while stack:
            u = stack.pop()
            for v in up.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        for q in seen:
            roots.add(root(G.n, p, q))
    return frozenset(roots)


def root_polytope_vertices(G: AcyclicGraph) -> frozenset[Point]:
    """Vertices of the root polytope: the origin plus the cone roots.

    >>> sorted(root_polytope_vertices(AcyclicGraph(2, ((1, 2),))))
    [(Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(-1, 1))]
    """
    return positive_roots_in_cone(G) | {origin(G.n)}


# -- flow polytopes ------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AugmentedGraph:
    """G with a source 0 below vertex 1 and a sink n+1 above vertex n,
    joined to every original vertex.  All edges are increasing pairs."""

    n: int
    edges: tuple[Edge, ...]

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.n + 1


def augment(G: AcyclicGraph) -> AugmentedGraph:
    """
    >>> a = augment(AcyclicGraph.path(2))
    >>> len(a.edges)
    5
    """
    edges = list(G.edges)
    for i in range(1, G.n + 1):
        edges.append((0, i))
        edges.append((i, G.n + 1))
    return AugmentedGraph(G.n, tuple(sorted(edges)))


def flow_vertices(Gt: AugmentedGraph) -> frozenset[Point]:
    """Indicator vectors, indexed by Gt.edges, of the increasing paths from
    the source to the sink: the vertex set of the unit flow polytope."""
    up: dict[int, list[int]] = {}
    for i, j in Gt.edges:
        up.setdefault(i, []).append(j)
    index = {e: k for k, e in enumerate(Gt.edges)}
    m = len(Gt.edges)
    out = set()

    def walk(u: int, used: list[Edge]):
        if u == Gt.sink:
            point = [Fraction(0)] * m
            for e in used:
                point[index[e]] = Fraction(1)
            out.add(tuple(point))
            return
        for v in up.get(u, ()):
            used.append((u, v))
            walk(v, used)
            used.pop()

    walk(Gt.source, [])
    return frozenset(out)


def project_and_map(points: Iterable[Point], Gt: AugmentedGraph, G: AcyclicGraph) -> frozenset[Point]:
    """Drop the source/sink coordinates, then send the unit coordinate of
    edge (i, j) to e_i - e_j, extended linearly: flows map onto the root
    polytope of G."""
    inner = [k for k, (i, j) in enumerate(Gt.edges) if i != Gt.source and j != Gt.sink]
    edge_of = [Gt.edges[k] for k in inner]
    out = set()
    for p in points:
        image = [Fraction(0)] * G.n
        for k, (i, j) in zip(inner, edge_of):
            f = p[k]
            if f:
                image[i - 1] += f
                image[j - 1] -= f
        out.add(tuple(image))
    return frozenset(out)


# -- reductions and dissections -------------------------------------------

def graph_reduce(G0: AcyclicGraph, triple: Triple) -> tuple[AcyclicGraph, AcyclicGraph, AcyclicGraph]:
    """The three graphs obtained by rewriting at edges (i,j),(j,k):
    replace (j,k) by (i,k); replace (i,j) by (i,k); or drop both and add
    (i,k).  Reducing an acyclic graph never creates a parallel edge.

    >>> g1, g2, g3 = graph_reduce(AcyclicGraph.path(4), (2, 3, 4))
    >>> g1.edges, g2.edges, g3.edges
    (((1, 2), (2, 3), (2, 4)), ((1, 2), (2, 4), (3, 4)), ((1, 2), (2, 4)))
    """
    i, j, k = triple
    edges = set(G0.edges)
    if (i, j) not in edges or (j, k) not in edges:
        raise ValueError(f"pair ({i},{j}),({j},{k}) not in {G0}")
    if (i, k) in edges:
        raise ValueError(f"reduction would duplicate edge {(i, k)}")
    g1 = AcyclicGraph(G0.n, tuple((edges - {(j, k)}) | {(i, k)}))
    g2 = AcyclicGraph(G0.n, tuple((edges - {(i, j)}) | {(i, k)}))
    g3 = AcyclicGraph(G0.n, tuple((edges - {(i, j), (j, k)}) | {(i, k)}))
    return g1, g2, g3


@dataclass(frozen=True, slots=True)
class Dissection:
    """The reduction tree of a graph, read as graphs: by the reduction
    lemma each rewrite x_ij x_jk -> x_ik (x_ij + x_jk + b) of the edge
    monomial cuts the root polytope into the pieces of G1 and G2, which
    share the facet of G3 (one edge fewer, one more power of b)."""

    root: AcyclicGraph
    tree: ReductionNode

    def leaves(self) -> list[tuple[AcyclicGraph, int]]:
        """Alternating leaf graphs with the number of edges lost en route,
        the beta power of the leaf monomial."""
        return [(AcyclicGraph(m.n, m.edges), m.beta) for m in self.tree.leaves()]

    def census(self) -> dict[int, int]:
        return dict(sorted(Counter(m.beta for m in self.tree.leaves()).items()))

    def to_jsonable(self) -> dict:
        tree = self.tree.to_jsonable(lambda m: {"graph": AcyclicGraph(m.n, m.edges).to_jsonable()})
        return {"root": self.root.to_jsonable(), "tree": tree}

    def outline(self) -> list[str]:
        """The tree as `ReductionNode.outline`, one graph per line."""
        return self.tree.outline(lambda m: str(AcyclicGraph(m.n, m.edges)))


def dissect(G: AcyclicGraph, strategy: Strategy | None = None) -> Dissection:
    """The graph view of the rewrite tree of G's edge monomial, expanded
    until every leaf is alternating.

    >>> dissect(AcyclicGraph.path(4)).census()
    {0: 5, 1: 5, 2: 1}
    """
    return Dissection(G, reduction_tree(EdgeMonomial(G.n, G.edges), strategy))


# -- noncrossing alternating trees and the canonical triangulation ---------

def _prufer_decode(seq: Sequence[int], n: int) -> tuple[Edge, ...]:
    """The tree on [n], n >= 2, of a Prufer sequence: each entry joins the
    smallest leaf left.  `ptr` only moves up; a new leaf below it is next."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaf = ptr = degree.index(1, 1)
    edges = []
    for v in seq:
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, n))
    return tuple(sorted(edges))


def spanning_trees(n: int) -> Iterator[tuple[Edge, ...]]:
    """The sorted edge tuples of all labeled spanning trees of K_n, one per
    Prufer sequence, the sequences in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n == 1:
        yield ()
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield _prufer_decode(seq, n)


def is_noncrossing(edges: tuple[Edge, ...]) -> bool:
    for (i, k), (j, l) in combinations(edges, 2):
        if i < j < k < l or j < i < l < k:
            return False
    return True


def noncrossing_alternating_trees(n: int) -> tuple[AcyclicGraph, ...]:
    """All spanning trees of K_n with no crossing pair and no two edges
    meeting ascending at a middle vertex, in canonical edge-list order.

    >>> [t.edges for t in noncrossing_alternating_trees(3)]
    [((1, 2), (1, 3)), ((1, 3), (2, 3))]
    """
    kept = sorted(e for e in spanning_trees(n) if is_alternating(e) and is_noncrossing(e))
    return tuple(AcyclicGraph(n, e) for e in kept)


OUTSIDE, BOUNDARY, INTERIOR = 0, 1, 2


def location(c: Optional[Sequence], scale: int = 1) -> int:
    """Where a point lies in a simplex with the origin as a vertex, from its
    coefficients c / scale > 0 over the generators (None: outside their
    span): inside is c >= 0, sum(c) <= scale.  Returns at the first
    negative coefficient, before summing."""
    if c is None or any(v < 0 for v in c):
        return OUTSIDE
    total = sum(c)
    if total > scale:
        return OUTSIDE
    return INTERIOR if all(c) and total < scale else BOUNDARY


@dataclass(frozen=True, slots=True)
class Simplex:
    """Simplex spanned by distinct, linearly independent generator points
    of R^n, together with the origin when with_origin is set."""

    n: int
    generators: tuple[Point, ...]
    with_origin: bool = True

    def __post_init__(self):
        gens = tuple(sorted(tuple(c if type(c) is Fraction else Fraction(c) for c in g)
                            for g in self.generators))
        for k, g in enumerate(gens):
            if len(g) != self.n:
                raise ValueError(f"generator {list(map(str, g))} has {len(g)} coordinates, not n = {self.n}")
            if g in gens[k + 1:k + 2]:
                raise ValueError(f"generator {list(map(str, g))} is listed twice")
        object.__setattr__(self, "generators", gens)

    def vertex_points(self) -> tuple[Point, ...]:
        pts = list(self.generators)
        if self.with_origin:
            pts.append(origin(self.n))
        return tuple(sorted(pts))

    def to_jsonable(self) -> dict:
        return {
            "vertices": [[str(c) for c in p] for p in self.vertex_points()],
            "with_origin": self.with_origin,
        }

    @classmethod
    def from_jsonable(cls, data) -> "Simplex":
        def build(d):
            points = [tuple(map(Fraction, p)) for p in d["vertices"]]
            n, with_origin = len(points[0]), bool(d["with_origin"])
            return cls(n, tuple(p for p in points if not with_origin or p != origin(n)), with_origin)
        return read_canonical(cls, data, build)


def tree_simplex(T: AcyclicGraph) -> Simplex:
    """The root polytope of a spanning tree: a simplex on the origin and
    the tree's edge roots."""
    return Simplex(T.n, tuple(root(T.n, i, j) for i, j in T.edges), with_origin=True)


def is_unimodular(S: Simplex) -> bool:
    """Determinant of the generators restricted to coordinates 1..n-1 is
    +-1 (the root lattice maps isomorphically onto Z^(n-1) there).  False
    unless each of the n-1 generators is an integer point with sum 0."""
    gens = S.generators
    if len(gens) != S.n - 1 or any(c.denominator != 1 for g in gens for c in g) or any(map(sum, gens)):
        return False
    return abs(det_int([[c.numerator for c in g[:-1]] for g in gens])) == 1


def canonical_triangulation(n: int) -> list[Simplex]:
    """One unimodular simplex per noncrossing alternating spanning tree;
    their union is the path root polytope.

    >>> len(canonical_triangulation(4))
    5
    """
    simplices = []
    for T in noncrossing_alternating_trees(n):
        S = tree_simplex(T)
        if not is_unimodular(S):
            raise ValueError(f"tree simplex of {T} is not unimodular")
        simplices.append(S)
    return simplices


def level(n: int, x: Point) -> Fraction:
    """The separating functional sum_k (n-k) x_k; every root e_i - e_j has
    level j - i >= 1 while the origin has level 0."""
    return sum((n - k) * c for k, c in enumerate(x, start=1) if c)


def vertex_figure_point(n: int, i: int, j: int) -> Point:
    return tuple(c / (j - i) for c in root(n, i, j))


def vertex_figure(S: Simplex) -> Simplex:
    """Cut a simplex with origin by the level-1 hyperplane: each generator
    g becomes g / level(g), so a tree edge (i, j) gives (e_i - e_j) / (j - i)."""
    points = []
    for g in S.generators:
        t = level(S.n, g)
        points.append(tuple(c / t for c in g))
    return Simplex(S.n, tuple(points), with_origin=False)


def vertex_figure_simplices(n: int) -> list[Simplex]:
    """The vertex figure of each canonical simplex."""
    return [vertex_figure(tree_simplex(T)) for T in noncrossing_alternating_trees(n)]


def _tree_cuts(T: AcyclicGraph) -> IntMat:
    """The coefficient rows of a spanning tree's simplex, in integers: row
    k applied to the first n-1 coordinates of a point is its coefficient on
    the root of edge T.edges[k].  Walk T from vertex n; for edge (i, j) let
    c be the end farther from n.  The row is +1 (c = i) or -1 (c = j) on the
    subtree below c, 0 elsewhere: only (i, j) crosses that cut and the side
    below c does not hold n, so the row is 1 on its own root, 0 on the rest."""
    n = T.n
    if len(T.edges) != n - 1:
        raise ValueError(f"{T} on [{n}] is not a spanning tree")
    parent, order = {n: 0}, [n]
    for v in order:
        for u in {a + b - v for a, b in T.edges if v in (a, b)} - parent.keys():
            parent[u] = v
            order.append(u)
    below = {v: {v} for v in order}
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    cuts = ((i, 1) if parent[i] == j else (j, -1) for i, j in T.edges)
    return tuple(tuple(s if k in below[c] else 0 for k in range(1, n)) for c, s in cuts)


def barycentric_solver(T: AcyclicGraph):
    """For a spanning tree, an exact coefficient map of its simplex for
    bulk point-location: integer p and q > 0 give the coefficients of
    p / q over the tree's edge roots as (c, q), with integer c."""
    rows = _tree_cuts(T)

    def coefficients(p: IntVec, q: int) -> tuple[IntVec, int]:
        return matvec(rows, p[:-1]), q

    return coefficients


# -- exact intersection of two full-dimensional tree simplices -------------

def _halfspaces(T: AcyclicGraph) -> list[tuple[IntVec, int]]:
    """Integer inequalities a.z <= b in the first n-1 coordinates
    describing a spanning tree's simplex: every coefficient row.z is
    nonnegative and their sum is at most 1."""
    rows = _tree_cuts(T)
    ineqs = [(tuple(-v for v in row), 0) for row in rows]
    ineqs.append((tuple(map(sum, zip(*rows))), 1))
    return ineqs


def intersect_tree_simplices(T1: AcyclicGraph, T2: AcyclicGraph) -> frozenset[Point]:
    """Vertex set of the intersection of two spanning trees' simplices,
    by exhausting basic solutions of the combined halfspace description.
    Desk-scale only."""
    if T1.n != T2.n:
        raise ValueError(f"trees {T1} and {T2} are on [{T1.n}] and [{T2.n}]")
    ineqs = _halfspaces(T1) + _halfspaces(T2)
    verts = set()
    for subset in combinations(ineqs, T1.n - 1):
        z = solve_unique(tuple(a for a, _ in subset), tuple(b for _, b in subset))
        if z is None:
            continue
        p, q = clear_denominators(z)
        if all(sum(map(mul, a, p)) <= b * q for a, b in ineqs):
            verts.add(z + (-sum(z),))
    return frozenset(verts)


# -- seeded random graphs for verification suites --------------------------

def random_acyclic_graph(rng: random.Random, max_n: int) -> AcyclicGraph:
    """A random forest on 2..max_n vertices: a uniform Prufer tree with
    edges dropped at rate 0.3, re-rolled if it comes out empty."""
    n = rng.randint(2, max_n)
    while True:
        if n == 2:
            tree = AcyclicGraph(2, ((1, 2),))
        else:
            seq = [rng.randint(1, n) for _ in range(n - 2)]
            tree = AcyclicGraph(n, _prufer_decode(seq, n))
        kept = tuple(e for e in tree.edges if rng.random() > 0.3)
        if kept:
            return AcyclicGraph(n, kept)
