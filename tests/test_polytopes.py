"""Root polytopes, flows, dissections, trees, triangulations."""

import random
import re
from fractions import Fraction

import pytest

from pipedreams.linalg import clear_denominators, solve_in_span
from pipedreams.polytopes import (
    AcyclicGraph,
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    Simplex,
    augment,
    barycentric_solver,
    canonical_triangulation,
    dissect,
    flow_vertices,
    graph_reduce,
    intersect_tree_simplices,
    is_noncrossing,
    is_unimodular,
    level,
    location,
    noncrossing_alternating_trees,
    origin,
    positive_roots_in_cone,
    project_and_map,
    random_acyclic_graph,
    root,
    root_polytope_vertices,
    spanning_trees,
    tree_simplex,
    vertex_figure_point,
    vertex_figure_simplices,
)
from pipedreams.realization import catalan_number
from pipedreams.subdivision import (
    PATH4_SCRIPT,
    LexFirst,
    Scripted,
    SeededRandom,
    is_alternating,
    q_polynomial,
    reducible_triples,
)


def F(x):
    return Fraction(x)


def test_acyclic_validation():
    with pytest.raises(ValueError):
        AcyclicGraph(3, ((1, 2), (2, 3), (1, 3)))
    with pytest.raises(ValueError):
        AcyclicGraph(3, ((2, 1),))
    with pytest.raises(ValueError):  # a repeated edge is a 2-cycle
        AcyclicGraph(3, ((1, 2), (1, 2), (2, 3)))
    G = AcyclicGraph(4, ((3, 4), (1, 2)))
    assert G.edges == ((1, 2), (3, 4))


@pytest.mark.parametrize("data,named", [
    ({"n": 4.5, "edges": [[1, 2]]}, "AcyclicGraph: $['n'] reads 4.5 but writes 4"),
    ({"n": 4, "edges": [[1.0, 2]]}, "AcyclicGraph: $['edges'][0][0] reads 1.0 but writes 1"),
], ids=["fractional-rank", "float-edge-end"])
def test_acyclic_graph_json_with_a_fractional_number_is_refused(data, named):
    """A graph read from JSON is refused, with the type and the path named,
    when its rank or an edge end is not an integer: it would not print
    back as read."""
    with pytest.raises(ValueError, match=re.escape(named)):
        AcyclicGraph.from_jsonable(data)


@pytest.mark.parametrize("n,edges,named", [
    (-2, (), r"rank -2 is negative"),
    (3, ((1, 2, 3),), r"edge \(1, 2, 3\) does not have two ends"),
    (3, ((1, 2), (3,)), r"edge \(3,\) does not have two ends"),
], ids=["negative-rank", "three-ends", "one-end"])
def test_acyclic_graph_refuses_a_negative_rank_and_a_malformed_edge(n, edges, named):
    """The constructor refuses them, and so does the JSON reader through it:
    {"n": -2, "edges": []} used to read as a graph that prints {}, and an
    edge with three ends failed only as a tuple unpacking."""
    with pytest.raises(ValueError, match=named):
        AcyclicGraph(n, edges)
    with pytest.raises(ValueError, match=named):
        AcyclicGraph.from_jsonable({"n": n, "edges": [list(e) for e in edges]})


def test_positive_roots_path():
    G = AcyclicGraph.path(4)
    roots = positive_roots_in_cone(G)
    assert roots == {root(4, i, j) for i in range(1, 4) for j in range(i + 1, 5)}


def test_positive_roots_single_and_star():
    single = AcyclicGraph(3, ((1, 3),))
    assert positive_roots_in_cone(single) == {root(3, 1, 3)}
    star = AcyclicGraph(3, ((1, 2), (1, 3)))
    assert positive_roots_in_cone(star) == {root(3, 1, 2), root(3, 1, 3)}


def test_root_polytope_vertices():
    P3 = AcyclicGraph.path(3)
    assert root_polytope_vertices(P3) == {
        origin(3), root(3, 1, 2), root(3, 2, 3), root(3, 1, 3)
    }
    assert len(root_polytope_vertices(AcyclicGraph.path(4))) == 7
    single = AcyclicGraph(2, ((1, 2),))
    assert root_polytope_vertices(single) == {origin(2), root(2, 1, 2)}


def test_augment_counts():
    assert len(augment(AcyclicGraph.path(2)).edges) == 5
    assert len(augment(AcyclicGraph.path(3)).edges) == 8
    empty1 = AcyclicGraph(1, ())
    assert augment(empty1).edges == ((0, 1), (1, 2))


def test_flow_vertices_counts():
    assert len(flow_vertices(augment(AcyclicGraph.path(2)))) == 3
    assert len(flow_vertices(augment(AcyclicGraph.path(3)))) == 6
    assert len(flow_vertices(augment(AcyclicGraph(1, ())))) == 1


def test_flow_vertices_are_01():
    for p in flow_vertices(augment(AcyclicGraph.path(3))):
        assert all(c in (0, 1) for c in p)


def test_projection_path3():
    G = AcyclicGraph.path(3)
    Gt = augment(G)
    image = project_and_map(flow_vertices(Gt), Gt, G)
    assert image == root_polytope_vertices(G)
    # the three source-vertex-sink paths all collapse to the origin
    zeros = [p for p in flow_vertices(Gt)
             if project_and_map([p], Gt, G) == frozenset({origin(3)})]
    assert len(zeros) == 3


def test_projection_random_graphs():
    rng = random.Random(17)
    for _ in range(25):
        G = random_acyclic_graph(rng, 6)
        Gt = augment(G)
        assert project_and_map(flow_vertices(Gt), Gt, G) == root_polytope_vertices(G)


def test_graph_reduce_examples():
    g1, g2, g3 = graph_reduce(AcyclicGraph.path(4), (2, 3, 4))
    assert g1.edges == ((1, 2), (2, 3), (2, 4))
    assert g2.edges == ((1, 2), (2, 4), (3, 4))
    assert g3.edges == ((1, 2), (2, 4))
    g1, g2, g3 = graph_reduce(AcyclicGraph.path(3), (1, 2, 3))
    assert g1.edges == ((1, 2), (1, 3))
    assert g2.edges == ((1, 3), (2, 3))
    assert g3.edges == ((1, 3),)
    with pytest.raises(ValueError):
        graph_reduce(AcyclicGraph(3, ((1, 2), (1, 3))), (1, 2, 3))


def test_reduction_lemma_vertex_level():
    """P(G0) = P(G1) u P(G2) and P(G3) = P(G1) n P(G2) at the vertex level:
    vertex sets of the parts stay inside the whole, and the projection
    commutes with one reduction."""
    rng = random.Random(23)
    for _ in range(20):
        G = random_acyclic_graph(rng, 6)
        triples = reducible_triples(G.edges)
        if not triples:
            continue
        g1, g2, g3 = graph_reduce(G, triples[0])
        v0 = root_polytope_vertices(G)
        v1, v2, v3 = map(root_polytope_vertices, (g1, g2, g3))
        assert v1 <= v0 and v2 <= v0
        assert v3 <= v1 and v3 <= v2
        for H in (g1, g2, g3):
            Ht = augment(H)
            assert project_and_map(flow_vertices(Ht), Ht, H) == root_polytope_vertices(H)


def test_dissection_census_path4():
    d = dissect(AcyclicGraph.path(4), Scripted(PATH4_SCRIPT))
    assert d.census() == {0: 5, 1: 5, 2: 1}


def test_dissection_leaves_alternating():
    d = dissect(AcyclicGraph.path(5))
    for g, _beta in d.leaves():
        assert is_alternating(g.edges)


def test_dissection_trivial_cases():
    d = dissect(AcyclicGraph.path(2))
    assert d.census() == {0: 1}
    d3 = dissect(AcyclicGraph.path(3))
    assert [g.edges for g, beta in d3.leaves() if beta == 0] == [
        ((1, 2), (1, 3)), ((1, 3), (2, 3))
    ]


def test_full_dimensional_leaf_count_is_constant_term():
    """q_polynomial at b = 0 counts the top-dimensional pieces of the
    dissection; for paths this is a Catalan number."""
    for n in range(2, 7):
        G = AcyclicGraph.path(n)
        q0 = q_polynomial(n, G.edges).terms.get((0,), 0)
        assert q0 == dissect(G).census().get(0, 0)
        assert q0 == catalan_number(n - 1)


def test_dissection_census_matches_q_polynomial():
    rng = random.Random(31)
    for _ in range(15):
        G = random_acyclic_graph(rng, 6)
        for strategy in (LexFirst(), SeededRandom(5)):
            census = dissect(G, strategy).census()
            q = q_polynomial(G.n, G.edges, strategy)
            assert census == {e[0]: c for e, c in q.terms.items()}


def test_noncrossing_alternating_trees_small():
    assert [t.edges for t in noncrossing_alternating_trees(3)] == [
        ((1, 2), (1, 3)), ((1, 3), (2, 3))
    ]
    t4 = {t.edges for t in noncrossing_alternating_trees(4)}
    assert t4 == {
        ((1, 2), (1, 3), (1, 4)),
        ((1, 2), (1, 4), (3, 4)),
        ((1, 3), (1, 4), (2, 3)),
        ((1, 4), (2, 3), (2, 4)),
        ((1, 4), (2, 4), (3, 4)),
    }


def test_tree_counts_are_catalan():
    for n in range(2, 8):
        assert len(noncrossing_alternating_trees(n)) == catalan_number(n - 1)


def test_spanning_tree_enumeration_count():
    assert sum(1 for _ in spanning_trees(4)) == 16  # 4^2 by Cayley
    assert sum(1 for _ in spanning_trees(5)) == 125


def test_predicates():
    assert not is_alternating(((1, 2), (2, 3)))
    assert is_alternating(((1, 2), (1, 3)))
    assert not is_noncrossing(((1, 3), (2, 4)))
    assert is_noncrossing(((1, 4), (2, 3)))


def test_canonical_triangulation_counts_and_unimodularity():
    for n in range(2, 9):
        tri = canonical_triangulation(n)
        assert len(tri) == catalan_number(n - 1)
        assert all(is_unimodular(S) for S in tri)


def test_level_functional():
    for n in (3, 4, 5):
        assert level(n, origin(n)) == 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert level(n, root(n, i, j)) == j - i
                assert level(n, vertex_figure_point(n, i, j)) == 1


def test_vertex_figure_n3_shares_midpoint():
    segs = vertex_figure_simplices(3)
    assert len(segs) == 2
    shared = set(segs[0].vertex_points()) & set(segs[1].vertex_points())
    assert shared == {(F(1) / 2, F(0), F(-1) / 2)}


def test_vertex_figure_n4():
    tris = vertex_figure_simplices(4)
    assert len(tris) == 5
    points = {p for S in tris for p in S.vertex_points()}
    assert len(points) == 6
    # the point of the long edge (1,4) lies in all five triangles
    apex = vertex_figure_point(4, 1, 4)
    assert all(apex in S.vertex_points() for S in tris)


def test_simplex_membership():
    S = tree_simplex(AcyclicGraph.path(3))

    def where(x):
        return location(solve_in_span(S.generators, x))

    assert where(tuple(F(x) for x in (0, 0, 0))) == BOUNDARY
    mid = tuple((a + b) / 2 for a, b in zip(root(3, 1, 2), root(3, 2, 3)))
    assert where(mid) == BOUNDARY
    assert where(tuple(F(x) for x in (-1, 1, 0))) == OUTSIDE
    inner = tuple((a + b) / 4 for a, b in zip(root(3, 1, 2), root(3, 2, 3)))
    assert where(inner) == INTERIOR
    beyond = tuple(a + b for a, b in zip(root(3, 1, 2), root(3, 2, 3)))
    assert where(beyond) == OUTSIDE


def test_barycentric_solver_matches_simplex():
    rng = random.Random(41)
    for T in noncrossing_alternating_trees(4):
        solve = barycentric_solver(T)
        roots = [root(4, i, j) for i, j in T.edges]
        for _ in range(10):
            x = tuple(F(rng.randint(-2, 2)) / rng.randint(1, 3) for _ in range(4))
            x = x[:-1] + (-sum(x[:-1]),)  # land on the sum-zero hyperplane
            p, q = clear_denominators(x)
            c, scale = solve(p, q)
            direct = solve_in_span(roots, x)
            assert direct == tuple(Fraction(v, scale) for v in c)


def test_tree_kernels_refuse_a_forest_and_two_ranks():
    """The coefficient rows are defined for spanning trees only, and two
    simplices meet only in one ambient space."""
    forest = AcyclicGraph(4, ((1, 2), (3, 4)))
    with pytest.raises(ValueError, match=re.escape("{12,34} on [4] is not a spanning tree")):
        barycentric_solver(forest)
    with pytest.raises(ValueError, match=re.escape("{12,34} on [4] is not a spanning tree")):
        intersect_tree_simplices(forest, AcyclicGraph.path(4))
    with pytest.raises(ValueError, match=re.escape("trees {12,23} and {12,23,34} are on [3] and [4]")):
        intersect_tree_simplices(AcyclicGraph.path(3), AcyclicGraph.path(4))


def test_is_unimodular_refuses_points_off_the_root_lattice():
    """A generator with a fractional coordinate or a nonzero coordinate sum
    is not in the root lattice, whatever the determinant of its integer
    parts: (3/2, -3/2) spans volume 3/2, and (1, 0) sums to 1."""
    assert is_unimodular(Simplex(2, ((1, -1),)))
    assert not is_unimodular(Simplex(2, ((Fraction(3, 2), Fraction(-3, 2)),)))
    assert not is_unimodular(Simplex(2, ((1, 0),)))


def test_intersections_match_common_forest_all_pairs_n4():
    trees = noncrossing_alternating_trees(4)
    for a in range(len(trees)):
        for b in range(a + 1, len(trees)):
            got = intersect_tree_simplices(trees[a], trees[b])
            common = AcyclicGraph(4, tuple(set(trees[a].edges) & set(trees[b].edges)))
            assert got == root_polytope_vertices(common)


def test_simplex_json():
    S = tree_simplex(AcyclicGraph.path(3))
    data = S.to_jsonable()
    assert ["0", "0", "0"] in data["vertices"]
    vf = vertex_figure_simplices(3)[0]
    assert ["1/2", "0", "-1/2"] in vf.to_jsonable()["vertices"]


@pytest.mark.parametrize("with_origin", [False, True])
def test_simplex_json_with_no_vertices_is_refused(with_origin):
    """With no vertex there is no rank to read: indexing the first fails."""
    with pytest.raises(ValueError, match="Simplex: IndexError: list index out of range"):
        Simplex.from_jsonable({"vertices": [], "with_origin": with_origin})


@pytest.mark.parametrize("vertices,with_origin,named", [
    ([["1", "-1"]], True,
     """Simplex: $['vertices'] reads [["1", "-1"]] but writes [["0", "0"], ["1", "-1"]]"""),
    ([["0", "0"], ["1", "-1"], ["0", "0"]], True,
     """Simplex: $['vertices'] reads [["0", "0"], ["1", "-1"], ["0", "0"]] """
     """but writes [["0", "0"], ["1", "-1"]]"""),
    ([["1", "-1"], ["1", "-1"]], False, "Simplex: ValueError: generator ['1', '-1'] is listed twice"),
    ([["1", "-1"], ["1", "0", "-1"]], False,
     "Simplex: ValueError: generator ['1', '0', '-1'] has 3 coordinates, not n = 2"),
    ([["0", "0"], ["1", "-1"]], "yes", """Simplex: $['with_origin'] reads "yes" but writes true"""),
    ([["1/0", "0"]], False, "Simplex: ZeroDivisionError: Fraction(1, 0)"),
], ids=["origin-missing", "origin-twice", "vertex-twice", "lengths-differ", "with-origin-not-a-bool",
        "zero-denominator"])
def test_simplex_json_refuses_what_no_simplex_writes(vertices, with_origin, named):
    """A simplex read from JSON is refused, with the type and the path
    named, when it would not print back as read: a with-origin list leaves
    the origin out (it would print with the origin added) or names it
    twice (collapsed to one), or with_origin is not a boolean.  It is
    refused with the constructor's fault named when a vertex is listed
    twice or the vertices differ in length, and with the build's error
    named when a coordinate has a zero denominator."""
    with pytest.raises(ValueError, match=re.escape(named)):
        Simplex.from_jsonable({"vertices": vertices, "with_origin": with_origin})


@pytest.mark.parametrize("generators,named", [
    (((1, -1), (1, -1)), "generator ['1', '-1'] is listed twice"),
    (((1, -1), (1, 0, -1)), "generator ['1', '0', '-1'] has 3 coordinates, not n = 2"),
], ids=["repeated", "wrong-length"])
def test_simplex_refuses_a_repeated_or_misshapen_generator(generators, named):
    """Such a simplex would print a vertex twice, or vertices of two lengths."""
    with pytest.raises(ValueError, match=re.escape(named)):
        Simplex(2, generators, with_origin=False)
    data = {"vertices": [[str(c) for c in g] for g in generators], "with_origin": False}
    with pytest.raises(ValueError, match=re.escape("Simplex: ValueError: " + named)):
        Simplex.from_jsonable(data)
