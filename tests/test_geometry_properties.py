"""Property tests for the tree scan and the exact simplex kernels against
the reference implementations in `tests/oracles.py`."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    generator_inverse,
    intersect_simplices_fraction,
    prufer_decode_heap,
    spanning_tree_edges_recursive,
)

from pipedreams.linalg import clear_denominators, solve_in_span
from pipedreams.polytopes import (
    AcyclicGraph,
    _prufer_decode,
    _tree_cuts,
    barycentric_solver,
    intersect_tree_simplices,
    location,
    noncrossing_alternating_trees,
    random_acyclic_graph,
    root,
    spanning_trees,
    tree_simplex,
)
from pipedreams.subdivision import is_alternating, reducible_triples

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)
TREES = {n: tuple(AcyclicGraph(n, edges) for edges in spanning_trees(n)) for n in range(1, 7)}


@st.composite
def prufer_sequences(draw):
    n = draw(st.integers(2, 10))
    return n, draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))


@PROPERTY
@given(prufer_sequences())
def test_prufer_decode_matches_heap_oracle(case):
    n, seq = case
    assert _prufer_decode(seq, n) == prufer_decode_heap(seq, n)


def test_spanning_trees_follow_the_oracle_order():
    for n, trees in TREES.items():
        assert [T.edges for T in trees] == list(spanning_tree_edges_recursive(n))
        assert len(trees) == n ** max(n - 2, 0)  # Cayley


@PROPERTY
@given(st.integers(0, 10**6))
def test_is_alternating_on_random_forests(seed):
    G = random_acyclic_graph(random.Random(seed), 8)
    assert is_alternating(G.edges) == (not reducible_triples(G.edges))


def test_is_alternating_on_every_spanning_tree():
    for trees in TREES.values():
        for T in trees:
            assert is_alternating(T.edges) == (not reducible_triples(T.edges))


def test_tree_cuts_match_the_generator_inverse():
    """The subtree-sum rows equal the `Fraction` inverse of the generator
    matrix, with d = 1, row by row matched by edge: on every spanning tree
    of K_2..K_6, and so on every noncrossing alternating tree for n <= 7."""
    for T in (*(T for n in range(2, 7) for T in TREES[n]), *noncrossing_alternating_trees(7)):
        S = tree_simplex(T)
        N, d = generator_inverse(S)
        assert d == 1
        by_edge = {e: N[S.generators.index(root(T.n, *e))] for e in T.edges}
        assert _tree_cuts(T) == tuple(by_edge[e] for e in T.edges), T


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(*[st.sampled_from(TREES[n])] * 2)))
def test_intersection_matches_fraction_oracle(pair):
    T1, T2 = pair
    assert intersect_tree_simplices(T1, T2) == intersect_simplices_fraction(
        tree_simplex(T1), tree_simplex(T2))


@st.composite
def points_near_simplices(draw):
    """A spanning tree on [n] and a rational point on the sum-zero
    hyperplane given by coefficients over its edge roots: random ones, or
    ones with a zero entry, or ones summing to exactly 1."""
    n = draw(st.integers(2, 6))
    T = draw(st.sampled_from(TREES[n]))
    coeff = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 2), max_denominator=6)
    c = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1))
    kind = draw(st.sampled_from(("random", "zero", "sum one")))
    if kind == "zero":
        c[draw(st.integers(0, n - 2))] = Fraction(0)
    elif kind == "sum one":
        c[-1] = 1 - sum(c[:-1])
    roots = [root(n, i, j) for i, j in T.edges]
    x = tuple(sum(ci * g[k] for ci, g in zip(c, roots)) for k in range(n))
    return T, tuple(c), x


@PROPERTY
@given(points_near_simplices())
def test_integer_location_matches_fraction_location(case):
    T, c_drawn, x = case
    p, q = clear_denominators(x)
    c, scale = barycentric_solver(T)(p, q)
    assert scale > 0 and all(type(v) is int for v in c)
    assert tuple(Fraction(v, scale) for v in c) == c_drawn
    assert location(c, scale) == location(solve_in_span(tree_simplex(T).generators, x))
