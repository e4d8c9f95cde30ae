"""Property tests for the tree scan and the exact simplex kernels against
the reference implementations in `tests/oracles.py`."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import intersect_simplices_fraction, prufer_decode_heap, spanning_tree_edges_recursive

from pipedreams.linalg import clear_denominators, solve_in_span
from pipedreams.polytopes import (
    AcyclicGraph,
    Simplex,
    _prufer_decode,
    barycentric_solver,
    intersect_tree_simplices,
    location,
    random_acyclic_graph,
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


def scaled_tree_simplices(n):
    """The simplex of an arbitrary spanning tree on [n], its generators
    scaled by a drawn factor: the generator inverse is an integer matrix
    at factors 1 and 1/2, and has denominator 2 or 3 at factors 2 and 3/2."""
    def scaled(T, t):
        return Simplex(n, tuple(tuple(c * t for c in g) for g in tree_simplex(T).generators))

    factors = st.sampled_from([Fraction(t) for t in (1, 1, 2, "1/2", "3/2")])
    return st.builds(scaled, st.sampled_from(TREES[n]), factors)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(*[scaled_tree_simplices(n)] * 2)))
def test_intersection_matches_fraction_oracle(pair):
    S1, S2 = pair
    assert intersect_tree_simplices(S1, S2) == intersect_simplices_fraction(S1, S2)


@st.composite
def points_near_simplices(draw):
    """A full scaled tree simplex on [n] and a rational point on the
    sum-zero hyperplane given by coefficients over its generators: random
    ones, or ones with a zero entry, or ones summing to exactly 1."""
    n = draw(st.integers(2, 5))
    S = draw(scaled_tree_simplices(n))
    coeff = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 2), max_denominator=6)
    c = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1))
    kind = draw(st.sampled_from(("random", "zero", "sum one")))
    if kind == "zero":
        c[draw(st.integers(0, n - 2))] = Fraction(0)
    elif kind == "sum one":
        c[-1] = 1 - sum(c[:-1])
    x = tuple(sum(ci * g[k] for ci, g in zip(c, S.generators)) for k in range(n))
    return S, x


@PROPERTY
@given(points_near_simplices())
def test_integer_location_matches_fraction_location(case):
    S, x = case
    p, q = clear_denominators(x)
    c, scale = barycentric_solver(S)(p, q)
    assert scale > 0 and all(type(v) is int for v in c)
    assert location(c, scale) == location(solve_in_span(S.generators, x))
