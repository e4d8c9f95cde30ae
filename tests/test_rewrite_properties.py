"""Property tests on random forests: the unmerged rewrite tree, the merged
reduced form and the dissection describe the same expansion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pipedreams.polytopes import AcyclicGraph, dissect
from pipedreams.subdivision import (
    EdgeMonomial,
    LexFirst,
    ReverseLex,
    Scripted,
    q_polynomial,
    reduced_form,
    reduction_tree,
)

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def forests(draw, max_n=6):
    """A forest on [n]: drawn edges, each kept unless it closes a cycle."""
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    kept = []
    for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            kept.append((i, j))
    return AcyclicGraph(n, tuple(kept))


@st.composite
def forests_and_strategies(draw):
    """A forest with a strategy whose choice depends only on the monomial
    (lex, rlex, or a drawn script), so the merged and unmerged traversals
    make the same choices."""
    G = draw(forests())
    kind = draw(st.sampled_from(("lex", "rlex", "script")))
    if kind == "lex":
        return G, LexFirst
    if kind == "rlex":
        return G, ReverseLex
    triples = [(i, j, k) for i in range(1, G.n + 1)
               for j in range(i + 1, G.n + 1) for k in range(j + 1, G.n + 1)]
    script = draw(st.lists(st.sampled_from(triples), max_size=6)) if triples else []
    return G, lambda: Scripted(script)


@PROPERTY
@given(forests_and_strategies())
def test_tree_leaves_sum_to_reduced_form(case):
    G, strategy = case
    m = EdgeMonomial(G.n, G.edges)
    summed: dict = {}
    for leaf in reduction_tree(m, strategy()).leaves():
        summed[leaf.key()] = summed.get(leaf.key(), 0) + leaf.coeff
    merged = {mono.key(): mono.coeff for mono in reduced_form(m, strategy()).monomials}
    assert summed == merged


@PROPERTY
@given(forests_and_strategies())
def test_dissection_census_is_q_polynomial(case):
    G, strategy = case
    census = dissect(G, strategy()).census()
    q = q_polynomial(G.n, G.edges, strategy())
    assert census == {exps[0]: coeff for exps, coeff in q.terms.items()}
