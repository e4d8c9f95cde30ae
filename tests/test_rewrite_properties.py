"""Property tests on random forests: the unmerged rewrite tree, the merged
reduced form and the dissection describe the same expansion.  On random
edge multisets, reduced forms and triple choices equal the pairwise oracle's."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reduced_form_pairwise, reducible_triples_pairwise
from pipedreams.polytopes import AcyclicGraph, dissect
from pipedreams.subdivision import (
    EdgeMonomial,
    LexFirst,
    ReverseLex,
    Scripted,
    is_alternating,
    parse_strategy,
    q_polynomial,
    reduced_form,
    reducible_triples,
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
        key = (leaf.edges, leaf.beta)
        summed[key] = summed.get(key, 0) + leaf.coeff
    merged = {(mono.edges, mono.beta): mono.coeff
              for mono in reduced_form(m, strategy()).monomials}
    assert summed == merged


@PROPERTY
@given(forests_and_strategies())
def test_dissection_census_is_q_polynomial(case):
    G, strategy = case
    census = dissect(G, strategy()).census()
    q = q_polynomial(G.n, G.edges, strategy())
    assert census == {exps[0]: coeff for exps, coeff in q.terms.items()}


@st.composite
def forests_and_strategy_texts(draw):
    """A forest with a strategy as the CLI spells it, and a seed."""
    G = draw(forests())
    text = draw(st.sampled_from(("lex", "rlex", "random", "script")))
    if text == "script":
        triples = [(i, j, k) for i in range(1, G.n + 1)
                   for j in range(i + 1, G.n + 1) for k in range(j + 1, G.n + 1)]
        script = draw(st.lists(st.sampled_from(triples), min_size=1, max_size=4)) if triples else []
        text = "script:" + ";".join(",".join(map(str, t)) for t in script) if script else "lex"
    return G, text, draw(st.integers(0, 50))


@PROPERTY
@given(forests_and_strategy_texts())
def test_q_polynomial_equals_pairwise_oracle_at_x_1(case):
    """q_polynomial sums the leaves of the same loop reduced_form reads, so
    it is compared with the pairwise oracle, summed per power of b."""
    G, text, seed = case
    summed: dict = {}
    for mono in reduced_form_pairwise(G.n, G.edges, text, seed)["monomials"]:
        summed[(mono["beta"],)] = summed.get((mono["beta"],), 0) + mono["coeff"]
    assert q_polynomial(G.n, G.edges, parse_strategy(text, seed)).terms == summed


@st.composite
def edge_multisets(draw, max_n=7, max_edges=6):
    """n and a sorted edge multiset on [n], parallel edges allowed."""
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return n, tuple(sorted(draw(st.lists(st.sampled_from(pairs), max_size=max_edges))))


@st.composite
def multisets_and_strategy_texts(draw):
    """An edge multiset with a strategy as the CLI spells it, and a seed."""
    n, edges = draw(edge_multisets())
    text = draw(st.sampled_from(("lex", "rlex", "random", "script")))
    if text == "script":
        triples = [(i, j, k) for i in range(1, n + 1)
                   for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
        if not triples:
            return n, edges, "lex", 0
        script = draw(st.lists(st.sampled_from(triples), min_size=1, max_size=4))
        text = "script:" + ";".join(",".join(map(str, t)) for t in script)
    return n, edges, text, draw(st.integers(0, 50))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(multisets_and_strategy_texts())
def test_reduced_form_equals_pairwise_oracle(case):
    n, edges, text, seed = case
    rf = reduced_form(EdgeMonomial(n, edges), parse_strategy(text, seed))
    assert rf.to_jsonable() == reduced_form_pairwise(n, edges, text, seed)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edge_multisets(max_edges=10))
def test_triple_choice_equals_pairwise_oracle(case):
    _, edges = case
    triples = reducible_triples_pairwise(edges)
    assert reducible_triples(edges) == triples
    assert LexFirst().choose(edges) == (triples[0] if triples else None)
    assert ReverseLex().choose(edges) == (triples[-1] if triples else None)
    assert is_alternating(edges) == (not triples)
