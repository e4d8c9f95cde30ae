"""Every type the CLI emits as JSON reads back to an equal value:
`from_jsonable(to_jsonable(x)) == x` on random inputs."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pipedreams.complexes import SimplicialComplex, build_pdc
from pipedreams.dreams import PipeDream, enumerate_pipe_dreams
from pipedreams.perms import Permutation
from pipedreams.poly import MultiPolynomial
from pipedreams.polytopes import (
    AcyclicGraph,
    Simplex,
    _prufer_decode,
    random_acyclic_graph,
    tree_simplex,
    vertex_figure,
)
from pipedreams.subdivision import EdgeMonomial, ReducedForm, parse_strategy, reduced_form

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def through_json(x):
    """x as it reaches a reader of the CLI's output: serialized and parsed."""
    return json.loads(json.dumps(x.to_jsonable()))


@st.composite
def permutations(draw):
    n = draw(st.integers(1, 5))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@PROPERTY
@given(permutations())
def test_pipe_dreams_and_complexes(w):
    for P in enumerate_pipe_dreams(w):
        assert PipeDream.from_jsonable(through_json(P)) == P
    C = build_pdc(w)
    assert SimplicialComplex.from_jsonable(through_json(C)) == C


@PROPERTY
@given(st.integers(0, 10**6), st.sampled_from(["lex", "rlex", "random"]))
def test_forests_and_reduced_forms(seed, strategy):
    G = random_acyclic_graph(random.Random(seed), 6)
    assert AcyclicGraph.from_jsonable(through_json(G)) == G
    rf = reduced_form(EdgeMonomial(G.n, G.edges), parse_strategy(strategy, seed))
    assert ReducedForm.from_jsonable(through_json(rf)) == rf
    for poly in (rf.beta_specialization(), rf.to_polynomial()):
        assert MultiPolynomial.from_jsonable(through_json(poly)) == poly


@st.composite
def spanning_tree_graphs(draw):
    n = draw(st.integers(2, 7))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return AcyclicGraph(n, _prufer_decode(seq, n))


@PROPERTY
@given(spanning_tree_graphs())
def test_tree_simplices_and_vertex_figures(T):
    S = tree_simplex(T)
    assert Simplex.from_jsonable(through_json(S)) == S
    V = vertex_figure(S)
    assert Simplex.from_jsonable(through_json(V)) == V


@st.composite
def polynomials(draw):
    vars = tuple(draw(st.lists(st.sampled_from("xyzb"), max_size=4, unique=True)))
    exponents = st.tuples(*[st.integers(0, 5)] * len(vars))
    terms = draw(st.lists(st.tuples(exponents, st.integers(-10**30, 10**30)), max_size=8))
    return MultiPolynomial(vars, terms)


@PROPERTY
@given(polynomials())
def test_polynomials(p):
    assert MultiPolynomial.from_jsonable(through_json(p)) == p
