"""Every type the CLI emits as JSON reads back to an equal value:
`from_jsonable(to_jsonable(x)) == x` on random inputs; and a reader takes
no other text: what it reads, it writes back unchanged."""

import copy
import json
import random

import pytest
from hypothesis import assume, given, settings
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


def sites(data, path=()):
    """Every int (not a bool) and every nonempty list in a JSON value, with
    the path of keys and indices that leads to it."""
    if isinstance(data, dict):
        for k, v in data.items():
            yield from sites(v, path + (k,))
    elif isinstance(data, list):
        if data:
            yield path, data
        for i, v in enumerate(data):
            yield from sites(v, path + (i,))
    elif isinstance(data, int) and not isinstance(data, bool):
        yield path, data


@st.composite
def perturbed(draw, data):
    """A copy of `data` with one change at one drawn site: an int made a
    float or moved by one, or in a list two items swapped or one repeated.
    The zero polynomial in no variables has no site."""
    data = copy.deepcopy(data)
    found = list(sites(data))
    assume(found)
    path, value = draw(st.sampled_from(found))
    if isinstance(value, list):
        i, j = draw(st.integers(0, len(value) - 1)), draw(st.integers(0, len(value) - 1))
        if draw(st.booleans()):
            value[i], value[j] = value[j], value[i]
        else:
            value.insert(i, value[j])
        return data
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from([float(value), value + 1, value - 1]))
    return data


def rewritten(seed, strategy):
    G = random_acyclic_graph(random.Random(seed), 6)
    return reduced_form(EdgeMonomial(G.n, G.edges), parse_strategy(strategy, seed))


EMITTED = {
    "PipeDream": permutations().flatmap(lambda w: st.sampled_from(enumerate_pipe_dreams(w))),
    "SimplicialComplex": permutations().map(build_pdc),
    "AcyclicGraph": st.integers(0, 10**6).map(lambda seed: random_acyclic_graph(random.Random(seed), 6)),
    "ReducedForm": st.builds(rewritten, st.integers(0, 10**6), st.sampled_from(["lex", "rlex", "random"])),
    "MultiPolynomial": polynomials(),
    "Simplex": spanning_tree_graphs().map(tree_simplex).flatmap(
        lambda S: st.sampled_from([S, vertex_figure(S)])),
}


@pytest.mark.parametrize("name", EMITTED)
@PROPERTY
@given(data=st.data())
def test_a_changed_text_reads_back_as_written_or_is_refused(name, data):
    """Change one leaf or one list of what an object writes: the reader
    refuses the text with a ValueError, or reads an object that writes
    exactly that text (reordered terms are not read and sorted back)."""
    x = data.draw(EMITTED[name])
    text = data.draw(perturbed(through_json(x)))
    try:
        y = type(x).from_jsonable(text)
    except ValueError:
        return
    assert json.dumps(y.to_jsonable()) == json.dumps(text)
