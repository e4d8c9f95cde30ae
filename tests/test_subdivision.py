"""The subdivision algebra rewriting engine."""

import random
import re
from collections import Counter

import pytest

from pipedreams import subdivision
from pipedreams.poly import MultiPolynomial
from pipedreams.subdivision import (
    PATH4_SCRIPT,
    EdgeMonomial,
    LexFirst,
    ReducedForm,
    ReverseLex,
    Scripted,
    SeededRandom,
    Strategy,
    parse_strategy,
    path_edges,
    q_polynomial,
    reduce_once,
    reduced_form,
    reducible_triples,
    reduction_tree,
)
from pipedreams.suites import verify_kirillov

B = MultiPolynomial.variable("b", ("b",))


def test_reducible_pair_examples():
    m = EdgeMonomial(4, [(1, 2), (2, 3), (3, 4)])
    assert LexFirst().choose(m.edges) == (1, 2, 3)
    assert ReverseLex().choose(m.edges) == (2, 3, 4)
    assert LexFirst().choose(EdgeMonomial(3, [(1, 2), (1, 3)]).edges) is None
    assert LexFirst().choose(EdgeMonomial(3, [(1, 3), (2, 3)]).edges) is None


def test_reduce_once_base_relation():
    g1, g2, g3 = reduce_once(3, ((1, 2), (2, 3)), (1, 2, 3))
    assert g1 == ((1, 2), (1, 3))
    assert g2 == ((1, 3), (2, 3))
    assert g3 == ((1, 3),)  # one edge fewer: one more power of b


def test_reduce_once_path4_first_step():
    g1, g2, g3 = reduce_once(4, path_edges(4), (2, 3, 4))
    assert g1 == ((1, 2), (2, 3), (2, 4))
    assert g2 == ((1, 2), (2, 4), (3, 4))
    assert g3 == ((1, 2), (2, 4))


def test_reduce_once_multiset_semantics():
    g1, g2, g3 = reduce_once(3, ((1, 2), (1, 2), (2, 3)), (1, 2, 3))
    assert g1 == ((1, 2), (1, 2), (1, 3))
    assert g2 == ((1, 2), (1, 3), (2, 3))
    assert g3 == ((1, 2), (1, 3))


def test_reduce_once_requires_pair():
    for edges, triple in [(((1, 2),), (1, 2, 3)),  # no (j, k)
                          (((2, 3),), (1, 2, 3)),  # no (i, j)
                          (((1, 2), (3, 4)), (1, 2, 4))]:  # (1, 2) present, (2, 4) not
        i, j, k = triple
        with pytest.raises(ValueError, match=rf"pair \({i},{j}\),\({j},{k}\) not in"):
            reduce_once(4, edges, triple)


def test_potential_drops_on_every_branch():
    """The potential, |edges|*(n-1) - sum(j-i over edges), summed edge by
    edge here."""

    def potential(n, edges):
        return sum(n - 1 - (j - i) for i, j in edges)

    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(3, 6)
        edges = []
        for _ in range(rng.randint(2, 5)):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            edges.append((i, j))
        m = EdgeMonomial(n, tuple(edges))
        phi = potential(n, m.edges)
        assert phi >= 0
        for triple in reducible_triples(m.edges):
            children = reduce_once(n, m.edges, triple)
            assert [len(g) for g in children] == [len(m.edges)] * 2 + [len(m.edges) - 1]
            for child in children:
                # sorted and on [n]: what validation would make of it
                assert child == EdgeMonomial(n, child).edges
                assert potential(n, child) < phi


def test_reduce_once_checks_the_edge_it_adds():
    """Children are not validated, so reduce_once checks the one edge it
    adds; a parent tuple with an edge off [n] is caught there."""
    with pytest.raises(ValueError, match=r"edge \(1, 4\) invalid on \[3\]"):
        reduce_once(3, ((1, 2), (2, 4)), (1, 2, 4))


@pytest.mark.parametrize("n,edges,named", [
    (-2, (), r"rank -2 is negative"),
    (3, ((1, 2, 3),), r"edge \(1, 2, 3\) does not have two ends"),
    (3, ((1, 2), (3,)), r"edge \(3,\) does not have two ends"),
    (3, ((1, 2), (1, 4)), r"edge \(1, 4\) invalid on \[3\]"),
], ids=["negative-rank", "three-ends", "one-end", "off-rank"])
def test_monomial_refuses_a_negative_rank_and_a_malformed_edge(n, edges, named):
    """So do q_polynomial, which checks its edges without a monomial, and
    the reduced form's JSON reader, through the constructor."""
    with pytest.raises(ValueError, match=named):
        EdgeMonomial(n, edges)
    with pytest.raises(ValueError, match=named):
        q_polynomial(n, edges)
    data = {"n": n, "monomials": [{"edges": [list(e) for e in edges], "beta": 0, "coeff": 1}]}
    with pytest.raises(ValueError, match=named):
        ReducedForm.from_jsonable(data)
    if n < 0:  # with no monomial to refuse it, the reduced form refuses the rank itself
        with pytest.raises(ValueError, match=named):
            ReducedForm.from_jsonable({"n": n, "monomials": []})


class ChoosesNothing(Strategy):
    """A broken strategy: it chooses no triple, so every monomial is a leaf."""

    def choose(self, edges):
        return None


def test_a_reducible_leaf_is_refused():
    """A strategy that stops early leaves x12*x23 as a leaf.  q_polynomial
    checks every leaf itself, and reduced_form's ReducedForm does."""
    with pytest.raises(ValueError, match=r"leaf \(\(1, 2\), \(2, 3\)\) is still reducible"):
        q_polynomial(3, path_edges(3), ChoosesNothing())
    with pytest.raises(ValueError, match=r"monomial x12\*x23 still reducible"):
        reduced_form(EdgeMonomial(3, path_edges(3)), ChoosesNothing())
    assert q_polynomial(3, [(1, 3)], ChoosesNothing()) == MultiPolynomial.one(("b",))


# Little Schroeder numbers: Q(1) for the path on n vertices, the leaf count
# of its rewrite tree.
PATH_Q_AT_1 = {3: 3, 4: 11, 5: 45, 6: 197, 7: 903, 8: 4279}


@pytest.mark.parametrize("strategy", [LexFirst, ReverseLex])
def test_rewrite_work_on_the_path(monkeypatch, strategy):
    """The counts a traced run reports: on the path no two pending terms
    merge, so reduced_form rewrites once per inner node of the rewrite tree,
    (Q(1) - 1)/2 times, and chooses once per node, Q(1) + (Q(1) - 1)/2 times
    (10,396 and 31,189 at n = 9).  Every leaf has |edges| + beta = n - 1."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(subdivision, "reduce_once", counted("reduce_once", reduce_once))
    monkeypatch.setattr(strategy, "choose", counted("choose", strategy.choose))
    for n, q1 in PATH_Q_AT_1.items():
        calls.clear()
        rf = reduced_form(EdgeMonomial(n, path_edges(n)), strategy())
        assert sum(m.coeff for m in rf.monomials) == q1
        assert calls["reduce_once"] == (q1 - 1) // 2
        assert calls["choose"] == q1 + (q1 - 1) // 2
        assert all(len(m.edges) + m.beta == n - 1 for m in rf.monomials)


def test_a_leaf_reached_in_two_layers_is_merged():
    """Lex-first rewriting of x12^2*x23*x34 ends at x12*x13*x14 in two
    layers.  The reduced form holds it once, with the count of the tree's
    leaves, as the tree's merged leaves do."""
    m = EdgeMonomial(4, ((1, 2), (1, 2), (2, 3), (3, 4)))
    leaf = ((1, 2), (1, 3), (1, 4))
    assert [edges for edges, _ in subdivision._leaves(4, m.edges, 1, LexFirst())].count(leaf) == 2
    tree = reduction_tree(m)
    rf = reduced_form(m)
    assert rf == tree.reduced_form()
    coeffs = {mono.edges: mono.coeff for mono in rf.monomials}
    assert coeffs[leaf] == [mono.edges for mono in tree.leaves()].count(leaf) == 2


def test_scripted_path4_reduced_form_verbatim():
    """The three-step scripted rewrite of x12 x23 x34 ends in the known
    11-term form, coefficients all 1."""
    rf = reduced_form(EdgeMonomial(4, path_edges(4)), Scripted(PATH4_SCRIPT))
    expected = {
        (((1, 2), (1, 3), (1, 4)), 0),
        (((1, 3), (1, 4), (2, 4)), 0),
        (((1, 3), (1, 4)), 1),
        (((1, 3), (2, 3), (2, 4)), 0),
        (((1, 3), (2, 4)), 1),
        (((1, 2), (1, 4), (3, 4)), 0),
        (((1, 4), (2, 4), (3, 4)), 0),
        (((1, 4), (3, 4)), 1),
        (((1, 2), (1, 4)), 1),
        (((1, 4), (2, 4)), 1),
        (((1, 4),), 2),
    }
    assert {(m.edges, m.beta) for m in rf.monomials} == expected
    assert all(m.coeff == 1 for m in rf.monomials)


def test_already_reduced_monomial():
    m = EdgeMonomial(2, [(1, 2)])
    rf = reduced_form(m)
    assert len(rf.monomials) == 1 and rf.monomials[0].edges == ((1, 2),)


def test_base_relation_reduced_form():
    rf = reduced_form(EdgeMonomial(3, [(1, 2), (2, 3)]))
    assert {(m.edges, m.beta) for m in rf.monomials} == {
        (((1, 2), (1, 3)), 0),
        (((1, 3), (2, 3)), 0),
        (((1, 3),), 1),
    }


def test_q_polynomial_examples():
    assert q_polynomial(4, path_edges(4)) == B**2 + 5 * B + 5
    assert q_polynomial(2, path_edges(2)) == MultiPolynomial.one(("b",))
    assert q_polynomial(3, path_edges(3)) == B + 2
    assert q_polynomial(3, [(2, 3), (1, 2)]) == B + 2  # sorted before rewriting


def test_strategy_independence_of_specialization():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(3, 6)
        edges = set()
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            edges.add((i, j))
        base = q_polynomial(n, tuple(edges), LexFirst())
        for seed in range(5):
            assert q_polynomial(n, tuple(edges), SeededRandom(seed)) == base
        assert q_polynomial(n, tuple(edges), ReverseLex()) == base


def test_strategy_dependence_of_x_forms():
    m = EdgeMonomial(4, path_edges(4))
    scripted = reduced_form(m, Scripted(PATH4_SCRIPT))
    lex = reduced_form(m, LexFirst())
    assert scripted.to_polynomial() != lex.to_polynomial()
    assert scripted.beta_specialization() == lex.beta_specialization()


def test_parse_strategy():
    assert isinstance(parse_strategy("lex"), LexFirst)
    assert isinstance(parse_strategy("rlex"), ReverseLex)
    assert isinstance(parse_strategy("random", seed=3), SeededRandom)
    s = parse_strategy("script:2,3,4;1,2,3;1,2,4")
    assert isinstance(s, Scripted) and s.script == PATH4_SCRIPT
    with pytest.raises(ValueError):
        parse_strategy("clever")
    with pytest.raises(ValueError):
        parse_strategy("script:1,2")
    for script in ("script:3,2,1", "script:2,3,4;1,2,2"):
        with pytest.raises(ValueError):  # such a triple never applies
            parse_strategy(script)


def test_scripted_falls_back_to_lex():
    m = EdgeMonomial(3, [(1, 2), (2, 3)])
    assert Scripted(((3, 4, 5),)).choose(m.edges) == (1, 2, 3)


def test_reduced_form_rejects_none_and_validates():
    with pytest.raises(ValueError):
        from pipedreams.subdivision import ReducedForm

        ReducedForm(3, (EdgeMonomial(3, ((1, 2), (2, 3))),))


def test_kirillov_small():
    for n in (2, 3, 4, 5):
        assert verify_kirillov(n).ok


def test_monomial_str():
    m = EdgeMonomial(4, ((1, 2), (1, 4)), beta=2, coeff=1)
    assert str(m) == "b^2*x12*x14"
    assert str(EdgeMonomial(3, (), 0, 1)) == "1"


def test_json_round_trip():
    from pipedreams.subdivision import ReducedForm

    rf = reduced_form(EdgeMonomial(4, path_edges(4)), LexFirst())
    assert ReducedForm.from_jsonable(rf.to_jsonable()) == rf


LIKE_TERMS = "edges [(1, 3), (1, 4)] with b^0 are listed twice; a reduced form holds like terms merged"


def test_reduced_form_json_with_like_terms_unmerged_is_refused():
    """Two monomials with the same edges and power of b would print as
    x13*x14 + 2*x13*x14; reading them from JSON is refused, whatever order
    each lists its edges in, with the constructor's fault named."""
    from pipedreams.subdivision import ReducedForm

    data = {"n": 4, "monomials": [{"edges": [[1, 3], [1, 4]], "beta": 0, "coeff": 1},
                                  {"edges": [[1, 4], [1, 3]], "beta": 0, "coeff": 2}]}
    with pytest.raises(ValueError, match=re.escape("ReducedForm: ValueError: " + LIKE_TERMS)):
        ReducedForm.from_jsonable(data)


def test_reduced_form_json_reads_edges_in_sorted_order_only():
    """Monomials with one edge multiset and different powers of b are two
    terms; edges listed out of order are refused, with the path named,
    since the reduced form writes them sorted."""
    from pipedreams.subdivision import ReducedForm

    data = {"n": 4, "monomials": [{"edges": [[1, 3], [1, 4]], "beta": 0, "coeff": 1},
                                  {"edges": [[1, 3], [1, 4]], "beta": 1, "coeff": 2}]}
    assert len(ReducedForm.from_jsonable(data).monomials) == 2
    data["monomials"][1]["edges"] = [[1, 4], [1, 3]]
    named = "ReducedForm: $['monomials'][1]['edges'][0][1] reads 4 but writes 3"
    with pytest.raises(ValueError, match=re.escape(named)):
        ReducedForm.from_jsonable(data)


def test_reduced_form_refuses_like_terms_unmerged():
    """The constructor refuses two monomials with one key, and so does the
    JSON reader through it, with the edges listed in order."""
    from pipedreams.subdivision import ReducedForm

    m = EdgeMonomial(4, ((1, 3), (1, 4)))
    with pytest.raises(ValueError, match=re.escape(LIKE_TERMS)):
        ReducedForm(4, (m, m))
    data = {"n": 4, "monomials": [{"edges": [[1, 3], [1, 4]], "beta": 0, "coeff": c} for c in (1, 2)]}
    with pytest.raises(ValueError, match=re.escape("ReducedForm: ValueError: " + LIKE_TERMS)):
        ReducedForm.from_jsonable(data)


MONOMIAL = {"edges": [[1, 3], [1, 4]], "beta": 0, "coeff": 1}


@pytest.mark.parametrize("data,named", [
    ({"n": 4, "monomials": [{**MONOMIAL, "coeff": 1.5}]},
     "ReducedForm: $['monomials'][0]['coeff'] reads 1.5 but writes 1"),
    ({"n": 4, "monomials": [{**MONOMIAL, "beta": 0.5}]},
     "ReducedForm: $['monomials'][0]['beta'] reads 0.5 but writes 0"),
    ({"n": 4, "monomials": [{**MONOMIAL, "edges": [[1.0, 3], [1, 4]]}]},
     "ReducedForm: $['monomials'][0]['edges'][0][0] reads 1.0 but writes 1"),
    ({"n": 4.5, "monomials": [MONOMIAL]}, "ReducedForm: $['n'] reads 4.5 but writes 4"),
], ids=["coeff", "beta", "edge-end", "rank"])
def test_reduced_form_json_with_a_fractional_number_is_refused(data, named):
    """A coefficient, power of b, edge end or rank that is not an integer
    would not print back as it was read (1.5*x13*x14, b^0.5*x13*x14,
    x1.03*x14); the type and the path are named."""
    from pipedreams.subdivision import ReducedForm

    with pytest.raises(ValueError, match=re.escape(named)):
        ReducedForm.from_jsonable(data)
