"""Named verification checks over whole ranks and seeded random samples.

Each function returns VerifyResult; the CLI assembles them into reports
and the acceptance tests run them at the documented parameters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

from .complexes import build_pdc, h_from_interior, h_polynomial
from .dreams import DEFAULT_LIMIT_N, reduced_pipe_dreams
from .grothendieck import (
    double_beta_grothendieck,
    shifted_groth_beta,
    specialize_qt,
    verify_groth_h,
)
from .perms import Permutation, all_windows, catalan_permutation
from .poly import MultiPolynomial, poly_diff
from .polytopes import (
    INTERIOR,
    OUTSIDE,
    AcyclicGraph,
    barycentric_solver,
    canonical_triangulation,
    dissect,
    flow_vertices,
    augment,
    graph_reduce,
    intersect_tree_simplices,
    is_unimodular,
    location,
    noncrossing_alternating_trees,
    project_and_map,
    random_acyclic_graph,
    root_polytope_vertices,
    tree_simplex,
)
from .realization import (
    catalan_number,
    narayana_check,
    verify_bijection,
    verify_face_map,
    verify_realization,
)
from .report import VerifyResult
from .subdivision import (
    PATH4_SCRIPT,
    LexFirst,
    ReverseLex,
    Scripted,
    SeededRandom,
    path_edges,
    product_monomial,
    q_polynomial,
    reduced_form,
    reducible_triples,
    verify_kirillov,
)


def check_groth_h_rank(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """The shifted q, q-1 substitution equals the h-polynomial for
    every permutation of rank n."""
    for window in all_windows(n):
        r = verify_groth_h(Permutation(window), limit_n)
        if not r:
            return VerifyResult(f"groth-h:S{n}", False, {"w": str(Permutation(window)), **r.details})
    return VerifyResult(f"groth-h:S{n}", True, {"permutations": factorial(n)})


def check_interior_h_rank(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """Interior-face h-polynomial agrees with the f-to-h transform after
    b -> x - 1, for every permutation of rank n."""
    x = MultiPolynomial.variable("x", ("x",))
    for window in all_windows(n):
        w = Permutation(window)
        C = build_pdc(w, limit_n)
        lhs = h_from_interior(C, w).substitute({"b": x - 1}, ("x",))
        rhs = h_polynomial(C)
        if lhs != rhs:
            return VerifyResult(
                f"interior-h:S{n}", False, {"w": str(w), "diff": poly_diff(lhs, rhs)}
            )
    return VerifyResult(f"interior-h:S{n}", True, {"permutations": factorial(n)})


def check_qt_identity_rank(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """The closed form over codimensions equals the direct x -> q, y -> t
    substitution of the double polynomial."""
    from .grothendieck import QT_VARS

    q = MultiPolynomial.variable("q", QT_VARS)
    t = MultiPolynomial.variable("t", QT_VARS)
    for window in all_windows(n):
        w = Permutation(window)
        g = double_beta_grothendieck(w, limit_n)
        images = {}
        for v in g.vars[:-1]:
            images[v] = q if v.startswith("x") else t
        images["b"] = MultiPolynomial.variable("b", QT_VARS)
        direct = g.substitute(images, QT_VARS)
        if direct != specialize_qt(w, limit_n):
            return VerifyResult(f"qt:S{n}", False, {"w": str(w)})
    return VerifyResult(f"qt:S{n}", True, {"permutations": factorial(n)})


def check_homogeneity_rank(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """With deg x = deg y = 1 and deg b = -1, the double polynomial is
    homogeneous of degree l(w)."""
    for window in all_windows(n):
        w = Permutation(window)
        g = double_beta_grothendieck(w, limit_n)
        l = w.length()
        for exps in g.terms:
            if sum(exps[:-1]) - exps[-1] != l:
                return VerifyResult(
                    f"homogeneity:S{n}", False, {"w": str(w), "exps": list(exps)}
                )
    return VerifyResult(f"homogeneity:S{n}", True, {"permutations": factorial(n)})


def check_nonnegativity_rank(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """All coefficients of the shifted specialization are nonnegative."""
    for window in all_windows(n):
        w = Permutation(window)
        shifted = shifted_groth_beta(w, limit_n)
        if any(c < 0 for c in shifted.terms.values()):
            return VerifyResult(
                f"nonneg:S{n}", False, {"w": str(w), "poly": str(shifted)}
            )
    return VerifyResult(f"nonneg:S{n}", True, {"permutations": factorial(n)})


def check_census(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """Reduced pipe dreams of 1 n n-1 ... 2, noncrossing alternating trees,
    and the Catalan recurrence all agree."""
    reduced = len(reduced_pipe_dreams(catalan_permutation(n), limit_n))
    trees = len(noncrossing_alternating_trees(n))
    cat = catalan_number(n - 1)
    ok = reduced == trees == cat
    return VerifyResult(
        f"census:{n}", ok, {"reduced": reduced, "trees": trees, "catalan": cat}
    )


def sample_acyclic_graphs(count: int, max_n: int, seed: int) -> list[AcyclicGraph]:
    rng = random.Random(seed)
    graphs = []
    seen = set()
    while len(graphs) < count:
        G = random_acyclic_graph(rng, max_n)
        key = (G.n, G.edges)
        if key not in seen:
            seen.add(key)
            graphs.append(G)
    return graphs


def check_strategy_independence(
    max_n: int = 6, seed: int = 0, num_graphs: int = 50, num_strategies: int = 20
) -> VerifyResult:
    """The x = 1 specialization of the reduced form does not depend on the
    pair-choice strategy."""
    name = f"strategy-independence:{max_n}"
    for G in sample_acyclic_graphs(num_graphs, max_n, seed):
        base = q_polynomial(G.n, G.edges, LexFirst())
        for s in range(num_strategies):
            qp = q_polynomial(G.n, G.edges, SeededRandom(seed * 1000 + s))
            if qp != base:
                return VerifyResult(
                    name, False, {"graph": str(G), "seed": seed * 1000 + s}
                )
    return VerifyResult(
        name, True, {"graphs": num_graphs, "strategies": num_strategies}
    )


def check_strategy_dependence() -> VerifyResult:
    """Exhibit two strategies whose reduced forms of x12 x23 x34 differ as
    x-polynomials yet agree at x = 1."""
    m = product_monomial(4, path_edges(4))
    a = reduced_form(m, Scripted(PATH4_SCRIPT))
    b = reduced_form(m, LexFirst())
    differ = a.to_polynomial() != b.to_polynomial()
    agree = a.beta_specialization() == b.beta_specialization()
    return VerifyResult(
        "strategy-dependence", differ and agree, {"differ_as_x": differ, "agree_at_1": agree}
    )


def check_dissection_census(
    max_n: int = 6, seed: int = 0, num_graphs: int = 25
) -> VerifyResult:
    """Leaves of the dissection tree, counted by edges lost, reproduce the
    coefficients of Q_G: the geometry and the rewriting agree.  Each
    internal node's children must also be the graphs that the set-based
    graph_reduce makes of the node's graph."""
    name = f"dissection-census:{max_n}"
    for G in sample_acyclic_graphs(num_graphs, max_n, seed):
        for strategy in (LexFirst(), ReverseLex(), SeededRandom(seed + 7)):
            d = dissect(G, strategy)
            for node in d.tree.walk():
                if node.children:
                    graphs = tuple(AcyclicGraph(G.n, c.monomial.edges) for c in node.children)
                    parent = AcyclicGraph(G.n, node.monomial.edges)
                    if graphs != graph_reduce(parent, node.triple):
                        return VerifyResult(name, False, {"graph": str(G), "node": str(node.monomial)})
            census = d.census()
            qp = q_polynomial(G.n, G.edges, strategy)
            coeffs = {e[0]: c for e, c in qp.terms.items()}
            if census != coeffs:
                return VerifyResult(
                    name, False, {"graph": str(G), "census": census, "q": str(qp)}
                )
    return VerifyResult(name, True, {"graphs": num_graphs})


def check_projection(
    max_n: int = 6, seed: int = 0, num_graphs: int = 50
) -> VerifyResult:
    """Flow polytope vertices project onto root polytope vertices, and the
    projection commutes with one reduction step."""
    name = f"projection:{max_n}"
    for G in sample_acyclic_graphs(num_graphs, max_n, seed):
        image = project_and_map(flow_vertices(augment(G)), augment(G), G)
        if image != root_polytope_vertices(G):
            return VerifyResult(name, False, {"graph": str(G), "stage": "direct"})
        triples = reducible_triples(G.edges)
        if triples:
            for H in graph_reduce(G, triples[0]):
                img = project_and_map(flow_vertices(augment(H)), augment(H), H)
                if img != root_polytope_vertices(H):
                    return VerifyResult(
                        name, False, {"graph": str(G), "reduced": str(H)}
                    )
    return VerifyResult(name, True, {"graphs": num_graphs})


def check_unimodularity(n: int) -> VerifyResult:
    simplices = canonical_triangulation(n)
    ok = all(is_unimodular(S) for S in simplices)
    return VerifyResult(f"unimodular:{n}", ok, {"simplices": len(simplices)})


def sample_polytope_point(n: int, rng: random.Random):
    """Random rational convex combination of the path root polytope's
    vertices with full support."""
    vertices = sorted(root_polytope_vertices(AcyclicGraph.path(n)))
    weights = [Fraction(rng.randint(1, 1000)) for _ in vertices]
    total = sum(weights)
    point = [Fraction(0)] * n
    for wgt, v in zip(weights, vertices):
        for i, c in enumerate(v):
            point[i] += wgt * c
    return tuple(c / total for c in point)


def check_point_location(n: int, seed: int = 0, samples: int = 1000) -> VerifyResult:
    """Every sampled point of the path root polytope lies in some canonical
    simplex; a point interior to one simplex lies in no other."""
    name = f"point-location:{n}"
    rng = random.Random(seed)
    simplices = canonical_triangulation(n)
    solvers = [barycentric_solver(S) for S in simplices]
    for k in range(samples):
        x = sample_polytope_point(n, rng)
        hits = 0
        interior = 0
        for solve in solvers:
            where = location(solve(x))
            if where != OUTSIDE:
                hits += 1
                if where == INTERIOR:
                    interior += 1
        if not hits:
            return VerifyResult(name, False, {"sample": k, "point": [str(c) for c in x]})
        if interior and hits > 1:
            return VerifyResult(
                name, False,
                {"sample": k, "reason": "interior point in several simplices"},
            )
    return VerifyResult(name, True, {"samples": samples, "simplices": len(simplices)})


def check_intersections(n: int, seed: int = 0, pairs: int = 15) -> VerifyResult:
    """Pairwise simplex intersections have exactly the vertices of the root
    polytope of the common edge set."""
    name = f"intersections:{n}"
    trees = noncrossing_alternating_trees(n)
    rng = random.Random(seed)
    all_pairs = list(combinations(range(len(trees)), 2))
    chosen = rng.sample(all_pairs, min(pairs, len(all_pairs)))
    for a, b in chosen:
        Ta, Tb = trees[a], trees[b]
        got = intersect_tree_simplices(tree_simplex(Ta), tree_simplex(Tb))
        common = AcyclicGraph(n, tuple(set(Ta.edges) & set(Tb.edges)))
        expected = root_polytope_vertices(common)
        if got != expected:
            return VerifyResult(
                name, False, {"trees": [str(Ta), str(Tb)], "got": len(got), "expected": len(expected)}
            )
    return VerifyResult(name, True, {"pairs": len(chosen)})


def check_scripted_path4() -> VerifyResult:
    """The scripted strategy reproduces the canonical 11-term reduced form
    of x12 x23 x34 and its specialization b^2 + 5b + 5."""
    rf = reduced_form(product_monomial(4, path_edges(4)), Scripted(PATH4_SCRIPT))
    expected = {
        (((1, 2), (1, 3), (1, 4)), 0), (((1, 3), (1, 4), (2, 4)), 0),
        (((1, 3), (1, 4)), 1), (((1, 3), (2, 3), (2, 4)), 0),
        (((1, 3), (2, 4)), 1), (((1, 2), (1, 4), (3, 4)), 0),
        (((1, 4), (2, 4), (3, 4)), 0), (((1, 4), (3, 4)), 1),
        (((1, 2), (1, 4)), 1), (((1, 4), (2, 4)), 1), (((1, 4),), 2),
    }
    got = {(m.edges, m.beta) for m in rf.monomials}
    coeffs_one = all(m.coeff == 1 for m in rf.monomials)
    q_ok = rf.beta_specialization() == MultiPolynomial(("b",), {(0,): 5, (1,): 5, (2,): 1})
    ok = got == expected and coeffs_one and q_ok
    return VerifyResult("scripted-path4", ok, {"terms": len(rf.monomials), "q": str(rf.beta_specialization())})


# The checks of each verify selector.  Lambdas look each check up by name
# when they run, so a module attribute rebound later (a monkeypatch) holds.
SUITES = {
    "groth-h": lambda n, w, seed, limit_n: [
        verify_groth_h(w, limit_n) if w is not None else check_groth_h_rank(n, limit_n)],
    "kirillov": lambda n, w, seed, limit_n: [verify_kirillov(n, limit_n)],
    "bijection": lambda n, w, seed, limit_n: [verify_bijection(n, limit_n)],
    "realize": lambda n, w, seed, limit_n: [
        verify_face_map(n, limit_n), verify_realization(n, limit_n)],
    "narayana": lambda n, w, seed, limit_n: [check_census(n, limit_n), narayana_check(n, limit_n)],
    "strategies": lambda n, w, seed, limit_n: [
        check_strategy_independence(min(n, 6), seed, num_graphs=20, num_strategies=20),
        check_strategy_dependence(),
    ],
    "projection": lambda n, w, seed, limit_n: [check_projection(min(n, 6), seed, num_graphs=25)],
    "all": lambda n, w, seed, limit_n: [
        check_census(n, limit_n),
        check_scripted_path4(),
        verify_kirillov(n, limit_n),
        check_groth_h_rank(n, limit_n),
        check_interior_h_rank(n, limit_n),
        check_qt_identity_rank(n, limit_n),
        check_homogeneity_rank(n, limit_n),
        check_nonnegativity_rank(n, limit_n),
        check_strategy_independence(min(n, 6), seed, num_graphs=20, num_strategies=20),
        check_strategy_dependence(),
        check_dissection_census(min(n, 6), seed, num_graphs=15),
        check_projection(min(n, 6), seed, num_graphs=25),
        check_unimodularity(n),
        check_point_location(n, seed, samples=200),
        check_intersections(n, seed, pairs=10),
        verify_bijection(n, limit_n),
        verify_face_map(n, limit_n),
        verify_realization(n, limit_n),
        narayana_check(n, limit_n),
    ],
}

SELECTORS = tuple(SUITES)


def suite(selector: str, n: int, w: Permutation | None, seed: int,
          limit_n: int = DEFAULT_LIMIT_N) -> list[VerifyResult]:
    """Assemble the checks for one CLI verify selector."""
    if selector not in SUITES:
        raise ValueError(f"unknown verify selector {selector!r}")
    return SUITES[selector](n, w, seed, limit_n)
