"""Named verification checks over whole ranks and seeded random samples.

Each function returns VerifyResult; the CLI assembles them into reports
and the acceptance tests run them at the documented parameters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial
from operator import mul
from typing import Callable

from .complexes import build_pdc, h_polynomial
from .dreams import reduced_pipe_dreams
from .grothendieck import beta_grothendieck, groth_beta, pipe_dream_beta_grothendieck
from .linalg import clear_denominators
from .perms import Permutation, all_windows, catalan_permutation
from .poly import MultiPolynomial, poly_diff
from .polytopes import (
    INTERIOR,
    OUTSIDE,
    AcyclicGraph,
    barycentric_solver,
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
    require_narayana,
    require_realizable,
    verify_bijection,
    verify_face_map,
    verify_realization,
)
from .report import VerifyResult
from .subdivision import (
    PATH4_SCRIPT,
    EdgeMonomial,
    LexFirst,
    ReverseLex,
    Scripted,
    SeededRandom,
    path_edges,
    q_polynomial,
    reduced_form,
    reducible_triples,
)


class _Sides:
    """What the identities read about one permutation w, each built on its
    first read and kept: G^b_w from divided differences; the h-polynomial
    of the pipe dream complex, counted by flips of its facets, which the
    staircase transfer lists; and the pipe dream side of G^b_w, the same
    transfer keyed by x-monomials, which lists no pipe dream.  Each side
    of G^b_w is read at x = 1 by summing its coefficients per power of b,
    then shifted by one substitution: b -> b - 1 for G^b_w, b -> x - 1
    for the pipe dream side."""

    def __init__(self, w: Permutation):
        self.w = w

    @cached_property
    def G(self) -> MultiPolynomial:
        return beta_grothendieck(self.w)

    @cached_property
    def shifted(self) -> MultiPolynomial:
        b = MultiPolynomial.variable("b", ("b",))
        return _at_x_one(self.G).substitute({"b": b - 1}, ("b",))

    @cached_property
    def h(self) -> MultiPolynomial:
        return h_polynomial(build_pdc(self.w), self.w)

    @cached_property
    def pipe(self) -> MultiPolynomial:
        return pipe_dream_beta_grothendieck(self.w)

    @cached_property
    def interior(self) -> MultiPolynomial:
        x = MultiPolynomial.variable("x", ("x",))
        return _at_x_one(self.pipe).substitute({"b": x - 1}, ("x",))


def _at_x_one(p: MultiPolynomial) -> MultiPolynomial:
    """p with every variable but the last, b, set to 1: the sum of its
    coefficients at each power of b."""
    return MultiPolynomial(("b",), (((e[-1],), c) for e, c in p.terms.items()))


def _groth_h(s: _Sides) -> dict | None:
    """G^b_w from divided differences, at x = 1 and b -> b - 1, equals the
    h-polynomial of the complex, counted by flips."""
    h = s.h.rename({"x": "b"})
    return None if s.shifted == h else {"reason": "mismatch", "diff": poly_diff(s.shifted, h)}


def _interior_h(s: _Sides) -> dict | None:
    """The interior-face form of the h-polynomial agrees with the flip
    count.  The interior faces of the complex of w are Pipes(w)
    (Knutson-Miller 2004), so the pipe dream side at x = 1 is the sum of
    b^codim over them, h(C, b + 1); with b -> x - 1 it must equal the flip
    count.  Both sides come from one kernel, `dreams.staircase_transfer`,
    under different keys: the facets that the flips count are the reduced
    cross sets it lists, and the pipe dream side is its sum of
    x-monomials.  So the check fails only if the transfer, the flips or
    the shift is wrong; pipe-dream-formula and groth-h each compare that
    kernel with divided differences."""
    return None if s.interior == s.h else {"diff": poly_diff(s.interior, s.h)}


def _pipe_dream_formula(s: _Sides) -> dict | None:
    """The pipe dream sum of b^codim * product of x_r over crosses equals
    G^b_w from divided differences, term for term."""
    return None if s.pipe == s.G else {"diff": poly_diff(s.pipe, s.G)}


def _nonnegativity(s: _Sides) -> dict | None:
    """G^b_w at x = 1, with b -> b - 1, has no negative coefficient."""
    return {"poly": str(s.shifted)} if any(c < 0 for c in s.shifted.terms.values()) else None


# The identities checked on every permutation of a rank, in report order.
# Each reads what it needs of one permutation from its _Sides and returns
# failure details or None.
PERMUTATION_CHECKS = (
    ("groth-h", _groth_h),
    ("interior-h", _interior_h),
    ("pipe-dream-formula", _pipe_dream_formula),
    ("nonneg", _nonnegativity),
)


def check_permutations(n: int, identities: tuple[tuple[str, Callable], ...]) -> list[VerifyResult]:
    """One result `name:Sn` per (name, identity) of `identities`, checked on
    every permutation w of rank n.  What an identity reads of w (see
    _Sides) is built once, and only if an identity still running reads
    it.  An identity fails with {"w": w, **details} at the first w
    where it returns details, and is not evaluated again."""
    failures: dict[str, dict] = {}
    for window in all_windows(n):
        sides = _Sides(Permutation(window))
        for name, identity in identities:
            if name not in failures:
                details = identity(sides)
                if details is not None:
                    failures[name] = {"w": str(sides.w), **details}
    return [
        VerifyResult(f"{name}:S{n}", name not in failures,
                     failures.get(name, {"permutations": factorial(n)}))
        for name, _ in identities
    ]


def verify_groth_h(w: Permutation) -> VerifyResult:
    """Check that G^b_w from isobaric divided differences, at x = 1 and with
    b -> b-1, equals the h-polynomial of the pipe dream complex of w,
    counted by flips of its reduced pipe dreams."""
    sides = _Sides(w)
    details = _groth_h(sides)
    if details is not None:
        return VerifyResult(f"groth-h:{w}", False, details)
    return VerifyResult(f"groth-h:{w}", True, {"h": str(sides.h.rename({"x": "b"}))})


def verify_kirillov(n: int) -> VerifyResult:
    """Q_{P_n}(b) computed by rewriting equals the x=1, y=0 Grothendieck
    polynomial of 1 n n-1 ... 2 computed by pipe dream enumeration.  The
    enumeration runs first, so the search limit refuses before rewriting."""
    rhs = groth_beta(catalan_permutation(n))
    lhs = q_polynomial(n, path_edges(n))
    if lhs != rhs:
        return VerifyResult(
            f"kirillov:{n}", False, {"diff": poly_diff(lhs, rhs)}
        )
    return VerifyResult(f"kirillov:{n}", True, {"q": str(lhs)})


def check_census(n: int) -> VerifyResult:
    """Reduced pipe dreams of 1 n n-1 ... 2, noncrossing alternating trees,
    and the Catalan recurrence all agree."""
    reduced = len(reduced_pipe_dreams(catalan_permutation(n)))
    trees = len(noncrossing_alternating_trees(n))
    cat = catalan_number(n - 1)
    ok = reduced == trees == cat
    return VerifyResult(
        f"census:{n}", ok, {"reduced": reduced, "trees": trees, "catalan": cat}
    )


def sample_acyclic_graphs(count: int, max_n: int, seed: int) -> list[AcyclicGraph]:
    """`count` distinct random forests on at most max_n vertices.  Few
    exist at small max_n (1, 7 and 44 for max_n = 2, 3, 4), so this gives
    up with ValueError after 1000 draws per forest asked for."""
    rng = random.Random(seed)
    graphs: dict[tuple, AcyclicGraph] = {}
    for _ in range(1000 * count):
        if len(graphs) == count:
            break
        G = random_acyclic_graph(rng, max_n)
        graphs.setdefault((G.n, G.edges), G)
    if len(graphs) < count:
        raise ValueError(f"found {len(graphs)} distinct forests on at most {max_n} vertices, not {count}")
    return list(graphs.values())


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
    m = EdgeMonomial(4, path_edges(4))
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
    """Every noncrossing alternating tree's simplex is unimodular, tested
    on the tree simplices themselves: canonical_triangulation refuses a
    non-unimodular one, so it could not report the failure."""
    simplices = [tree_simplex(T) for T in noncrossing_alternating_trees(n)]
    ok = all(is_unimodular(S) for S in simplices)
    return VerifyResult(f"unimodular:{n}", ok, {"simplices": len(simplices)})


def path_polytope_vertices(n: int) -> list[tuple[int, ...]]:
    """The path root polytope's vertices, sorted, as integer tuples."""
    vertices = sorted(root_polytope_vertices(AcyclicGraph.path(n)))
    return [tuple(c.numerator for c in v) for v in vertices]


def sample_polytope_point(vertices: list[tuple[int, ...]], rng: random.Random):
    """Random rational convex combination of integer `vertices` with full
    support."""
    weights = [rng.randint(1, 1000) for _ in vertices]
    total = sum(weights)
    return tuple(Fraction(sum(map(mul, weights, coords)), total) for coords in zip(*vertices))


def check_point_location(n: int, seed: int = 0, samples: int = 1000) -> VerifyResult:
    """Every sampled point of the path root polytope lies in some canonical
    simplex; a point interior to one simplex lies in no other."""
    name = f"point-location:{n}"
    rng = random.Random(seed)
    vertices = path_polytope_vertices(n)
    trees = noncrossing_alternating_trees(n)
    solvers = [barycentric_solver(T) for T in trees]
    for k in range(samples):
        x = sample_polytope_point(vertices, rng)
        p, q = clear_denominators(x)
        hits = 0
        interior = 0
        for solve in solvers:
            where = location(*solve(p, q))
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
    return VerifyResult(name, True, {"samples": samples, "simplices": len(trees)})


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
        got = intersect_tree_simplices(Ta, Tb)
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
    rf = reduced_form(EdgeMonomial(4, path_edges(4)), Scripted(PATH4_SCRIPT))
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


def _forest_rank(n: int) -> int:
    """Random-forest checks run at rank 4..6: below 4 too few forests exist."""
    return min(max(n, 4), 6)


# The checks of each verify selector.  Lambdas look each check up by name
# when they run, so a module attribute rebound later (a monkeypatch) holds.
SUITES = {
    "groth-h": lambda n, w, seed: (
        [verify_groth_h(w)] if w is not None else check_permutations(n, PERMUTATION_CHECKS[:1])),
    "kirillov": lambda n, w, seed: [verify_kirillov(n)],
    "bijection": lambda n, w, seed: [verify_bijection(n)],
    "realize": lambda n, w, seed: [
        verify_face_map(n), verify_realization(n)],
    "narayana": lambda n, w, seed: [check_census(n), narayana_check(n)],
    "strategies": lambda n, w, seed: [
        check_strategy_independence(_forest_rank(n), seed, num_graphs=20, num_strategies=20),
        check_strategy_dependence(),
    ],
    "projection": lambda n, w, seed: [check_projection(_forest_rank(n), seed, num_graphs=25)],
    "all": lambda n, w, seed: [
        check_census(n),
        check_scripted_path4(),
        verify_kirillov(n),
        *check_permutations(n, PERMUTATION_CHECKS),
        check_strategy_independence(_forest_rank(n), seed, num_graphs=20, num_strategies=20),
        check_strategy_dependence(),
        check_dissection_census(_forest_rank(n), seed, num_graphs=15),
        check_projection(_forest_rank(n), seed, num_graphs=25),
        check_unimodularity(n),
        check_point_location(n, seed, samples=200),
        check_intersections(n, seed, pairs=10),
        verify_bijection(n),
        verify_face_map(n),
        verify_realization(n),
        narayana_check(n),
    ],
}

SELECTORS = tuple(SUITES)


def suite(selector: str, n: int, w: Permutation | None, seed: int) -> list[VerifyResult]:
    """Assemble the checks for one CLI verify selector."""
    if selector not in SUITES:
        raise ValueError(f"unknown verify selector {selector!r}")
    if selector in ("realize", "all"):
        require_realizable(n)
    if selector == "narayana":
        require_narayana(n)
    return SUITES[selector](n, w, seed)
