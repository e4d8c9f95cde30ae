"""Slow, obviously-correct reference implementations, kept for the tests.

Each function here is the straightforward version of a faster routine in
`pipedreams`, and the tests compare the two.  Nothing in `src/` imports
this module.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from pipedreams.complexes import SimplicialComplex
from pipedreams.dreams import Box, PipeDream, staircase_boxes, staircase_product, triangular_word
from pipedreams.linalg import inverse, solve_unique
from pipedreams.perms import (
    Permutation,
    Window,
    Word,
    bruhat_leq,
    catalan_permutation,
    demazure_fold,
    identity_window,
    inversions,
)
from pipedreams.poly import MultiPolynomial
from pipedreams.polytopes import Point, Simplex, vertex_figure_point, vertex_figure_simplices
from pipedreams.realization import box_edge
from pipedreams.subdivision import EdgeMonomial


def apply_s(window: Window, a: int) -> Window:
    """Right multiplication by s_a (swap positions a, a+1; 1-indexed)."""
    w = list(window)
    w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def ordinary_product(letters: Iterable[int], n: int) -> Window:
    """Plain group product of simple reflections, for reduced-word checks."""
    w = identity_window(n)
    for a in letters:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for rank {n}")
        w = apply_s(w, a)
    return w


def word_contains_bruteforce(letters: Word, w: Permutation) -> bool:
    """Oracle for the face test of `complexes.is_face_of_pdc`: scan all
    subsequences of the target length for an ordinary product equal to w.
    Exponential; only for cross-checks at tiny rank."""
    l = w.length()
    if l > len(letters):
        return False
    for positions in combinations(range(len(letters)), l):
        if ordinary_product([letters[p] for p in positions], w.n) == w.window:
            return True
    return False


def demazure_bruteforce(letters: Word, n: int) -> Window:
    """Oracle for the Demazure product: the longest ordinary product among
    the reduced subwords of `letters`, checked to be unique.  Scans every
    subsequence from the longest down; tiny words only."""
    for k in range(len(letters), -1, -1):
        found = set()
        for positions in combinations(range(len(letters)), k):
            product = ordinary_product([letters[p] for p in positions], n)
            if inversions(product) == k:
                found.add(product)
        if found:
            if len(found) != 1:
                raise AssertionError(f"{len(found)} longest reduced subword products")
            return found.pop()
    raise AssertionError("the empty subword is always reduced")


def pipe_dream_crosses_box_by_box(n: int, crosses: Sequence) -> tuple[Box, ...]:
    """Oracle for the `PipeDream` constructor: the cross list it holds, by
    the plain rule.  Sort the set of boxes, refuse a box listed twice, then
    range-check each box as a pair (r, c) with r, c >= 1 and r + c <= n;
    a box that does not unpack to a pair raises ValueError too."""
    held = tuple(sorted(set(crosses)))
    if len(held) != len(tuple(crosses)):
        raise ValueError("duplicate cross positions")
    for r, c in held:
        if r < 1 or c < 1 or r + c > n:
            raise ValueError(f"box {(r, c)} outside the staircase for n={n}")
    return held


def enumerate_pipe_dreams_dfs(w: Permutation) -> list[PipeDream]:
    """Oracle for `dreams.enumerate_pipe_dreams`: a depth-first search over
    the staircase in reading order, carrying the running Demazure product
    u of the crosses chosen so far, sorted by (size, cross list).  A branch
    is cut unless u <= w and w <= the fold of u with every letter still to
    come; past the last box the two leave u = w."""
    n = w.n
    boxes = staircase_boxes(n)
    letters = triangular_word(n)
    target = w.window
    found: list[PipeDream] = []
    chosen: list[Box] = []

    def dfs(i: int, u: Window) -> None:
        if not (bruhat_leq(u, target) and bruhat_leq(target, demazure_fold(u, letters[i:]))):
            return
        if i == len(boxes):
            found.append(PipeDream(n, tuple(chosen)))
            return
        dfs(i + 1, u)
        chosen.append(boxes[i])
        dfs(i + 1, demazure_fold(u, (letters[i],)))
        chosen.pop()

    dfs(0, identity_window(n))
    found.sort(key=lambda p: (p.size, p.crosses))
    return found


def enumerate_pipe_dreams_bruteforce(w: Permutation) -> list[PipeDream]:
    """Oracle for the listing of Pipes(w): try all 2^boxes subsets.  Tiny n only."""
    boxes = staircase_boxes(w.n)
    out = []
    for mask in range(1 << len(boxes)):
        crosses = tuple(b for i, b in enumerate(boxes) if mask >> i & 1)
        P = PipeDream(w.n, crosses)
        if P.permutation() == w:
            out.append(P)
    out.sort(key=lambda p: (p.size, p.crosses))
    return out


def xy_beta_vars(n: int) -> tuple[str, ...]:
    """Variables of a rank-n b-graded double polynomial: x1.., y1.., then b last."""
    return tuple(
        [f"x{i}" for i in range(1, n)] + [f"y{j}" for j in range(1, n)] + ["b"]
    )


def pipe_dream_weight(P: PipeDream) -> MultiPolynomial:
    """Product over crosses at (r, c) of (x_r - y_c), multiplied out one
    cross at a time; the empty product is 1.  Over `xy_beta_vars(P.n)`,
    with b at exponent 0."""
    vars = xy_beta_vars(P.n)
    poly = MultiPolynomial.one(vars)
    for r, c in P.crosses:
        x = MultiPolynomial.variable(f"x{r}", vars)
        y = MultiPolynomial.variable(f"y{c}", vars)
        poly = poly * (x - y)
    return poly


def double_beta_grothendieck_per_dream(w: Permutation) -> MultiPolynomial:
    """The b-graded double polynomial, sum over Pipes(w) of b^codim times
    the product of (x_r - y_c) over the crosses: expand each pipe dream's
    product, over the depth-first listing, on its own and add it with
    b^codim.  At b = -1 it is the reference for
    `grothendieck.double_grothendieck`."""
    l = w.length()
    return MultiPolynomial(xy_beta_vars(w.n), (
        (exps[:-1] + (P.size - l,), c)
        for P in enumerate_pipe_dreams_dfs(w)
        for exps, c in pipe_dream_weight(P).terms.items()
    ))


def beta_grothendieck_per_dream(w: Permutation) -> MultiPolynomial:
    """Oracle for `grothendieck.beta_grothendieck` and for the transfer
    `grothendieck.pipe_dream_beta_grothendieck`: a row count over the
    listing of Pipes(w) by the depth-first search, the sum over the pipe dreams P of w of
    b^codim(P) times the product of x_r over the crosses (r, c) of P,
    over (x1, ..., x(n-1), b)."""
    n, l = w.n, w.length()
    vars = tuple([f"x{i}" for i in range(1, n)] + ["b"])
    terms = []
    for P in enumerate_pipe_dreams_dfs(w):
        exps = [0] * n
        for r, _ in P.crosses:
            exps[r - 1] += 1
        exps[-1] = P.size - l
        terms.append((tuple(exps), 1))
    return MultiPolynomial(vars, terms)


def h_from_interior(C: SimplicialComplex, w: Permutation) -> MultiPolynomial:
    """Oracle for the x = 1 value of `grothendieck.pipe_dream_beta_grothendieck`:
    the sum of b^codim over the interior faces of the pipe dream complex C
    of w, the faces whose crosses have Demazure product w.  It walks down
    from the facets whose crosses fold to w, dropping one elbow at a time
    and keeping a set only while its crosses still fold to w, so it reads
    C and the fold, never the search.  The walk reaches every interior
    face: the Demazure product only grows along subwords, so each face
    between an interior face and a facet above it is interior too.  It
    visits every interior face, 2^21 of them over S_7."""
    level = {F for F in C.facets if staircase_product(w.n, F) == w.window}
    terms = []
    while level:
        terms += [((C.dim + 1 - len(F),), 1) for F in level]
        level = {G for G in {F - {e} for F in level for e in F}
                 if staircase_product(w.n, G) == w.window}
    return MultiPolynomial(("b",), terms)


def shifted_groth_beta(beta: MultiPolynomial) -> MultiPolynomial:
    """beta = groth_beta(w) with b -> b - 1 applied; equals the
    h-polynomial of the pipe dream complex of w in the variable b.  The
    two-pass oracle for `suites._Sides.shifted`, which sets x = 1 by
    summing coefficients and shifts b in one substitution."""
    b = MultiPolynomial.variable("b", ("b",))
    return beta.substitute({"b": b - 1}, ("b",))


def substitute_per_term(
    p: MultiPolynomial,
    images: Mapping[str, Union[MultiPolynomial, int]],
    target_vars,
) -> MultiPolynomial:
    """Oracle for `MultiPolynomial.substitute`: expand every term on its own
    as a product of cached image powers, then sum."""
    target = tuple(target_vars)
    imgs: dict[int, MultiPolynomial] = {}

    def image(i: int) -> MultiPolynomial:
        if i not in imgs:
            v = p.vars[i]
            img = images.get(v)
            if img is None:
                img = MultiPolynomial.variable(v, target)
            elif isinstance(img, int):
                img = MultiPolynomial.constant(img, target)
            elif img.vars != target:
                raise ValueError(f"image of {v} is over {img.vars}, not {target}")
            imgs[i] = img
        return imgs[i]

    powers: dict[tuple[int, int], MultiPolynomial] = {}

    def power(i: int, e: int) -> MultiPolynomial:
        key = (i, e)
        if key not in powers:
            powers[key] = image(i) ** e
        return powers[key]

    acc: dict[tuple[int, ...], int] = {}
    for exps, coef in p.terms.items():
        term = MultiPolynomial.constant(coef, target)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        for e2, c2 in term.terms.items():
            s = acc.get(e2, 0) + c2
            if s:
                acc[e2] = s
            elif e2 in acc:
                del acc[e2]
    out = MultiPolynomial.__new__(MultiPolynomial)
    out.vars = target
    out.terms = acc
    return out


def _collect(pairs: Iterable[tuple[tuple[int, ...], int]]) -> dict[tuple[int, ...], int]:
    """Sum coefficients per exponent vector, then drop the zero sums."""
    sums: dict[tuple[int, ...], int] = {}
    for exps, coef in pairs:
        sums[exps] = sums.get(exps, 0) + coef
    return {exps: coef for exps, coef in sums.items() if coef}


def add_terms(p: MultiPolynomial, q: MultiPolynomial) -> dict[tuple[int, ...], int]:
    """Oracle for the terms of `p + q`: collect both term lists, then filter."""
    return _collect([*p.terms.items(), *q.terms.items()])


def mul_terms(p: MultiPolynomial, q: MultiPolynomial) -> dict[tuple[int, ...], int]:
    """Oracle for the terms of `p * q`: every product of two terms,
    collected, then filtered."""
    return _collect(
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in p.terms.items()
        for e2, c2 in q.terms.items()
    )


def face_f_vector(C: SimplicialComplex) -> tuple[int, ...]:
    """Oracle for `complexes.f_vector`: count the faces of the downward
    closure `C.faces()` by dimension, the empty face included,
    (f_{-1}, f_0, ..., f_{d-1}).  Exponential in the facet size."""
    counts = [0] * (C.dim + 2)
    for face in C.faces():
        counts[len(face)] += 1
    return tuple(counts)


def face_h_polynomial(C: SimplicialComplex) -> MultiPolynomial:
    """Oracle for `complexes.h_polynomial`: the f-to-h transform of the
    face counts.  With d the common facet size,
    sum_i f_{i-1} (x-1)^{d-i} = sum_i h_i x^{d-i}.  Holds for any pure
    complex, so it also serves complexes that are not pipe dream complexes."""
    fv = face_f_vector(C)
    d = len(fv) - 1
    # fv[i] is f_{i-1}; h_k collects the x^(d-k) terms of the sum above
    h = [sum((-1) ** (k - i) * comb(d - i, k - i) * fv[i] for i in range(k + 1))
         for k in range(d + 1)]
    return MultiPolynomial(("x",), {(i,): c for i, c in enumerate(h) if c})


def interior_faces_by_closure(C: SimplicialComplex, w: Permutation) -> list[tuple[frozenset, int]]:
    """Oracle for `complexes.interior_faces`: scan the face closure of the
    pipe dream complex C of w for the faces whose complementary crosses
    have Demazure product w, each with its codimension, sorted by
    (codim, face).  Exponential in the facet size."""
    d = C.dim + 1
    out = [(face, d - len(face)) for face in C.faces()
           if staircase_product(w.n, face) == w.window]
    out.sort(key=lambda t: (t[1], sorted(t[0])))
    return out


def boundary_faces(C: SimplicialComplex) -> frozenset[frozenset]:
    """Topological boundary of a pure complex: every subset of each
    codimension-1 face that lies in exactly one facet.  The tests state the
    realization's boundary correspondence and the boundary/interior
    partition of the faces with it."""
    ridges = Counter(
        frozenset(r) for facet in C.facets for r in combinations(sorted(facet), C.dim)
    )
    return frozenset(
        frozenset(sub)
        for ridge, count in ridges.items() if count == 1
        for k in range(len(ridge) + 1)
        for sub in combinations(sorted(ridge), k)
    )


def face_scan_matches_triangulation(
    n: int, is_face: Callable[[Iterable[Box], Permutation], bool]
) -> bool:
    """Oracle for the face check of `realization.realize`: test `is_face`
    on every one of the 2^|boxes| box subsets, and return whether it holds
    exactly when the subset's points lie in one vertex-figure simplex.
    Exponential; n <= 6 in the tests."""
    pi = catalan_permutation(n)
    boxes = staircase_boxes(n)
    vmap = {b: vertex_figure_point(n, *box_edge(b, n)) for b in boxes}
    tree_point_sets = [frozenset(S.vertex_points()) for S in vertex_figure_simplices(n)]
    # bitmask per box of the simplices whose vertex set contains its point;
    # a box set spans a face of the triangulation iff the masks intersect
    box_mask = {}
    for b in boxes:
        mask = 0
        for t, pts in enumerate(tree_point_sets):
            if vmap[b] in pts:
                mask |= 1 << t
        box_mask[b] = mask
    full = (1 << len(tree_point_sets)) - 1
    for size in range(len(boxes) + 1):
        for subset in combinations(boxes, size):
            mask = full
            for b in subset:
                mask &= box_mask[b]
            if is_face(subset, pi) != (mask != 0):
                return False
    return True


def prufer_decode_heap(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """Oracle for `polytopes._prufer_decode`: the tree of a Prufer sequence
    on [n], joining each entry to the smallest remaining leaf kept in a
    heap.  Returns the sorted edge tuple."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in list(seq) + [n]:
        u = heapq.heappop(leaves)
        edges.append((min(u, v), max(u, v)))
        degree[v] -= 1
        if degree[v] == 1 and v != n:
            heapq.heappush(leaves, v)
    return tuple(sorted(edges))


def spanning_tree_edges_recursive(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Oracle for `polytopes.spanning_trees`: the edge tuple of every
    labeled tree on [n], one per Prufer sequence, the sequences built
    recursively in lexicographic order."""
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((1, 2),)
        return

    def rec(prefix: list[int]):
        if len(prefix) == n - 2:
            yield prufer_decode_heap(prefix, n)
            return
        for v in range(1, n + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def intersect_simplices_fraction(S1: Simplex, S2: Simplex) -> frozenset[Point]:
    """Oracle for `polytopes.intersect_tree_simplices`, in `Fraction`
    arithmetic throughout: each full-dimensional simplex with origin is
    c >= 0, sum(c) <= 1 for its coefficients c = M^-1 z over the first n-1
    coordinates, and the intersection's vertices are the basic solutions
    of the combined inequalities that satisfy all of them."""
    ineqs = []
    for S in (S1, S2):
        M = tuple(tuple(g[r] for g in S.generators) for r in range(S.n - 1))
        Minv = inverse(M)
        ineqs += [(tuple(-v for v in row), Fraction(0)) for row in Minv]
        ineqs.append((tuple(sum(col) for col in zip(*Minv)), Fraction(1)))
    verts = set()
    for subset in combinations(range(len(ineqs)), S1.n - 1):
        z = solve_unique(tuple(ineqs[r][0] for r in subset), tuple(ineqs[r][1] for r in subset))
        if z is None:
            continue
        if all(sum(a * x for a, x in zip(row, z)) <= rhs for row, rhs in ineqs):
            verts.add(tuple(z) + (-sum(z),))
    return frozenset(verts)


def reducible_triples_pairwise(edges: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Oracle for `subdivision.reducible_triples`: compare every two edges
    present, keep (i, j, k) for each (i, j), (j, k), and sort."""
    present = set(edges)
    out = set()
    for i, j in present:
        for j2, k in present:
            if j2 == j:
                out.add((i, j, k))
    return sorted(out)


def _reduce_once_validated(m: EdgeMonomial, triple: tuple[int, int, int]) -> list[EdgeMonomial]:
    """The rewrite x_ij x_jk -> x_ik (x_ij + x_jk + b) with each child built
    and validated (sorted, edges checked) by the EdgeMonomial constructor."""
    i, j, k = triple
    without_jk = list(m.edges)
    without_jk.remove((j, k))
    without_ij = list(m.edges)
    without_ij.remove((i, j))
    both = list(without_ij)
    both.remove((j, k))
    children = [
        EdgeMonomial(m.n, tuple(without_jk) + ((i, k),), m.beta, m.coeff),
        EdgeMonomial(m.n, tuple(without_ij) + ((i, k),), m.beta, m.coeff),
        EdgeMonomial(m.n, tuple(both) + ((i, k),), m.beta + 1, m.coeff),
    ]

    def potential(g: EdgeMonomial) -> int:
        return sum(g.n - 1 - (j - i) for i, j in g.edges)

    phi = potential(m)
    assert all(potential(g) < phi for g in children), "potential must drop"
    return children


def reduced_form_pairwise(n: int, edges: Iterable[tuple[int, int]], strategy: str,
                          seed: int = 0) -> dict:
    """Oracle for `subdivision.reduced_form`, returned as its `to_jsonable()`
    dict.  Terms are keyed by (sorted edges, power of b), each step lists all
    reducible triples pairwise and builds validated children.  `strategy`
    is "lex", "rlex", "random" (with `seed`) or "script:i,j,k;...", chosen
    over the pairwise triple list as `subdivision.parse_strategy` describes."""
    rng = random.Random(seed)
    script = ([tuple(int(v) for v in t.split(",")) for t in strategy[7:].split(";")]
              if strategy.startswith("script:") else [])

    def choose(edges, triples):
        if strategy == "rlex":
            return triples[-1]
        if strategy == "random":
            return rng.choice(triples)
        for i, j, k in script:
            if (i, j) in edges and (j, k) in edges:
                return (i, j, k)
        return triples[0]

    m = EdgeMonomial(n, tuple(edges))
    pending = {(m.edges, m.beta): m.coeff}
    done: dict = {}
    while pending:
        nxt: dict = {}
        for edges, beta in sorted(pending):
            coeff = pending[(edges, beta)]
            triples = reducible_triples_pairwise(edges)
            if not triples:
                done[(edges, beta)] = done.get((edges, beta), 0) + coeff
                continue
            mono = EdgeMonomial(n, edges, beta, coeff)
            for child in _reduce_once_validated(mono, choose(edges, triples)):
                key = (child.edges, child.beta)
                nxt[key] = nxt.get(key, 0) + child.coeff
        pending = nxt
    return {
        "n": n,
        "monomials": [
            {"edges": [list(e) for e in edges], "beta": beta, "coeff": coeff}
            for (edges, beta), coeff in sorted(done.items(), key=lambda t: (t[0][1], t[0][0]))
            if coeff
        ],
    }
