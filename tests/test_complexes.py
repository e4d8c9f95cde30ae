"""Pipe dream complexes, face vectors, h-polynomials, interior faces."""

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    boundary_faces,
    demazure_bruteforce,
    face_f_vector,
    face_h_polynomial,
    h_from_interior,
    interior_faces_by_closure,
    word_contains_bruteforce,
)
from pipedreams import complexes, dreams
from pipedreams.complexes import (
    SimplicialComplex,
    build_pdc,
    f_vector,
    h_polynomial,
    interior_faces,
    is_face_of_pdc,
)
from pipedreams.dreams import (
    PipeDream,
    box_letter,
    enumerate_pipe_dreams,
    staircase_boxes,
    triangular_word,
)
from pipedreams.grothendieck import groth_beta, pipe_dream_beta_grothendieck
from pipedreams.perms import (
    Permutation,
    all_windows,
    catalan_permutation,
    demazure_fold,
    identity_window,
)
from pipedreams.poly import MultiPolynomial

W1432 = Permutation((1, 4, 3, 2))


def closure_oracle(facets):
    """Independent downward closure for f-vector cross-checks."""
    faces = set()
    for facet in facets:
        elems = sorted(facet)
        for k in range(len(elems) + 1):
            faces.update(frozenset(c) for c in combinations(elems, k))
    return faces


def test_complexes_equal_by_facets():
    C = SimplicialComplex([("a", "b"), ("b", "c")])
    same = SimplicialComplex([("c", "b"), ("b", "a"), ("a", "b")])
    assert C == same and hash(C) == hash(same)
    assert len({C, same}) == 1
    assert C != SimplicialComplex([("a", "b"), ("a", "c")])
    assert C != C.facets


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex([("a", "b"), ("a",)])
    C = SimplicialComplex([("a", "b"), ("b", "c")])
    assert C.vertices == ("a", "b", "c")


@pytest.mark.parametrize("facets", [[("a", "b"), ("c",)], [("a", "b"), ("a",)], [(), ("a",)]])
def test_mixed_facet_sizes_are_refused(facets):
    """A complex is pure: facets of different sizes raise, whether given
    directly or read back from JSON, and the message names the sizes."""
    sizes = sorted({len(f) for f in facets})
    with pytest.raises(ValueError, match=re.escape(f"got sizes {sizes}")):
        SimplicialComplex(facets)
    data = {"vertices": ["a", "b", "c"],
            "facets": [["abc".index(v) for v in f] for f in facets]}
    with pytest.raises(ValueError, match=re.escape(f"got sizes {sizes}")):
        SimplicialComplex.from_jsonable(data)


def test_pipe_dream_complexes_are_pure():
    """Each facet of the complex of w holds |staircase| - l(w) elbow boxes,
    for every w in S_1..S_6."""
    for n in range(1, 7):
        boxes = len(staircase_boxes(n))
        for window in all_windows(n):
            w = Permutation(window)
            assert {len(f) for f in build_pdc(w).facets} == {boxes - w.length()}


def test_build_pdc_1432():
    C = build_pdc(W1432)
    assert len(C.vertices) == 6
    assert len(C.facets) == 5
    assert all(len(f) == 3 for f in C.facets)
    assert C.dim == 2


def pdc_vectors(w):
    """The f-vector and h-polynomial of the complex of w, f taken from h."""
    C = build_pdc(w)
    h = h_polynomial(C, w)
    return f_vector(h, C.dim + 1), h


def test_build_pdc_degenerate_sphere():
    C = build_pdc(Permutation((2, 1)))
    assert C.facets == (frozenset(),)
    assert pdc_vectors(Permutation((2, 1))) == ((1,), MultiPolynomial.one(("x",)))


def test_build_pdc_identity_is_full_simplex():
    w = Permutation(identity_window(3))
    assert len(build_pdc(w).facets) == 1
    assert pdc_vectors(w) == ((1, 3, 3, 1), MultiPolynomial.one(("x",)))


def test_f_vector_examples():
    assert pdc_vectors(W1432)[0] == (1, 6, 10, 5)
    x = MultiPolynomial.variable("x", ("x",))
    # the boundary of a triangle: three vertices, three edges
    assert f_vector(1 + x + x**2, 2) == (1, 3, 3)


def test_f_vector_against_closure_oracle():
    """f from h by the inverse transform equals the face count of the
    downward closure on S_1..S_5, and that closure equals an independent
    one on S_1..S_4."""
    for n in range(1, 6):
        for window in all_windows(n):
            w = Permutation(window)
            C = build_pdc(w)
            assert f_vector(h_polynomial(C, w), C.dim + 1) == face_f_vector(C)
            if n <= 4:
                assert C.faces() == closure_oracle(C.facets)


def test_h_polynomial_1432():
    assert h_polynomial(build_pdc(W1432), W1432).coefficient_vector() == (1, 3, 1)


def test_h_polynomial_15432():
    w = Permutation((1, 5, 4, 3, 2))
    assert h_polynomial(build_pdc(w), w).coefficient_vector() == (1, 6, 6, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_flip_h_equals_face_closure_oracle(n):
    """The flip count equals the f-to-h transform of the face closure on
    every permutation of rank n."""
    for window in all_windows(n):
        w = Permutation(window)
        C = build_pdc(w)
        assert h_polynomial(C, w) == face_h_polynomial(C), w


@pytest.mark.parametrize("n", range(3, 9))
def test_flip_h_equals_face_closure_oracle_on_catalan(n):
    """The same on 1 n n-1 ... 2, whose h is a Narayana row."""
    w = catalan_permutation(n)
    C = build_pdc(w)
    assert h_polynomial(C, w) == face_h_polynomial(C)


def flip_h(C, w, is_flip):
    """h counted by flips: per facet, the elbows where is_flip(u, a) holds,
    with s_a the elbow's letter and u the product of the crosses before it."""
    reading = tuple(zip(staircase_boxes(w.n), triangular_word(w.n)))
    counts = {}
    for facet in C.facets:
        u = identity_window(w.n)
        flips = 0
        for b, a in reading:
            if b not in facet:
                u = demazure_fold(u, (a,))
            elif is_flip(u, a):
                flips += 1
        counts[flips] = counts.get(flips, 0) + 1
    return MultiPolynomial(("x",), {(k,): c for k, c in counts.items()})


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.permutations(range(1, 8)))
def test_decreasing_flips_give_the_same_h(window):
    """Decreasing flips, u s_a < u: the cross leaving in the flip comes
    before the elbow.  Such a ridge is always interior, since the Demazure
    product ignores a letter that does not lengthen."""
    w = Permutation(tuple(window))
    C = build_pdc(w)
    assert h_polynomial(C, w) == flip_h(C, w, lambda u, a: u[a - 1] > u[a])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.permutations(range(1, 8)))
def test_increasing_flips_give_the_same_h(window):
    """Increasing flips, read by the root function: u s_a > u and s_a is a
    left descent of v = u^-1 w, the product of the crosses after the
    elbow; that is u(a) < u(a+1) and w^-1(u(a)) > w^-1(u(a+1)).  The
    complex of w reversed is the complex of the reversed word and w^-1, so
    they give the kernel's h by a second route."""
    w = Permutation(tuple(window))
    inverse = {x: i for i, x in enumerate(w.window)}
    C = build_pdc(w)
    assert h_polynomial(C, w) == flip_h(
        C, w, lambda u, a: u[a - 1] < u[a] and inverse[u[a - 1]] > inverse[u[a]])


def test_interior_faces_1432():
    C = build_pdc(W1432)
    inter = interior_faces(W1432)
    by_codim = {}
    for _face, codim in inter:
        by_codim[codim] = by_codim.get(codim, 0) + 1
    assert by_codim == {0: 5, 1: 5, 2: 1}
    # facets are exactly the codim-0 interior faces
    assert {f for f, c in inter if c == 0} == set(C.facets)


def test_interior_faces_degenerate():
    assert interior_faces(Permutation((2, 1))) == [(frozenset(), 0)]


def test_interior_pipe_dreams_match_enumeration():
    """The interior faces listed from the pipe dreams equal, in order, the
    faces of the closure whose complementary crosses have product w, on
    S_1..S_5 and on 1 n n-1 ... 2 up to n = 7."""
    perms = [Permutation(window) for n in range(1, 6) for window in all_windows(n)]
    perms += [catalan_permutation(n) for n in range(3, 8)]
    for w in perms:
        assert interior_faces(w) == interior_faces_by_closure(build_pdc(w), w), w


def test_cross_count_is_length_plus_codim():
    boxes = staircase_boxes(4)
    for window in all_windows(4):
        w = Permutation(window)
        l = w.length()
        for face, codim in interior_faces(w):
            crosses = len(boxes) - len(face)
            assert crosses == l + codim


def test_h_from_interior_1432():
    C = build_pdc(W1432)
    b = MultiPolynomial.variable("b", ("b",))
    assert h_from_interior(C, W1432) == b**2 + 5 * b + 5


def test_h_from_interior_scans_the_closure_not_the_search(monkeypatch):
    """The walk oracle runs no pipe dream search, so it stays independent
    of the interior faces listed from the search."""
    C = build_pdc(W1432)

    def refused(*args):
        raise AssertionError("h_from_interior ran the pipe dream search")

    for module, name in ((complexes, "enumerate_pipe_dreams"), (dreams, "enumerate_pipe_dreams"),
                         (dreams, "staircase_transfer"), (oracles, "enumerate_pipe_dreams_dfs")):
        monkeypatch.setattr(module, name, refused)
    b = MultiPolynomial.variable("b", ("b",))
    assert h_from_interior(C, W1432) == b**2 + 5 * b + 5


def test_h_from_interior_builds_no_face_closure(monkeypatch):
    """The walk oracle, down from the facets, materializes no closure."""
    def refused(self):
        raise AssertionError("h_from_interior built the face closure")

    monkeypatch.setattr(SimplicialComplex, "faces", refused)
    for w in (W1432, catalan_permutation(7), Permutation(identity_window(8))):
        assert h_from_interior(build_pdc(w), w) == groth_beta(w)


def closure_h_from_interior(w):
    """Sum of b^codim over the interior faces of the closure oracle."""
    faces = interior_faces_by_closure(build_pdc(w), w)
    return MultiPolynomial(("b",), (((codim,), 1) for _face, codim in faces))


def transfer_at_x1(w):
    """The pipe dream side of G^b_w at x = 1: sum of b^codim over Pipes(w)."""
    G = pipe_dream_beta_grothendieck(w)
    return G.substitute(dict.fromkeys(G.vars[:-1], 1), ("b",))


@pytest.mark.parametrize("w", [Permutation(window) for n in range(1, 6) for window in all_windows(n)]
                         + [catalan_permutation(n) for n in range(3, 8)], ids=str)
def test_h_from_interior_walk_matches_closure_oracle(w):
    """The walk oracle, the closure oracle and the transfer at x = 1 agree."""
    walk = h_from_interior(build_pdc(w), w)
    assert walk == closure_h_from_interior(w)
    assert walk == transfer_at_x1(w)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.permutations(range(1, 7)))
def test_h_from_interior_walk_matches_closure_oracle_on_s6(window):
    w = Permutation(tuple(window))
    walk = h_from_interior(build_pdc(w), w)
    assert walk == closure_h_from_interior(w)
    assert walk == transfer_at_x1(w)


def test_h_from_interior_walk_matches_transfer_on_seeded_s7():
    """The walk oracle equals the transfer at x = 1 on 20 permutations of
    S_7 drawn with a fixed seed."""
    rng = random.Random(7)
    for _ in range(20):
        w = Permutation(tuple(rng.sample(range(1, 8), 7)))
        assert h_from_interior(build_pdc(w), w) == transfer_at_x1(w), w


def test_interior_formula_matches_f_to_h_transform():
    """h(C, b+1), summed over the interior faces listed from the search,
    equals the h-polynomial at x = b+1."""
    x = MultiPolynomial.variable("x", ("x",))
    for window in all_windows(4):
        w = Permutation(window)
        interior = MultiPolynomial(("x",), (((codim,), 1) for _face, codim in interior_faces(w)))
        assert interior.substitute({"x": x - 1}, ("x",)) == h_polynomial(build_pdc(w), w)


def test_boundary_and_interior_partition_faces():
    w0 = Permutation((4, 3, 2, 1))
    for window in all_windows(4):
        w = Permutation(window)
        if w == w0:
            continue  # the (-1)-sphere case has no ball boundary
        C = build_pdc(w)
        boundary = boundary_faces(C)
        interior = {f for f, _c in interior_faces(w)}
        assert boundary.isdisjoint(interior)
        assert boundary | interior == C.faces()


def test_facets_biject_with_reduced_pipe_dreams():
    for window in all_windows(4):
        w = Permutation(window)
        C = build_pdc(w)
        l = w.length()
        reduced = [P for P in enumerate_pipe_dreams(w) if P.size == l]
        assert len(C.facets) == len(reduced)
        boxes = staircase_boxes(4)
        assert {frozenset(P.elbows()) for P in reduced} == set(C.facets)
        assert all(len(f) == len(boxes) - l for f in C.facets)


def test_h_nonnegative_on_rank_4():
    for window in all_windows(4):
        w = Permutation(window)
        h = h_polynomial(build_pdc(w), w)
        assert all(c >= 0 for c in h.terms.values())


def test_is_face_of_pdc():
    # single missing box still contains 1432; the full staircase does not
    assert is_face_of_pdc([(1, 1)], W1432)
    assert not is_face_of_pdc(staircase_boxes(4), W1432)
    assert is_face_of_pdc([], W1432)


@st.composite
def permutations_and_box_sets(draw):
    """A permutation of S_3..S_5 and a staircase box set for its rank."""
    n = draw(st.integers(3, 5))
    w = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    return w, [b for b in staircase_boxes(n) if draw(st.booleans())]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(permutations_and_box_sets())
def test_box_sets_agree_with_oracle_fold(case):
    """A box set's permutation and its face test both come from the letters
    on the staircase boxes in reading order."""
    w, S = case
    n = w.n
    inside = set(S)
    letters = tuple(box_letter(b) for b in staircase_boxes(n) if b in inside)
    rest = tuple(box_letter(b) for b in staircase_boxes(n) if b not in inside)
    assert PipeDream(n, tuple(S)).permutation().window == demazure_bruteforce(letters, n)
    assert is_face_of_pdc(S, w) == word_contains_bruteforce(rest, w)


def test_json_shape():
    data = build_pdc(W1432).to_jsonable()
    assert len(data["vertices"]) == 6
    assert all(isinstance(f, list) for f in data["facets"])


@pytest.mark.parametrize("facet,named", [
    ([0, -1], """SimplicialComplex: $['vertices'] reads ["a", "b", "c"] but writes ["a", "c"]"""),
    ([0, 0], """SimplicialComplex: $['vertices'] reads ["a", "b", "c"] but writes ["a"]"""),
    ([0, 3], "SimplicialComplex: IndexError: list index out of range"),
], ids=["facet0--1", "facet1-0", "facet2-3"])
def test_json_facet_index_must_name_one_vertex_once(facet, named):
    """A facet read from JSON is refused when an index is negative (-1
    would read the last vertex, and b would be dropped), repeated (the
    facet would shrink, and b and c be dropped), with the type and the
    path named, or past the end, with the IndexError named."""
    data = {"vertices": ["a", "b", "c"], "facets": [facet]}
    with pytest.raises(ValueError, match=re.escape(named)):
        SimplicialComplex.from_jsonable(data)


def test_json_vertex_listed_twice_is_refused():
    """Two facets on one vertex listed twice would collapse into one."""
    data = {"vertices": [[1, 1], [1, 1]], "facets": [[0], [1]]}
    with pytest.raises(ValueError, match=re.escape("SimplicialComplex: $['vertices'] reads [[1, 1], [1, 1]] "
                                                   "but writes [[1, 1]]")):
        SimplicialComplex.from_jsonable(data)


def test_json_vertex_in_no_facet_is_refused():
    """A vertex that no facet uses would be dropped: the complex holds the
    vertices of its facets only."""
    data = {"vertices": [[1, 1], [1, 2]], "facets": [[0]]}
    with pytest.raises(ValueError, match=re.escape("SimplicialComplex: $['vertices'] reads [[1, 1], [1, 2]] "
                                                   "but writes [[1, 1]]")):
        SimplicialComplex.from_jsonable(data)
