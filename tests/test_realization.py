"""The pipe dream to tree bijection and the geometric realization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boundary_faces, face_h_polynomial, face_scan_matches_triangulation
from pipedreams import complexes, dreams, realization
from pipedreams.complexes import (
    SimplicialComplex,
    build_pdc,
    h_polynomial,
    interior_faces,
    is_face_of_pdc,
)
from pipedreams.dreams import PipeDream, enumerate_pipe_dreams, reduced_pipe_dreams, staircase_boxes
from pipedreams.perms import Permutation, catalan_permutation
from pipedreams.poly import MultiPolynomial
from pipedreams.polytopes import (
    noncrossing_alternating_trees,
    vertex_figure_point,
)
from pipedreams.realization import (
    RealizationError,
    box_edge,
    catalan_number,
    narayana_check,
    narayana_number,
    realize,
    tree_of_pipedream,
    triangulation_complex,
    verify_bijection,
    verify_face_map,
    verify_realization,
)
from pipedreams.subdivision import path_edges, q_polynomial


def test_catalan_recurrence():
    assert [catalan_number(m) for m in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_narayana_binomial():
    assert [narayana_number(3, k) for k in (1, 2, 3)] == [1, 3, 1]
    assert [narayana_number(4, k) for k in (1, 2, 3, 4)] == [1, 6, 6, 1]
    assert sum(narayana_number(6, k) for k in range(1, 7)) == catalan_number(6)


def test_box_edge_bijection():
    for n in (3, 4, 5, 6):
        boxes = staircase_boxes(n)
        edges = {box_edge(b, n) for b in boxes}
        assert len(edges) == len(boxes)
        assert edges == {(i, j) for i in range(1, n) for j in range(i + 1, n + 1)}
        for r, c in boxes:
            assert box_edge((r, c), n) == (c, n - r + 1)


def test_tree_of_pipedream_star_example():
    P = PipeDream(4, ((1, 3), (1, 2), (2, 2)))
    assert tree_of_pipedream(P).edges == ((1, 2), (1, 3), (1, 4))


def test_tree_of_pipedream_rejects_nonreduced():
    with pytest.raises(ValueError):
        tree_of_pipedream(PipeDream(4, ((1, 2), (1, 3), (2, 1), (2, 2))))
    with pytest.raises(ValueError):
        tree_of_pipedream(PipeDream(4, ()))


def test_images_are_spanning_trees():
    for n in (3, 4, 5):
        for P in reduced_pipe_dreams(catalan_permutation(n)):
            T = tree_of_pipedream(P)
            assert len(T.edges) == T.n - 1


def test_images_exhaust_trees_n4():
    images = {
        tree_of_pipedream(P).edges
        for P in reduced_pipe_dreams(catalan_permutation(4))
    }
    assert images == {T.edges for T in noncrossing_alternating_trees(4)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_verify_bijection(n):
    r = verify_bijection(n)
    assert r.ok, r.details
    assert r.details["catalan"] == catalan_number(n - 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verify_face_map(n):
    assert verify_face_map(n).ok


@pytest.mark.parametrize("n", [4, 5])
def test_face_map_fails_on_each_corrupted_interior_face(n, monkeypatch):
    """Drop each interior face, or add each non-interior face of the
    complex: verify_face_map fails on every one."""
    pi = catalan_permutation(n)
    C = build_pdc(pi)
    true = interior_faces(pi)
    interior = {face for face, _codim in true}
    d = C.dim + 1
    corrupted = [[t for t in true if t[0] != face] for face in interior]
    corrupted += [true + [(face, d - len(face))] for face in C.faces() - interior]
    assert len(corrupted) == len(C.faces())
    for faces in corrupted:
        monkeypatch.setattr(realization, "interior_faces", lambda w, faces=faces: faces)
        assert not verify_face_map(n).ok


@pytest.mark.parametrize("n", range(3, 8))
def test_face_map_builds_no_complex(n, monkeypatch):
    """verify_face_map reads the facets and the interior faces from the
    pipe dreams: it builds no complex and no face closure."""
    def refused(*args):
        raise AssertionError("verify_face_map built a complex or its faces")

    monkeypatch.setattr(SimplicialComplex, "faces", refused)
    monkeypatch.setattr(realization, "build_pdc", refused)
    assert verify_face_map(n).ok


@pytest.mark.parametrize("n", range(3, 8))
def test_face_map_searches_once(n, monkeypatch):
    """The trees are the codim-0 faces of the one interior face listing:
    verify_face_map runs the pipe dream search of 1 n...2 once."""
    calls = []

    def counted(w):
        calls.append(w)
        return enumerate_pipe_dreams(w)

    for module in (dreams, complexes):
        monkeypatch.setattr(module, "enumerate_pipe_dreams", counted)
    assert verify_face_map(n).ok
    assert calls == [catalan_permutation(n)]


def test_face_map_refuses_a_box_labelling_that_is_not_injective(monkeypatch):
    """The image comparison says nothing about faces unless equal images
    mean equal box sets, so a merged pair of boxes is refused first."""
    def merged(box, n):
        return box_edge((2, 1) if box == (1, 1) else box, n)

    monkeypatch.setattr(realization, "box_edge", merged)
    r = verify_face_map(4)
    assert (r.ok, r.details) == (False, {"reason": "box_edge is not injective"})


def test_face_map_codim2_face_is_long_edge():
    # the unique 5-cross pipe dream for 1432 has a single elbow at (1,1),
    # whose edge is (1,4): the common edge of all five trees
    pi = catalan_permutation(4)
    P = PipeDream(4, ((1, 2), (1, 3), (2, 1), (2, 2), (3, 1)))
    assert P.permutation() == pi
    assert [box_edge(b, 4) for b in P.elbows()] == [(1, 4)]
    common = set.intersection(
        *[set(T.edges) for T in noncrossing_alternating_trees(4)]
    )
    assert common == {(1, 4)}


def test_realize_vertex_examples():
    rm = realize(4)
    assert rm.vertex_map[(1, 3)] == vertex_figure_point(4, 3, 4)
    assert rm.vertex_map[(3, 1)] == vertex_figure_point(4, 1, 2)
    assert len(rm.vertex_map) == 6
    assert len(rm.facet_map) == 5


def test_realize_rejects_degenerate_rank():
    with pytest.raises(ValueError):
        realize(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_verify_realization(n):
    assert verify_realization(n).ok


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_vertex_map_carries_boundary_onto_boundary(n):
    """The boundary statement, which realize does not test on its own
    because its facet check implies it."""
    vmap = realize(n).vertex_map
    pdc_boundary = boundary_faces(build_pdc(catalan_permutation(n)))
    assert {frozenset(vmap[b] for b in face) for face in pdc_boundary} == boundary_faces(
        triangulation_complex(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_realize_agrees_with_subset_scan(n):
    assert face_scan_matches_triangulation(n, is_face_of_pdc)
    realize(n)  # raises RealizationError on a mismatch


def corrupted_faces(n):
    """Face sets of two complexes near the complex of 1 n n-1 ... 2: one
    facet dropped, and one minimal non-face added."""
    C = build_pdc(catalan_permutation(n))
    faces = C.faces()
    candidates = {F | {b} for F in faces for b in C.vertices if b not in F} - faces
    minimal = [N for N in candidates if all(N - {b} in faces for b in N)]
    added = min(minimal, key=lambda N: (len(N), sorted(N)))
    return {
        "facet dropped": SimplicialComplex(C.facets[1:]).faces(),
        "non-face added": faces | {added},
    }


@pytest.mark.parametrize("kind", ["facet dropped", "non-face added"])
@pytest.mark.parametrize("n", [4, 5])
def test_realize_and_subset_scan_reject_corrupted_complex(n, kind, monkeypatch):
    faces = corrupted_faces(n)[kind]

    def is_face(boxes, w):
        return frozenset(boxes) in faces

    assert not face_scan_matches_triangulation(n, is_face)
    monkeypatch.setattr("pipedreams.realization.is_face_of_pdc", is_face)
    with pytest.raises(RealizationError, match="face mismatch"):
        realize(n)
    assert not verify_realization(n).ok


@st.composite
def permutations_and_box_sets(draw):
    """A permutation of S_2..S_6, a staircase box set S, and a subset of S."""
    n = draw(st.integers(2, 6))
    w = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    boxes = staircase_boxes(n)
    S = [b for b in boxes if draw(st.booleans())]
    T = [b for b in S if draw(st.booleans())]
    return w, S, T


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(permutations_and_box_sets())
def test_is_face_of_pdc_is_closed_under_subsets(case):
    """The property the realization check relies on: a pipe dream complex
    is a subword complex, so a subset of a face is a face."""
    w, S, T = case
    if is_face_of_pdc(S, w):
        assert is_face_of_pdc(T, w)
        assert all(is_face_of_pdc([a for a in S if a != b], w) for b in S)


def test_vertex_map_hits_every_scaled_root():
    for n in (3, 4, 5):
        rm = realize(n)
        expected = {
            vertex_figure_point(n, i, j)
            for i in range(1, n)
            for j in range(i + 1, n + 1)
        }
        assert set(rm.vertex_map.values()) == expected


def test_dimensions_agree():
    """Both complexes build as pure complexes for n = 3..7: Catalan(n-1)
    facets of n-1 vertices each."""
    for n in range(3, 8):
        C = build_pdc(catalan_permutation(n))
        assert C.dim == n - 2
        T = triangulation_complex(n)
        assert T.dim == n - 2
        assert len(T.facets) == len(C.facets) == catalan_number(n - 1)


def test_crosses_plus_elbows_fill_staircase():
    for n in (3, 4, 5):
        boxes = len(staircase_boxes(n))
        for P in reduced_pipe_dreams(catalan_permutation(n)):
            assert P.size + len(P.elbows()) == boxes
            assert len(P.elbows()) == n - 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_narayana_check(n):
    r = narayana_check(n)
    assert r.ok, r.details


def test_narayana_check_needs_rank_two():
    """S_1 has no Narayana row to compare: N(0, k) for k = 1..0 is empty."""
    assert narayana_check(2).ok
    with pytest.raises(ValueError, match="n >= 2"):
        narayana_check(1)


def test_h_of_triangulation_equals_h_of_complex():
    for n in range(3, 8):
        pi = catalan_permutation(n)
        h_tri = face_h_polynomial(triangulation_complex(n))
        h_pdc = h_polynomial(build_pdc(pi), pi)
        assert h_tri == h_pdc


def test_q_polynomial_equals_triangulation_h_shifted():
    """The rewriting polynomial is the h-polynomial of the canonical
    triangulation evaluated at b+1, through rank 7."""
    b = MultiPolynomial.variable("b", ("b",))
    for n in range(2, 8):
        h = face_h_polynomial(triangulation_complex(n)) if n > 2 else None
        q = q_polynomial(n, path_edges(n))
        if n == 2:
            assert q == MultiPolynomial.one(("b",))
            continue
        shifted = h.rename({"x": "b"}).substitute({"b": b + 1}, ("b",))
        assert q == shifted


def test_realization_map_json():
    rm = realize(3)
    data = rm.to_jsonable()
    assert data["n"] == 3
    assert len(data["vertex_map"]) == 3
    assert len(data["facets"]) == 2
