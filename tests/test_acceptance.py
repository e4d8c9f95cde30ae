"""Acceptance criteria, one test per criterion, at the documented
parameters.  Every comparison is exact; each test prints a pass line with
its runtime (visible with pytest -s or in verbose test names)."""

import time

from oracles import shifted_groth_beta
from pipedreams.complexes import build_pdc, h_polynomial, interior_faces
from pipedreams.dreams import enumerate_pipe_dreams, reduced_pipe_dreams
from pipedreams.grothendieck import groth_beta, pipe_dream_beta_grothendieck
from pipedreams.perms import Permutation, all_windows, catalan_permutation
from pipedreams.poly import MultiPolynomial
from pipedreams.polytopes import canonical_triangulation, is_unimodular
from pipedreams.realization import (
    catalan_number,
    narayana_check,
    verify_bijection,
    verify_face_map,
    verify_realization,
)
from pipedreams.suites import (
    check_scripted_path4,
    check_intersections,
    check_point_location,
    check_projection,
    check_strategy_independence,
    verify_groth_h,
    verify_kirillov,
)


def report(number: int, name: str, t0: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.time() - t0:.2f}s)")


def test_criterion_01_pipe_dream_census_1432():
    t0 = time.time()
    dreams = enumerate_pipe_dreams(Permutation((1, 4, 3, 2)))
    census = {}
    for P in dreams:
        census[P.size] = census.get(P.size, 0) + 1
    assert census == {3: 5, 4: 5, 5: 1}
    assert time.time() - t0 < 1.0
    report(1, "pipe dream census of 1432 is 5/5/1", t0)


def test_criterion_02_scripted_reduction_replay():
    t0 = time.time()
    r = check_scripted_path4()
    assert r.ok, r.details
    assert r.details["terms"] == 11
    assert r.details["q"] == "b^2 + 5*b + 5"
    assert time.time() - t0 < 1.0
    report(2, "scripted 11-term reduced form of x12*x23*x34", t0)


def test_criterion_03_kirillov_identity_n2_to_7():
    t0 = time.time()
    for n in range(2, 8):
        r = verify_kirillov(n)
        assert r.ok, (n, r.details)
    assert time.time() - t0 < 300
    report(3, "Q_{P_n}(b) equals the b-Grothendieck specialization, n=2..7", t0)


def test_criterion_04_groth_h_identity_s4_and_s5():
    t0 = time.time()
    for n in (4, 5):
        for window in all_windows(n):
            r = verify_groth_h(Permutation(window))
            assert r.ok, (window, r.details)
    assert time.time() - t0 < 600
    report(4, "shifted Grothendieck equals h-polynomial on S4 and S5", t0)


def test_criterion_05_interior_face_formula_s4():
    """Sum of b^codim over the interior faces, with b -> x - 1, is the flip
    h-polynomial: over the faces listed from the search, and as the pipe
    dream side of G^b_w at x = 1, which interior-h reads."""
    t0 = time.time()
    x = MultiPolynomial.variable("x", ("x",))
    for window in all_windows(4):
        w = Permutation(window)
        h = h_polynomial(build_pdc(w), w)
        listed = MultiPolynomial(("b",), (((codim,), 1) for _face, codim in interior_faces(w)))
        assert listed.substitute({"b": x - 1}, ("x",)) == h
        G = pipe_dream_beta_grothendieck(w)
        assert G.substitute({**dict.fromkeys(G.vars[:-1], 1), "b": x - 1}, ("x",)) == h
    report(5, "interior-face formula matches the flip h-polynomial on S4", t0)


def test_criterion_06_strategy_invariance_50_graphs_20_strategies():
    t0 = time.time()
    r = check_strategy_independence(max_n=6, seed=2024, num_graphs=50, num_strategies=20)
    assert r.ok, r.details
    report(6, "Q_G identical across 20 strategies on 50 random graphs", t0)


def test_criterion_07_catalan_and_narayana():
    t0 = time.time()
    from pipedreams.polytopes import noncrossing_alternating_trees

    for n in range(2, 9):
        reduced = len(reduced_pipe_dreams(catalan_permutation(n)))
        trees = len(noncrossing_alternating_trees(n))
        assert reduced == trees == catalan_number(n - 1), n
    for n in range(2, 8):
        r = narayana_check(n)
        assert r.ok, (n, r.details)
    report(7, "Catalan counts to n=8 and Narayana h-vectors to n=7", t0)


def test_criterion_08_root_flow_projection_50_graphs():
    t0 = time.time()
    r = check_projection(max_n=6, seed=2024, num_graphs=50)
    assert r.ok, r.details
    report(8, "flow vertices project onto root polytope vertices, with reduction", t0)


def test_criterion_09_triangulation_geometry():
    t0 = time.time()
    for n in range(2, 7):
        assert all(is_unimodular(S) for S in canonical_triangulation(n))
    for n in range(3, 7):
        r = check_point_location(n, seed=2024, samples=1000)
        assert r.ok, (n, r.details)
    # all pairs at n=4; seeded samples of pairs at n=5, 6
    r = check_intersections(4, seed=2024, pairs=10)
    assert r.ok, r.details
    for n in (5, 6):
        r = check_intersections(n, seed=2024, pairs=25)
        assert r.ok, (n, r.details)
    report(9, "unimodularity, exact point location, simplex intersections", t0)


def test_criterion_10_realization_n3_to_6():
    t0 = time.time()
    for n in range(3, 7):
        assert verify_bijection(n).ok, n
        assert verify_face_map(n).ok, n
        assert verify_realization(n).ok, n
    report(10, "pipe dream complex realized on the vertex figure, n=3..6", t0)


def test_criterion_11_nonnegativity_s5():
    t0 = time.time()
    for window in all_windows(5):
        shifted = shifted_groth_beta(groth_beta(Permutation(window)))
        assert all(c >= 0 for c in shifted.terms.values()), window
    report(11, "shifted specialization has nonnegative coefficients on S5", t0)
