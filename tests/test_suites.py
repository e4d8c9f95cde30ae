"""Random-forest sampling and the verify suites at small rank.  Calls that
once looped forever run in a child process with a timeout, so a hang
fails the test instead of stalling the run."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pipedreams
from oracles import beta_grothendieck_per_dream, shifted_groth_beta
from pipedreams import complexes, dreams, grothendieck, polytopes, suites
from pipedreams.dreams import enumerate_pipe_dreams
from pipedreams.grothendieck import groth_beta
from pipedreams.perms import Permutation, all_windows, parse_permutation
from pipedreams.poly import MultiPolynomial
from pipedreams.polytopes import AcyclicGraph, noncrossing_alternating_trees, random_acyclic_graph
from pipedreams.suites import (
    check_intersections,
    check_point_location,
    check_unimodularity,
    path_polytope_vertices,
    sample_acyclic_graphs,
    sample_polytope_point,
    suite,
)


def child(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(pipedreams.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60, env=env)


def unbounded_sample(count, max_n, seed):
    """The sampler without a draw bound: the oracle for every call that
    returns."""
    rng = random.Random(seed)
    graphs, seen = [], set()
    while len(graphs) < count:
        G = random_acyclic_graph(rng, max_n)
        if (G.n, G.edges) not in seen:
            seen.add((G.n, G.edges))
            graphs.append(G)
    return graphs


@pytest.mark.parametrize("count,max_n", [(7, 3), (25, 4), (44, 4), (15, 5), (50, 6)])
def test_sampler_matches_unbounded_loop(count, max_n):
    for seed in range(3):
        assert sample_acyclic_graphs(count, max_n, seed) == unbounded_sample(count, max_n, seed)


def test_sampler_gives_up_when_too_few_forests_exist():
    # Only 1, 7 and 44 forests exist on at most 2, 3 and 4 vertices.
    for count, max_n in ((2, 2), (8, 3), (45, 4)):
        proc = child("-c", "from pipedreams.suites import sample_acyclic_graphs as s; "
                           f"s({count}, {max_n}, 0)")
        assert proc.returncode == 1 and "ValueError" in proc.stderr, proc.stderr


@pytest.mark.parametrize("selector,n", [
    ("strategies", 1), ("strategies", 2), ("projection", 1), ("projection", 3), ("all", 3)])
def test_verify_small_rank_returns(selector, n):
    proc = child("-m", "pipedreams.cli", "verify", selector, "--n", str(n))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith(": pass") for line in lines)


def test_verify_all_rank_2_exits_2():
    proc = child("-m", "pipedreams.cli", "verify", "all", "--n", "2")
    assert proc.returncode == 2 and "realization needs n >= 3" in proc.stderr


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("selector,first_check", [
    ("all", "check_census"), ("realize", "verify_face_map")])
def test_realizing_selectors_refuse_low_rank_before_any_check(selector, first_check, n, monkeypatch):
    def called(n):
        raise AssertionError("a check ran before the rank was refused")

    monkeypatch.setattr(suites, first_check, called)
    with pytest.raises(ValueError, match="realization needs n >= 3"):
        suite(selector, n, None, 0)


# SHA-256 of the points the point-location sampler drew before its vertex
# list was hoisted out of the per-sample call: 40 points for each n = 3..6,
# from random.Random(n), one repr per line.
SAMPLED_POINTS_SHA256 = "769b61b617dd3ec4358415f0e631132ed4c895730188a734e584b02450694dc9"


def test_polytope_sampler_draws_the_recorded_points():
    h = hashlib.sha256()
    for n in range(3, 7):
        rng = random.Random(n)
        vertices = path_polytope_vertices(n)
        for _ in range(40):
            h.update(repr(sample_polytope_point(vertices, rng)).encode() + b"\n")
    assert h.hexdigest() == SAMPLED_POINTS_SHA256


# The four S_4 permutation checks of `verify all --n 4` when kernel outputs
# are corrupted at chosen permutations.  G^b_w is corrupted at two
# permutations, so each check that reads it must report the first.
# G^b_2143 + x1 is 1 too large at x = 1.
CORRUPTED_S4 = [
    {"name": "groth-h:S4", "ok": False,
     "details": {"w": "2143", "reason": "mismatch",
                 "diff": {"mismatched_terms": {"(0,)": {"left": "2", "right": "1"}}}}},
    {"name": "interior-h:S4", "ok": False,
     "details": {"w": "1432", "diff": {"mismatched_terms": {"(0,)": {"left": "2", "right": "1"}}}}},
    {"name": "pipe-dream-formula:S4", "ok": False,
     "details": {"w": "2143", "diff": {"mismatched_terms": {"(1, 0, 0, 0)": {"left": "0", "right": "1"}}}}},
    {"name": "nonneg:S4", "ok": False, "details": {"w": "3142", "poly": "b - 6"}},
]


def corrupt_at(fn, words, change):
    """`fn` with `change` applied to its output when its permutation
    argument is one of the permutations `words`.  Other arguments, such as
    a listing of pipe dreams, need not be hashable."""
    at = {parse_permutation(word) for word in words}

    def corrupted(*args):
        out = fn(*args)
        return change(out) if any(a in at for a in args if isinstance(a, Permutation)) else out
    return corrupted


def plus_x1(p):
    return p + MultiPolynomial.variable("x1", p.vars)


def test_permutation_checks_report_the_first_failure(monkeypatch):
    # +x1 at 2143 and 3412, and - 7 at 3142: G^b_w - 7 at x = 1 shifts to
    # (b + 1) - 7; groth-h and pipe-dream-formula have already failed at 2143
    corrupted = corrupt_at(corrupt_at(grothendieck.beta_grothendieck, ("2143", "3412"), plus_x1),
                           ("3142",), lambda p: p - 7)
    for module in (grothendieck, suites):
        monkeypatch.setattr(module, "beta_grothendieck", corrupted)
    # interior-h alone reads the pipe dream side at x = 1 with b -> x - 1
    interior = suites._Sides.interior.func
    monkeypatch.setattr(suites._Sides, "interior", property(
        lambda s: interior(s) + 1 if str(s.w) == "1432" else interior(s)))
    results = [r.to_jsonable() for r in suite("all", 4, None, 0) if r.name.endswith(":S4")]
    assert results == CORRUPTED_S4


@pytest.mark.parametrize("side,change", [
    ("beta_grothendieck", plus_x1),
    ("h_polynomial", lambda h: h + MultiPolynomial.variable("x", h.vars)),
])
def test_groth_h_fails_when_either_side_is_corrupted(side, change, monkeypatch):
    monkeypatch.setattr(suites, side, corrupt_at(getattr(suites, side), ("1432",), change))
    result = suites.verify_groth_h(parse_permutation("1432"))
    assert not result.ok
    assert result.details["reason"] == "mismatch"
    assert result.details["diff"]["mismatched_terms"]
    assert suites.verify_groth_h(parse_permutation("2143")).ok


@pytest.mark.parametrize("side", ["beta_grothendieck", "pipe_dream_beta_grothendieck"])
def test_pipe_dream_formula_fails_when_either_side_is_corrupted(side, monkeypatch):
    monkeypatch.setattr(suites, side, corrupt_at(getattr(suites, side), ("1432",), plus_x1))
    formula = dict(suites.PERMUTATION_CHECKS)["pipe-dream-formula"]
    details = formula(suites._Sides(parse_permutation("1432")))
    assert details is not None and details["diff"]["mismatched_terms"]
    assert formula(suites._Sides(parse_permutation("2143"))) is None


def test_permutation_checks_search_once_per_permutation(monkeypatch):
    """The complex is built from one search per permutation of S_4, and
    the pipe dream side from none."""
    calls = []

    def counted(w):
        calls.append(w)
        return enumerate_pipe_dreams(w)

    for module in (complexes, dreams, grothendieck):
        monkeypatch.setattr(module, "enumerate_pipe_dreams", counted)
    results = suites.check_permutations(4, suites.PERMUTATION_CHECKS)
    assert all(r.ok for r in results)
    assert len(calls) == 24


def test_pipe_dream_side_lists_no_pipe_dream(monkeypatch):
    """interior-h and pipe-dream-formula read the transfer, which runs no
    pipe dream search: with the search refused once the complex and its
    flip count are built, both pass on all of S_4, and the transfer equals
    the row count over the listing of Pipes(w)."""
    sides = [suites._Sides(Permutation(window)) for window in all_windows(4)]
    expected = [beta_grothendieck_per_dream(s.w) for s in sides]
    for s in sides:
        s.h

    def refused(w):
        raise AssertionError("the pipe dream side ran the search")

    for module in (complexes, dreams, grothendieck):
        monkeypatch.setattr(module, "enumerate_pipe_dreams", refused)
    checks = dict(suites.PERMUTATION_CHECKS)
    for s, pipe in zip(sides, expected):
        assert checks["interior-h"](s) is None, s.w
        assert checks["pipe-dream-formula"](s) is None, s.w
        assert s.pipe == pipe, s.w


def test_pipe_dream_formula_reads_the_nonreduced_dreams_of_the_listing(monkeypatch):
    """The pipe dream side counts every dream of the listing of Pipes(w),
    the nonreduced ones too: with one nonreduced dream of 1432 taken out
    of the transfer, pipe-dream-formula fails at 1432, and so does
    interior-h, which reads the same side; the complex needs only the
    reduced dreams, so groth-h still passes."""
    w = parse_permutation("1432")
    dropped = enumerate_pipe_dreams(w)[-1]
    assert dropped.size > w.length()
    exps = [0] * w.n
    for r, _ in dropped.crosses:
        exps[r - 1] += 1
    exps[-1] = dropped.size - w.length()
    assert suites._Sides(w).pipe == beta_grothendieck_per_dream(w)
    transfer = suites.pipe_dream_beta_grothendieck

    def without_dropped(u):
        G = transfer(u)
        return G - MultiPolynomial(G.vars, [(tuple(exps), 1)]) if u == w else G

    monkeypatch.setattr(suites, "pipe_dream_beta_grothendieck", without_dropped)
    results = {r.name: r for r in suites.check_permutations(4, suites.PERMUTATION_CHECKS)}
    formula = results["pipe-dream-formula:S4"]
    assert not formula.ok and formula.details["w"] == "1432" and formula.details["diff"]["mismatched_terms"]
    assert not results["interior-h:S4"].ok and results["interior-h:S4"].details["w"] == "1432"
    assert results["groth-h:S4"].ok and results["nonneg:S4"].ok


def all_of_s1_to_s5():
    return [Permutation(window) for n in range(1, 6) for window in all_windows(n)]


def test_sides_shift_substitutes_once(monkeypatch):
    """Each side of G^b_w at x = 1, shifted, is one substitute call after
    the coefficient sum, on all of S_1..S_5: G^b_w(1) with b -> b - 1
    equals the two-pass oracle on the search's G^b_w(1), and the pipe dream
    side with b -> x - 1 equals the substitution that sets every x_i to 1
    in the same call."""
    calls = []
    substitute = MultiPolynomial.substitute

    def counted(self, images, target_vars):
        calls.append(tuple(target_vars))
        return substitute(self, images, target_vars)

    x = MultiPolynomial.variable("x", ("x",))
    for w in all_of_s1_to_s5():
        sides = suites._Sides(w)
        sides.G, sides.pipe
        for name, target in (("shifted", ("b",)), ("interior", ("x",))):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(MultiPolynomial, "substitute", counted)
                getattr(sides, name)
            assert calls == [target], (w, name)
        assert sides.shifted == shifted_groth_beta(groth_beta(w)), w
        pipe = sides.pipe
        assert sides.interior == pipe.substitute({**dict.fromkeys(pipe.vars[:-1], 1), "b": x - 1}, ("x",)), w


def test_verify_all_builds_no_double_polynomial(monkeypatch):
    def refused(w):
        raise AssertionError("verify all built a double polynomial")

    monkeypatch.setattr(grothendieck, "double_grothendieck", refused)
    # suites imports no double builder today; this catches one it would
    monkeypatch.setattr(suites, "double_grothendieck", refused, raising=False)
    results = suite("all", 4, None, 0)
    assert results and all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_unimodularity_check_can_fail(monkeypatch):
    """A simplex that is not unimodular is a failed check, not an input
    error, though canonical_triangulation would refuse it."""
    for module in (polytopes, suites):
        monkeypatch.setattr(module, "is_unimodular", lambda S: False)
    result = check_unimodularity(4)
    assert not result.ok
    assert result.details == {"simplices": 5}


def test_point_location_check_can_fail(monkeypatch):
    """With one tree's simplex missing, some sampled point of the path root
    polytope lies in no simplex left."""
    trees = noncrossing_alternating_trees(4)
    monkeypatch.setattr(suites, "noncrossing_alternating_trees", lambda n: trees[1:])
    result = check_point_location(4, seed=0, samples=200)
    assert not result.ok
    assert set(result.details) == {"sample", "point"}


def test_intersections_check_can_fail(monkeypatch):
    """A crossing spanning tree in place of a noncrossing alternating one
    meets some canonical simplex in more than their common face."""
    crossing = AcyclicGraph(4, ((1, 3), (2, 4), (3, 4)))
    trees = (*noncrossing_alternating_trees(4)[:-1], crossing)
    monkeypatch.setattr(suites, "noncrossing_alternating_trees", lambda n: trees)
    result = check_intersections(4, seed=0, pairs=10)
    assert not result.ok
    assert str(crossing) in result.details["trees"]
