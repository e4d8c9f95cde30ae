"""Grothendieck polynomials and their specializations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    beta_grothendieck_per_dream,
    double_beta_grothendieck_per_dream,
    h_from_interior,
    shifted_groth_beta,
    xy_beta_vars,
)
from pipedreams import grothendieck
from pipedreams.complexes import build_pdc, h_polynomial
from pipedreams.grothendieck import (
    QT_VARS,
    beta_grothendieck,
    double_grothendieck,
    groth_beta,
    pipe_dream_beta_grothendieck,
    specialize_qt,
)
from pipedreams.perms import (
    Permutation,
    all_windows,
    catalan_permutation,
    identity_window,
    parse_permutation,
)
from pipedreams.poly import MultiPolynomial
from pipedreams.suites import verify_groth_h

W1432 = Permutation((1, 4, 3, 2))


def qt(name):
    return MultiPolynomial.variable(name, QT_VARS)


def at_minus_one(g):
    """A b-graded polynomial, b last, at b = -1 over its other variables."""
    return g.substitute({"b": -1}, g.vars[:-1])


def test_identity_is_one():
    w = Permutation(identity_window(3))
    assert double_grothendieck(w) == MultiPolynomial.one(xy_beta_vars(3)[:-1])
    assert groth_beta(w) == MultiPolynomial.one(("b",))
    assert specialize_qt(w, groth_beta(w)) == MultiPolynomial.one(QT_VARS)


def test_simple_transposition():
    w = Permutation((2, 1))
    vars = xy_beta_vars(2)[:-1]
    x1 = MultiPolynomial.variable("x1", vars)
    y1 = MultiPolynomial.variable("y1", vars)
    assert double_grothendieck(w) == x1 - y1
    assert specialize_qt(w, groth_beta(w)) == qt("q") - qt("t")


@pytest.mark.parametrize("n", range(1, 6))
def test_double_beta_matches_per_dream_expansion_on_all_of_rank(n):
    """double_grothendieck is the b-graded sum, each pipe dream's product
    expanded on its own, at b = -1."""
    for window in all_windows(n):
        w = Permutation(window)
        assert double_grothendieck(w) == at_minus_one(double_beta_grothendieck_per_dream(w)), w


@pytest.mark.parametrize("text", ["654321", "321654", "132465"])
def test_double_beta_matches_per_dream_expansion_at_rank_6(text):
    w = parse_permutation(text)
    assert double_grothendieck(w) == at_minus_one(double_beta_grothendieck_per_dream(w))


@pytest.mark.parametrize("n", range(2, 6))
def test_longest_element_is_the_staircase_product(n):
    """The full staircase is the only pipe dream of w0, so its polynomial
    is the product of (x_r - y_c) over r + c <= n, unsigned."""
    vars = xy_beta_vars(n)[:-1]
    expected = MultiPolynomial.one(vars)
    for r in range(1, n):
        for c in range(1, n + 1 - r):
            expected = expected * (
                MultiPolynomial.variable(f"x{r}", vars) - MultiPolynomial.variable(f"y{c}", vars)
            )
    w0 = Permutation(tuple(range(n, 0, -1)))
    assert double_grothendieck(w0) == expected


def test_double_beta_1432_at_y0():
    """Frozen from the 5/5/1 census with hand-checked row monomials, each
    signed (-1)^codim."""
    g = double_grothendieck(W1432)
    vars = g.vars
    target = tuple(v for v in vars if not v.startswith("y"))
    y0 = g.substitute({v: 0 for v in vars if v.startswith("y")}, target)

    def mono(x1, x2, x3):
        return MultiPolynomial(target, {(x1, x2, x3): 1})

    expected = (
        # reduced: the Schubert monomials
        mono(2, 1, 0) + mono(2, 0, 1) + mono(1, 2, 0)
        + mono(1, 1, 1) + mono(0, 2, 1)
        # one extra cross
        - mono(2, 2, 0) - 2 * mono(2, 1, 1) - 2 * mono(1, 2, 1)
        # two extra crosses
        + mono(2, 2, 1)
    )
    assert y0 == expected


def test_double_grothendieck_is_beta_minus_one():
    """Every x set to q and every y to t, the double polynomial is the
    b-graded count of Pipes(w) by codimension in that form, at b = -1:
    specialize_qt(w, groth_beta(w)), on all of S_1..S_5 and on 654321."""
    ws = [Permutation(window) for n in range(1, 6) for window in all_windows(n)]
    for w in ws + [parse_permutation("654321")]:
        g = double_grothendieck(w)
        images = {v: qt("q") if v.startswith("x") else qt("t") for v in g.vars}
        expected = specialize_qt(w, groth_beta(w)).substitute({"b": -1}, QT_VARS)
        assert g.substitute(images, QT_VARS) == expected, w


def test_double_grothendieck_lists_and_substitutes_nothing(monkeypatch):
    """The double polynomial is read from the staircase transfer: with the
    listing of Pipes(w) and every substitution made to raise, it is still
    the per-dream oracle's b-graded sum at b = -1."""
    expected = at_minus_one(double_beta_grothendieck_per_dream(W1432))

    def refused(*args, **kwargs):
        raise AssertionError("double_grothendieck must not call this")

    monkeypatch.setattr(grothendieck, "enumerate_pipe_dreams", refused)
    monkeypatch.setattr(MultiPolynomial, "substitute", refused)
    assert double_grothendieck(W1432) == expected


def test_specialize_qt_1432():
    q, t, b = qt("q"), qt("t"), qt("b")
    d = q - t
    assert specialize_qt(W1432, groth_beta(W1432)) == d**3 * (5 + 5 * b * d + b**2 * d**2)


def test_qt_matches_direct_substitution_on_s4():
    q, t, b = qt("q"), qt("t"), qt("b")
    for window in all_windows(4):
        w = Permutation(window)
        g = double_beta_grothendieck_per_dream(w)
        images = {v: (q if v.startswith("x") else t) for v in g.vars[:-1]}
        images["b"] = b
        assert g.substitute(images, QT_VARS) == specialize_qt(w, groth_beta(w))


def single_vars(n):
    return tuple([f"x{i}" for i in range(1, n)] + ["b"])


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_grothendieck_matches_pipe_dreams_on_all_of_rank(n):
    for window in all_windows(n):
        w = Permutation(window)
        assert beta_grothendieck(w) == beta_grothendieck_per_dream(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_pipe_dream_side_matches_per_dream_sum_on_all_of_rank(n):
    """The transfer equals the row count over the listing of Pipes(w)."""
    for window in all_windows(n):
        w = Permutation(window)
        assert pipe_dream_beta_grothendieck(w) == beta_grothendieck_per_dream(w)


@pytest.mark.parametrize("n", [7, 8])
def test_pipe_dream_side_matches_per_dream_sum_on_catalan(n):
    """On 1 n ... 2 past the ranks checked whole."""
    w = catalan_permutation(n)
    assert pipe_dream_beta_grothendieck(w) == beta_grothendieck_per_dream(w)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.permutations(range(1, 8)))
def test_beta_grothendieck_matches_pipe_dreams_at_rank_7(window):
    w = Permutation(tuple(window))
    assert beta_grothendieck(w) == beta_grothendieck_per_dream(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_grothendieck_ends_of_the_chain(n):
    """G^b_w0 is the staircase monomial x^delta, and G^b_id is 1."""
    vars = single_vars(n)
    delta = tuple(range(n - 1, 0, -1)) + (0,)
    assert beta_grothendieck(Permutation(tuple(range(n, 0, -1)))) == MultiPolynomial(vars, {delta: 1})
    assert beta_grothendieck(Permutation(identity_window(n))) == MultiPolynomial.one(vars)


@pytest.mark.parametrize("n", range(1, 5))
def test_beta_grothendieck_is_the_double_polynomial_at_y0(n):
    """G^b_w is the b-graded double sum of the per-dream oracle at y = 0."""
    for window in all_windows(n):
        w = Permutation(window)
        g = double_beta_grothendieck_per_dream(w)
        y0 = g.substitute({v: 0 for v in g.vars if v.startswith("y")}, single_vars(n))
        assert beta_grothendieck(w) == y0


def test_double_grothendieck_at_y0_is_beta_grothendieck_at_minus_one():
    """The printed double polynomial at y = 0 is G^b_w from divided
    differences at b = -1, on all of S_1..S_5: no pipe dream on that side."""
    for n in range(1, 6):
        x_vars = single_vars(n)[:-1]
        for window in all_windows(n):
            w = Permutation(window)
            g = double_grothendieck(w)
            y0 = g.substitute({v: 0 for v in g.vars if v.startswith("y")}, x_vars)
            assert y0 == at_minus_one(beta_grothendieck(w)), w


def test_beta_grothendieck_refuses_a_term_in_xn(monkeypatch):
    """The last divided difference is made to leave x3 behind: the kernel
    raises instead of dropping it."""
    step = grothendieck._isobaric

    def leaky(terms, i):
        out = step(terms, i)
        out[(0, 0, 1, 0)] = 1
        return out

    monkeypatch.setattr(grothendieck, "_isobaric", leaky)
    with pytest.raises(ArithmeticError, match="x3"):
        beta_grothendieck(Permutation((1, 3, 2)))


def test_groth_beta_examples():
    b = MultiPolynomial.variable("b", ("b",))
    assert groth_beta(W1432) == b**2 + 5 * b + 5
    assert groth_beta(Permutation(identity_window(4))) == MultiPolynomial.one(("b",))
    # two independent routes, frozen: enumeration census and the
    # Narayana h-vector transform both give this polynomial
    assert groth_beta(Permutation((1, 5, 4, 3, 2))) == b**3 + 9 * b**2 + 21 * b + 14


def test_groth_beta_matches_interior_h():
    for n in (3, 4, 5):
        w = catalan_permutation(n)
        assert groth_beta(w) == h_from_interior(build_pdc(w), w)


def test_homogeneity_on_s4():
    """A pipe dream with l(w) + k crosses gives terms of degree l(w) + k,
    signed (-1)^k times -1 per power of a y, so no two terms cancel: every
    term of the double polynomial has degree at least l(w) and that sign."""
    for window in all_windows(4):
        w = Permutation(window)
        l = w.length()
        g = double_grothendieck(w)
        for exps, c in g.terms.items():
            degree, y_degree = sum(exps), sum(exps[3:])
            assert degree >= l and c * (-1) ** (degree - l + y_degree) > 0, (w, exps)


def test_verify_groth_h_examples():
    r = verify_groth_h(W1432)
    assert r.ok and r.details["h"] == "b^2 + 3*b + 1"
    assert verify_groth_h(Permutation((2, 1))).ok
    # degenerate longest element
    assert verify_groth_h(Permutation((4, 3, 2, 1))).ok


def test_verify_groth_h_all_s4():
    for window in all_windows(4):
        assert verify_groth_h(Permutation(window)).ok


def test_shifted_groth_beta_equals_h():
    for window in all_windows(4):
        w = Permutation(window)
        h = h_polynomial(build_pdc(w), w).rename({"x": "b"})
        assert shifted_groth_beta(groth_beta(w)) == h


def test_nonnegativity_on_s4():
    for window in all_windows(4):
        shifted = shifted_groth_beta(groth_beta(Permutation(window)))
        assert all(c >= 0 for c in shifted.terms.values())
