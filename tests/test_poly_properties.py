"""Property tests for `MultiPolynomial.substitute`: agreement with the
per-term oracle in `oracles.py`, and the ring laws of substitution."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from oracles import substitute_per_term
from pipedreams.poly import MultiPolynomial

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

# Source names; "b" is also a target name, so b -> b - 1 keeps both apart.
SOURCE = ("x1", "x2", "y1", "y2", "b")
TARGETS = (("q", "b"), ("q", "t", "b"), ("b",), ("t",), ())
coefs = st.integers(-3, 3).filter(bool)


@st.composite
def polys(draw, vars, max_terms=6, max_exp=3, absent=()):
    """A random polynomial over `vars`; names in `absent` get exponent 0."""
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exps = tuple(0 if v in absent else draw(st.integers(0, max_exp)) for v in vars)
        terms[exps] = draw(coefs)
    return MultiPolynomial(vars, terms)


@st.composite
def images_for(draw, sources, target, wrong=True):
    """An image per source name: unmapped, an int (0 included), a polynomial
    over `target` with zero, one or several terms, or (if `wrong`) one over
    other variables."""
    choices = ["unmapped", "int", "poly", "poly", "poly"] + (["wrong"] if wrong else [])
    out = {}
    for v in sources:
        kind = draw(st.sampled_from(choices))
        if kind == "int":
            out[v] = draw(st.integers(-2, 2))
        elif kind == "poly":
            out[v] = draw(polys(target, max_terms=3, max_exp=2))
        elif kind == "wrong":
            out[v] = draw(polys(target + ("w",), max_terms=2, max_exp=1))
    return out


def outcome(p, images, target, substitute):
    """The result's terms, or the type of the exception raised."""
    try:
        r = substitute(p, images, target)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    assert r.vars == tuple(target)
    return r.terms


def assert_matches_oracle(p, images, target):
    got = outcome(p, images, target, MultiPolynomial.substitute)
    want = outcome(p, images, target, substitute_per_term)
    assert got == want


@st.composite
def cases(draw):
    target = draw(st.sampled_from(TARGETS))
    sources = tuple(v for v in SOURCE if draw(st.booleans()))
    wrong = draw(st.integers(0, 3)) == 0
    return draw(polys(sources)), draw(images_for(sources, target, wrong)), target


@PROPERTY
@given(cases())
def test_substitute_matches_per_term_oracle(case):
    assert_matches_oracle(*case)


@PROPERTY
@given(st.data())
def test_carried_through_and_shifted_variables(data):
    """Unmapped names present in the target are carried through, and an
    image naming a source variable (b -> b - 1) is applied exactly once."""
    target = ("q", "b")
    q = MultiPolynomial.variable("q", target)
    b = MultiPolynomial.variable("b", target)
    shift = data.draw(st.sampled_from([b - 1, b + q, 2 * b - q + 1, b * q]))
    images = {"x1": q, "y1": q - 1, "b": shift}
    p = data.draw(polys(("x1", "y1", "q", "b")))
    assert_matches_oracle(p, images, target)


@PROPERTY
@given(st.data())
def test_absent_variable_needs_no_image(data):
    """A name with exponent 0 everywhere needs no image and need not be in
    the target, even when its image is over the wrong variables."""
    target = ("q", "b")
    vars = ("x1", "z", "b")
    p = data.draw(polys(vars, absent=("z",)))
    images = data.draw(valid_images(("x1", "b"), target))
    if data.draw(st.booleans()):
        images["z"] = MultiPolynomial.variable("w", ("w",))
    assert_matches_oracle(p, images, target)
    p.substitute(images, target)


@pytest.mark.parametrize("image", [
    MultiPolynomial.variable("w", ("w", "b")),
    MultiPolynomial(("q",)),
    None,
])
def test_wrong_variable_image_raises_only_when_used(image):
    target = ("q", "b")
    images = {"b": MultiPolynomial.variable("b", target)}
    if image is not None:
        images["z"] = image
    unused = MultiPolynomial(("z", "b"), {(0, 2): 3, (0, 0): 1})
    used = unused + MultiPolynomial(("z", "b"), {(1, 1): 1})
    assert unused.substitute(images, target) == substitute_per_term(unused, images, target)
    with pytest.raises(ValueError):
        used.substitute(images, target)
    with pytest.raises(ValueError):
        substitute_per_term(used, images, target)


@st.composite
def valid_images(draw, sources, target):
    """Images that never raise: unmapped only where the target has the name."""
    out = draw(images_for(sources, target, wrong=False))
    for v in sources:
        if v not in out and v not in target:
            out[v] = draw(st.integers(-2, 2))
    return out


@PROPERTY
@given(st.data())
def test_substitution_is_a_ring_homomorphism(data):
    target = data.draw(st.sampled_from(TARGETS))
    images = data.draw(valid_images(SOURCE, target))
    p = data.draw(polys(SOURCE, max_terms=4, max_exp=2))
    r = data.draw(polys(SOURCE, max_terms=4, max_exp=2))

    def sub(f):
        return f.substitute(images, target)

    assert sub(p + r) == sub(p) + sub(r)
    assert sub(p * r) == sub(p) * sub(r)


def as_polynomial(image, name, target):
    if image is None:
        return MultiPolynomial.variable(name, target)
    if isinstance(image, int):
        return MultiPolynomial.constant(image, target)
    return image


@PROPERTY
@given(st.data())
def test_substitutions_compose(data):
    middle = ("q", "t", "b")
    target = data.draw(st.sampled_from(TARGETS))
    first = data.draw(valid_images(SOURCE, middle))
    second = data.draw(valid_images(middle, target))
    p = data.draw(polys(SOURCE, max_terms=4, max_exp=2))
    composed = {
        v: as_polynomial(first.get(v), v, middle).substitute(second, target)
        for v in SOURCE
    }
    assert (p.substitute(first, middle).substitute(second, target)
            == p.substitute(composed, target))
