"""Property tests for `MultiPolynomial` arithmetic: `+` and `*` agree with
the collect-then-filter oracles in `oracles.py`, the ring laws hold, and no
term with coefficient zero is ever stored, also after cancellation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import add_terms, mul_terms, substitute_per_term
from pipedreams.poly import MultiPolynomial

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

VARS = ("x", "y", "b")
TARGET = ("t", "b")
# Small coefficients and exponents, so that terms meet and cancel often.
coefs = st.integers(-2, 2).filter(bool)
exponents = st.tuples(*[st.integers(0, 2)] * len(VARS))


@st.composite
def polys(draw, max_terms=5):
    """A random polynomial, built from a list of terms that may repeat an
    exponent vector (so the constructor merges, and may cancel)."""
    return MultiPolynomial(VARS, draw(st.lists(st.tuples(exponents, coefs), max_size=max_terms)))


@st.composite
def cancelling(draw):
    """A polynomial and another that holds the negation of some of its terms."""
    p = draw(polys())
    shared = draw(st.lists(st.sampled_from(sorted(p.terms)), unique=True)) if p.terms else []
    return p, MultiPolynomial(VARS, {e: -p.terms[e] for e in shared}) + draw(polys())


def assert_no_zero(p):
    assert 0 not in p.terms.values()


@PROPERTY
@given(cancelling())
def test_add_and_mul_match_oracle(pq):
    p, q = pq
    for r, want in ((p + q, add_terms(p, q)), (p * q, mul_terms(p, q))):
        assert r.vars == VARS
        assert r.terms == want
        assert_no_zero(r)


@PROPERTY
@given(polys(), st.integers(-2, 2))
def test_int_operands_match_oracle(p, k):
    const = MultiPolynomial.constant(k, VARS)
    for r, want in ((p + k, add_terms(p, const)), (k + p, add_terms(p, const)),
                    (p * k, mul_terms(p, const)), (k * p, mul_terms(p, const))):
        assert r.terms == want
        assert_no_zero(r)
    assert (p - k).terms == add_terms(p, -const)
    assert (k - p).terms == add_terms(-p, const)


@PROPERTY
@given(cancelling(), polys())
def test_ring_laws(pq, r):
    p, q = pq
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p


@PROPERTY
@given(polys())
def test_difference_with_itself_is_zero(p):
    zero = MultiPolynomial(VARS)
    for r in (p - p, p + (-p), -p + p, p * 0, 0 * p):
        assert r == zero
        assert r.terms == {} and not r


@PROPERTY
@given(cancelling())
def test_degree_of_product_is_sum_of_degrees(pq):
    p, q = pq
    if p and q:
        assert (p * q).degree() == p.degree() + q.degree()
    else:
        assert (p * q).degree() == -1


@PROPERTY
@given(polys(max_terms=3), st.integers(0, 4))
def test_power_matches_repeated_multiplication(p, k):
    want = MultiPolynomial.one(VARS)
    for _ in range(k):
        want = want * p
    assert p**k == want
    assert_no_zero(p**k)


t = MultiPolynomial.variable("t", TARGET)
b = MultiPolynomial.variable("b", TARGET)
# Images under which distinct terms meet: x and y both go to t (so x - y
# vanishes), b to a shift, a negation or zero.
IMAGES = st.fixed_dictionaries({
    "x": st.sampled_from([t, t + 1, 1]),
    "y": st.sampled_from([t, -t, t - b]),
    "b": st.sampled_from([b, b - 1, -b, 0, b * t]),
})


@PROPERTY
@given(polys(max_terms=6), IMAGES)
def test_substitute_stores_no_zero(p, images):
    r = p.substitute(images, TARGET)
    assert r == substitute_per_term(p, images, TARGET)
    assert_no_zero(r)
