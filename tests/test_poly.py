"""Polynomial arithmetic, substitution, and serialization."""

import re

import pytest

from pipedreams.poly import MultiPolynomial, poly_diff

XY = ("x", "y")


def var(name, vars=XY):
    return MultiPolynomial.variable(name, vars)


def test_product_difference_of_squares():
    x, y = var("x"), var("y")
    assert (x - y) * (x + y) == x * x - y * y


def test_zero_coefficients_dropped():
    x = var("x")
    p = x - x
    assert p.terms == {} and not p
    assert p == MultiPolynomial(XY)


def test_pow_matches_repeated_multiplication():
    x, y = var("x"), var("y")
    p = x + 2 * y + 1
    q = MultiPolynomial.one(XY)
    for _ in range(5):
        q = q * p
    assert p**5 == q
    assert p**0 == MultiPolynomial.one(XY)


def test_variable_mismatch_raises():
    with pytest.raises(ValueError):
        var("x", ("x",)) + var("y", ("y",))


def test_degree_and_constants():
    x, y = var("x"), var("y")
    assert (x**3 * y + y).degree() == 4
    assert MultiPolynomial(XY).degree() == -1
    five = MultiPolynomial.constant(5, XY)
    assert five.degree() == 0 and five.terms == {(0, 0): 5}
    assert (x + five).degree() == 1


def test_substitute_shift():
    b = MultiPolynomial.variable("b", ("b",))
    p = b**2 + 5 * b + 5
    shifted = p.substitute({"b": b - 1}, ("b",))
    assert shifted == b**2 + 3 * b + 1


def test_substitute_across_variable_sets():
    x, y = var("x"), var("y")
    p = x**2 - y
    q = MultiPolynomial.variable("q", ("q",))
    image = p.substitute({"x": q, "y": q - 1}, ("q",))
    assert image == q**2 - q + 1


def test_substitute_constant():
    x, y = var("x"), var("y")
    p = (x - y) ** 3
    assert p.substitute({"x": 2, "y": 1}, ()) == MultiPolynomial.constant(1, ())


def test_rename():
    x = var("x", ("x",))
    assert x.rename({"x": "b"}).vars == ("b",)
    with pytest.raises(ValueError):
        (var("x") * var("y")).rename({"x": "y"})


def test_evaluate():
    x, y = var("x"), var("y")
    p = x**2 * y - 3 * y + 7
    assert p.substitute({"x": 2, "y": 5}, ()) == MultiPolynomial.constant(20 - 15 + 7, ())


def test_coefficient_vector():
    b = MultiPolynomial.variable("b", ("b",))
    assert (b**2 + 5 * b + 5).coefficient_vector() == (5, 5, 1)


def test_str_formats():
    b = MultiPolynomial.variable("b", ("b",))
    assert str(b**2 + 5 * b + 5) == "b^2 + 5*b + 5"
    x, y = var("x1", ("x1", "y1")), var("y1", ("x1", "y1"))
    assert str(x - y) == "x1 - y1"
    assert str(MultiPolynomial(XY)) == "0"


def test_json_round_trip():
    x, y = var("x"), var("y")
    p = (x - y) ** 4 - 123456789012345678901234567890 * x
    data = p.to_jsonable()
    assert all(isinstance(t["coef"], str) for t in data["terms"])
    assert MultiPolynomial.from_jsonable(data) == p


@pytest.mark.parametrize("data,named", [
    ({"vars": ["b"], "terms": [{"exp": [1], "coef": "1"}, {"exp": [1], "coef": "2"}]},
     """MultiPolynomial: $['terms'] reads [{"exp": [1], "coef": "1"}, {"exp": [1], "coef": "2"}] """
     """but writes [{"exp": [1], "coef": "3"}]"""),
    ({"vars": ["b", "b"], "terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}]},
     "MultiPolynomial: ValueError: variables ('b', 'b') name one variable twice"),
    ({"vars": ["b"], "terms": [{"exp": [1.5], "coef": "1"}]},
     "MultiPolynomial: $['terms'][0]['exp'][0] reads 1.5 but writes 1"),
    ({"vars": ["b"], "terms": [{"exp": [1], "coef": 2.7}]},
     "MultiPolynomial: $['terms'][0]['coef'] reads 2.7 but writes \"2\""),
    ({"vars": ["b"], "terms": [{"exp": [1], "coef": "0"}]},
     """MultiPolynomial: $['terms'] reads [{"exp": [1], "coef": "0"}] but writes []"""),
    ({"vars": [1], "terms": [{"exp": [2], "coef": "3"}]},
     "MultiPolynomial: $['vars'][0] reads 1 but writes \"1\""),
], ids=["like-terms-unmerged", "variable-twice", "fractional-exponent",
        "fractional-coefficient", "zero-coefficient", "variable-not-a-string"])
def test_json_refuses_what_no_polynomial_writes(data, named):
    """A polynomial read from JSON is refused, with the type and the first
    path at which it differs from what it writes back named, when two terms
    share an exponent vector (b + 2b would read as 3*b), an exponent is
    not an integer (b^1.5), a coefficient is not the decimal string of a
    nonzero integer (2.7 would read as 2, and "0" would be dropped), or a
    variable is not a string (3*1^2 would print); and with the
    constructor's fault named when a variable is listed twice."""
    with pytest.raises(ValueError, match=re.escape(named)):
        MultiPolynomial.from_jsonable(data)


def test_a_variable_listed_twice_is_refused():
    """b + b over the variables (b, b) would print unequal to 2*b."""
    with pytest.raises(ValueError, match=re.escape("variables ('b', 'b') name one variable twice")):
        MultiPolynomial(("b", "b"), {(1, 0): 1})
    data = {"vars": ["b", "b"], "terms": [{"exp": [1, 0], "coef": "1"}]}
    with pytest.raises(ValueError, match=re.escape("MultiPolynomial: ValueError: variables ('b', 'b')")):
        MultiPolynomial.from_jsonable(data)


def test_a_variable_that_is_not_a_string_is_refused():
    """3*1^2 would print, and write a text that reads back unequal."""
    with pytest.raises(ValueError, match=re.escape("variable 1 is not a string")):
        MultiPolynomial((1,), {(2,): 3})
    with pytest.raises(ValueError, match=re.escape("variable None is not a string")):
        MultiPolynomial(("b", None))


def test_poly_diff_reports_mismatches():
    x, y = var("x"), var("y")
    d = poly_diff(x + y, x - y)
    assert len(d["mismatched_terms"]) == 1


def test_big_coefficients_stay_exact():
    x = var("x", ("x",))
    p = (x + 1) ** 64
    assert p.coefficient_vector()[32] == 1832624140942590534  # comb(64, 32)
