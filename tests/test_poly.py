"""Polynomial arithmetic, substitution, and serialization."""

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
     r"exponent vector \[1\] is listed twice"),
    ({"vars": ["b", "b"], "terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}]},
     "variable 'b' is listed twice"),
    ({"vars": ["b"], "terms": [{"exp": [1.5], "coef": "1"}]},
     "exponent 1.5 in"),
    ({"vars": ["b"], "terms": [{"exp": [1], "coef": 2.7}]},
     "coefficient 2.7 is not"),
    ({"vars": ["b"], "terms": [{"exp": [1], "coef": "0"}]},
     "coefficient '0' is not"),
    ({"vars": [1], "terms": [{"exp": [2], "coef": "3"}]},
     "variable 1 is not a string"),
], ids=["like-terms-unmerged", "variable-twice", "fractional-exponent",
        "fractional-coefficient", "zero-coefficient", "variable-not-a-string"])
def test_json_refuses_what_no_polynomial_writes(data, named):
    """A polynomial read from JSON is refused, with the fault named, when
    two terms share an exponent vector (b + 2b would read as 2*b), a
    variable is listed twice (b + b, unequal to 2*b), an exponent is not
    an integer (b^1.5), a coefficient is not the decimal string of a
    nonzero integer (2.7 would read as 2, and "0" would be dropped), or a
    variable is not a string (3*1^2 would print)."""
    with pytest.raises(ValueError, match=named):
        MultiPolynomial.from_jsonable(data)


def test_poly_diff_reports_mismatches():
    x, y = var("x"), var("y")
    d = poly_diff(x + y, x - y)
    assert len(d["mismatched_terms"]) == 1


def test_big_coefficients_stay_exact():
    x = var("x", ("x",))
    p = (x + 1) ** 64
    assert p.coefficient_vector()[32] == 1832624140942590534  # comb(64, 32)
