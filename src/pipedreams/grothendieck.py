"""Double beta-Grothendieck polynomials from pipe dreams and their
specializations.

The double beta-Grothendieck polynomial of w is the sum over all pipe
dreams P of w of b^codim(P) times the product of (x_r - y_c) over the
crosses (r, c) of P, where codim(P) is the number of crosses beyond l(w):
the generating polynomial of Pipes(w) over one variable z_(r,c) per
staircase box, expanded by one substitution z_(r,c) -> x_r - y_c.
Setting b = -1 recovers the double Grothendieck polynomial; all x to q
and all y to t collapses every product to a power of (q - t); x = 1,
y = 0 leaves the generating function of pipe dreams by codimension.
"""

from __future__ import annotations

from .dreams import enumerate_pipe_dreams, staircase_boxes
from .perms import Permutation
from .poly import MultiPolynomial

QT_VARS = ("q", "t", "b")


def xy_beta_vars(n: int) -> tuple[str, ...]:
    """Variables of a rank-n double polynomial: x1.., y1.., then b last."""
    return tuple(
        [f"x{i}" for i in range(1, n)] + [f"y{j}" for j in range(1, n)] + ["b"]
    )


def double_beta_grothendieck(w: Permutation) -> MultiPolynomial:
    """Sum over Pipes(w) of b^codim * product of (x_r - y_c) over crosses.

    >>> print(double_beta_grothendieck(Permutation((2, 1))))
    x1 - y1
    """
    vars = xy_beta_vars(w.n)
    boxes = staircase_boxes(w.n)
    images = {
        f"z{r},{c}": MultiPolynomial.variable(f"x{r}", vars)
        - MultiPolynomial.variable(f"y{c}", vars)
        for r, c in boxes
    }
    l = w.length()
    generating = MultiPolynomial((*images, "b"), (
        (tuple(int(box in P.crosses) for box in boxes) + (P.size - l,), 1)
        for P in enumerate_pipe_dreams(w)
    ))
    return generating.substitute(images, vars)


def double_grothendieck(w: Permutation) -> MultiPolynomial:
    """The b = -1 specialization, over the x, y variables only."""
    vars = xy_beta_vars(w.n)
    target = vars[:-1]
    return double_beta_grothendieck(w).substitute({"b": -1}, target)


def specialize_qt(w: Permutation, beta: MultiPolynomial) -> MultiPolynomial:
    """All x set to q, all y set to t: every product collapses to
    (q-t)^size, so this is (q-t)^l(w) * beta at b -> b(q-t), with
    beta = groth_beta(w)."""
    q = MultiPolynomial.variable("q", QT_VARS)
    t = MultiPolynomial.variable("t", QT_VARS)
    b = MultiPolynomial.variable("b", QT_VARS)
    qt = q - t
    return qt ** w.length() * beta.substitute({"b": b * qt}, QT_VARS)


def groth_beta(w: Permutation) -> MultiPolynomial:
    """x = 1, y = 0 specialization: the codimension generating function
    sum over Pipes(w) of b^codim.

    >>> print(groth_beta(Permutation((1, 4, 3, 2))))
    b^2 + 5*b + 5
    """
    l = w.length()
    return MultiPolynomial(("b",), (((P.size - l,), 1) for P in enumerate_pipe_dreams(w)))


def shifted_groth_beta(beta: MultiPolynomial) -> MultiPolynomial:
    """beta = groth_beta(w) with b -> b - 1 applied; equals the
    h-polynomial of the pipe dream complex of w in the variable b."""
    b = MultiPolynomial.variable("b", ("b",))
    return beta.substitute({"b": b - 1}, ("b",))
