"""Grothendieck polynomials: the double one from pipe dreams, the single
beta one from isobaric divided differences, and their specializations.

The double Grothendieck polynomial is the sum over the pipe dreams P of w
of (-1)^codim(P) times the product of (x_r - y_c) over the crosses (r, c)
of P, codim(P) being the number of crosses beyond l(w): the pipe dream
formula at beta = -1 (Fomin-Kirillov 1994; Knutson-Miller 2005).
`groth_beta` counts Pipes(w) by codimension, and `specialize_qt` sets every
x to q and every y to t in the b-graded sum through that count.  The pipe
dream formula's sides of the double and the single polynomial read the
staircase transfer of `dreams` with one key per monomial, packed one
base-n digit per variable, and list no pipe dream.

The single polynomial G^b_w comes from the algebraic definition, with no
pipe dream: G^b_w0 = x1^(n-1) x2^(n-2) ... x(n-1), and whenever
w(i) > w(i+1), G^b_(w s_i) = pi_i G^b_w with the isobaric divided
difference pi_i f = d_i((1 + b*x(i+1)) f) (Lascoux-Schutzenberger 1982;
Fomin-Kirillov 1994).  At b = -1 it equals the double polynomial at y = 0.
"""

from __future__ import annotations

from collections import Counter

from .dreams import enumerate_pipe_dreams, refuse_past_limit, staircase_boxes, staircase_transfer
from .perms import Permutation
from .poly import MultiPolynomial, _merge, _unchecked

QT_VARS = ("q", "t", "b")


def _digits(key: int, n: int, count: int) -> list[int]:
    """The first `count` base-n digits of a packed monomial, lowest first:
    the exponent of the variable at digit k is digit k."""
    out = []
    for _ in range(count):
        key, d = divmod(key, n)
        out.append(d)
    return out


def pipe_dream_beta_grothendieck(w: Permutation) -> MultiPolynomial:
    """Sum over Pipes(w) of b^codim times x_r to the number of crosses in
    row r, over the variables of beta_grothendieck(w): the pipe dream
    formula's side of G^b_w (Fomin-Kirillov 1994), read from
    `staircase_transfer` with no pipe dream listed.  A key is an
    x-monomial, the exponent of x_r its base-n digit r - 1 (row r has
    n - r < n boxes), so a cross in row r adds n^(r - 1); codim is the
    monomial's degree less l(w).

    >>> print(pipe_dream_beta_grothendieck(Permutation((1, 3, 2))))
    x1*x2*b + x1 + x2
    """
    n, l = w.n, w.length()
    monomials = staircase_transfer(w, [(n ** (r - 1),) for r, _c in staircase_boxes(n)])
    out = {}
    for e, c in monomials.items():
        x = _digits(e, n, n - 1)
        out[(*x, sum(x) - l)] = c
    return _unchecked(tuple([f"x{i}" for i in range(1, n)] + ["b"]), out)


def double_grothendieck(w: Permutation) -> MultiPolynomial:
    """Sum over Pipes(w) of (-1)^codim * product of (x_r - y_c) over the
    crosses, over x1.., y1..: `staircase_transfer` with the step
    (n^(r-1), n^(n+c-2)) at box (r, c), so a cross picks x_r or y_c and a
    key is a monomial, x_r at base-n digit r - 1 and y_c at digit
    n + c - 2 (no exponent reaches n).  A term with s crosses that picks y
    at k of them is signed (-1)^(s - l(w) + k) = (-1)^(deg_x - l(w)), so no
    two terms of a monomial cancel and the sign is read from the key.

    >>> print(double_grothendieck(Permutation((1, 3, 2))))
    -x1*x2 + x1*y1 + x2*y2 - y1*y2 + x1 + x2 - y1 - y2
    """
    n, l = w.n, w.length()
    refuse_past_limit(n)
    monomials = staircase_transfer(
        w, [(n ** (r - 1), n ** (n + c - 2)) for r, c in staircase_boxes(n)])
    out = {}
    for e, c in monomials.items():
        xy = _digits(e, n, 2 * n - 2)
        out[tuple(xy)] = c if (sum(xy[:n - 1]) - l) % 2 == 0 else -c
    return _unchecked(tuple([f"x{i}" for i in range(1, n)] + [f"y{j}" for j in range(1, n)]), out)


def specialize_qt(w: Permutation, beta: MultiPolynomial) -> MultiPolynomial:
    """All x set to q, all y set to t: every product collapses to
    (q-t)^size, so this is (q-t)^l(w) * beta at b -> b(q-t), with
    beta = groth_beta(w)."""
    q, t, b = (MultiPolynomial.variable(v, QT_VARS) for v in QT_VARS)
    return (q - t) ** w.length() * beta.substitute({"b": b * (q - t)}, QT_VARS)


def _isobaric(terms: dict, i: int) -> dict:
    """pi_i f = d_i((1 + b*x(i+1)) f) on the exponent dict of f over
    (x1, ..., xn, b).  The divided difference d_i sends
    x_i^p x(i+1)^q to the sum of x_i^(p-1-k) x(i+1)^(q+k) over
    0 <= k < p - q when p > q, to minus that sum with p and q swapped
    when p < q, and to 0 when p = q."""
    j = i - 1  # the exponent of x_i; x(i+1)'s follows, b's is last

    def divided():
        for e, c in terms.items():
            head, p, q, mid, beta = e[:j], e[j], e[j + 1], e[j + 2:-1], e[-1]
            for q, beta in ((q, beta), (q + 1, beta + 1)):
                if p == q:
                    continue
                lo, hi, sign = (q, p, c) if p > q else (p, q, -c)
                tail = mid + (beta,)
                for k in range(hi - lo):
                    yield head + (hi - 1 - k, lo + k) + tail, sign

    return _merge(divided())


def beta_grothendieck(w: Permutation) -> MultiPolynomial:
    """G^b_w over (x1, ..., x(n-1), b), by l(w0) - l(w) isobaric divided
    differences down from G^b_w0 = x1^(n-1) ... x(n-1).  The descent
    works over x1..xn; no G^b_w contains xn, and none is returned that
    does.

    >>> print(beta_grothendieck(Permutation((1, 3, 2))))
    x1*x2*b + x1 + x2
    """
    n = w.n
    ascents = []
    u = list(w.window)
    while (i := next((a for a in range(1, n) if u[a - 1] < u[a]), 0)):
        u[i - 1], u[i] = u[i], u[i - 1]
        ascents.append(i)
    # w s_a1 ... s_ak = w0, so w = w0 s_ak ... s_a1: apply pi_ak first
    terms = {tuple(range(n - 1, -1, -1)) + (0,): 1}
    for i in reversed(ascents):
        terms = _isobaric(terms, i)
    if any(e[n - 1] for e in terms):
        raise ArithmeticError(f"G^b_{w} came out with a term in x{n}")
    vars = tuple([f"x{i}" for i in range(1, n)] + ["b"])
    return _unchecked(vars, {e[:n - 1] + e[n:]: c for e, c in terms.items()})


def groth_beta(w: Permutation) -> MultiPolynomial:
    """The codimension generating function sum over Pipes(w) of b^codim.

    >>> print(groth_beta(Permutation((1, 4, 3, 2))))
    b^2 + 5*b + 5
    """
    l = w.length()
    return MultiPolynomial(("b",), Counter((P.size - l,) for P in enumerate_pipe_dreams(w)))
