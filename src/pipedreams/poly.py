"""Exact sparse multivariate polynomials with integer coefficients.

A polynomial is a map from exponent vectors to coefficients over a fixed,
ordered tuple of variable names.  Coefficients are Python ints, so there is
no overflow; all arithmetic and comparisons are exact.  Instances are
immutable: every operation returns a new polynomial.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Hashable, Iterable, Mapping, Union

from .report import read_canonical


class MultiPolynomial:
    """Polynomial over a declared variable tuple, e.g. ("x1", "y1", "b").

    >>> x = MultiPolynomial.variable("x", ("x", "y"))
    >>> y = MultiPolynomial.variable("y", ("x", "y"))
    >>> print((x - y) * (x + y))
    x^2 - y^2
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Union[Mapping, Iterable] = ()):
        self.vars = tuple(vars)
        for v in self.vars:
            if not isinstance(v, str):
                raise ValueError(f"variable {v!r} is not a string")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"variables {self.vars} name one variable twice")

        def checked(items):
            for exps, coef in items:
                exps = tuple(exps)
                if len(exps) != len(self.vars):
                    raise ValueError(f"exponent vector {exps} does not match {self.vars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                yield exps, coef

        self.terms = _merge(checked(terms.items() if isinstance(terms, Mapping) else terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int, vars: Iterable[str]) -> "MultiPolynomial":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def one(cls, vars: Iterable[str]) -> "MultiPolynomial":
        return cls.constant(1, vars)

    @classmethod
    def variable(cls, name: str, vars: Iterable[str]) -> "MultiPolynomial":
        vars = tuple(vars)
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exps: 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPolynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPolynomial.constant(other, self.vars)
        self._check(other)
        return _unchecked(self.vars, _merge(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return _unchecked(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPolynomial.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return _unchecked(self.vars, terms)
        self._check(other)
        return _unchecked(self.vars, _merge(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPolynomial.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MultiPolynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient_vector(self) -> tuple[int, ...]:
        """Coefficients (c_0, c_1, ..., c_d) of a univariate polynomial."""
        if len(self.vars) != 1:
            raise ValueError("coefficient_vector needs a univariate polynomial")
        d = self.degree()
        out = [0] * (d + 1 if d >= 0 else 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return tuple(out)

    # -- substitution ------------------------------------------------------

    def substitute(
        self,
        images: Mapping[str, Union["MultiPolynomial", int]],
        target_vars: Iterable[str],
    ) -> "MultiPolynomial":
        """Map each variable to a polynomial over `target_vars`.

        Variables absent from `images` are carried through unchanged and
        must therefore appear in `target_vars`.  A variable that no term
        uses needs no image.

        Each used variable is eliminated by one pass, whatever its image: a
        constant, itself when unmapped, or a polynomial.  Terms are keyed
        by (source exponents not yet eliminated, target exponents); a pass
        replaces the next source exponent e by the terms of image**e and
        merges the terms that meet.  Source and target exponents stay
        apart, so an image naming a source variable (b -> b - 1) is
        applied once.

        >>> b = MultiPolynomial.variable("b", ("b",))
        >>> print((b**2 + 5*b + 5).substitute({"b": b - 1}, ("b",)))
        b^2 + 3*b + 1
        """
        target = tuple(target_vars)
        used: list[int] = []
        imgs: list[MultiPolynomial] = []
        for i, v in enumerate(self.vars):
            if not any(map(itemgetter(i), self.terms)):
                continue
            img = images.get(v)
            if img is None:
                if v not in target:
                    raise ValueError(f"{v} has no image and is not in {target}")
                img = MultiPolynomial.variable(v, target)
            elif isinstance(img, int):
                img = MultiPolynomial.constant(img, target)
            elif img.vars != target:
                raise ValueError(f"image of {v} is over {img.vars}, not {target}")
            used.append(i)
            imgs.append(img)

        def expanded(acc, img):
            powers: dict[int, list[tuple[tuple[int, ...], int]]] = {}
            for (rest, t), coef in acc.items():
                e, rest = rest[0], rest[1:]
                if not e:
                    yield (rest, t), coef
                    continue
                if e not in powers:
                    powers[e] = list((img**e).terms.items())
                for te, c in powers[e]:
                    yield (rest, tuple(map(add, t, te))), coef * c

        blank = (0,) * len(target)
        acc = {(tuple([exps[i] for i in used]), blank): coef for exps, coef in self.terms.items()}
        for img in imgs:
            acc = _merge(expanded(acc, img))
        return _unchecked(target, {t: c for (_, t), c in acc.items()})

    def rename(self, mapping: Mapping[str, str]) -> "MultiPolynomial":
        """Rename variables (the constructor refuses a name given twice); the terms are untouched."""
        return _unchecked(MultiPolynomial(mapping.get(v, v) for v in self.vars).vars, dict(self.terms))

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms sorted by descending total degree, then descending exponents."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            a = abs(coef)
            if mono:
                body = mono if a == 1 else f"{a}*{mono}"
            else:
                body = str(a)
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPolynomial({self.vars!r}, {self.terms!r})"

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        terms = [
            {"exp": list(exps), "coef": str(coef)}
            for exps, coef in sorted(self.terms.items())
        ]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "MultiPolynomial":
        return read_canonical(cls, data, lambda d: cls(
            map(str, d["vars"]), [(map(int, t["exp"]), int(t["coef"])) for t in d["terms"]]))


def _merge(pairs: Iterable[tuple[Hashable, int]], into: dict | None = None) -> dict:
    """Add each (key, coefficient) pair into `into` (a new dict when None),
    deleting a key whose sum is zero, so that no zero is ever stored."""
    terms = {} if into is None else into
    for key, c in pairs:
        s = terms.get(key, 0) + c
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return terms


def _unchecked(vars: tuple[str, ...], terms: dict) -> MultiPolynomial:
    """A polynomial that holds `terms` uncopied and unchecked: the caller
    vouches for right-length exponents, none negative, and no zero coefficient."""
    out = MultiPolynomial.__new__(MultiPolynomial)
    out.vars = vars
    out.terms = terms
    return out


def poly_diff(a: MultiPolynomial, b: MultiPolynomial) -> dict:
    """Structured difference of two polynomials, for failure reports."""
    if a.vars != b.vars:
        return {"vars_left": list(a.vars), "vars_right": list(b.vars)}
    mism = {}
    for e in set(a.terms) | set(b.terms):
        ca, cb = a.terms.get(e, 0), b.terms.get(e, 0)
        if ca != cb:
            mism[str(tuple(e))] = {"left": str(ca), "right": str(cb)}
    return {"mismatched_terms": mism}
