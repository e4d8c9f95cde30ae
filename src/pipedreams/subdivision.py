"""Reduced forms in the subdivision algebra.

The algebra is generated by variables x_ij, 1 <= i < j <= n, subject to
x_ij * x_jk = x_ik * (x_ij + x_jk + b) for i < j < k.  A reduced form of a
monomial is obtained by repeatedly rewriting an occurrence of x_ij * x_jk
until no monomial contains such a pair.  Reduced forms depend on the
choice of pair at each step, but their specialization at x = 1 does not.

Monomials are edge multisets: rewriting can create parallel copies of an
edge even from a squarefree input, and one rewriting step consumes exactly
one copy of each of the two edges involved.

Termination: the potential |edges|*(n-1) - sum(j-i over edges) is a
nonnegative integer and strictly drops along every branch of the rewrite,
which reduce_once asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .dreams import DEFAULT_LIMIT_N
from .poly import MultiPolynomial
from .report import VerifyResult

Edge = tuple[int, int]
Triple = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class EdgeMonomial:
    """coefficient * b^beta * product of x_e over the edge multiset."""

    n: int
    edges: tuple[Edge, ...]
    beta: int = 0
    coeff: int = 1

    def __post_init__(self):
        edges = tuple(sorted(tuple(e) for e in self.edges))
        for i, j in edges:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"edge {(i, j)} invalid on [{self.n}]")
        if self.beta < 0:
            raise ValueError("negative beta power")
        object.__setattr__(self, "edges", edges)

    def key(self) -> tuple[tuple[Edge, ...], int]:
        return (self.edges, self.beta)

    def potential(self) -> int:
        return len(self.edges) * (self.n - 1) - sum(j - i for i, j in self.edges)

    def __str__(self):
        parts = []
        if self.coeff != 1 or (not self.edges and not self.beta):
            parts.append(str(self.coeff))
        if self.beta == 1:
            parts.append("b")
        elif self.beta > 1:
            parts.append(f"b^{self.beta}")
        parts.extend(edge_var(e) for e in self.edges)
        return "*".join(parts)


def edge_var(e: Edge) -> str:
    i, j = e
    return f"x{i}{j}" if j <= 9 else f"x({i},{j})"


def reducible_triples(edges: Sequence[Edge]) -> list[Triple]:
    """All i < j < k with (i, j) and (j, k) in the multiset, sorted."""
    present = set(edges)
    out = set()
    for i, j in present:
        for j2, k in present:
            if j2 == j:
                out.add((i, j, k))
    return sorted(out)


# -- pair-choice strategies --------------------------------------------------

class Strategy:
    """Picks the reduction triple for a monomial; None when alternating."""

    def choose(self, edges: Sequence[Edge]) -> Optional[Triple]:
        raise NotImplementedError


class LexFirst(Strategy):
    def choose(self, edges):
        triples = reducible_triples(edges)
        return triples[0] if triples else None


class ReverseLex(Strategy):
    def choose(self, edges):
        triples = reducible_triples(edges)
        return triples[-1] if triples else None


class SeededRandom(Strategy):
    """Deterministic for a fixed seed and a fixed traversal order."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, edges):
        triples = reducible_triples(edges)
        return self.rng.choice(triples) if triples else None


class Scripted(Strategy):
    """Replays an explicit triple sequence: for each monomial the first
    listed triple that applies is chosen, falling back to lex-first.  The
    canonical three-step reduction of x12*x23*x34 is the script
    (2,3,4), (1,2,3), (1,2,4)."""

    def __init__(self, script: Iterable[Triple]):
        self.script = tuple(tuple(t) for t in script)

    def choose(self, edges):
        present = set(edges)
        for i, j, k in self.script:
            if (i, j) in present and (j, k) in present:
                return (i, j, k)
        triples = reducible_triples(edges)
        return triples[0] if triples else None


PATH4_SCRIPT: tuple[Triple, ...] = ((2, 3, 4), (1, 2, 3), (1, 2, 4))


def parse_strategy(text: str, seed: int = 0) -> Strategy:
    """Parse "lex", "rlex", "random", or "script:i,j,k;i,j,k;..."."""
    if text == "lex":
        return LexFirst()
    if text == "rlex":
        return ReverseLex()
    if text == "random":
        return SeededRandom(seed)
    if text.startswith("script:"):
        body = text[len("script:"):]
        triples = []
        for chunk in body.split(";"):
            parts = [int(p) for p in chunk.split(",")]
            if len(parts) != 3:
                raise ValueError(f"bad script triple {chunk!r}")
            triples.append(tuple(parts))
        return Scripted(triples)
    raise ValueError(f"unknown strategy {text!r}")


def reducible_pair(m: EdgeMonomial, strategy: Strategy) -> Optional[Triple]:
    return strategy.choose(m.edges)


def _remove_one(edges: tuple[Edge, ...], e: Edge) -> list[Edge]:
    out = list(edges)
    out.remove(e)
    return out


def reduce_once(m: EdgeMonomial, triple: Triple) -> tuple[EdgeMonomial, EdgeMonomial, EdgeMonomial]:
    """Apply x_ij x_jk -> x_ik (x_ij + x_jk + b) at one occurrence."""
    i, j, k = triple
    if (i, j) not in m.edges or (j, k) not in m.edges:
        raise ValueError(f"pair ({i},{j}),({j},{k}) not in {m.edges}")
    g1 = EdgeMonomial(m.n, _remove_one(m.edges, (j, k)) + [(i, k)], m.beta, m.coeff)
    g2 = EdgeMonomial(m.n, _remove_one(m.edges, (i, j)) + [(i, k)], m.beta, m.coeff)
    both = _remove_one(m.edges, (i, j))
    both.remove((j, k))
    g3 = EdgeMonomial(m.n, both + [(i, k)], m.beta + 1, m.coeff)
    phi = m.potential()
    assert all(g.potential() < phi for g in (g1, g2, g3)), "potential must drop"
    return g1, g2, g3


@dataclass(frozen=True, slots=True)
class ReducedForm:
    """A fully rewritten polynomial: alternating monomials with merged
    coefficients, keyed by (edge multiset, beta power)."""

    n: int
    monomials: tuple[EdgeMonomial, ...]

    def __post_init__(self):
        monos = tuple(sorted(self.monomials, key=lambda m: (m.beta, m.edges)))
        for m in monos:
            if m.coeff == 0:
                raise ValueError("zero coefficient stored")
            if reducible_triples(m.edges):
                raise ValueError(f"monomial {m} still reducible")
        object.__setattr__(self, "monomials", monos)

    def beta_specialization(self) -> MultiPolynomial:
        """Set every x_ij to 1, leaving a polynomial in b."""
        terms: dict[tuple[int, ...], int] = {}
        for m in self.monomials:
            terms[(m.beta,)] = terms.get((m.beta,), 0) + m.coeff
        return MultiPolynomial(("b",), terms)

    def to_polynomial(self) -> MultiPolynomial:
        """Expand over named variables x_ij and b."""
        names = sorted({edge_var(e) for m in self.monomials for e in m.edges})
        vars = tuple(names) + ("b",)
        index = {v: i for i, v in enumerate(vars)}
        terms: dict[tuple[int, ...], int] = {}
        for m in self.monomials:
            exps = [0] * len(vars)
            exps[-1] = m.beta
            for e in m.edges:
                exps[index[edge_var(e)]] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + m.coeff
        return MultiPolynomial(vars, terms)

    def __str__(self):
        return " + ".join(str(m) for m in self.monomials) if self.monomials else "0"

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "monomials": [
                {"edges": [list(e) for e in m.edges], "beta": m.beta, "coeff": m.coeff}
                for m in self.monomials
            ],
        }

    @classmethod
    def from_jsonable(cls, data) -> "ReducedForm":
        return cls(
            data["n"],
            tuple(
                EdgeMonomial(
                    data["n"],
                    tuple((i, j) for i, j in m["edges"]),
                    m["beta"],
                    m["coeff"],
                )
                for m in data["monomials"]
            ),
        )


def reduced_form(m: EdgeMonomial, strategy: Strategy | None = None) -> ReducedForm:
    """Rewrite until every monomial is alternating, merging like terms
    after each layer.  Monomials are processed in sorted order so scripted
    and seeded strategies are reproducible."""
    if strategy is None:
        strategy = LexFirst()
    pending: dict[tuple, int] = {m.key(): m.coeff}
    done: dict[tuple, int] = {}
    while pending:
        nxt: dict[tuple, int] = {}
        for key in sorted(pending):
            coeff = pending[key]
            if coeff == 0:
                continue
            edges, beta = key
            triple = strategy.choose(edges)
            if triple is None:
                done[key] = done.get(key, 0) + coeff
                continue
            mono = EdgeMonomial(m.n, edges, beta, coeff)
            for child in reduce_once(mono, triple):
                ck = child.key()
                nxt[ck] = nxt.get(ck, 0) + child.coeff
        pending = nxt
    monos = tuple(
        EdgeMonomial(m.n, edges, beta, coeff)
        for (edges, beta), coeff in done.items()
        if coeff
    )
    return ReducedForm(m.n, monos)


def product_monomial(n: int, edges: Iterable[Edge]) -> EdgeMonomial:
    return EdgeMonomial(n, tuple(edges))


def _monomial_head(m: EdgeMonomial) -> dict:
    return {"monomial": str(m), "edges": [list(e) for e in m.edges], "beta": m.beta}


@dataclass(frozen=True, slots=True)
class ReductionNode:
    """A node of the unmerged rewrite tree: the monomial and, when it is
    reducible, the chosen triple and the children G1, G2, G3 that
    reduce_once makes of it."""

    monomial: EdgeMonomial
    triple: Optional[Triple] = None
    children: tuple["ReductionNode", ...] = ()

    def walk(self) -> Iterator["ReductionNode"]:
        """Preorder: the node, then the subtrees of G1, G2 and G3."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> list[EdgeMonomial]:
        """The alternating monomials at the leaves, in preorder."""
        return [node.monomial for node in self.walk() if not node.children]

    def to_jsonable(self, head: Callable[[EdgeMonomial], dict] = _monomial_head) -> dict:
        """Nested dicts: head(monomial), then, when reducible, the triple
        and the children keyed G1, G2, G3."""
        data = head(self.monomial)
        if self.children:
            data["triple"] = list(self.triple)
            labels = ("G1", "G2", "G3")
            data["children"] = {k: c.to_jsonable(head) for k, c in zip(labels, self.children)}
        return data


def reduction_tree(m: EdgeMonomial, strategy: Strategy | None = None) -> ReductionNode:
    """The unmerged rewrite tree of a single monomial, expanded until every
    leaf is alternating.  Exponential in general; for inspection and
    dissection of small inputs.

    >>> tree = reduction_tree(product_monomial(3, [(1, 2), (2, 3)]))
    >>> tree.triple, [str(m) for m in tree.leaves()]
    ((1, 2, 3), ['x12*x13', 'x13*x23', 'b*x13'])
    """
    if strategy is None:
        strategy = LexFirst()

    def expand(mono: EdgeMonomial) -> ReductionNode:
        triple = strategy.choose(mono.edges)
        if triple is None:
            return ReductionNode(mono)
        return ReductionNode(mono, triple, tuple(expand(c) for c in reduce_once(mono, triple)))

    return expand(m)


def q_polynomial(
    n: int, edges: Iterable[Edge], strategy: Strategy | None = None
) -> MultiPolynomial:
    """The reduced form of the edge product specialized at x = 1, as a
    polynomial in b.  Independent of the strategy.

    >>> print(q_polynomial(4, [(1, 2), (2, 3), (3, 4)]))
    b^2 + 5*b + 5
    """
    return reduced_form(product_monomial(n, edges), strategy).beta_specialization()


def path_edges(n: int) -> tuple[Edge, ...]:
    return tuple((i, i + 1) for i in range(1, n))


def verify_kirillov(n: int, limit_n: int = DEFAULT_LIMIT_N) -> VerifyResult:
    """Q_{P_n}(b) computed by rewriting equals the x=1, y=0 Grothendieck
    polynomial of 1 n n-1 ... 2 computed by pipe dream enumeration."""
    from .grothendieck import groth_beta
    from .perms import catalan_permutation
    from .poly import poly_diff

    lhs = q_polynomial(n, path_edges(n))
    rhs = groth_beta(catalan_permutation(n), limit_n)
    if lhs != rhs:
        return VerifyResult(
            f"kirillov:{n}", False, {"diff": poly_diff(lhs, rhs)}
        )
    return VerifyResult(f"kirillov:{n}", True, {"q": str(lhs)})
