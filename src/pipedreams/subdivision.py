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

Invariant: every rewrite step keeps |edges| + (power of b) fixed, so in
the expansion of one monomial an edge multiset occurs with one power of b
only.  The rewrite therefore runs on bare sorted edge tuples: reduce_once
maps a tuple to the tuples of its three children, the leaf loop keys its
terms by the tuple alone, and every caller reads the power of b off the
tuple's length.  EdgeMonomial objects are made only at the output of
reduced_form and reduction_tree.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import starmap
from operator import sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .poly import MultiPolynomial, _merge
from .report import read_canonical

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
        edges = _checked_edges(self.n, self.edges)
        if self.beta < 0:
            raise ValueError("negative beta power")
        object.__setattr__(self, "edges", edges)

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


def _checked_edges(n: int, edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    """The edges as a sorted tuple of pairs (i, j), 1 <= i < j <= n.
    Refuses a negative rank, an edge that does not have exactly two ends,
    and an edge off [n]."""
    if n < 0:
        raise ValueError(f"rank {n} is negative")
    out = []
    for e in edges:
        e = tuple(e)
        if len(e) != 2:
            raise ValueError(f"edge {e} does not have two ends")
        i, j = e
        if not 1 <= i < j <= n:
            raise ValueError(f"edge {e} invalid on [{n}]")
        out.append(e)
    return tuple(sorted(out))


def _potential(n: int, edges: Sequence[Edge]) -> int:
    """|edges| * (n - 1) - sum(j - i over edges), nonnegative on [n]."""
    return len(edges) * (n - 1) + sum(starmap(sub, edges))


def edge_var(e: Edge) -> str:
    i, j = e
    return f"x{i}{j}" if j <= 9 else f"x({i},{j})"


def reducible_triples(edges: Sequence[Edge]) -> list[Triple]:
    """All i < j < k with (i, j) and (j, k) in the multiset, sorted."""
    ends: dict[int, list[int]] = {}
    for i, j in sorted(set(edges)):
        ends.setdefault(i, []).append(j)
    return [(i, j, k) for i in ends for j in ends[i] if j in ends for k in ends[j]]


def is_alternating(edges: Sequence[Edge]) -> bool:
    """No reducible pair (i, j), (j, k): no vertex ends one edge and starts another."""
    return {j for _, j in edges}.isdisjoint(i for i, _ in edges)


def _first_triple(edges: Sequence[Edge]) -> Optional[Triple]:
    """The lex-first reducible triple of a sorted edge tuple, or None."""
    least_end = {i: j for i, j in reversed(edges)}
    for i, j in edges:
        if j in least_end:
            return (i, j, least_end[j])
    return None


# -- pair-choice strategies --------------------------------------------------

class Strategy:
    """Picks the reduction triple for a sorted edge tuple (as EdgeMonomial
    keeps it); None when alternating."""

    def choose(self, edges: Sequence[Edge]) -> Optional[Triple]:
        raise NotImplementedError


class LexFirst(Strategy):
    def choose(self, edges):
        return _first_triple(edges)


class ReverseLex(Strategy):
    def choose(self, edges):
        greatest_end = {i: j for i, j in edges}
        for i, j in reversed(edges):
            if j in greatest_end:
                return (i, j, greatest_end[j])
        return None


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
        return _first_triple(edges)


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
            try:
                parts = [int(p) for p in chunk.split(",")]
            except ValueError:
                parts = []
            if len(parts) != 3 or not parts[0] < parts[1] < parts[2]:
                raise ValueError(f"bad script triple {chunk!r}: want i,j,k with i < j < k")
            triples.append(tuple(parts))
        return Scripted(triples)
    raise ValueError(f"unknown strategy {text!r}")


def _unchecked(n: int, edges: tuple[Edge, ...], beta: int, coeff: int) -> EdgeMonomial:
    """An EdgeMonomial that skips validation: the caller vouches that `edges`
    is a sorted tuple of edges on [n] and that beta is nonnegative."""
    out = object.__new__(EdgeMonomial)
    object.__setattr__(out, "n", n)
    object.__setattr__(out, "edges", edges)
    object.__setattr__(out, "beta", beta)
    object.__setattr__(out, "coeff", coeff)
    return out


def reduce_once(
    n: int, edges: tuple[Edge, ...], triple: Triple
) -> tuple[tuple[Edge, ...], tuple[Edge, ...], tuple[Edge, ...]]:
    """Apply x_ij x_jk -> x_ik (x_ij + x_jk + b) at one occurrence in the
    sorted edge tuple `edges` on [n].

    Returns the sorted tuples of the children G1, G2, G3: `edges` less one
    copy of (j, k), of (i, j) or of both, with (i, k) inserted in order.
    G3 carries one more power of b than its parent, which its length
    shows.  Refuses a triple whose pair is not present and a new edge off
    [n]; a child differs from its parent only by that edge.  Asserts that
    the potential drops on every branch."""
    i, j, k = triple
    a = bisect_left(edges, (i, j))
    c = bisect_left(edges, (j, k))
    if edges[a:a + 1] != ((i, j),) or edges[c:c + 1] != ((j, k),):
        raise ValueError(f"pair ({i},{j}),({j},{k}) not in {edges}")
    if not 1 <= i < k <= n:
        raise ValueError(f"edge {(i, k)} invalid on [{n}]")
    p = bisect_left(edges, (i, k), a, c)  # (i, j) < (i, k) < (j, k)
    left, right = edges[:p], edges[p:]
    left_less = left[:a] + left[a + 1:]
    right_less = right[:c - p] + right[c - p + 1:]
    new = ((i, k),)
    g1 = left + new + right_less
    g2 = left_less + new + right
    g3 = left_less + new + right_less
    phi = _potential(n, edges)
    assert max(_potential(n, g1), _potential(n, g2), _potential(n, g3)) < phi, "potential must drop"
    return g1, g2, g3


@dataclass(frozen=True, slots=True)
class ReducedForm:
    """A fully rewritten polynomial: alternating monomials with merged
    nonzero coefficients, keyed by (edge multiset, beta power), no key twice."""

    n: int
    monomials: tuple[EdgeMonomial, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"rank {self.n} is negative")
        monos = tuple(sorted(self.monomials, key=lambda m: (m.beta, m.edges)))
        for m in monos:
            if m.coeff == 0:
                raise ValueError("zero coefficient stored")
            if not is_alternating(m.edges):
                raise ValueError(f"monomial {m} still reducible")
        for a, b in zip(monos, monos[1:]):
            if a.edges == b.edges and a.beta == b.beta:
                raise ValueError(f"edges {list(a.edges)} with b^{a.beta} are listed twice; "
                                 "a reduced form holds like terms merged")
        object.__setattr__(self, "monomials", monos)

    def beta_specialization(self) -> MultiPolynomial:
        """Set every x_ij to 1, leaving a polynomial in b."""
        return MultiPolynomial(("b",), (((m.beta,), m.coeff) for m in self.monomials))

    def to_polynomial(self) -> MultiPolynomial:
        """Expand over named variables x_ij and b."""
        names = sorted({edge_var(e) for m in self.monomials for e in m.edges})
        terms = []
        for m in self.monomials:
            count = Counter(map(edge_var, m.edges))
            terms.append(([count[v] for v in names] + [m.beta], m.coeff))
        return MultiPolynomial(tuple(names) + ("b",), terms)

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
        return read_canonical(cls, data, lambda d: cls(int(d["n"]), tuple(
            EdgeMonomial(int(d["n"]), tuple(tuple(map(int, e)) for e in m["edges"]),
                         int(m["beta"]), int(m["coeff"])) for m in d["monomials"])))


def _leaves(n: int, edges: tuple[Edge, ...], coeff: int,
            strategy: Strategy | None) -> Iterator[tuple[tuple[Edge, ...], int]]:
    """The leaves of the rewrite of coeff * x^edges, as (sorted edge tuple,
    coefficient) pairs, like terms merged within each layer.  Each layer is
    processed in sorted order, so scripted and seeded strategies are
    reproducible; one tuple can end in more than one layer.  A leaf is a
    tuple the strategy chooses no triple for.  Every coefficient is coeff
    times a positive count."""
    choose = (strategy or LexFirst()).choose
    pending = {edges: coeff} if coeff else {}
    while pending:
        nxt: dict[tuple[Edge, ...], int] = {}
        for edges in sorted(pending):
            coeff = pending[edges]
            triple = choose(edges)
            if triple is None:
                yield edges, coeff
                continue
            for child in reduce_once(n, edges, triple):
                nxt[child] = nxt.get(child, 0) + coeff
        pending = nxt


def _merged_form(root: EdgeMonomial, leaves: Iterable[tuple[tuple[Edge, ...], int]]) -> ReducedForm:
    """The reduced form of the leaf (edge tuple, coefficient) pairs of the
    expansion of root, like terms merged: |edges| + beta is the same for
    every term, so each leaf's beta is root's sum less its number of
    edges.  Leaves become EdgeMonomials only here, unchecked: every edge is
    one of root's or was checked by reduce_once when it was added.
    ReducedForm checks that each is alternating."""
    n, size = root.n, len(root.edges) + root.beta
    return ReducedForm(n, tuple(
        _unchecked(n, edges, size - len(edges), coeff) for edges, coeff in _merge(leaves).items()
    ))


def reduced_form(m: EdgeMonomial, strategy: Strategy | None = None) -> ReducedForm:
    """Rewrite until every monomial is alternating, merging like terms
    after each layer (lex-first by default).  The rewrite runs on edge
    tuples."""
    return _merged_form(m, _leaves(m.n, m.edges, m.coeff, strategy))


_LABELS = ("G1", "G2", "G3")


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

    def reduced_form(self) -> ReducedForm:
        """The leaves with like terms merged: the reduced form this tree
        reaches, whatever strategy chose its triples."""
        return _merged_form(self.monomial, ((m.edges, m.coeff) for m in self.leaves()))

    def to_jsonable(self, head: Callable[[EdgeMonomial], dict] = _monomial_head) -> dict:
        """Nested dicts: head(monomial), then, when reducible, the triple
        and the children keyed G1, G2, G3."""
        data = head(self.monomial)
        if self.children:
            data["triple"] = list(self.triple)
            data["children"] = {k: c.to_jsonable(head) for k, c in zip(_LABELS, self.children)}
        return data

    def outline(self, head: Callable[[EdgeMonomial], str] = str) -> list[str]:
        """One line per node in preorder, indented two spaces per depth:
        the G1/G2/G3 label, head(monomial), and the triple when the node
        is reducible.

        >>> tree = reduction_tree(EdgeMonomial(3, ((1, 2), (2, 3))))
        >>> print(*tree.outline(), sep="\\n")
        x12*x23  triple (1, 2, 3)
          G1: x12*x13
          G2: x13*x23
          G3: b*x13
        """

        def lines(node: ReductionNode, depth: int, label: str) -> Iterator[str]:
            triple = f"  triple {node.triple}" if node.children else ""
            yield f"{'  ' * depth}{label}{head(node.monomial)}{triple}"
            for k, child in zip(_LABELS, node.children):
                yield from lines(child, depth + 1, f"{k}: ")

        return list(lines(self, 0, ""))


def reduction_tree(m: EdgeMonomial, strategy: Strategy | None = None) -> ReductionNode:
    """The unmerged rewrite tree of a single monomial, expanded until every
    leaf is alternating.  Exponential in general; for inspection and
    dissection of small inputs.

    >>> tree = reduction_tree(EdgeMonomial(3, ((1, 2), (2, 3))))
    >>> tree.triple, [str(m) for m in tree.leaves()]
    ((1, 2, 3), ['x12*x13', 'x13*x23', 'b*x13'])
    """
    choose = (strategy or LexFirst()).choose
    n, size = m.n, len(m.edges) + m.beta

    def expand(edges: tuple[Edge, ...]) -> ReductionNode:
        mono = _unchecked(n, edges, size - len(edges), m.coeff)
        triple = choose(edges)
        if triple is None:
            return ReductionNode(mono)
        return ReductionNode(mono, triple, tuple(map(expand, reduce_once(n, edges, triple))))

    return expand(m.edges)


def q_polynomial(
    n: int, edges: Iterable[Edge], strategy: Strategy | None = None
) -> MultiPolynomial:
    """The reduced form of the edge product specialized at x = 1, as a
    polynomial in b.  Independent of the strategy.

    Sums the coefficients of the leaves of the rewrite per power of b,
    read off each leaf's length, and builds no EdgeMonomial or
    ReducedForm.  Refuses a leaf that is not alternating.

    >>> print(q_polynomial(4, [(1, 2), (2, 3), (3, 4)]))
    b^2 + 5*b + 5
    """
    edges = _checked_edges(n, edges)
    size = len(edges)
    by_power: dict[tuple[int], int] = {}
    for leaf, coeff in _leaves(n, edges, 1, strategy):
        if not is_alternating(leaf):
            raise ValueError(f"leaf {leaf} is still reducible")
        power = (size - len(leaf),)
        by_power[power] = by_power.get(power, 0) + coeff
    return MultiPolynomial(("b",), by_power)


def path_edges(n: int) -> tuple[Edge, ...]:
    return tuple((i, i + 1) for i in range(1, n))
