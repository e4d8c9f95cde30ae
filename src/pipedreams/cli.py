"""Command-line surface: polynomials, complexes, reduced forms,
dissections, triangulations, the realization, and verification runs.

Each subcommand fills one `RunReport`, which `main` alone renders.
The parser is built once, at import.  `--seed` goes only to `reduce`,
`dissect` and `verify`, `--limit-n` only to `groth`, `pdc`, `realize` and
`verify`; elsewhere either flag is refused.
Exit codes: 0 success, 1 a reported check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .complexes import build_pdc, f_vector, h_polynomial, interior_faces
from .dreams import DEFAULT_LIMIT_N, LIMIT_N, enumerate_pipe_dreams
from .grothendieck import double_grothendieck, groth_beta, specialize_qt
from .perms import parse_permutation
from .polytopes import (
    AcyclicGraph,
    canonical_triangulation,
    dissect,
    noncrossing_alternating_trees,
    vertex_figure,
)
from .realization import realize, RealizationError
from .report import VerifyResult, jsonable
from .subdivision import (
    Edge,
    EdgeMonomial,
    parse_strategy,
    reduced_form,
    reduction_tree,
)
from .suites import SELECTORS, suite
from .svgout import render_vertex_figure


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: list[VerifyResult] = field(default_factory=list)
    seed: int = 0

    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self, as_json: bool) -> Iterator[str]:
        """The report's text in chunks, with no final newline: every field as
        sorted, indented JSON, in the chunks of the encoder `json.dumps` uses
        with `indent`; or, in one chunk, one `key: value` line per result, a
        list or tuple as one indented line per item, each dict (a result or
        an item) as sorted JSON, then one line per check."""
        if as_json:
            yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(jsonable(vars(self)))
            return

        def text(v) -> str:
            return json.dumps(jsonable(v), sort_keys=True) if isinstance(v, dict) else str(v)

        lines = []
        for key, value in self.results.items():
            if isinstance(value, (list, tuple)):
                lines.append(f"{key}:")
                lines.extend(f"  {text(v)}" for v in value)
            else:
                lines.append(f"{key}: {text(value)}")
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append(f"check {c.name}: {status}")
            if not c.ok:
                lines.append(f"  details: {text(c.details)}")
        yield "\n".join(lines)


def parse_edges(text: str) -> tuple[Edge, ...]:
    """Accept "12,23,34" for one-digit vertices or "(1,2),(2,3)"."""
    text = text.strip()
    if text.startswith("("):
        chunks = re.split(r"(?<=\)),(?=\()", text.replace(" ", ""))
        pattern = r"\(([0-9]+),([0-9]+)\)"
    else:
        chunks = [chunk.strip() for chunk in text.split(",")]
        pattern = r"([0-9])([0-9])"
    edges = []
    for chunk in chunks:
        match = re.fullmatch(pattern, chunk)
        if match is None:
            raise ValueError(f"cannot parse edge {chunk!r}")
        edges.append((int(match[1]), int(match[2])))
    return tuple(edges)


def _write_svg(report: RunReport, svg: str, path: str) -> None:
    """Write the vertex figure, rendered before any computation so that a
    refused rank costs nothing and leaves an existing file untouched; an
    unwritable path is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    report.results["svg"] = path


def _cmd_groth(args, report: RunReport) -> None:
    w = parse_permutation(args.permutation)
    report.inputs = {"w": w}
    if args.double:
        report.results["double"] = double_grothendieck(w)
    elif args.qt:
        report.results["qt"] = specialize_qt(w, groth_beta(w))
    else:
        report.results["beta"] = groth_beta(w)


def _cmd_pdc(args, report: RunReport) -> None:
    w = parse_permutation(args.permutation)
    C = build_pdc(w)
    report.inputs = {"w": w}
    report.results["vertices"] = len(C.vertices)
    report.results["facets"] = len(C.facets)
    if args.json:
        report.results["complex"] = C
    if args.f or args.h or not args.interior:
        h = h_polynomial(C, w)
        if args.f or not args.h:
            report.results["f_vector"] = f_vector(h, C.dim + 1)
        if args.h or not args.f:
            report.results["h"] = h
    if args.interior:
        report.results["interior"] = [
            {"face": sorted(map(list, face)), "codim": codim}
            for face, codim in interior_faces(w)
        ]
    if args.dreams:
        report.results["dreams"] = [P.to_jsonable() for P in enumerate_pipe_dreams(w)]


def _cmd_reduce(args, report: RunReport) -> None:
    edges = parse_edges(args.edges)
    n = max(j for _i, j in edges) if args.n is None else args.n
    strategy = parse_strategy(args.strategy, args.seed)
    if args.tree:
        tree = reduction_tree(EdgeMonomial(n, edges), strategy)
        rf = tree.reduced_form()
    else:
        rf = reduced_form(EdgeMonomial(n, edges), strategy)
    report.inputs = {"n": n, "edges": edges, "strategy": args.strategy}
    report.results["reduced_form"] = rf
    report.results["q"] = rf.beta_specialization()
    if args.tree:
        report.results["tree"] = tree if args.json else tree.outline()


def _cmd_dissect(args, report: RunReport) -> None:
    edges = parse_edges(args.edges)
    n = max(j for _i, j in edges) if args.n is None else args.n
    G = AcyclicGraph(n, edges)
    strategy = parse_strategy(args.strategy, args.seed)
    d = dissect(G, strategy)
    report.inputs = {"graph": G, "strategy": args.strategy}
    report.results["census"] = d.census()
    if args.tree:
        report.results["tree"] = d if args.json else d.outline()
    else:
        report.results["leaves"] = [{"edges": g.edges, "beta": beta} for g, beta in d.leaves()]


def _cmd_trees(args, report: RunReport) -> None:
    trees = noncrossing_alternating_trees(args.n)
    report.inputs = {"n": args.n}
    report.results["count"] = len(trees)
    report.results["trees"] = trees


def _cmd_triangulate(args, report: RunReport) -> None:
    if args.n < 2:
        raise ValueError(f"triangulate needs n >= 2 (n must be at least 1 for a root polytope, "
                         f"and at n = 1 it is a point with no vertex figure), got {args.n}")
    report.inputs = {"n": args.n}
    svg = render_vertex_figure(args.n) if args.emit_svg else None
    simplices = canonical_triangulation(args.n)
    report.results["simplices"] = [S.to_jsonable() for S in simplices]
    report.results["vertex_figure"] = [vertex_figure(S).to_jsonable() for S in simplices]
    if svg:
        _write_svg(report, svg, args.emit_svg)


def _cmd_realize(args, report: RunReport) -> None:
    report.inputs = {"n": args.n}
    svg = render_vertex_figure(args.n) if args.emit_svg else None
    try:
        rm = realize(args.n)
    except RealizationError as exc:
        report.checks.append(VerifyResult(f"realize:{args.n}", False, {"reason": str(exc)}))
        return
    report.checks.append(VerifyResult(f"realize:{args.n}", True))
    if args.json:
        report.results["realization"] = rm
    else:
        report.results["boxes"] = len(rm.vertex_map)
        report.results["facets"] = len(rm.facet_map)
    if svg:
        _write_svg(report, svg, args.emit_svg)


def _cmd_verify(args, report: RunReport) -> None:
    w = parse_permutation(args.w) if args.w else None
    if w and args.suite != "groth-h":
        raise ValueError(f"--w applies to groth-h only, not {args.suite}")
    if w and args.n not in (None, w.n):
        raise ValueError(f"--n {args.n} is not the rank {w.n} of --w {w}")
    n = (w.n if w else 4) if args.n is None else args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    report.inputs = {"suite": args.suite, "n": n, "w": w}
    report.checks = suite(args.suite, n, w, args.seed)


def build_parser() -> argparse.ArgumentParser:
    """The one parser.  Each shared argument is declared once, in a parent
    given only to the subcommands it acts on; the top level supplies `seed`
    and `limit_n` to the others."""
    parser = argparse.ArgumentParser(
        prog="pipedreams",
        description="Exact pipe dream, Grothendieck, subdivision algebra, "
                    "and root polytope computations.",
    )
    parser.set_defaults(seed=0, limit_n=DEFAULT_LIMIT_N)
    out, seed, limit, perm, forest, rank, figure = (
        argparse.ArgumentParser(add_help=False) for _ in range(7))
    out.add_argument("--json", action="store_true", help="machine-readable output")
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="seed of the random strategy and the samplers")
    limit.add_argument("--limit-n", type=int, default=argparse.SUPPRESS,
                       help="override the pipe dream enumeration guard")
    perm.add_argument("permutation")
    forest.add_argument("edges", help='e.g. "12,23,34" or "(1,2),(2,3),(3,4)"')
    forest.add_argument("--n", type=int, default=None)
    forest.add_argument("--strategy", default="lex",
                        help="lex | rlex | random | script:i,j,k;i,j,k;...")
    forest.add_argument("--tree", action="store_true",
                        help="emit the full rewrite tree with G1/G2/G3 children")
    rank.add_argument("--n", type=int, required=True)
    figure.add_argument("--emit-svg", default=None, metavar="PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, about, *parents):
        p = sub.add_parser(name, help=about, parents=[out, *parents])
        p.set_defaults(func=func)
        return p

    p = add("groth", _cmd_groth, "Grothendieck polynomials of a permutation", perm, limit)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--beta-only", action="store_true", help="x=1, y=0 polynomial in b (default)")
    mode.add_argument("--double", action="store_true", help="double polynomial at b=-1")
    mode.add_argument("--qt", action="store_true", help="x=q, y=t specialization")

    p = add("pdc", _cmd_pdc, "pipe dream complex of a permutation", perm, limit)
    p.add_argument("--h", action="store_true", help="h-polynomial")
    p.add_argument("--f", action="store_true", help="f-vector")
    p.add_argument("--interior", action="store_true", help="interior faces with codimensions")
    p.add_argument("--dreams", action="store_true",
                   help="enumerate all pipe dreams, sorted by (size, crosses)")

    add("reduce", _cmd_reduce, "reduced form of an edge monomial", forest, seed)
    add("dissect", _cmd_dissect, "reduction tree of an acyclic graph", forest, seed)
    add("trees", _cmd_trees, "noncrossing alternating spanning trees", rank)
    add("triangulate", _cmd_triangulate, "canonical triangulation and vertex figure",
        rank, figure)
    add("realize", _cmd_realize, "realize the pipe dream complex geometrically",
        rank, figure, limit)

    p = add("verify", _cmd_verify, "run a verification suite", seed, limit)
    p.add_argument("suite", choices=SELECTORS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--w", default=None, help="permutation for groth-h")
    return parser


PARSER = build_parser()
WRITE_BATCH = 8192


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; write its report to stdout, WRITE_BATCH chunks
    per write, then a newline; return the exit code."""
    args = PARSER.parse_args(argv)
    report = RunReport(args.command, seed=args.seed)
    token = LIMIT_N.set(args.limit_n)
    try:
        args.func(args, report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        LIMIT_N.reset(token)
    chunks = report.render(args.json)
    while batch := list(islice(chunks, WRITE_BATCH)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")
    return 0 if report.all_ok() else 1


if __name__ == "__main__":
    sys.exit(main())
