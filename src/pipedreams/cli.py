"""Command-line surface: polynomials, complexes, reduced forms,
dissections, triangulations, the realization, and verification runs.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

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
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list[VerifyResult] = field(default_factory=list)
    seed: int = 0

    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "command": self.command,
            "inputs": jsonable(self.inputs),
            "results": jsonable(self.results),
            "checks": [c.to_jsonable() for c in self.checks],
            "seed": self.seed,
        }

    def render_text(self) -> str:
        """One `key: value` line per result, a list as one indented line
        per item, and each dict (a result or a list item) as sorted JSON."""

        def text(v) -> str:
            return json.dumps(jsonable(v), sort_keys=True) if isinstance(v, dict) else str(v)

        lines = []
        for key, value in self.results.items():
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {text(v)}" for v in value)
            else:
                lines.append(f"{key}: {text(value)}")
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append(f"check {c.name}: {status}")
            if not c.ok:
                lines.append(f"  details: {text(c.details)}")
        return "\n".join(lines)


def parse_edges(text: str) -> tuple[Edge, ...]:
    """Accept "12,23,34" for one-digit vertices or "(1,2),(2,3)"."""
    text = text.strip()
    edges = []
    if text.startswith("("):
        for chunk in text.replace(" ", "").split("),("):
            chunk = f"({chunk.strip('()')})"
            parts = chunk[1:-1].split(",")
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ValueError(f"cannot parse edge {chunk!r}")
            edges.append((int(parts[0]), int(parts[1])))
    else:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if len(chunk) != 2 or not chunk.isdigit():
                raise ValueError(f"cannot parse edge {chunk!r}")
            edges.append((int(chunk[0]), int(chunk[1])))
    return tuple(edges)


def _write_svg(report: RunReport, n: int, path: str) -> None:
    """Render the vertex figure, then write it: a refused rank leaves an
    existing file untouched."""
    svg = render_vertex_figure(n)
    with open(path, "w") as fh:
        fh.write(svg)
    report.results["svg"] = path


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_jsonable(), sort_keys=True, indent=2))
    else:
        print(report.render_text())


def _cmd_groth(args) -> int:
    w = parse_permutation(args.permutation)
    report = RunReport("groth", {"w": str(w)}, seed=args.seed)
    if args.double:
        poly = double_grothendieck(w)
        key = "double"
    elif args.qt:
        poly = specialize_qt(w)
        key = "qt"
    else:
        poly = groth_beta(w)
        key = "beta"
    report.results[key] = poly.to_jsonable() if args.json else str(poly)
    _emit(report, args.json)
    return 0


def _cmd_pdc(args) -> int:
    w = parse_permutation(args.permutation)
    C = build_pdc(w)
    report = RunReport("pdc", {"w": str(w)}, seed=args.seed)
    report.results["vertices"] = len(C.vertices)
    report.results["facets"] = len(C.facets)
    if args.json:
        report.results["complex"] = C.to_jsonable()
    if args.f or not (args.h or args.interior):
        report.results["f_vector"] = list(f_vector(C))
    if args.h or not (args.f or args.interior):
        h = h_polynomial(C)
        report.results["h"] = h.to_jsonable() if args.json else str(h)
    if args.interior:
        report.results["interior"] = [
            {"face": sorted(map(list, face)), "codim": codim}
            for face, codim in interior_faces(C, w)
        ]
    if args.dreams:
        report.results["dreams"] = [P.to_jsonable() for P in enumerate_pipe_dreams(w)]
    _emit(report, args.json)
    return 0


def _cmd_reduce(args) -> int:
    edges = parse_edges(args.edges)
    n = max(j for _i, j in edges) if args.n is None else args.n
    strategy = parse_strategy(args.strategy, args.seed)
    rf = reduced_form(EdgeMonomial(n, edges), strategy)
    report = RunReport("reduce", {"n": n, "edges": [list(e) for e in edges],
                                  "strategy": args.strategy}, seed=args.seed)
    report.results["reduced_form"] = rf.to_jsonable() if args.json else str(rf)
    report.results["q"] = (
        rf.beta_specialization().to_jsonable() if args.json else str(rf.beta_specialization())
    )
    if args.tree:
        tree = reduction_tree(EdgeMonomial(n, edges), parse_strategy(args.strategy, args.seed))
        report.results["tree"] = tree.to_jsonable() if args.json else tree.outline()
    _emit(report, args.json)
    return 0


def _cmd_dissect(args) -> int:
    edges = parse_edges(args.edges)
    n = max(j for _i, j in edges) if args.n is None else args.n
    G = AcyclicGraph(n, edges)
    strategy = parse_strategy(args.strategy, args.seed)
    d = dissect(G, strategy)
    report = RunReport("dissect", {"graph": G.to_jsonable(), "strategy": args.strategy},
                       seed=args.seed)
    report.results["census"] = {str(k): v for k, v in d.census().items()}
    if args.tree:
        report.results["tree"] = d.to_jsonable() if args.json else d.outline()
    else:
        report.results["leaves"] = [
            {"edges": [list(e) for e in g.edges], "beta": beta} for g, beta in d.leaves()
        ]
    _emit(report, args.json)
    return 0


def _cmd_trees(args) -> int:
    trees = noncrossing_alternating_trees(args.n)
    report = RunReport("trees", {"n": args.n}, seed=args.seed)
    report.results["count"] = len(trees)
    report.results["trees"] = (
        [T.to_jsonable() for T in trees] if args.json else [str(T) for T in trees]
    )
    _emit(report, args.json)
    return 0


def _cmd_triangulate(args) -> int:
    report = RunReport("triangulate", {"n": args.n}, seed=args.seed)
    simplices = canonical_triangulation(args.n)
    report.results["simplices"] = [S.to_jsonable() for S in simplices]
    report.results["vertex_figure"] = [vertex_figure(S).to_jsonable() for S in simplices]
    if args.emit_svg:
        _write_svg(report, args.n, args.emit_svg)
    _emit(report, args.json)
    return 0


def _cmd_realize(args) -> int:
    report = RunReport("realize", {"n": args.n}, seed=args.seed)
    try:
        rm = realize(args.n)
    except RealizationError as exc:
        report.checks.append(VerifyResult(f"realize:{args.n}", False, {"reason": str(exc)}))
        _emit(report, args.json)
        return 1
    report.checks.append(VerifyResult(f"realize:{args.n}", True))
    if args.json:
        report.results["realization"] = rm.to_jsonable()
    else:
        report.results["boxes"] = len(rm.vertex_map)
        report.results["facets"] = len(rm.facet_map)
    if args.emit_svg:
        _write_svg(report, args.n, args.emit_svg)
    _emit(report, args.json)
    return 0


def _cmd_verify(args) -> int:
    w = parse_permutation(args.w) if args.w else None
    n = (w.n if w else 4) if args.n is None else args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    report = RunReport("verify", {"suite": args.suite, "n": n, "w": str(w) if w else None},
                       seed=args.seed)
    report.checks = suite(args.suite, n, w, args.seed)
    _emit(report, args.json)
    return 0 if report.all_ok() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipedreams",
        description="Exact pipe dream, Grothendieck, subdivision algebra, "
                    "and root polytope computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--limit-n", type=int, default=DEFAULT_LIMIT_N,
                       help="override the pipe dream enumeration guard")

    p = sub.add_parser("groth", help="Grothendieck polynomials of a permutation")
    p.add_argument("permutation")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--beta-only", action="store_true", help="x=1, y=0 polynomial in b (default)")
    mode.add_argument("--double", action="store_true", help="double polynomial at b=-1")
    mode.add_argument("--qt", action="store_true", help="x=q, y=t specialization")
    common(p)
    p.set_defaults(func=_cmd_groth)

    p = sub.add_parser("pdc", help="pipe dream complex of a permutation")
    p.add_argument("permutation")
    p.add_argument("--h", action="store_true", help="h-polynomial")
    p.add_argument("--f", action="store_true", help="f-vector")
    p.add_argument("--interior", action="store_true", help="interior faces with codimensions")
    p.add_argument("--dreams", action="store_true",
                   help="enumerate all pipe dreams, sorted by (size, crosses)")
    common(p)
    p.set_defaults(func=_cmd_pdc)

    p = sub.add_parser("reduce", help="reduced form of an edge monomial")
    p.add_argument("edges", help='e.g. "12,23,34" or "(1,2),(2,3),(3,4)"')
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--strategy", default="lex",
                   help="lex | rlex | random | script:i,j,k;i,j,k;...")
    p.add_argument("--tree", action="store_true",
                   help="emit the full rewrite tree with G1/G2/G3 children")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dissect", help="reduction tree of an acyclic graph")
    p.add_argument("edges")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--strategy", default="lex")
    p.add_argument("--tree", action="store_true", help="emit the full reduction tree")
    common(p)
    p.set_defaults(func=_cmd_dissect)

    p = sub.add_parser("trees", help="noncrossing alternating spanning trees")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("triangulate", help="canonical triangulation and vertex figure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-svg", default=None, metavar="PATH")
    common(p)
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("realize", help="realize the pipe dream complex geometrically")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-svg", default=None, metavar="PATH")
    common(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SELECTORS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--w", default=None, help="permutation for groth-h")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    token = LIMIT_N.set(args.limit_n)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        LIMIT_N.reset(token)


if __name__ == "__main__":
    sys.exit(main())
