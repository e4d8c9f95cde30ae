"""The command-line surface: output shapes, exit codes, determinism."""

import json
import re
import time
from collections import Counter
from math import comb

import pytest

from pipedreams import cli, suites
from pipedreams.cli import main, parse_edges
from pipedreams.complexes import SimplicialComplex
from pipedreams.dreams import EnumerationLimitError, enumerate_pipe_dreams
from pipedreams.perms import Permutation, identity_window
from pipedreams.poly import MultiPolynomial
from pipedreams.realization import RealizationError
from pipedreams.report import VerifyResult, jsonable
from pipedreams.subdivision import ReducedForm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_edges():
    assert parse_edges("12,23,34") == ((1, 2), (2, 3), (3, 4))
    assert parse_edges("(1,2),(2,10)") == ((1, 2), (2, 10))
    with pytest.raises(ValueError):
        parse_edges("123")
    with pytest.raises(ValueError, match=r"cannot parse edge '\(1,2,3\)'"):
        parse_edges("(1,2,3)")
    with pytest.raises(ValueError, match=r"cannot parse edge '\(2,x\)'"):
        parse_edges("(1,2),(2,x)")


@pytest.mark.parametrize("text, chunk", [("(1,2),(2,3", "(2,3"), ("((1,2),(2,3))", "((1,2)"),
                                         ("(1,2)(2,3)", "(1,2)(2,3)")])
def test_parse_edges_takes_one_pair_of_parentheses_per_edge(capsys, text, chunk):
    with pytest.raises(ValueError, match=f"cannot parse edge {re.escape(repr(chunk))}"):
        parse_edges(text)
    assert main(["reduce", text]) == 2
    assert f"cannot parse edge {chunk!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["reduce", "12", "--strategy", "script:"], "bad script triple ''"),
    (["reduce", "12,23", "--strategy", "script:1,2,x"], "bad script triple '1,2,x'"),
    (["groth", ",1"], "cannot parse permutation ',1'"),
])
def test_unparsable_text_is_named(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["reduce", "31,12"], "edge (3, 1) invalid on [3]"),
    (["dissect", "21"], "edge (2, 1) invalid on [2]"),
])
def test_rank_is_inferred_from_both_ends_of_every_edge(capsys, argv, message):
    """Without --n the rank is the largest end of any edge, so a reversed
    edge is refused on a rank that its own ends give."""
    args = cli.PARSER.parse_args(argv)
    with pytest.raises(ValueError, match=re.escape(message)):
        args.func(args, cli.RunReport(args.command, seed=args.seed))
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_unparsable_edge_exits_2(capsys):
    assert main(["reduce", "(1,2,3)"]) == 2
    assert "cannot parse edge '(1,2,3)'" in capsys.readouterr().err


def test_groth_beta_only(capsys):
    code, out = run(capsys, "groth", "1432", "--beta-only")
    assert code == 0
    assert "b^2 + 5*b + 5" in out


def test_groth_double(capsys):
    code, out = run(capsys, "groth", "21", "--double")
    assert code == 0
    assert "x1 - y1" in out


def test_groth_qt_expanded(capsys):
    code, out = run(capsys, "groth", "1432", "--qt")
    assert code == 0
    assert "q^5*b^2" in out  # leading term of (q-t)^3 (b(q-t))^2 ... expanded


def test_groth_json_round_trip(capsys):
    code, out = run(capsys, "groth", "1432", "--beta-only", "--json")
    assert code == 0
    data = json.loads(out)
    poly = MultiPolynomial.from_jsonable(data["results"]["beta"])
    b = MultiPolynomial.variable("b", ("b",))
    assert poly == b**2 + 5 * b + 5


@pytest.mark.parametrize("argv, many", [
    (("groth", "321654", "--double", "--json"), True),
    (("groth", "1432", "--json"), False),
], ids=["many-batches", "one-batch"])
def test_json_report_is_what_dumps_would_print(capsys, monkeypatch, argv, many):
    """The batched writes of the rendered chunks add up to the one string
    json.dumps makes of the report, and a newline, over many batches (the
    last one partial) and over one."""
    reports = []
    render = cli.RunReport.render

    def recorded(self, as_json):
        reports.append(self)
        return render(self, as_json)

    monkeypatch.setattr(cli.RunReport, "render", recorded)
    code, out = run(capsys, *argv)
    assert code == 0
    [report] = reports
    assert out == json.dumps(jsonable(vars(report)), sort_keys=True, indent=2) + "\n"
    chunks = sum(1 for _ in render(report, True))
    assert (chunks > 2 * cli.WRITE_BATCH and chunks % cli.WRITE_BATCH) if many else chunks < cli.WRITE_BATCH


def test_json_report_never_builds_the_whole_text(capsys, monkeypatch):
    """--json encodes the report chunk by chunk: neither json.dumps nor a
    one-shot encode is called, and the output is unchanged."""
    argv = ("groth", "1432", "--double", "--json")
    expected = run(capsys, *argv)

    def refused(*args, **kwargs):
        raise AssertionError("the whole report was encoded at once")

    monkeypatch.setattr(cli.json, "dumps", refused)
    monkeypatch.setattr(cli.json.JSONEncoder, "encode", refused)
    assert run(capsys, *argv) == expected


def test_pdc_h(capsys):
    code, out = run(capsys, "pdc", "1432", "--h")
    assert code == 0
    assert "x^2 + 3*x + 1" in out
    assert "facets: 5" in out


def test_pdc_f_and_h_build_no_face_closure(capsys, monkeypatch):
    """f and h of a pipe dream complex come from flips, not from the face
    closure: the identities of S_7 and S_8, one facet on 21 and on 28 boxes,
    report h = 1 and the f-vector of a simplex in under a second each."""
    def no_closure(self):
        raise RuntimeError("the face closure was built")
    monkeypatch.setattr(SimplicialComplex, "faces", no_closure)
    t0 = time.perf_counter()
    code, out = run(capsys, "pdc", "1234567", "--h")
    assert code == 0 and out.endswith("h: 1\n")
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    code, out = run(capsys, "pdc", "12345678", "--json")
    assert code == 0 and time.perf_counter() - t0 < 1
    results = json.loads(out)["results"]
    assert results["f_vector"] == [comb(28, k) for k in range(29)]
    assert MultiPolynomial.from_jsonable(results["h"]) == MultiPolynomial.one(("x",))


def test_pdc_interior_builds_no_face_closure(capsys, monkeypatch):
    """The interior faces come from the pipe dreams: the identity of S_8,
    one facet on 28 boxes, lists its one interior face, the facet, with
    none of the 2^28 faces of the closure built."""
    def no_closure(self):
        raise RuntimeError("the face closure was built")
    monkeypatch.setattr(SimplicialComplex, "faces", no_closure)
    code, out = run(capsys, "pdc", "12345678", "--interior", "--json")
    assert code == 0
    boxes = sorted([r, c] for r in range(1, 8) for c in range(1, 9 - r))
    assert json.loads(out)["results"]["interior"] == [{"face": boxes, "codim": 0}]


def test_pdc_computes_h_only_to_print_it(capsys, monkeypatch):
    """`pdc --interior` alone prints neither f nor h, so it computes no
    h-polynomial; `pdc --dreams` still prints both."""
    code, out = run(capsys, "pdc", "1765432", "--dreams", "--json")
    results = json.loads(out)["results"]
    assert code == 0 and "f_vector" in results and "h" in results

    def refused(C, w):
        raise AssertionError("pdc --interior computed the h-polynomial")

    monkeypatch.setattr(cli, "h_polynomial", refused)
    code, out = run(capsys, "pdc", "1765432", "--interior", "--json")
    assert code == 0
    assert {"f_vector", "h"}.isdisjoint(json.loads(out)["results"])


def test_pdc_dreams_enumeration(capsys):
    code, out = run(capsys, "pdc", "1432", "--dreams", "--json")
    assert code == 0
    dreams = json.loads(out)["results"]["dreams"]
    assert len(dreams) == 11
    sizes = [len(d["crosses"]) for d in dreams]
    assert sizes == sorted(sizes)
    assert dreams[0] == {"n": 4, "crosses": [[1, 2], [1, 3], [2, 2]]}


def test_reduce_scripted(capsys):
    code, out = run(capsys, "reduce", "12,23,34", "--strategy", "script:2,3,4;1,2,3;1,2,4")
    assert code == 0
    assert "b^2*x14" in out
    assert "b^2 + 5*b + 5" in out


def test_reduce_json_round_trip(capsys):
    code, out = run(capsys, "reduce", "12,23,34", "--json")
    assert code == 0
    data = json.loads(out)
    rf = ReducedForm.from_jsonable(data["results"]["reduced_form"])
    assert len(rf.monomials) == 11


def test_reduce_tree(capsys):
    code, out = run(capsys, "reduce", "12,23", "--tree", "--json")
    assert code == 0
    tree = json.loads(out)["results"]["tree"]
    assert tree["triple"] == [1, 2, 3]
    assert set(tree["children"]) == {"G1", "G2", "G3"}
    assert tree["children"]["G3"]["beta"] == 1


def merged_leaves(node):
    """{(edges, beta): count} over the leaves of a JSON rewrite tree."""
    if "children" not in node:
        return Counter([(tuple(map(tuple, node["edges"])), node["beta"])])
    return sum(map(merged_leaves, node["children"].values()), Counter())


@pytest.mark.parametrize("strategy", ["lex", "rlex", "random", "script:2,3,4;1,2,3"])
@pytest.mark.parametrize("forest, seed", [("12,23,34,45", "0"), ("13,23,34,45", "5")])
def test_reduce_tree_prints_its_own_reduced_form(capsys, strategy, forest, seed):
    """With --tree the printed reduced form is the printed tree's leaves
    merged, under a seeded strategy too: one rewrite, one draw."""
    code, out = run(capsys, "reduce", forest, "--strategy", strategy, "--seed", seed,
                    "--tree", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    printed = {(tuple(map(tuple, m["edges"])), m["beta"]): m["coeff"]
               for m in results["reduced_form"]["monomials"]}
    assert printed == dict(merged_leaves(results["tree"]))


def test_reduce_tree_text_is_an_outline(capsys):
    code, out = run(capsys, "reduce", "12,23", "--tree")
    assert code == 0
    assert out == (
        "reduced_form: x12*x13 + x13*x23 + b*x13\n"
        "q: b + 2\n"
        "tree:\n"
        "  x12*x23  triple (1, 2, 3)\n"
        "    G1: x12*x13\n"
        "    G2: x13*x23\n"
        "    G3: b*x13\n"
    )


def test_dissect_tree_text_is_an_outline(capsys):
    code, out = run(capsys, "dissect", "12,23", "--tree")
    assert code == 0
    assert out.splitlines()[1:] == [
        "tree:",
        "  {12,23}  triple (1, 2, 3)",
        "    G1: {12,13}",
        "    G2: {13,23}",
        "    G3: {13}",
    ]


def test_dissect(capsys):
    code, out = run(capsys, "dissect", "12,23,34")
    assert code == 0
    data = {}
    for line in out.splitlines():
        if line.startswith("census"):
            data["census"] = line
    assert "census" in data


def test_text_mode_prints_dicts_as_json(capsys):
    code, out = run(capsys, "dissect", "12,23")
    assert code == 0
    assert out.splitlines() == [
        'census: {"0": 2, "1": 1}',
        "leaves:",
        '  {"beta": 0, "edges": [[1, 2], [1, 3]]}',
        '  {"beta": 0, "edges": [[1, 3], [2, 3]]}',
        '  {"beta": 1, "edges": [[1, 3]]}',
    ]
    for argv in (("pdc", "1432", "--interior"), ("pdc", "1432", "--dreams"),
                 ("triangulate", "--n", "3")):
        code, out = run(capsys, *argv)
        assert code == 0
        items = [line[2:] for line in out.splitlines() if line.startswith("  {")]
        assert items and all(isinstance(json.loads(item), dict) for item in items)


def test_dissect_tree_json(capsys):
    code, out = run(capsys, "dissect", "12,23", "--tree", "--json")
    assert code == 0
    tree = json.loads(out)["results"]["tree"]
    assert set(tree["tree"]["children"]) == {"G1", "G2", "G3"}


def test_trees(capsys):
    code, out = run(capsys, "trees", "--n", "4")
    assert code == 0
    assert "count: 5" in out


def test_triangulate_json(capsys):
    code, out = run(capsys, "triangulate", "--n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]["simplices"]) == 2
    assert len(data["results"]["vertex_figure"]) == 2


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_triangulate_refuses_rank_one_before_any_computation(capsys, monkeypatch, json_flag):
    """At n = 1 the root polytope is a point: there is no vertex figure to
    emit, so nothing is printed that could not be read back."""
    def unreachable(n):
        raise AssertionError("computed before the rank was checked")

    monkeypatch.setattr(cli, "canonical_triangulation", unreachable)
    assert main(["triangulate", "--n", "1", *json_flag]) == 2
    captured = capsys.readouterr()
    assert "n >= 2" in captured.err
    assert captured.out == ""


def test_realize_with_svg(tmp_path, capsys):
    target = tmp_path / "vf.svg"
    code, out = run(capsys, "realize", "--n", "4", "--emit-svg", str(target))
    assert code == 0
    svg = target.read_text()
    assert svg.startswith("<svg") and svg.count("<polygon") == 5


def test_verify_pass_and_exit_codes(capsys):
    code, out = run(capsys, "verify", "kirillov", "--n", "5")
    assert code == 0
    assert "check kirillov:5: pass" in out


def test_verify_all_n4(capsys):
    code, out = run(capsys, "verify", "all", "--n", "4", "--seed", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("check ")]
    assert len(lines) >= 14
    assert all(l.endswith("pass") for l in lines)


def test_verify_groth_h_single_w(capsys):
    code, out = run(capsys, "verify", "groth-h", "--w", "4321")
    assert code == 0


def test_failing_check_exits_1_and_reports_it(capsys, monkeypatch):
    monkeypatch.setattr(suites, "verify_kirillov",
                        lambda n: VerifyResult(f"kirillov:{n}", False, {"diff": {"(0,)": 1}}))
    code, out = run(capsys, "verify", "kirillov", "--n", "5")
    assert code == 1
    assert out == 'check kirillov:5: FAIL\n  details: {"diff": {"(0,)": 1}}\n'
    code, out = run(capsys, "verify", "kirillov", "--n", "5", "--json")
    assert code == 1
    assert '"ok": false' in out
    assert json.loads(out)["checks"] == [
        {"name": "kirillov:5", "ok": False, "details": {"diff": {"(0,)": 1}}}]


def test_realization_error_exits_1_and_reports_it(tmp_path, capsys, monkeypatch):
    def fail(n):
        raise RealizationError("vertex map is not injective")

    monkeypatch.setattr(cli, "realize", fail)
    target = tmp_path / "vf.svg"
    code, out = run(capsys, "realize", "--n", "4", "--emit-svg", str(target))
    assert code == 1
    assert out == 'check realize:4: FAIL\n  details: {"reason": "vertex map is not injective"}\n'
    assert not target.exists()
    code, out = run(capsys, "realize", "--n", "4", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["results"] == {}
    assert data["checks"] == [
        {"name": "realize:4", "ok": False, "details": {"reason": "vertex map is not injective"}}]


@pytest.mark.parametrize("argv, message", [
    (["verify", "kirillov", "--w", "1432"], "--w applies to groth-h only"),
    (["verify", "all", "--w", "132", "--n", "3"], "--w applies to groth-h only"),
    (["verify", "groth-h", "--w", "21", "--n", "5"], "--n 5 is not the rank 2 of --w 21"),
])
def test_verify_refuses_a_w_it_would_ignore(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_verify_groth_h_w_with_its_own_rank(capsys):
    code, out = run(capsys, "verify", "groth-h", "--w", "21", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["inputs"] == {"suite": "groth-h", "n": 2, "w": "21"}
    assert [c["name"] for c in data["checks"]] == ["groth-h:21"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_narayana_refuses_rank_one_before_any_check(capsys, monkeypatch, json_flag):
    def unreachable(n):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suites, "check_census", unreachable)
    assert main(["verify", "narayana", "--n", "1", *json_flag]) == 2
    captured = capsys.readouterr()
    assert "n >= 2" in captured.err
    assert captured.out == ""


def test_verify_kirillov_refuses_before_rewriting(capsys, monkeypatch):
    """Past the search limit, verify kirillov exits 2 naming --limit-n
    without rewriting the path first."""
    def unreachable(*args):
        raise AssertionError("rewriting ran")

    monkeypatch.setattr(suites, "q_polynomial", unreachable)
    assert main(["verify", "kirillov", "--n", "10"]) == 2
    captured = capsys.readouterr()
    assert "--limit-n" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["realize", "triangulate"])
def test_unwritable_svg_path_exits_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "fig.svg"
    assert main([command, "--n", "3", "--emit-svg", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {target}" in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


def test_invalid_permutation_exits_2(capsys):
    assert main(["groth", "notaperm"]) == 2


def test_dissect_repeated_edge_exits_2(capsys):
    assert main(["dissect", "12,12,23"]) == 2
    assert "repeat an edge" in capsys.readouterr().err


def test_decreasing_script_triple_exits_2(capsys):
    assert main(["reduce", "12,23", "--strategy", "script:3,2,1"]) == 2
    assert "i < j < k" in capsys.readouterr().err


def test_invalid_selector_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything"])
    assert err.value.code == 2


def test_limit_guard_exit(capsys):
    assert main(["groth", "1,10,9,8,7,6,5,4,3,2"]) == 2
    assert "--limit-n" in capsys.readouterr().err


IDENTITY_10 = "1,2,3,4,5,6,7,8,9,10"


@pytest.mark.parametrize("flags,printed", [((), "beta: 1\n"), (("--double",), "double: 1\n")],
                         ids=["beta", "double"])
def test_limit_override_flag(capsys, flags, printed):
    """Each builder that expands over the cross sets of Pipes(w) refuses a
    rank past the limit, and `--limit-n` lifts the refusal."""
    assert main(["groth", IDENTITY_10, *flags]) == 2
    assert "--limit-n" in capsys.readouterr().err
    code, out = run(capsys, "groth", IDENTITY_10, *flags, "--limit-n", "10")
    assert code == 0
    assert out == printed


def test_limit_override_does_not_outlive_main(capsys):
    assert main(["groth", IDENTITY_10, "--limit-n", "10"]) == 0
    with pytest.raises(EnumerationLimitError):
        enumerate_pipe_dreams(Permutation(identity_window(10)))


def test_determinism(capsys):
    _, out1 = run(capsys, "verify", "projection", "--n", "5", "--seed", "3", "--json")
    _, out2 = run(capsys, "verify", "projection", "--n", "5", "--seed", "3", "--json")
    assert out1 == out2
    _, t1 = run(capsys, "triangulate", "--n", "4", "--json")
    _, t2 = run(capsys, "triangulate", "--n", "4", "--json")
    assert t1 == t2


def test_svg_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "realize", "--n", "4", "--emit-svg", str(a))
    run(capsys, "realize", "--n", "4", "--emit-svg", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["triangulate", "realize"])
def test_refused_svg_keeps_existing_file(tmp_path, capsys, command):
    target = tmp_path / "fig.svg"
    target.write_bytes(b"earlier figure")
    assert main([command, "--n", "5", "--emit-svg", str(target)]) == 2
    assert "SVG output is limited" in capsys.readouterr().err
    assert target.read_bytes() == b"earlier figure"


@pytest.mark.parametrize("argv", [["trees", "--n", "0"], ["triangulate", "--n", "0"],
                                  ["trees", "--n", "-3"]])
def test_rank_below_one_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "n must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "all", "--n", "0"], ["verify", "kirillov", "--n", "0"],
                                  ["verify", "bijection", "--n", "0"],
                                  ["verify", "kirillov", "--n", "-1"]])
def test_verify_refuses_rank_below_one(capsys, argv):
    assert main(argv) == 2
    assert "--n must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "dissect"])
def test_explicit_n_zero_is_not_read_as_absent(capsys, command):
    assert main([command, "12,23", "--n", "0"]) == 2
    assert "invalid on [0]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["triangulate", "realize"])
def test_svg_rank_is_refused_before_any_computation(tmp_path, capsys, monkeypatch, command):
    def unreachable(n):
        raise AssertionError("computed before the SVG rank was checked")

    monkeypatch.setattr(cli, "canonical_triangulation", unreachable)
    monkeypatch.setattr(cli, "realize", unreachable)
    target = tmp_path / "fig.svg"
    assert main([command, "--n", "5", "--emit-svg", str(target)]) == 2
    captured = capsys.readouterr()
    assert "n=3, n=4" in captured.err
    assert captured.out == ""
    assert not target.exists()


# Each flag a subcommand would ignore: nothing it runs is random (--seed) or
# searches pipe dreams (--limit-n).
DEAD_FLAGS = [
    ["groth", "1432", "--seed", "1"],
    ["pdc", "1432", "--seed", "1"],
    ["trees", "--n", "3", "--seed", "1"],
    ["triangulate", "--n", "3", "--seed", "1"],
    ["realize", "--n", "3", "--seed", "1"],
    ["reduce", "12,23", "--limit-n", "5"],
    ["dissect", "12,23", "--limit-n", "5"],
    ["trees", "--n", "3", "--limit-n", "5"],
    ["triangulate", "--n", "3", "--limit-n", "5"],
]


@pytest.mark.parametrize("argv", DEAD_FLAGS, ids=" ".join)
def test_a_flag_the_subcommand_ignores_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    assert captured.out == ""


def test_seed_and_limit_reach_the_subcommands_that_use_them(capsys):
    for argv, seed in ((["verify", "projection", "--n", "4", "--seed", "3"], 3),
                       (["reduce", "12,23,34", "--strategy", "random", "--seed", "5"], 5),
                       (["dissect", "12,23,34", "--strategy", "random", "--seed", "5"], 5),
                       (["trees", "--n", "3"], 0), (["realize", "--n", "3", "--limit-n", "3"], 0),
                       (["groth", "1432", "--limit-n", "10"], 0)):
        code, out = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert json.loads(out)["seed"] == seed
    for argv in (["groth", "1432"], ["pdc", "1432"], ["realize", "--n", "4"],
                 ["verify", "kirillov", "--n", "4"]):
        assert main([*argv, "--limit-n", "3"]) == 2, argv
        assert "search limit 3; raise --limit-n" in capsys.readouterr().err


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def unreachable():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", unreachable)
    code, out = run(capsys, "groth", "1432")
    assert code == 0
    assert out == "beta: b^2 + 5*b + 5\n"
