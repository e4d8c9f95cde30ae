"""The command-line surface: output shapes, exit codes, determinism."""

import json

import pytest

from pipedreams.cli import main, parse_edges
from pipedreams.poly import MultiPolynomial
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


def test_pdc_h(capsys):
    code, out = run(capsys, "pdc", "1432", "--h")
    assert code == 0
    assert "x^2 + 3*x + 1" in out
    assert "facets: 5" in out


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


def test_dissect(capsys):
    code, out = run(capsys, "dissect", "12,23,34")
    assert code == 0
    data = {}
    for line in out.splitlines():
        if line.startswith("census"):
            data["census"] = line
    assert "census" in data


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


def test_invalid_permutation_exits_2(capsys):
    assert main(["groth", "notaperm"]) == 2


def test_dissect_repeated_edge_exits_2(capsys):
    assert main(["dissect", "12,12,23"]) == 2
    assert "repeat an edge" in capsys.readouterr().err


def test_invalid_selector_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything"])
    assert err.value.code == 2


def test_limit_guard_exit(capsys):
    assert main(["groth", "1,10,9,8,7,6,5,4,3,2"]) == 2


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


def test_emitted_objects_reparse_equal(capsys):
    """Data objects in JSON output reconstruct to equal values."""
    from pipedreams.complexes import SimplicialComplex, build_pdc
    from pipedreams.perms import Permutation
    from pipedreams.polytopes import AcyclicGraph, Simplex, tree_simplex, vertex_figure_simplices

    C = build_pdc(Permutation((1, 4, 3, 2)))
    C2 = SimplicialComplex.from_jsonable(C.to_jsonable())
    assert C2.vertices == C.vertices and set(C2.facets) == set(C.facets)
    G = AcyclicGraph(5, ((1, 3), (2, 3), (3, 5)))
    assert AcyclicGraph.from_jsonable(G.to_jsonable()) == G
    S = tree_simplex(AcyclicGraph.path(4))
    assert Simplex.from_jsonable(S.to_jsonable()) == S
    V = vertex_figure_simplices(4)[2]
    assert Simplex.from_jsonable(V.to_jsonable()) == V
