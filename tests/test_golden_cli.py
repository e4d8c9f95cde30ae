"""Golden CLI outputs: every README example and a reduce/dissect matrix
must print exactly what `tests/golden_cli.json` recorded.

README examples are stored in full (stdout, exit code, and the bytes of
any SVG they write); the reduce/dissect matrix over forests, strategies
and output modes, the larger geometry outputs, the polynomial outputs and
the pipe dream complex outputs are stored as SHA-256 digests of stdout.  Regenerate with
`PYTHONPATH=src python tests/test_golden_cli.py`, and only at a commit
whose outputs are known to be right.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from pipedreams.cli import build_parser, main

GOLDEN = Path(__file__).with_name("golden_cli.json")
SVG = "figure.svg"

README_EXAMPLES = [
    ["groth", "1432", "--beta-only"],
    ["groth", "21", "--double"],
    ["groth", "1432", "--qt"],
    ["pdc", "1432", "--h", "--f"],
    ["pdc", "1432", "--interior"],
    ["pdc", "1432", "--dreams", "--json"],
    ["reduce", "12,23,34", "--strategy", "lex"],
    ["reduce", "12,23,34", "--strategy", "script:2,3,4;1,2,3;1,2,4", "--tree", "--json"],
    ["dissect", "12,23,34", "--strategy", "rlex"],
    ["trees", "--n", "4"],
    ["triangulate", "--n", "4", "--emit-svg", SVG],
    ["realize", "--n", "4", "--emit-svg", SVG],
    ["verify", "kirillov", "--n", "5"],
    ["verify", "groth-h", "--w", "4321"],
    ["verify", "all", "--n", "4", "--seed", "7"],
]

FORESTS = ("12,23,34", "13,23,34,45", "12,24,25,36", "(1,2),(2,3),(3,10)")
STRATEGIES = (
    ("--strategy", "lex"),
    ("--strategy", "rlex"),
    ("--strategy", "random", "--seed", "0"),
    ("--strategy", "random", "--seed", "5"),
    ("--strategy", "script:2,3,4;1,2,3;1,2,4"),
)
MODES = ((), ("--json",), ("--tree",), ("--tree", "--json"))

MATRIX = [
    [command, forest, *strategy, *mode]
    for command in ("reduce", "dissect")
    for forest in FORESTS
    for strategy in STRATEGIES
    for mode in MODES
]

# Trees, triangulations and realizations at the largest n the tests afford:
# they pin the order of the Prufer scan and every exact coordinate.
GEOMETRY = [
    ["trees", "--n", "6", "--json"],
    ["trees", "--n", "7", "--json"],
    ["triangulate", "--n", "5", "--json"],
    ["triangulate", "--n", "6", "--json"],
    ["realize", "--n", "5", "--json"],
    ["verify", "realize", "--n", "6", "--json"],
    ["verify", "bijection", "--n", "7", "--json"],
]

# Polynomial arithmetic and substitution end to end: every check at rank 5,
# groth-h on all of S_5, the default beta polynomial in JSON, double and q,t
# polynomials from S_5 and S_6 (654321 in text mode), and groth-h on one
# S_6 permutation.
POLYNOMIALS = [
    ["verify", "all", "--n", "5", "--json"],
    ["verify", "groth-h", "--n", "5", "--json"],
    ["groth", "1432", "--json"],
    ["groth", "15342", "--double", "--json"],
    ["groth", "214365", "--double", "--json"],
    ["groth", "165432", "--qt", "--json"],
    ["groth", "321654", "--double", "--json"],
    ["groth", "654321", "--double"],
    ["verify", "groth-h", "--w", "321654", "--json"],
]

# The pipe dream complex in its default output and in JSON, where it also
# carries the complex itself; and the interior faces of the identity of
# S_8, whose complex has one facet on 28 boxes.
COMPLEXES = [
    ["pdc", "1432"],
    ["pdc", "1432", "--json"],
    ["pdc", "1432", "--h", "--json"],
    ["pdc", "1432", "--f", "--interior", "--json"],
    ["pdc", "12345678", "--interior", "--json"],
]


def run_cli(argv):
    """Exit code, stdout, and the bytes of the SVG written to the working
    directory (None when the command writes none)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    svg = Path(SVG).read_bytes() if SVG in argv else None
    return code, out.getvalue(), svg


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record():
    data = {"readme": [], "matrix": {}, "geometry": {}, "polynomials": {}, "complexes": {}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in README_EXAMPLES:
                code, out, svg = run_cli(argv)
                data["readme"].append({"argv": argv, "exit": code, "stdout": out,
                                       "svg": svg.decode() if svg is not None else None})
            for argv in MATRIX:
                code, out, _svg = run_cli(argv)
                assert code == 0, argv
                data["matrix"][" ".join(argv)] = digest(out)
            for group, commands in (("geometry", GEOMETRY), ("polynomials", POLYNOMIALS),
                                    ("complexes", COMPLEXES)):
                for argv in commands:
                    code, out, _svg = run_cli(argv)
                    assert code == 0, argv
                    data[group][" ".join(argv)] = digest(out)
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_is_byte_identical(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    case = golden()["readme"][index]
    assert case["argv"] == README_EXAMPLES[index]
    code, out, svg = run_cli(case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
    assert svg == (case["svg"].encode() if case["svg"] is not None else None)


def test_reduce_dissect_matrix_is_byte_identical():
    expected = golden()["matrix"]
    assert sorted(expected) == sorted(" ".join(argv) for argv in MATRIX)
    changed = []
    for argv in MATRIX:
        code, out, _svg = run_cli(argv)
        if code != 0 or digest(out) != expected[" ".join(argv)]:
            changed.append(" ".join(argv))
    assert not changed


@pytest.mark.parametrize("argv", GEOMETRY, ids=" ".join)
def test_geometry_output_is_byte_identical(argv):
    code, out, _svg = run_cli(argv)
    assert code == 0
    assert digest(out) == golden()["geometry"][" ".join(argv)]


@pytest.mark.parametrize("argv", POLYNOMIALS, ids=" ".join)
def test_polynomial_output_is_byte_identical(argv):
    code, out, _svg = run_cli(argv)
    assert code == 0
    assert digest(out) == golden()["polynomials"][" ".join(argv)]


@pytest.mark.parametrize("argv", COMPLEXES, ids=" ".join)
def test_complex_output_is_byte_identical(argv):
    code, out, _svg = run_cli(argv)
    assert code == 0
    assert digest(out) == golden()["complexes"][" ".join(argv)]


def uncovered(parser: argparse.ArgumentParser, argvs: list[list[str]]) -> list[str]:
    """What the argvs leave unexercised: each subcommand with no argv in
    text mode or none with `--json`, and each other store_true flag of a
    subcommand that none of its argvs passes."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    gaps = []
    for name, sub in subcommands.choices.items():
        own = [argv for argv in argvs if argv[0] == name]
        if all("--json" in argv for argv in own):
            gaps.append(f"{name} (text)")
        if not any("--json" in argv for argv in own):
            gaps.append(f"{name} --json")
        for action in sub._actions:
            flags = set(action.option_strings) - {"--json"}
            if isinstance(action, argparse._StoreTrueAction) and flags and not any(
                    flags & set(argv) for argv in own):
                gaps.append(f"{name} {max(flags, key=len)}")
    return gaps


def test_goldens_cover_every_subcommand_and_output_flag():
    """A new subcommand or output flag cannot skip the byte-identical check."""
    data = golden()
    argvs = [case["argv"] for case in data.pop("readme")]
    argvs += [key.split(" ") for group in data.values() for key in group]
    assert uncovered(build_parser(), argvs) == []


def test_detects_an_uncovered_subcommand_or_flag():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b"):
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.add_argument("--deep", action="store_true")
        p.add_argument("--n", type=int)
    assert uncovered(parser, [["a", "--deep"], ["a", "--json", "--n", "3"], ["b", "--json"]]) == [
        "b (text)", "b --deep"]
    assert uncovered(parser, [["a", "--deep"], ["b", "--deep", "--json"]]) == [
        "a --json", "b (text)"]


if __name__ == "__main__":
    sys.exit(record())
