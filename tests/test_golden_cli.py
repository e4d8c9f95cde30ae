"""Golden CLI outputs: every README example and a reduce/dissect matrix
must print exactly what `tests/golden_cli.json` recorded.

README examples are stored in full (stdout, exit code, and the bytes of
any SVG they write); the reduce/dissect matrix over forests, strategies
and output modes is stored as SHA-256 digests of stdout.  Regenerate with
`PYTHONPATH=src python tests/test_golden_cli.py`, and only at a commit
whose outputs are known to be right.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from pipedreams.cli import main

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
    data = {"readme": [], "matrix": {}}
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


if __name__ == "__main__":
    sys.exit(record())
