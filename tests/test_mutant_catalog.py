"""The mutation catalog stays applicable to the code it mutates.

`mutants/run.py` reports a missing or repeated snippet only when it is
run; these checks catch a stale entry with every test run, without
applying any mutant."""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOG = json.loads((ROOT / "mutants" / "catalog.json").read_text())


def defined_tests(path: Path) -> set[str]:
    """Names of the test functions a test file defines at module level."""
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("entry", CATALOG, ids=[e["id"] for e in CATALOG])
def test_snippet_occurs_once(entry):
    text = (ROOT / entry["file"]).read_text()
    assert text.count(entry["snippet"]) == 1


@pytest.mark.parametrize("entry", CATALOG, ids=[e["id"] for e in CATALOG])
def test_named_tests_exist(entry):
    for node_id in entry["tests"]:
        file, _, name = node_id.partition("::")
        path = ROOT / file
        assert path.is_file(), node_id
        if name:
            assert name.partition("[")[0] in defined_tests(path), node_id
