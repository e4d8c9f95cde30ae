"""No test-only code in the runtime: every module-level function in
`src/pipedreams` is public API (named in `__all__`) or has a caller in
`src/`.  Code that only the tests use belongs in the tests
(`tests/oracles.py` for reference implementations)."""

import ast
from pathlib import Path

import pipedreams

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "pipedreams"


def functions_without_runtime_caller(package_dir: Path, public) -> list[str]:
    """`module:function` for each module-level function that is not in
    `public` and whose name is never used in the package outside its own
    definition (as a name or as an attribute)."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                defined.append((path.stem, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{module}:{name}" for module, name in defined
            if name not in used and name not in public]


def test_every_function_is_public_or_called_in_src():
    assert functions_without_runtime_caller(PACKAGE_DIR, set(pipedreams.__all__)) == []


def test_detects_a_function_with_no_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def api():\n    return api\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
    )
    assert functions_without_runtime_caller(tmp_path, {"api"}) == ["mod:used", "mod:orphan"]
