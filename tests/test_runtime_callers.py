"""No test-only code in the runtime: every module-level function in
`src/pipedreams` is public API (named in `__all__`) or has a caller in
`src/`.  Code that only the tests use belongs in the tests
(`tests/oracles.py` for reference implementations).  And no function takes
the pipe dream search limit as a parameter: `dreams.LIMIT_N` holds it."""

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


def functions_taking(package_dir: Path, param: str) -> list[str]:
    """`module:function` for each function or method, at any depth, with a
    parameter named `param`."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                if param in names:
                    found.append(f"{path.stem}:{getattr(node, 'name', '<lambda>')}")
    return found


def test_no_function_takes_the_search_limit():
    assert functions_taking(PACKAGE_DIR, "limit_n") == []


def test_detects_a_function_taking_the_search_limit(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def plain(w):\n    return w\n\n"
        "def passes(w, limit_n=9):\n    return w\n\n"
        "TABLE = {'k': lambda n, limit_n: n}\n"
    )
    assert functions_taking(tmp_path, "limit_n") == ["mod:passes", "mod:<lambda>"]
