"""No test-only code in the runtime: every module-level function in
`src/pipedreams` is public API (named in `__all__`) or has a caller in
`src/`, and so is every method, property, classmethod and staticmethod of
its classes, dunders apart.  Code that only the tests use belongs in the
tests (`tests/oracles.py` for reference implementations).  And no function
takes the pipe dream search limit as a parameter: `dreams.LIMIT_N` holds it."""

import ast
from pathlib import Path

import pipedreams

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "pipedreams"

# Members defined on several classes on purpose, whose callers reach them
# through an object of unknown class: the pair-choice strategies, the two
# trees, and the JSON converters of every emitted type, which README
# promises to round-trip (tests/test_json_round_trip.py).
SHARED_MEMBERS = {
    *(f"{c}.choose" for c in ("Strategy", "LexFirst", "ReverseLex", "SeededRandom", "Scripted")),
    *(f"{c}.{m}" for c in ("ReductionNode", "Dissection") for m in ("leaves", "outline")),
    *(f"{c}.to_jsonable" for c in (
        "AcyclicGraph", "Dissection", "MultiPolynomial", "PipeDream", "RealizationMap",
        "ReducedForm", "ReductionNode", "Simplex", "SimplicialComplex", "VerifyResult")),
    *(f"{c}.from_jsonable" for c in (
        "AcyclicGraph", "MultiPolynomial", "PipeDream", "ReducedForm", "Simplex",
        "SimplicialComplex")),
}

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions_without_runtime_caller(package_dir: Path, public) -> list[str]:
    """`module:function` for each module-level function, and
    `module:Class.member` for each non-dunder method, property,
    classmethod and staticmethod of a module-level class, that is not in
    `public` and has no use in the package outside its own definition.

    Any use of a function's name counts (as a name or as an attribute).
    An attribute use resolves to a class where the ast shows it:
    `Class.member`, `self.member` or `cls.member` in that class's body, and
    `x.member` for a parameter `x: Class`.  An unresolved `x.member` counts
    only when one class alone defines a member or field of that name; a
    name that several classes define needs a resolved use, or
    `Class.member` in `public`."""
    trees = [(p.stem, ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(package_dir.glob("*.py"))]
    classes = {node.name for _, tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    defined: list[tuple[str, str | None, str]] = []  # (module, class, name)
    owners: dict[str, set[str]] = {}  # member or field name -> classes defining it
    names: set[str] = set()
    attrs: set[tuple[str | None, str]] = set()  # (class the use resolves to, name)

    def record(node, owner: str | None, own: str) -> None:
        known = {"self": owner, "cls": owner} if owner else {}
        if isinstance(node, FUNCTION):  # parameters annotated with a class
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if isinstance(arg.annotation, ast.Name) and arg.annotation.id in classes:
                    known[arg.arg] = arg.annotation.id
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id != own:
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr != own:
                base = sub.value.id if isinstance(sub.value, ast.Name) else None
                attrs.add((known.get(base, base if base in classes else None), sub.attr))

    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, FUNCTION):
                defined.append((module, None, node.name))
                record(node, None, node.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTION) and not item.name.endswith("__"):
                        defined.append((module, node.name, item.name))
                        owners.setdefault(item.name, set()).add(node.name)
                        record(item, node.name, item.name)
                    else:
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            owners.setdefault(item.target.id, set()).add(node.name)  # a field
                        record(item, node.name, "")
            else:
                record(node, None, "")

    def called(cls: str | None, name: str) -> bool:
        if cls is None:
            return name in public or name in names or any(n == name for _, n in attrs)
        return (f"{cls}.{name}" in public or (cls, name) in attrs
                or ((None, name) in attrs and owners[name] == {cls}))

    return [f"{module}:{name}" if cls is None else f"{module}:{cls}.{name}"
            for module, cls, name in defined if not called(cls, name)]


def test_every_function_is_public_or_called_in_src():
    public = set(pipedreams.__all__) | SHARED_MEMBERS
    assert functions_without_runtime_caller(PACKAGE_DIR, public) == []


def test_shared_members_exist():
    """Each allow-listed member is still defined, so the list cannot go stale."""
    gone = SHARED_MEMBERS - {
        f"{node.name}.{item.name}"
        for path in PACKAGE_DIR.glob("*.py")
        for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, FUNCTION)
    }
    assert gone == set()


def test_detects_a_function_with_no_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def api():\n    return api\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
    )
    assert functions_without_runtime_caller(tmp_path, {"api"}) == ["mod:used", "mod:orphan"]


def test_detects_a_method_with_no_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.x = self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    @property\n    def unique(self):\n        return 2\n\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n\n"
        "    @staticmethod\n    def orphan(n):\n        return A.orphan(n - 1) if n else 0\n\n"
        "    def __str__(self):\n        return 'a'\n\n"
        "def api(a):\n    return a.unique, A.make\n"
    )
    assert functions_without_runtime_caller(tmp_path, {"api"}) == ["mod:A.orphan"]


def test_detects_a_same_named_method_on_two_classes(tmp_path):
    """`x.shared()` cannot tell which class it calls, so it keeps neither
    alive; `self.shared()` in B keeps B's; an allow-list entry keeps A's.
    A field of the same name makes `x.size` ambiguous too, and a parameter
    annotated with the class resolves it."""
    two = (
        "class A:\n    def shared(self):\n        return 1\n\n"
        "class B:\n    def shared(self):\n        return 2\n\n"
    )
    (tmp_path / "mod.py").write_text(two + "def api(x):\n    return x.shared()\n")
    assert functions_without_runtime_caller(tmp_path, {"api"}) == ["mod:A.shared", "mod:B.shared"]
    (tmp_path / "mod.py").write_text(
        two + "    def other(self):\n        return self.shared()\n\n"
        "def api(x):\n    return x.shared(), x.other()\n"
    )
    assert functions_without_runtime_caller(tmp_path, {"api"}) == ["mod:A.shared"]
    assert functions_without_runtime_caller(tmp_path, {"api", "A.shared"}) == []
    field = "class A:\n    def size(self):\n        return 1\n\nclass B:\n    size: int\n\n"
    (tmp_path / "mod.py").write_text(field + "def api(x):\n    return x.size\n")
    assert functions_without_runtime_caller(tmp_path, {"api"}) == ["mod:A.size"]
    (tmp_path / "mod.py").write_text(field + "def api(a: A):\n    return a.size\n")
    assert functions_without_runtime_caller(tmp_path, {"api"}) == []


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
