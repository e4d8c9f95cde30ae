"""Spans and counters for the traced run, recorded from outside the
program.

`instrument` wraps the public functions and methods of each layer module
of `pipedreams` and rebinds every reference to an original in the package
(module attributes, module-level tables, defaults and closures), since
modules import each other's functions by name
(`from .perms import demazure_step`).  Each wrapped call is a span with a
name, start, end, parent and job number.  Self time is computed as the
spans close: a span's duration minus the durations of its child spans.
Spans are kept in memory, in flat arrays, and all written out when the run
ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

from jobs import PACKAGE

LAYERS = (
    "perms", "dreams", "poly", "grothendieck", "complexes", "subdivision",
    "polytopes", "linalg", "realization", "suites", "cli",
)

# Arithmetic on MultiPolynomial is the poly layer's work, though dunder.
POLY_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__neg__", "__pow__")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # open spans: [id, layer, name, start, child_s]
        self.active = dict.fromkeys(LAYERS, 0)  # open spans per layer
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.terms_max = 0
        self.names: list[str] = []
        # Closed spans, one column each, in the order they closed.
        self.ids, self.span_names, self.jobs = array("q"), array("i"), array("i")
        self.starts, self.ends, self.parents = array("d"), array("d"), array("q")
        self.next_id = 0
        self.job = -1

    def enter(self, layer: str, name: int) -> list:
        self.active[layer] += 1
        self.calls[layer] += 1
        span = [self.next_id, layer, name, 0.0, 0.0]
        self.next_id += 1
        self.stack.append(span)
        span[3] = self.clock()
        return span

    def leave(self, span: list) -> None:
        end = self.clock()
        sid, layer, name, start, child_s = span
        self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.active[layer] -= 1
        parent = -1
        if self.stack:
            self.stack[-1][4] += duration
            parent = self.stack[-1][0]
        self.ids.append(sid)
        self.span_names.append(name)
        self.jobs.append(self.job)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)

    def wrap(self, fn: Callable, layer: str, name: str, hook: Optional[Callable]) -> Callable:
        self.names.append(name)
        nid = len(self.names) - 1
        enter, leave = self.enter, self.leave
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = enter(layer, nid)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        leave(span)
                    if hook is not None:
                        hook(self, args, item)
                    yield item
            traced = traced_gen
        else:
            def traced(*args, **kwargs):
                span = enter(layer, nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(span)
                if hook is not None:
                    hook(self, args, result)
                return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, name, job, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id\tname\tjob\tstart\tend\tparent\n")
            for sid, name, job, start, end, parent in zip(
                    self.ids, self.span_names, self.jobs, self.starts, self.ends, self.parents):
                fh.write(f"{sid}\t{self.names[name]}\t{job}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# -- counters at layer boundaries ---------------------------------------------

def _count(key: str) -> Callable:
    def hook(t: Tracer, args, result) -> None:
        t.counts[key] += 1
    return hook


def _perms_call(t: Tracer, args, result) -> None:
    if t.active["dreams"]:
        t.counts["perms_in_dreams"] += 1


def _dreams_out(t: Tracer, args, result) -> None:
    t.counts["dreams_out"] += len(result)


def _poly_op(key: Optional[str]) -> Callable:
    def hook(t: Tracer, args, result) -> None:
        if key:
            t.counts[key] += 1
        terms = getattr(result, "terms", None)
        if terms is not None:
            t.counts["terms_out"] += len(terms)
            if len(terms) > t.terms_max:
                t.terms_max = len(terms)
    return hook


def _face_test(t: Tracer, args, result) -> None:
    t.counts["face_tests"] += 1
    if t.active["realization"]:
        t.counts["face_checks"] += 1
        t.counts["faces_found"] += bool(result)


def _boundary_faces(t: Tracer, args, result) -> None:
    t.counts["faces_materialized"] += len(result)


def _monomials_out(t: Tracer, args, result) -> None:
    t.counts["monomials_out"] += len(result.monomials)


def _trees_kept(t: Tracer, args, result) -> None:
    t.counts["trees_kept"] += len(result)


HOOKS: dict[tuple[str, str], Callable] = {
    ("dreams", "enumerate_pipe_dreams"): _dreams_out,
    ("poly", "MultiPolynomial.__add__"): _poly_op("add_calls"),
    ("poly", "MultiPolynomial.__sub__"): _poly_op(None),
    ("poly", "MultiPolynomial.__rsub__"): _poly_op(None),
    ("poly", "MultiPolynomial.__neg__"): _poly_op(None),
    ("poly", "MultiPolynomial.__mul__"): _poly_op("mul_calls"),
    ("poly", "MultiPolynomial.__pow__"): _poly_op(None),
    ("poly", "MultiPolynomial.substitute"): _poly_op("substitute_calls"),
    ("complexes", "is_face_of_pdc"): _face_test,
    ("complexes", "SimplicialComplex.boundary_faces"): _boundary_faces,
    ("subdivision", "reduce_once"): _count("rewrite_steps"),
    ("subdivision", "reduced_form"): _monomials_out,
    ("polytopes", "spanning_trees"): _count("trees_scanned"),  # once per tree yielded
    ("polytopes", "noncrossing_alternating_trees"): _trees_kept,
    ("linalg", "solve_unique"): _count("solves"),
    ("linalg", "solve_in_span"): _count("solves"),
    ("linalg", "inverse"): _count("solves"),
    ("linalg", "matvec"): _count("solves"),
}


def _hook_for(layer: str, qualname: str) -> Optional[Callable]:
    if layer == "perms":
        return _perms_call
    if qualname.endswith(".choose") and layer == "subdivision":
        return _count("choose_calls")
    return HOOKS.get((layer, qualname))


def _wrap_faces(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """SimplicialComplex.faces caches its closure on the complex; count the
    faces once per complex, on the call that builds them."""
    traced = tracer.wrap(fn, "complexes", name, None)

    def faces(self):
        fresh = self._faces is None
        result = traced(self)
        if fresh:
            tracer.counts["faces_materialized"] += len(result)
        return result
    faces.__wrapped__ = fn
    return faces


def _members(cls) -> list[tuple[str, object]]:
    allowed = POLY_DUNDERS if cls.__name__ == "MultiPolynomial" else ()
    return [(n, m) for n, m in vars(cls).items() if not n.startswith("_") or n in allowed]


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every public function and method of the layer modules and
    rebind every reference to an original in the package's modules.
    Returns the names of bindings that still refer to an original, which
    must be empty for the per-layer numbers to be complete."""
    wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

    def wrap_once(fn, layer: str, qualname: str):
        hit = wrapped.get(id(fn))
        if hit is None:
            name = f"{layer}.{qualname}"
            if name == "complexes.SimplicialComplex.faces":
                hit = (fn, _wrap_faces(tracer, fn, name))
            else:
                hit = (fn, tracer.wrap(fn, layer, name, _hook_for(layer, qualname)))
            wrapped[id(fn)] = hit
        return hit[1]

    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrap_once(obj, layer, name)
            elif inspect.isclass(obj):
                for attr, member in _members(obj):
                    if isinstance(member, (classmethod, staticmethod)):
                        kind = type(member)
                        setattr(obj, attr, kind(wrap_once(member.__func__, layer, f"{name}.{attr}")))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, wrap_once(member, layer, f"{name}.{attr}"))

    modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    originals = [hit[0] for hit in wrapped.values()]
    rebind(wrapped, modules, originals, fix=True)
    return rebind(wrapped, modules, originals, fix=False)


def rebind(wrapped: dict, modules, originals, fix: bool) -> list[str]:
    """Find every reference to an original: module attributes, entries of
    module-level dicts, lists and tuples, and the defaults and closure
    cells of the package's functions and methods.  With `fix`, point each
    at its wrapper; without, return where they are."""
    left: list[str] = []
    wrappers = {id(hit[1]) for hit in wrapped.values()}

    def swap(value):
        hit = wrapped.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    def visit(value, where: str, put: Callable) -> None:
        w = swap(value)
        if w is not None:
            put(w) if fix else left.append(where)
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                visit(v, f"{where}[{k!r}]", lambda w, k=k: value.__setitem__(k, w))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                visit(v, f"{where}[{i}]", lambda w, i=i: value.__setitem__(i, w))
        elif isinstance(value, tuple) and any(swap(v) is not None for v in value):
            put(tuple(swap(v) or v for v in value)) if fix else left.append(where)

    def visit_function(fn, where: str) -> None:
        if id(fn) in wrappers:  # its closure holds the original on purpose
            return
        if fn.__defaults__:
            visit(fn.__defaults__, f"{where} defaults",
                  lambda w: setattr(fn, "__defaults__", w))
        for name, v in (fn.__kwdefaults__ or {}).items():
            visit(v, f"{where} default {name}", lambda w, n=name: fn.__kwdefaults__.__setitem__(n, w))
        for cell in fn.__closure__ or ():
            try:
                v = cell.cell_contents
            except ValueError:  # a cell not yet filled
                continue
            visit(v, f"{where} closure", lambda w, c=cell: setattr(c, "cell_contents", w))

    for fn in originals:
        visit_function(fn, fn.__qualname__)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            where = f"{mod.__name__}.{name}"
            visit(value, where, lambda w, n=name: setattr(mod, n, w))
            if inspect.isfunction(value):
                visit_function(value, where)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if swap(member) is not None:
                        left.append(f"{where}.{attr}")
                    elif inspect.isfunction(member):
                        visit_function(member, f"{where}.{attr}")
    return left
