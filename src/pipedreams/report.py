"""Verification results: a named pass/fail with structured details, and
the JSON conversions every emitted object shares.

Verification functions return these instead of bare booleans so a failing
check can carry a polynomial diff or the offending face along with it.
The object is truthy exactly when the check passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class VerifyResult:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def to_jsonable(self) -> dict:
        return {"name": self.name, "ok": self.ok, "details": jsonable(self.details)}

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        return f"{self.name}: {status}"


def jsonable(value):
    """JSON-ready data: a value with `to_jsonable` through that method,
    containers item by item, any other value as its string."""
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def read_canonical(cls, data, build):
    """`build(data)` if that object writes back exactly `data`, lists in
    order (keys in any order: `--json` sorts them); otherwise a ValueError
    naming cls and the build's error or the first path where they differ."""
    try:
        obj = build(data)
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError) as e:
        raise ValueError(f"{cls.__name__}: {type(e).__name__}: {e}") from e
    found = _first_difference(data, obj.to_jsonable(), "$")
    if found:
        path, read, wrote = found
        raise ValueError(f"{cls.__name__}: {path} reads {json.dumps(read)} but writes {json.dumps(wrote)}")
    return obj


def _first_difference(read, wrote, path):
    """(path, read, wrote) where two JSON values first differ by `json.dumps` text, or None."""
    if isinstance(read, dict) and isinstance(wrote, dict) and read.keys() == wrote.keys():
        pairs = [(f"{path}[{k!r}]", read[k], wrote[k]) for k in wrote]
    elif isinstance(read, list) and isinstance(wrote, list) and len(read) == len(wrote):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(read, wrote))]
    else:
        return None if json.dumps(read) == json.dumps(wrote) else (path, read, wrote)
    return next(filter(None, (_first_difference(a, b, p) for p, a, b in pairs)), None)
