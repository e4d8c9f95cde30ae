"""Verification results: a named pass/fail with structured details.

Verification functions return these instead of bare booleans so a failing
check can carry a polynomial diff or the offending face along with it.
The object is truthy exactly when the check passed.
"""

from __future__ import annotations

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
