"""Benchmark jobs: one call into a public entry point of `pipedreams`,
its exact-output check, and the time caps that keep a hung job from
stalling a run.

A job is either a CLI invocation, `pipedreams.cli.main(argv)` with stdout
captured, or a call `<module>.<function>(*args)` of a function returning a
`VerifyResult`, rendered as sorted JSON.  The rendered text is the job's
output; its SHA-256 is compared with the digest recorded at the commit that
defined the benchmark.  Callables are looked up by attribute at call time,
so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "pipedreams"


@dataclass(frozen=True)
class Job:
    """`kind` is "cli" (argv in `args`) or "call" (`target` is
    "module.function", arguments in `args`)."""

    kind: str
    args: tuple
    target: str = ""
    check: Optional[Callable[[str], Optional[str]]] = field(default=None, compare=False)

    @property
    def key(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        return f"{self.target}({', '.join(map(repr, self.args))})"


@dataclass
class Outcome:
    key: str
    seconds: float
    digest: str = ""
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that ran past its cap.  A
    BaseException, so that no `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def execute(job: Job) -> tuple[bool, str, str]:
    """Run one job; return (passed its own verdict, output text, stderr)."""
    if job.kind == "cli":
        cli = importlib.import_module(f"{PACKAGE}.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(job.args))
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code
        return rc == 0, out.getvalue(), err.getvalue()
    module, name = job.target.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), name)
    result = fn(*job.args)
    return bool(result.ok), json.dumps(result.to_jsonable(), sort_keys=True), ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(job: Job, expected: Optional[str], cap_s: float) -> Outcome:
    """Time one job under a wall-clock cap and judge its output.

    `expected` is the recorded digest, or None when recording.  The cap is
    enforced with SIGALRM in this thread: no helper thread or process.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(cap_s, 0.001))
    start = time.perf_counter()
    try:
        ok, output, stderr = execute(job)
        seconds = time.perf_counter() - start
    except JobTimeout:
        return Outcome(job.key, time.perf_counter() - start, error=f"timed out after {cap_s:.3g} s")
    except Exception as exc:  # a job that raises is a failed job, not a dead run
        return Outcome(job.key, time.perf_counter() - start, error=f"raised {exc!r}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    outcome = Outcome(job.key, seconds, digest(output))
    if not ok:
        outcome.error = f"entry point reported failure {stderr.strip()[:200]}".strip()
    elif expected is not None and outcome.digest != expected:
        outcome.error = "output differs from the recorded answer"
    elif job.check is not None:
        outcome.error = job.check(output) or ""
    return outcome
