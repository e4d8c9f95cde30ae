"""Mutation gate: apply one catalogued mutant at a time to a copy of
`src/` and run the tests named for it, to check that they still catch the
faults they were written for.

    python3 mutants/run.py

Run from anywhere; it is not part of the tier-1 suite.  Each entry of
`catalog.json` gives a file under the repository root, an exact snippet
that must occur in it once, its replacement, the pytest node ids to run,
and the expected outcome: "killed" (some named test fails) or
"equivalent" (all pass, with the reason the mutant cannot be told apart).
First the named tests run once on an unmutated copy and must pass.  Then
each mutant gets a fresh copy of `src/` in a temporary directory and one
pytest child, with PYTHONPATH pointing at that copy, one at a time and
with a timeout of TIMEOUT_S; a timeout counts as killed.  A snippet that
is missing or occurs more than once is an error.  Exit status: 0 when
every outcome matches the catalog, 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = Path(__file__).resolve().parent / "catalog.json"
TIMEOUT_S = 600.0


def run_tests(src: Path, tests: list[str]) -> str:
    """"pass", "fail" or "timeout" for the named tests run against `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode} on {tests}")
    return "pass" if done.returncode == 0 else "fail"


def copy_src(tmp: Path) -> Path:
    """A copy of src/ that the child imports instead of the repository's."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    probe = subprocess.run([sys.executable, "-c", "import pipedreams; print(pipedreams.__file__)"],
                           env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if not probe.stdout.startswith(str(src)):
        raise RuntimeError(f"the child imports pipedreams from {probe.stdout.strip()!r}, not the copy")
    return src


def apply(src: Path, entry: dict) -> None:
    """Replace the entry's snippet, which must occur exactly once."""
    path = src.parent / entry["file"]
    text = path.read_text()
    count = text.count(entry["snippet"])
    if count != 1:
        raise ValueError(f"snippet occurs {count} times in {entry['file']}, not once")
    path.write_text(text.replace(entry["snippet"], entry["replacement"]))


def main() -> int:
    entries = json.loads(CATALOG.read_text())
    tests = sorted({t for e in entries for t in e["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        baseline = run_tests(copy_src(Path(tmp)), tests)
    if baseline != "pass":
        print(f"baseline: the named tests {baseline} on unmutated src/")
        return 1

    outcomes = []
    for entry in entries:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                src = copy_src(Path(tmp))
                apply(src, entry)
                result = run_tests(src, entry["tests"])
                outcome = "equivalent" if result == "pass" else "killed"
            except (ValueError, RuntimeError) as exc:
                outcome = f"error: {exc}"
        outcomes.append(outcome)
        ok = outcome == entry["expect"]
        print(f"{'ok  ' if ok else 'DIFF'} {entry['id']}: {outcome}, expected {entry['expect']} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    mismatches = sum(o != e["expect"] for o, e in zip(outcomes, entries))
    print(f"{outcomes.count('killed')} killed, {outcomes.count('equivalent')} equivalent, "
          f"{mismatches} differing from the catalog, of {len(entries)} mutants")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
