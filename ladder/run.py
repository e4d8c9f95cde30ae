"""The north-star ladder: end-to-end CLI cases timed at a parent revision
and on the working tree, in pairs.

    python3 ladder/run.py --out ladder.json                 # default cases, 3 pairs
    python3 ladder/run.py --pairs 1 --cap-s 1800 --cases verify-all-7 --out n7.json

Run from anywhere; it is not part of the tier-1 suite.  The parent side is
`git archive <rev> src tests mutants` extracted to a temporary directory
(`tests/test_mutant_catalog.py` reads `mutants/catalog.json`, so `tier-1`
needs it); the change side is the working tree.  Each run is one child
process, one at a time: `python -m pipedreams.cli <args>` (or pytest for
`tier-1`), with PYTHONPATH set to that side's `src/` and
PYTHONPYCACHEPREFIX to that side's own directory, created empty in the
run's temporary directory.  The export holds no `__pycache__` while the
working tree may, and with its own prefix neither side reads a bytecode
cache that the other lacks (under PYTHONDONTWRITEBYTECODE both compile
every module on every run).  Within a pair, each case runs on both sides
back to back, and the side that runs first swaps from pair to pair.  The
child alone gets an address-space limit of AS_BYTES (RLIMIT_AS) and a wall
cap; a run killed at the cap is recorded with `capped: true`, not dropped.

For each run it records the wall time, the exit code, the SHA-256 of
stdout and the child's own peak RSS, read from `os.wait4` (RUSAGE_CHILDREN
would give the maximum over every child reaped so far, mixing cases).  The
parent blocks in `os.wait4` while a timer enforces the cap, so the wall
time is read when the child is reaped.  The JSON written to --out holds
every run, the medians per side and the faults found per case.  A case is
at fault when a run that was not capped exits nonzero (a failed check, a
crash, a MemoryError under the limit), when runs are capped on one side
and not on the other, or, for a case whose stdout is compared, when two
runs that were not capped printed different stdout.  Each compared
default case also has a reference answer, the SHA-256 of its stdout
recorded at commit 5587a34 (REFERENCE), and is at fault when a run that
was not capped printed anything else; a change that alters such an output
on purpose records the new digest.  The cases run only on request have no
reference: their runs are compared with each other alone.  Tier-1 prints
its own timings, so only its exit codes count.  Exit status: 1 when some
case is at fault, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ("-m", "pipedreams.cli")

# name -> (arguments after `python`, whether stdout is compared).
CASES = {
    "verify-all-5": ((*CLI, "verify", "all", "--n", "5", "--json"), True),
    "verify-all-6": ((*CLI, "verify", "all", "--n", "6", "--json"), True),
    "groth-654321-double": ((*CLI, "groth", "654321", "--double", "--json"), True),
    "realize-7": ((*CLI, "realize", "--n", "7", "--json"), True),
    "trees-8": ((*CLI, "trees", "--n", "8", "--json"), True),
    "verify-groth-h-7": ((*CLI, "verify", "groth-h", "--n", "7", "--json"), True),
    "pdc-1234567-h": ((*CLI, "pdc", "1234567", "--h", "--json"), True),
    "verify-kirillov-11": ((*CLI, "verify", "kirillov", "--n", "11", "--limit-n", "11"), True),
    "verify-all-7": ((*CLI, "verify", "all", "--n", "7", "--json"), True),
    "groth-4321765-double": ((*CLI, "groth", "4321765", "--double", "--json"), True),
    "tier-1": (("-m", "pytest", "-q", "-p", "no:cacheprovider", "--doctest-modules",
                "tests", "src/pipedreams"), False),
}
# Run only when named with --cases.
ON_REQUEST = ("verify-all-7", "groth-4321765-double", "tier-1")
DEFAULT_CASES = tuple(name for name in CASES if name not in ON_REQUEST)
# SHA-256 of the stdout of each compared default case, recorded at 5587a34.
REFERENCE = {
    "verify-all-5": "fbab78ab7c7b80bce785e5407b3e113c79805ccea6417f3eaadb78ef8d510815",
    "verify-all-6": "596a2caaca1f65dd8520ccfb5ce494830fc265ebbbf2b05b7e417831b7cab98c",
    "groth-654321-double": "bed3a6c5b5bb14108fb15cf615cff6257b802d9df32fcb39505913116068e872",
    "realize-7": "d7a88dbec5553541f358134c1f1d7de69f06250cd8de9b5dd4d5a145bcca23ba",
    "trees-8": "345b2193371314f356cfae892baec4a27eb9381b100fd14ba963608dc3d121f7",
    "verify-groth-h-7": "8995f7aebb09431d65da2c5d0d8fe35057651e17f4830473fe83e20a566b3f13",
    "pdc-1234567-h": "a47f8e7ec5b5a0c57c18a0bf384d91fe3cea73913b590e815c4fe28f86d7d225",
    "verify-kirillov-11": "f64d8c6701b41aa7ce338de80241b25358499c2e29302efe0be46256dde47c17",
}
AS_BYTES = 4 * 2**30


def export_parent(rev: str, dest: Path) -> str:
    """Extract `src`, `tests` and `mutants` of `rev` into `dest`; the full
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, "src", "tests", "mutants"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_case(root: Path, args: tuple[str, ...], cap_s: float, pycache: Path) -> dict:
    """One child process running `python args` in `root` with its `src/`,
    its bytecode cache under `pycache`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(pycache))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (AS_BYTES, AS_BYTES))

    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], cwd=root, env=env, stdout=out,
                                 stderr=subprocess.DEVNULL, preexec_fn=limit)
        fired = threading.Event()

        def cap():
            fired.set()
            child.kill()

        timer = threading.Timer(cap_s, cap)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        capped = fired.is_set() and os.WIFSIGNALED(status)
        # reaped by wait4 above; telling Popen keeps it from waiting again
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": round(wall, 4), "exit": child.returncode, "capped": capped,
            "stdout_sha256": digest, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def medians(runs: list[dict]) -> dict:
    return {key: round(statistics.median(r[key] for r in runs), 4) for key in ("wall_s", "peak_rss_mb")}


def faults(by_side: dict[str, list[dict]], compared: bool, reference: str | None) -> list[str]:
    """What is wrong with one case's runs on the two sides; empty when
    nothing is."""
    out = [f"{side} run {i} exited {r['exit']}" for side, runs in by_side.items()
           for i, r in enumerate(runs) if not r["capped"] and r["exit"] != 0]
    if reference is not None:
        out += [f"{side} run {i} printed other stdout than the reference"
                for side, runs in by_side.items() for i, r in enumerate(runs)
                if not r["capped"] and r["stdout_sha256"] != reference]
    capped = {side: any(r["capped"] for r in runs) for side, runs in by_side.items()}
    if len(set(capped.values())) > 1:
        out.append("capped on one side only: " + ", ".join(s for s, c in capped.items() if c))
    digests = {r["stdout_sha256"] for runs in by_side.values() for r in runs if not r["capped"]}
    if compared and len(digests) > 1:
        out.append("stdout differs between runs")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--cases", nargs="+", choices=sorted(CASES), default=list(DEFAULT_CASES))
    parser.add_argument("--cap-s", type=float, default=600.0, help="wall cap per run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        commit = export_parent(args.rev, parent)
        sides = {"parent": parent, "change": ROOT}
        pycache = {side: Path(tmp) / f"pycache-{side}" for side in sides}
        for path in pycache.values():
            path.mkdir()
        runs = {name: {"parent": [], "change": []} for name in args.cases}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in args.cases:
                for side in order:
                    run = run_case(sides[side], CASES[name][0], args.cap_s, pycache[side])
                    runs[name][side].append(run)
                    print(f"pair {pair} {name} {side}: {run['wall_s']} s, exit {run['exit']}, "
                          f"{run['peak_rss_mb']} MB{' (capped)' if run['capped'] else ''}",
                          file=sys.stderr, flush=True)

    at_fault = {}
    cases = {}
    for name, by_side in runs.items():
        compared = CASES[name][1]
        found = faults(by_side, compared, REFERENCE.get(name))
        if found:
            at_fault[name] = found
        cases[name] = {
            "argv": list(CASES[name][0]),
            "stdout_compared": compared,
            "reference_sha256": REFERENCE.get(name),
            "runs": by_side,
            "median": {side: medians(r) for side, r in by_side.items()},
            "faults": found,
        }
    report = {
        "schema": "ladder/3",
        "parent": {"rev": args.rev, "commit": commit},
        "change": "working tree",
        "host": {"python": platform.python_version(), "platform": platform.platform(),
                 "cpus": os.cpu_count()},
        "pairs": args.pairs,
        "cap_s": args.cap_s,
        "rlimit_as_gib": AS_BYTES / 2**30,
        "cases": cases,
        "at_fault": sorted(at_fault),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, found in at_fault.items():
        print(f"{name}: {'; '.join(found)}", file=sys.stderr)
    return 1 if at_fault else 0


if __name__ == "__main__":
    sys.exit(main())
