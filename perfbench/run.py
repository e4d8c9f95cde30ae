"""Benchmark of the `pipedreams` engine: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/`.  The
seed draws the workload's inputs, and the program sees only the drawn
inputs.  One client in this one process calls public entry points in a
closed loop, one job at a time.  A pass runs the workload's whole job
list; passes repeat until another would end after `--seconds`.  Every
job's output is checked exactly against `answers.json` and by independent
checks.

With `--trace 0` the last line of stdout is the end-to-end result.  Times
are calibrated: after each job the benchmark times `reference`, a fixed
piece of pure-Python work, and scales the job's time by REF_S over the
pass's mean reference time.  Each job's latency is its calibrated time,
median over the run's passes.  wall_s is the sum of those latencies over
the job list, job_p50_s their median and job_tail_s their tail;
peak_rss_mb is the process's peak RSS and setup_s the calibrated median of
several set-ups (fresh import, input generation, one warm-up job).  The
uncalibrated times are printed on the line before the result.  With
`--trace 1` it runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced pass; spans go to `.perfbench-out/`.
Earlier lines describe the run and its environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

import jobs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_CAP_S = 150.0  # no run may outlive this, whatever --seconds asks
JOB_CAP_S = 60.0
SETUPS = 9
TAIL_BEYOND = 10  # job_tail_s leaves at least this many jobs beyond it
# The median time of `reference` on the host the benchmark was built on
# (Intel Xeon, 2 vCPUs, Python 3.11.7).  Calibrated times are seconds on a
# host whose reference takes this long.
REF_S = 0.0017

# Per-layer counts that must be nonzero on each workload: the layers the
# profile says the workload uses.  A zero means a binding went unwrapped.
MUST_COUNT = {
    "sweep": ("cli.calls", "suites.calls", "grothendieck.calls", "dreams.dreams_out",
              "perms.calls", "poly.mul_calls", "poly.substitute_calls", "complexes.calls"),
    "deep": ("cli.calls", "suites.calls", "grothendieck.calls", "dreams.dreams_out",
             "perms.calls", "subdivision.rewrite_steps", "subdivision.choose_calls"),
    "geometry": ("cli.calls", "suites.calls", "polytopes.trees_scanned", "linalg.solves"),
    "realize": ("cli.calls", "realization.calls", "complexes.face_tests",
                "realization.face_checks", "perms.calls", "dreams.dreams_out",
                "polytopes.trees_scanned"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run: no program to measure, or no answers."""


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


def fresh_import() -> None:
    """Import the package from src/ anew, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == jobs.PACKAGE or n.startswith(jobs.PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(jobs.PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported {pkg.__file__}, not the package under {SRC}")
    for layer in tracer.LAYERS:
        importlib.import_module(f"{jobs.PACKAGE}.{layer}")


def setup(workload: str, seed: int, answers: dict, prepared: dict) -> tuple[list, dict]:
    """Import, draw the inputs, run the cheapest job once.  Returns the jobs
    and the recorded digest of each."""
    fresh_import()
    job_list = workloads.jobs_for(workload, seed, prepared)
    missing = [j.key for j in job_list if j.key not in answers["digests"]]
    if missing:
        raise BenchmarkError(f"no recorded answer for {missing[0]}")
    expected = {j.key: answers["digests"][j.key] for j in job_list}
    warm = min(job_list, key=lambda j: answers["costs"][j.key])
    outcome = jobs.run_job(warm, expected[warm.key], JOB_CAP_S)
    if outcome.failed:
        raise BenchmarkError(f"warm-up job {warm.key}: {outcome.error}")
    return job_list, expected


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that mixes the
    kinds the program does: integer arithmetic, tuple keys in a dict and
    Fraction arithmetic.  It calls nothing of the program.  The host's CPU
    speed swings by up to 1.8x for tens of seconds to minutes, longer than
    a run; timing this next to each job measures the speed the job ran at."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i % 7
    counts: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i, i + 1) * Fraction(3, i + 2)
    return time.perf_counter() - t0


def run_pass(job_list, expected, deadline, trace=None) -> tuple[list, list]:
    """The outcome of each job, and the reference time taken after each."""
    outcomes, refs = [], []
    for i, job in enumerate(job_list):
        cap = min(JOB_CAP_S, deadline - time.perf_counter())
        if cap <= 0:
            outcomes.append(jobs.Outcome(job.key, 0.0, error="run time cap reached"))
            break
        if trace is not None:
            trace.job = i
        outcomes.append(jobs.run_job(job, expected[job.key], cap))
        refs.append(reference())
        # Free the job's cyclic garbage now, so that neither the next job's
        # time nor the peak memory depends on when the collector last ran.
        gc.collect()
    return outcomes, refs


def tail(latencies: list) -> tuple[float, float]:
    """The latency at the highest percentile that leaves TAIL_BEYOND jobs
    beyond it, and that percentile.  Every workload has more jobs than
    that; a pass cut short by the run cap may not, and gets its maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: tracer.Tracer, overhead_s: float) -> dict:
    c = t.counts
    return {
        "perms.calls": t.calls["perms"],
        "perms.self_s": t.self_s["perms"],
        "dreams.calls": t.calls["dreams"],
        "dreams.self_s": t.self_s["dreams"],
        "dreams.dreams_out": c["dreams_out"],
        "dreams.perms_per_dream": ratio(c["perms_in_dreams"], c["dreams_out"]),
        "poly.mul_calls": c["mul_calls"],
        "poly.add_calls": c["add_calls"],
        "poly.substitute_calls": c["substitute_calls"],
        "poly.self_s": t.self_s["poly"],
        "poly.terms_out": c["terms_out"],
        "poly.terms_max": t.terms_max,
        "grothendieck.calls": t.calls["grothendieck"],
        "grothendieck.self_s": t.self_s["grothendieck"],
        "complexes.calls": t.calls["complexes"],
        "complexes.self_s": t.self_s["complexes"],
        "complexes.face_tests": c["face_tests"],
        "complexes.faces_materialized": c["faces_materialized"],
        "subdivision.rewrite_steps": c["rewrite_steps"],
        "subdivision.choose_calls": c["choose_calls"],
        "subdivision.monomials_out": c["monomials_out"],
        "subdivision.merge_ratio": ratio(c["monomials_out"], 3 * c["rewrite_steps"]),
        "subdivision.self_s": t.self_s["subdivision"],
        "polytopes.trees_scanned": c["trees_scanned"],
        "polytopes.trees_kept": c["trees_kept"],
        "polytopes.tree_yield": ratio(c["trees_kept"], c["trees_scanned"]),
        "polytopes.self_s": t.self_s["polytopes"],
        "linalg.solves": c["solves"],
        "linalg.self_s": t.self_s["linalg"],
        "realization.self_s": t.self_s["realization"],
        "realization.face_checks": c["face_checks"],
        "realization.face_yield": ratio(c["faces_found"], c["face_checks"]),
        "suites.self_s": t.self_s["suites"],
        "cli.self_s": t.self_s["cli"],
        "trace.overhead_s": overhead_s,
    }


def units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(per_job: list) -> dict:
    return {"wall_s": sum(per_job), "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail(per_job)[0]}


def measure(args, job_list, expected, deadline) -> tuple[dict, list, dict]:
    passes: list[tuple[float, list, list]] = []  # (seconds, outcomes, reference times)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes, refs = run_pass(job_list, expected, deadline)
        passes.append((time.perf_counter() - t0, outcomes, refs))
        if len(outcomes) < len(job_list):
            break
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p[0] for p in passes) > args.seconds:
            break
    complete = [p for p in passes if len(p[1]) == len(job_list)] or passes
    jobs_seen = range(len(complete[0][1]))
    scale = [REF_S / statistics.mean(p[2]) for p in complete]
    per_job = [statistics.median(p[1][i].seconds * k for p, k in zip(complete, scale))
               for i in jobs_seen]
    raw = [statistics.median(p[1][i].seconds for p in complete) for i in jobs_seen]
    metrics = summary(per_job)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"pass_s": [p[0] for p in passes], "jobs_per_pass": len(job_list),
            "tail_percentile": round(tail(per_job)[1], 1), "tail_samples": len(per_job),
            "reference_s": statistics.median(r for p in complete for r in p[2]),
            "uncalibrated": summary(raw)}
    return metrics, [o for p in passes for o in p[1]], info


def trace_run(args, job_list, expected, deadline) -> tuple[dict, list, dict]:
    t0 = time.perf_counter()
    plain, _ = run_pass(job_list, expected, deadline)
    plain_s = time.perf_counter() - t0
    t = tracer.Tracer()
    left = tracer.instrument(t)
    t0 = time.perf_counter()
    traced, _ = run_pass(job_list, expected, deadline, t)
    traced_s = time.perf_counter() - t0
    metrics = layer_metrics(t, traced_s - plain_s)
    problems = [f"unwrapped binding {name}" for name in left]
    for a, b in zip(plain, traced):
        if not a.failed and not b.failed and a.digest != b.digest:
            problems.append(f"traced output differs for {a.key}")
    calls = {f"{layer}.calls": t.calls[layer] for layer in tracer.LAYERS}
    for name in MUST_COUNT[args.workload]:
        value = calls[name] if name in calls else metrics[name]
        if not value:
            problems.append(f"{name} is zero on {args.workload}")
    OUT.mkdir(exist_ok=True)
    t.write(OUT / f"spans-{args.workload}.tsv")
    info = {"spans": t.next_id, "spans_written": len(t.ids), "layer_calls": calls,
            "untraced_pass_s": plain_s, "traced_pass_s": traced_s, "problems": problems}
    return metrics, plain + traced, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    deadline = began + RUN_CAP_S
    env = environment()
    if not (SRC / jobs.PACKAGE / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / jobs.PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        unit = units()
        # Reading the answers and forming the cost classes is the
        # benchmark's own work, the same for every seed: left out of setup_s.
        answers = workloads.load_answers()
        prepared = workloads.prepare(answers)
        setup_times, setup_refs = [], []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            job_list, expected = setup(args.workload, args.seed, answers, prepared)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(reference())
        # Leave the set-up's objects out of every later collection, so that
        # the collector's cost in a job is the job's own.
        gc.collect()
        gc.freeze()
        runner = trace_run if args.trace else measure
        metrics, outcomes, info = runner(args, job_list, expected, deadline)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = [f"{o.key}: {o.error}" for o in outcomes if o.failed]
    problems = info.pop("problems", [])
    if not args.trace:
        setup_s = statistics.median(setup_times)
        metrics["setup_s"] = setup_s * REF_S / statistics.median(setup_refs)
        info["uncalibrated"]["setup_s"] = setup_s
    result = {
        "correct": not failures and not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": env, "run": info,
                      "failed_frac": ratio(len(failures), len(outcomes)),
                      "failures": failures[:10], "problems": problems,
                      "run_s": time.perf_counter() - began}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
