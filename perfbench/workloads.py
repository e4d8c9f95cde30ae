"""The four workloads: seeded job lists drawn from recorded inputs.

Every input a seed can draw has its exact answer recorded in
`answers.json` (see `record.py`), so each job's output is checked exactly
whatever the seed.  Random samples are drawn from cost classes: inputs of
about the same recorded cost, one input per class, so that the total work
of a workload barely depends on the seed while the inputs do.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from math import comb
from pathlib import Path
from typing import Callable, Optional

from jobs import Job

ANSWERS = Path(__file__).resolve().parent / "answers.json"

# Permutations of rank 8 recorded for the `deep` sample.
S8_POOL_SIZE = 800
S8_POOL_SEED = 8
# Sub-seeds recorded for the seeded geometry checks.
SUBSEEDS = range(64)

PATH8 = "12,23,34,45,56,67,78"


def load_answers() -> dict:
    with open(ANSWERS) as fh:
        return json.load(fh)


def perm_strings(n: int) -> list[str]:
    return ["".join(map(str, w)) for w in itertools.permutations(range(1, n + 1))]


def s8_pool() -> list[str]:
    rng = random.Random(S8_POOL_SEED)
    pool: list[str] = []
    seen = set()
    while len(pool) < S8_POOL_SIZE:
        w = list(range(1, 9))
        rng.shuffle(w)
        s = "".join(map(str, w))
        if s not in seen:
            seen.add(s)
            pool.append(s)
    return pool


def cost_classes(jobs: list[Job], costs: dict, lo: float, hi: float, k: int,
                 width: int) -> list[list[Job]]:
    """k cost classes, costliest first.  Class i holds the `width` jobs, not
    taken by a costlier class, whose recorded cost is nearest in log scale
    to the i-th of k costs spaced evenly in log scale from lo to hi.  The
    classes do not depend on the seed; the pick within each does."""
    left = list(jobs)
    classes = []
    for i in reversed(range(k)):
        target = math.log(lo) + (math.log(hi) - math.log(lo)) * i / (k - 1)
        left.sort(key=lambda j: (abs(math.log(costs[j.key]) - target), j.key))
        classes.append(left[:width])
        left = left[width:]
    return classes


# -- independent checks on outputs ----------------------------------------------

def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def trees_check(n: int) -> Callable[[str], Optional[str]]:
    """`trees --n n --json` lists Catalan(n-1) distinct spanning trees."""
    def check(output: str) -> Optional[str]:
        results = json.loads(output)["results"]
        edge_sets = {tuple(map(tuple, t["edges"])) for t in results["trees"]}
        want = catalan(n - 1)
        if results["count"] != want or len(edge_sets) != want:
            return f"trees --n {n}: {results['count']} trees, Catalan number is {want}"
        if any(len(edges) != n - 1 for edges in edge_sets):
            return f"trees --n {n}: a tree without n-1 edges"
        return None
    return check


def narayana_check(n: int) -> Callable[[str], Optional[str]]:
    """`verify narayana --n n --json` reports the Narayana row as h-vector."""
    def check(output: str) -> Optional[str]:
        checks = {c["name"]: c for c in json.loads(output)["checks"]}
        h = checks[f"narayana:{n}"]["details"]["h"]
        m = n - 1
        row = [comb(m, k) * comb(m, k - 1) // m for k in range(1, n)]
        if h != row:
            return f"narayana:{n}: h-vector {h}, Narayana row {row}"
        return None
    return check


def path_q(n: int) -> dict[int, int]:
    """The Grothendieck polynomial of 1 n n-1 ... 2 at x = 1, y = 0, which
    the Kirillov identity equates with the path's reduced form at x = 1,
    is the Narayana polynomial shifted: sum over k of N(n-1, k) (b+1)^(k-1).
    Returned as {power of b: coefficient}."""
    m = n - 1
    coeffs = dict.fromkeys(range(m), 0)
    for k in range(1, n):
        for e in range(k):
            coeffs[e] += comb(m, k) * comb(m, k - 1) // m * comb(k - 1, e)
    return coeffs


def path_q_check(n: int, key: str) -> Callable[[str], Optional[str]]:
    """The polynomial `key` of the output, JSON or text, is path_q(n)."""
    coeffs = path_q(n)
    as_json = {"vars": ["b"], "terms": [{"exp": [e], "coef": str(c)} for e, c in coeffs.items()]}
    monomials = {0: "", 1: "b"}
    as_text = " + ".join(
        str(c) if e == 0 else
        (f"{c}*" if c != 1 else "") + monomials.get(e, f"b^{e}")
        for e, c in sorted(coeffs.items(), reverse=True))

    def check(output: str) -> Optional[str]:
        if output.startswith("{"):
            ok = json.loads(output)["results"][key] == as_json
        else:
            ok = f"\n{key}: {as_text}\n" in f"\n{output}"
        return None if ok else f"{key} of rank {n} differs from the shifted Narayana polynomial"
    return check


def cli(*argv: str, check=None) -> Job:
    return Job("cli", tuple(argv), check=check)


def call(target: str, *args, check=None) -> Job:
    return Job("call", tuple(args), target, check)


# -- workloads ------------------------------------------------------------------

def groth_h(w: str) -> Job:
    return cli("verify", "groth-h", "--w", w, "--json")


# The S_6 input whose check takes the most memory: the identity's complex
# is one simplex on all 15 boxes, whose 2^15 faces are materialized.  It is
# always in the sweep, so that the sweep's peak memory does not hang on the
# seed.
SWEEP_LARGEST = "123456"


def pools(answers: dict) -> dict[str, list[Job]]:
    """The recorded inputs the seeds draw from."""
    return {
        "S6": [groth_h(w) for w in perm_strings(6) if w != SWEEP_LARGEST],
        "S8": [cli("groth", w, "--beta-only", "--json") for w in answers["pools"]["S8"]],
        "point_location": [call("suites.check_point_location", 6, s, 2) for s in SUBSEEDS],
        "intersections": [call("suites.check_intersections", 6, s, 1) for s in SUBSEEDS],
    }


def prepare(answers: dict) -> dict[str, list]:
    """What the seeds draw from, which no seed changes: the cost classes of
    the S_6 and S_8 pools, and the geometry pools."""
    drawn = pools(answers)
    return {
        "S6": cost_classes(drawn["S6"], answers["costs"], 0.005, 0.1, 10, 8),
        "S8": cost_classes(drawn["S8"], answers["costs"], 0.001, 0.05, 40, 6),
        "point_location": drawn["point_location"],
        "intersections": drawn["intersections"],
    }


def sweep(rng: random.Random, prepared: dict) -> list[Job]:
    """Rank sweep, one `verify groth-h` per permutation: all of S_5,
    SWEEP_LARGEST, and 10 of S_6 drawn at recorded costs from 5 ms to
    0.1 s."""
    return sweep_fixed() + [rng.choice(c) for c in prepared["S6"]]


def sweep_fixed() -> list[Job]:
    return [groth_h(w) for w in perm_strings(5) + [SWEEP_LARGEST]]


def deep(rng: random.Random, prepared: dict) -> list[Job]:
    """A few deep inputs (deep_fixed), and 40 permutations of S_8 drawn at
    recorded costs from 1 ms to 50 ms, all pipe dreams of each enumerated."""
    return deep_fixed() + [rng.choice(c) for c in prepared["S8"]]


def deep_fixed() -> list[Job]:
    """The Kirillov identity at rank 9: the path's reduced form under lex
    against all pipe dreams of 1 9 8 ... 2.  At rank 8: all pipe dreams of
    1 8 7 ... 2, and the path's reduced form under rlex and, in JSON, lex."""
    return [
        cli("verify", "kirillov", "--n", "9"),
        cli("groth", "18765432", "--beta-only", "--json", check=path_q_check(8, "beta")),
        cli("reduce", PATH8, "--strategy", "rlex", check=path_q_check(8, "q")),
        cli("reduce", PATH8, "--strategy", "lex", "--json", check=path_q_check(8, "q")),
    ]


def geometry(rng: random.Random, prepared: dict) -> list[Job]:
    """Exact geometry: trees at ranks 4 to 7, triangulations at ranks 4 to
    6, and at rank 6, 16 seeded point-location checks of 2 samples and 4
    seeded intersection checks of one simplex pair."""
    return (geometry_fixed() + rng.sample(prepared["point_location"], 16)
            + rng.sample(prepared["intersections"], 4))


def geometry_fixed() -> list[Job]:
    return ([cli("trees", "--n", str(n), "--json", check=trees_check(n)) for n in range(4, 8)]
            + [cli("triangulate", "--n", str(n), "--json") for n in range(4, 7)])


def realize(rng: random.Random, prepared: dict) -> list[Job]:
    """The realization of the complex of 1 n n-1 ... 2: `realize --json`
    and `verify realize` for n = 3..6, `verify_realization` for n = 3..5;
    the Narayana check for n = 3..7 (in JSON) and n = 3..6 (in text); the
    face map and bijection checks for n = 3..7.  No input is random; the
    seed orders the jobs."""
    jobs = [call("realization.verify_realization", n) for n in range(3, 6)]
    for n in range(3, 7):
        jobs += [cli("realize", "--n", str(n), "--json"), cli("verify", "realize", "--n", str(n)),
                 cli("verify", "narayana", "--n", str(n))]
    for n in range(3, 8):
        jobs += [cli("verify", "narayana", "--n", str(n), "--json", check=narayana_check(n)),
                 call("realization.verify_face_map", n), call("realization.verify_bijection", n)]
    return jobs


WORKLOADS: dict[str, Callable[[random.Random, dict], list[Job]]] = {
    "sweep": sweep, "deep": deep, "geometry": geometry, "realize": realize,
}


def jobs_for(workload: str, seed: int, prepared: dict) -> list[Job]:
    """The workload's jobs for a seed, in an order drawn from the seed;
    `prepared` is what `prepare` returns."""
    jobs = WORKLOADS[workload](random.Random(seed), prepared)
    random.Random(f"order:{seed}").shuffle(jobs)
    return jobs


def universe(answers: dict) -> list[Job]:
    """Every job some seed can draw, for recording; needs the recorded
    pools in `answers`."""
    fixed = sweep_fixed() + deep_fixed() + geometry_fixed() + realize(random.Random(0), {})
    return fixed + [job for pool in pools(answers).values() for job in pool]
