"""The three workloads.  `setup(name, seed)` builds a workload's job list;
each job is one user query, matching one CLI invocation, and carries the
check that decides whether its answer is right.

Workload inputs:
  * crossval, classify: the catalogue problem files over F2 and F3, plus
    seeded random presentations of one small shape, at every d.  Catalogue
    scenes whose single job takes over about 0.7 s are left out, except
    double_triple over F3 at d=3 in classify (195 points, about 1 s, four
    fifths of it in the isomorphism scan); d=4 (340 points, 3 s) would take
    half of every pass and leave too few passes for steady medians.
  * charts_q: seeded random presentations of one shape with dim P = 10 over
    Q, at every d.
Presentations of a fixed shape have the same skeleton candidates, so the
work per job list stays of like size from seed to seed.
"""

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# library calls go through the module attributes, where the tracer wraps them
from quivergrass import charts, cli, moduli, oracle, skeletons

import inputs

WORKLOADS = ("crossval", "classify", "charts_q")

# random presentations for the finite-field workloads: arrows 1 -> 2 and
# 2 -> 1 twice each, L = 2, dim P = 6 at the top, the same shape over F2 and F3
SMALL = inputs.Family(
    quiver=((1, 2), (1, 2), (2, 1), (2, 1)),
    loewy=2,
    coefficients=(1, -1),
    fields=("F2", "F3"),
    shape="2t(2(2t())2(2t()2t()))",
)

# random presentations for charts_q: an arrow 1 -> 2, an arrow 2 -> 1 and two
# loops at 2, L = 2, dim P = 10 at the top
LARGE_Q = inputs.Family(
    quiver=((1, 2), (2, 1), (2, 2), (2, 2)),
    loewy=2,
    coefficients=(1, -1, 2, -2),
    fields=("Q",),
    shape="3t(1(3t())3t(1()3t())3t(1()3t()3t()))",
)

# (problem, prime, d) scenes left out for cost: over 0.7 s per job
CROSSVAL_SKIP = {
    ("two_loop_fork", 2, 5), ("two_loop_fork", 2, 6),
    ("two_loop_fork", 3, 4), ("two_loop_fork", 3, 5), ("two_loop_fork", 3, 6),
    ("two_loop_fork", 3, 7), ("two_loop_fork", 3, 8),
    ("double_triple", 3, 3), ("double_triple", 3, 4), ("double_triple", 3, 5),
    # many-point scenes like double_triple F2 d=4, left out for more passes
    ("double_triple", 2, 3), ("double_triple", 2, 5),
}
CLASSIFY_SKIP = {
    ("two_loop_fork", 2, 5), ("two_loop_fork", 2, 6),
    ("two_loop_fork", 3, 4), ("two_loop_fork", 3, 5), ("two_loop_fork", 3, 6),
    ("two_loop_fork", 3, 7),
    ("double_triple", 3, 4), ("double_triple", 3, 5),
}


@dataclass
class Job:
    """One query.  `run()` does the timed work and returns its output;
    `check(output)` returns (ok, canonical text of the output)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _crossval_job(label, pf, field, tops, d):
    def run():
        alg = pf.algebra(field)
        scene = oracle.enumerate_points(alg, tops, d)
        sks = skeletons.enumerate_skeletons(alg, tops, d)
        return scene, [oracle.cross_validate_chart(scene, sk) for sk in sks]

    def check(out):
        scene, reports = out
        canon = [repr(p) for p in scene.points]
        canon += [
            f"{r.skeleton.render()} {r.n_solutions} {r.n_points} {r.ok}" for r in reports
        ]
        return all(r.ok for r in reports), "\n".join(canon)

    return Job(label, run, check)


def _classify_job(label, pf, field, tops, d):
    def run():
        alg = pf.algebra(field)
        scene = oracle.enumerate_points(alg, tops, d)
        per_point = [
            (moduli.is_fully_invariant(alg, pt).holds, moduli.orbit_dim(alg, pt),
             moduli.top_multiplicity_criterion(alg, pt))
            for pt in scene.points
        ]
        return scene, oracle.orbits(scene), oracle.iso_classes(scene), per_point

    def check(out):
        scene, orbs, iso, per_point = out
        size = {i: len(o) for o in orbs for i in o}
        ok = sorted(size) == list(range(len(scene.points)))
        for i, (invariant, od, crit) in enumerate(per_point):
            singleton = size.get(i) == 1
            ok = ok and invariant == singleton == crit == (od == 0)
            ok = ok and size.get(i) == scene.q ** od
        canon = [repr(p) for p in scene.points]
        canon += [repr(orbs), repr(iso), repr(per_point)]
        return ok, "\n".join(canon)

    return Job(label, run, check)


def _charts_q_job(label, text, d, rng):
    argv = ["charts-all", "-", "--prune", "--json", "--dim", str(d)]
    # every chart without equations gets one round trip at a rational point
    # drawn here, so the points are fixed by the seed
    points = [
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(64)
    ]
    checked = {}

    def run():
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            buf = io.StringIO()
            rc = cli.main(argv, stdout=buf)
        finally:
            sys.stdin = stdin
        return rc, buf.getvalue()

    def check(out):
        rc, doc_text = out
        if rc != 0:
            return False, doc_text
        if doc_text not in checked:
            checked[doc_text] = _round_trips(text, json.loads(doc_text), points)
        return checked[doc_text], doc_text

    return Job(label, run, check)


def _round_trips(text, doc, points):
    pf = cli.parse_problem(text)
    alg = pf.algebra()
    tops = tuple(doc["top"])
    for chart in doc["charts"]:
        if chart["polynomials"]:
            continue
        paths = [cli.parse_path(p, alg.quiver) for p in chart["skeleton"]]
        sk = skeletons.make_skeleton(alg, tops, paths)
        point = tuple(points[: len(chart["variables"])])
        if charts.point_from_submodule(alg, sk, charts.submodule_from_point(alg, sk, point)) != point:
            return False
    return True


def _finite_field_jobs(make_job, skip, max_top, seed, random_count, random_primes):
    problems = [
        (name, inputs.catalogue_text(name), (2, 3)) for name in inputs.CATALOGUE
    ]
    for text, _ in inputs.random_problems(seed, random_count, SMALL):
        problems.append(("rand" + digest(text)[:8], text, random_primes))
    jobs = []
    for name, text, primes in problems:
        pf = cli.parse_problem(text)
        tops = pf.tops
        if len(tops) > max_top:
            continue
        for p in primes:
            dim = inputs.dim_p(pf.algebra(f"F{p}"), tops)
            for d in range(len(tops), dim + 1):
                if (name, p, d) not in skip:
                    jobs.append(make_job(f"{name}/F{p}/d{d}", pf, f"F{p}", tops, d))
    return jobs


def setup(name, seed):
    """The job list of workload `name` for `seed`."""
    if name == "crossval":
        return _finite_field_jobs(_crossval_job, CROSSVAL_SKIP, 2, seed, 2, (2, 3))
    if name == "classify":
        # the orbit-size coherence needs a simple top, so merge is left out;
        # random scenes only over F2, where they stay a small share
        return _finite_field_jobs(_classify_job, CLASSIFY_SKIP, 1, seed, 2, (2,))
    if name == "charts_q":
        rng = random.Random(seed)
        jobs = []
        for text, tops in inputs.random_problems(seed, 4, LARGE_Q):
            dim = inputs.dim_p(cli.parse_problem(text).algebra(), tops)
            for d in range(1, dim + 1):
                jobs.append(_charts_q_job(f"rand{digest(text)[:8]}/Q/d{d}", text, d, rng))
        return jobs
    raise ValueError(f"unknown workload {name!r}")
