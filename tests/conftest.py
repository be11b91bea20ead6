"""Scenes shared by the oracle and moduli tests."""

import random
from fractions import Fraction

import pytest

from quivergrass import (
    GF,
    ProjectiveCover,
    QQ,
    Quiver,
    build_algebra,
    chart_ideal,
    enumerate_points,
    enumerate_skeletons,
    with_field,
)
from quivergrass.charts import submodule_from_point

from algebras import catalogue, fork, loop_arrow, merge, simple_tops, triple_arrow


def a3():
    """The path 1 -> 2 -> 3, L = 2."""
    return build_algebra(Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]), [], 2, QQ)


@pytest.fixture(scope="session")
def small_scenes():
    """Catalogue scenes over F2 and F3 (first simple top, every d) with at
    most 60 points, few enough for an all-pairs isomorphism test."""
    scenes = []
    for name, alg in catalogue().items():
        for prime in (2, 3):
            alg_p = with_field(alg, GF(prime))
            tops = (simple_tops(alg_p)[0],)
            dim_p = sum(1 for p in alg_p.basis if p.start in tops)
            for d in range(1, dim_p + 1):
                scene = enumerate_points(alg_p, tops, d)
                if len(scene.points) <= 60:
                    scenes.append((f"{name} F{prime} d={d}", scene))
    return scenes


@pytest.fixture(scope="session")
def catalogue_scenes():
    """Every catalogue algebra over F2 and F3 at each simple top and every
    d, with merge at its squarefree two-vertex top (1, 2) and the fork at
    the repeated top (1, 1), where a slot's unit is a 2 x 2 block and not a
    scalar."""
    jobs = [(name, alg, (v,)) for name, alg in catalogue().items() for v in simple_tops(alg)]
    jobs += [("merge", merge(), (1, 2)), ("fork", fork(), (1, 1))]
    scenes = []
    for name, alg, tops in jobs:
        for prime in (2, 3):
            alg_p = with_field(alg, GF(prime))
            for d in range(1, ProjectiveCover(alg_p, tops).dim + 1):
                scenes.append((f"{name} {tops} F{prime} d={d}", enumerate_points(alg_p, tops, d)))
    return scenes


@pytest.fixture(scope="session")
def top_scenes(small_scenes):
    """small_scenes plus tops of several vertices.  At (1, 2) of loop_arrow
    and triple_arrow a radical path of one slot ends at the vertex of the
    next, so where a generator sits in P/C depends on C.  The repeated tops
    of the fork, and the tops (1, 2, 3) over F2, whose t = 3 top vertices
    exceed q, take the budgeted scan of the isomorphism test."""
    scenes = list(small_scenes)
    for make, tops, primes in (
        (merge, (1, 2), (2, 3)),
        (loop_arrow, (1, 2), (2, 3)),
        (triple_arrow, (1, 2), (2, 3)),
        (fork, (1, 1), (2, 3)),
        (fork, (1, 1, 1), (2,)),
        (fork, (1, 1, 2), (2,)),
        (fork, (1, 2, 3), (2,)),
        (a3, (1, 2, 3), (2,)),
    ):
        for prime in primes:
            alg = with_field(make(), GF(prime))
            dim_p = ProjectiveCover(alg, tops).dim
            for d in range(1, dim_p + 1):
                scene = enumerate_points(alg, tops, d)
                if len(scene.points) <= 20:
                    scenes.append((f"{make.__name__} {tops} F{prime} d={d}", scene))
    return scenes


@pytest.fixture(scope="session")
def rational_points():
    """Per catalogue algebra over Q, simple top and d: the points at seeded
    random rational coordinates of every chart without equations, on one
    shared cover."""
    rng = random.Random(5)
    groups = []
    for name, alg in catalogue().items():
        for v in simple_tops(alg):
            cover = ProjectiveCover(alg, (v,))
            for d in range(1, cover.dim + 1):
                points = []
                for sk in enumerate_skeletons(alg, (v,), d, prune=True):
                    ideal = chart_ideal(alg, sk)
                    if ideal.polynomials:
                        continue
                    coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ideal.nvars)]
                    points.append(submodule_from_point(alg, sk, coords, cover=cover))
                if points:
                    groups.append((f"{name} Q top {v} d={d}", alg, points))
    return groups
