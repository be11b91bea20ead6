"""Acceptance suite: worked-example golden values plus exhaustive
finite-field cross-checks, each with its runtime bound.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
import time

import pytest

from quivergrass import (
    AlgElement,
    GF,
    Path,
    QQ,
    TopNotSquarefreeError,
    chart_ideal,
    simple_top_moduli_criterion,
    cross_validate_chart,
    enumerate_points,
    enumerate_skeletons,
    finite_local_type_check,
    is_fully_invariant,
    iso_classes,
    make_skeleton,
    orbit_dim,
    orbits,
    top_multiplicity_criterion,
    with_field,
)
from quivergrass import polynomials as poly
from quivergrass.charts import chart_context, ideal_generators
from quivergrass.presentation import all_paths

from algebras import (
    catalogue,
    cross_validation_jobs,
    double_triple,
    fork,
    loop_arrow,
    nilpotent_loop_arrow,
    path_of,
    point_of,
    simple_tops,
    triple_arrow,
    two_loop_fork,
)
from references import index_of, reduce_element_worklist


class Stopwatch:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.label}: {status} ({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} exceeded {self.limit}s"


SCENES = {}


def scene_for(alg_by_name, name, prime, tops, d):
    key = (name, prime, tops, d)
    if key not in SCENES:
        algp = with_field(alg_by_name[name], GF(prime))
        SCENES[key] = enumerate_points(algp, tops, d)
    return SCENES[key]


@pytest.fixture(scope="module")
def cat():
    return catalogue()


def test_acceptance_01_two_loop_fork_chart_golden():
    with Stopwatch("01 two-loop-fork chart", 1.0):
        alg = two_loop_fork()
        q = alg.quiver
        sk = make_skeleton(
            alg,
            (1,),
            [Path(1), path_of(q, "w1"), path_of(q, "w1", "a1"), path_of(q, "a2")],
        )
        ideal = chart_ideal(alg, sk)
        assert ideal.nvars == 4
        labels = [(v.product.render(), v.target.render()) for v in ideal.variables]
        assert labels == [
            ("w2", "w1"),
            ("a1", "a2"),
            ("a1", "a1*w1"),
            ("a2*w1", "a1*w1"),
        ]
        expected = poly.frozen(
            poly.canonicalize(QQ, {(0, 0, 0, 0): QQ.one, (1, 0, 0, 1): QQ.coerce(-1)})
        )
        assert ideal.polynomials == (expected,)


def test_acceptance_02_loop_arrow_suite():
    with Stopwatch("02 loop-arrow suite", 5.0):
        alg = loop_arrow()
        q = alg.quiver
        raw = enumerate_skeletons(alg, (1,), 3)
        pruned = enumerate_skeletons(alg, (1,), 3, prune=True)
        assert len(raw) == 3 and len(pruned) == 2

        sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
        sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
        id1, id2 = chart_ideal(alg, sk1), chart_ideal(alg, sk2)
        assert id1.nvars == 0 and id1.polynomials == ()
        assert id2.nvars == 1 and id2.polynomials == ()

        alg2 = with_field(alg, GF(2))
        scene = enumerate_points(alg2, (1,), 3)
        assert len(scene.points) == 3
        orbs = orbits(scene)
        assert sorted(len(o) for o in orbs) == [1, 2]
        assert len(iso_classes(scene)) == 2

        layerings = {s.layers for s in scene.layerings}
        assert layerings == {((1, 0), (1, 0), (0, 1)), ((1, 0), (1, 1), (0, 0))}

        invariant_points = [
            p for p in scene.points if is_fully_invariant(alg2, p).holds
        ]
        assert len(invariant_points) == 1
        aw_span = [
            (s, x.render())
            for s, x in invariant_points[0].cover.element_of(invariant_points[0].rows[0])
        ]
        assert aw_span == [(0, "a*w")]


def test_acceptance_03_hereditary_counts():
    with Stopwatch("03 hereditary counts", 30.0):
        tri = triple_arrow()
        for prime in (2, 3):
            trip = with_field(tri, GF(prime))
            expected = prime ** 2 + prime + 1
            for d in (2, 3):
                scene = enumerate_points(trip, (1,), d)
                assert len(scene.points) == expected
        dt = with_field(double_triple(), GF(2))
        scene = enumerate_points(dt, (1,), 4)
        assert len(scene.points) == 2 + 2 * 49
        classes = scene.layering_classes
        assert len(classes) == 4
        assert sorted(len(v) for v in classes.values()) == [1, 1, 49, 49]


def test_acceptance_04_nilpotent_loop_orbit_chain():
    with Stopwatch("04 nilpotent-loop orbit chain", 30.0):
        alg = nilpotent_loop_arrow(2)
        alg2 = with_field(alg, GF(2))
        scene = enumerate_points(alg2, (1,), 4)
        orbs = orbits(scene)
        # the (m+1, 1) dimension-vector locus carries the affine orbit chain
        locus = [
            i for i in range(len(scene.points)) if scene.layerings[i].totals_per_vertex() == (3, 1)
        ]
        chain_orbits = [o for o in orbs if set(o) <= set(locus)]
        assert sorted(len(o) for o in chain_orbits) == [1, 2, 4]
        assert all(scene.layerings[i].totals_per_vertex() == (3, 1) for i in locus)
        assert len(locus) == 7

        # orbit dimensions 0, 1, 2 on the monomial submodules C_0, C_1, C_2
        q = alg2.quiver
        w, a = q.arrow_by_name["w"], q.arrow_by_name["a"]
        cover = scene.cover
        f = alg2.field
        for j in (0, 1, 2):
            gens = [
                (0, AlgElement.of_path(f, Path(1, (w,) * i + (a,))))
                for i in range(3)
                if i != j
            ]
            c_j = point_of(cover, gens)
            assert orbit_dim(alg2, c_j) == j
            size = next(len(o) for o in orbs if index_of(scene, c_j) in o)
            assert size == 2 ** j

        # the full Grassmannian also holds one singleton outside the chain
        # (quotient dimensions (2, 2)); pinned here so the count is explicit
        assert len(scene.points) == 8
        assert sorted(len(o) for o in orbs) == [1, 1, 2, 4]
        outside = [i for i in range(len(scene.points)) if i not in locus]
        assert len(outside) == 1
        assert scene.layerings[outside[0]].totals_per_vertex() == (2, 2)
        assert is_fully_invariant(alg2, scene.points[outside[0]]).holds

        report = finite_local_type_check(alg, 1, 2)
        assert report.verdict
        assert not simple_top_moduli_criterion(alg, 1).holds


def test_acceptance_05_chart_oracle_bijection(cat):
    with Stopwatch("05 chart/oracle bijection", 300.0):
        mismatches = []
        for name, alg, tops in cross_validation_jobs(cat):
            for prime in (2, 3):
                algp = with_field(alg, GF(prime))
                dim_p = sum(1 for p in algp.basis if p.start in tops)
                for d in range(len(tops), dim_p + 1):
                    scene = enumerate_points(algp, tops, d)
                    SCENES[(name, prime, tops, d)] = scene
                    for sk in enumerate_skeletons(algp, tops, d):
                        report = cross_validate_chart(scene, sk)
                        if not report.ok:
                            mismatches.append((name, prime, d, sk.render(), report.mismatches))
        assert mismatches == []


def test_acceptance_06_reduction_properties(cat):
    with Stopwatch("06 reduction properties", 300.0):
        rng = random.Random(52)
        for name, alg in cat.items():
            tops = (simple_tops(alg)[0],)
            dim_p = sum(1 for p in alg.basis if p.start in tops)
            d = min(4, dim_p)
            sks = enumerate_skeletons(alg, tops, d)
            inputs = []
            for sk in sks:
                gens = ideal_generators(alg, sk.tops)
                paths = [
                    AlgElement.of_path(alg.field, p)
                    for p in all_paths(alg.quiver, alg.loewy_bound + 1, start=tops[0])
                ]
                for z in gens + paths:
                    inputs.append((sk, z))
            assert inputs
            # 100 randomized-order trials per algebra, against the canonical order
            for k in range(100):
                sk, z = inputs[k % len(inputs)]
                ctx = chart_context(alg, sk)
                assert reduce_element_worklist(ctx, z, rng=rng) == ctx.reduce_element(z)
            # pruned and unpruned rewriting agree everywhere
            for sk, z in inputs:
                ctx = chart_context(alg, sk)
                assert ctx.reduce_element(z) == reduce_element_worklist(ctx, z, route_prune=False)


def test_acceptance_07_orbit_coherence(cat):
    with Stopwatch("07 orbit coherence", 300.0):
        mismatches = []
        for name, alg in cat.items():
            for v in simple_tops(alg):
                tops = (v,)
                for prime in (2, 3):
                    algp = with_field(alg, GF(prime))
                    dim_p = sum(1 for p in algp.basis if p.start == v)
                    for d in range(1, dim_p + 1):
                        scene = scene_for(cat, name, prime, tops, d)
                        orb_size = {}
                        for o in orbits(scene):
                            for i in o:
                                orb_size[i] = len(o)
                        for i, pt in enumerate(scene.points):
                            ffi = is_fully_invariant(scene.alg, pt).holds
                            od = orbit_dim(scene.alg, pt)
                            crit = top_multiplicity_criterion(scene.alg, pt)
                            singleton = orb_size[i] == 1
                            if not (ffi == singleton == crit == (od == 0)):
                                mismatches.append((name, prime, d, i, "criteria"))
                            if orb_size[i] != prime ** od:
                                mismatches.append((name, prime, d, i, "orbit size"))
        assert mismatches == []


def test_acceptance_08_square_top_oracle():
    with Stopwatch("08 square-top oracle", 10.0):
        alg = with_field(fork(), GF(2))
        scene = enumerate_points(alg, (1, 1), 4)
        classes = scene.layering_classes
        mixed = [s for s in classes if s.layers == ((2, 0, 0), (0, 1, 1))]
        assert len(mixed) == 1
        members = classes[mixed[0]]
        assert len(members) == (2 + 1) ** 2
        iso = iso_classes(scene)
        cls_of = {}
        for k, c in enumerate(iso):
            for i in c:
                cls_of[i] = k
        assert len({cls_of[i] for i in members}) == 2
        with pytest.raises(TopNotSquarefreeError):
            make_skeleton(alg, (1, 1), [Path(1)])
        with pytest.raises(TopNotSquarefreeError):
            enumerate_skeletons(alg, (1, 1), 4)
        sk = make_skeleton(alg, (1,), [Path(1)])
        with pytest.raises(TopNotSquarefreeError):
            cross_validate_chart(scene, sk)
