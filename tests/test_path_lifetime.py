"""How long interned paths, and what the library builds from them, live.

A path is interned by value: while any object holds a path, building one of
equal value returns that object.  So each check here uses vertices and arrow
names that no other object of the test process holds, and a path it watches
can only be kept alive by what the check itself built.
"""

import gc
import io
import weakref

from quivergrass import (
    AlgElement,
    GF,
    QQ,
    Quiver,
    build_algebra,
    cli,
    cross_validate_chart,
    enumerate_points,
    enumerate_skeletons,
    iso_classes,
    orbits,
    with_field,
)
from quivergrass import oracle
from quivergrass.moduli import (
    is_fully_invariant,
    orbit_dim,
    point_report,
    top_multiplicity_criterion,
    unipotent_orbit_dim,
)

from algebras import path_of, two_loop_fork

PROBLEM = """\
field: Q
loewy: 2
vertices: 71 72
arrows: lw: 71 -> 71, la: 71 -> 72
relations:
  lw^2
top: 71
dim: 3
"""


def test_paths_die_with_their_algebra():
    """Once an algebra and its quiver are dropped and gc has run, weak
    references to its paths, lazy ones included, are dead."""
    q = Quiver([71, 72], [("lw", 71, 71), ("la", 71, 72)])
    alg = build_algebra(q, [AlgElement.of_path(QQ, path_of(q, "lw", "lw"))], 2, QQ)
    refs = [weakref.ref(p) for p in alg.ascending]
    assert len(refs) > 2 and all(r() is not None for r in refs)
    del q, alg
    gc.collect()
    assert all(r() is None for r in refs)


def test_cli_calls_share_no_path(tmp_path, monkeypatch):
    """Every path of a `cli.main` call is freed when the call returns, with
    the cycle collector off: the paths hold no reference cycle, and nothing
    keeps them, so the next call on the same text builds its own."""
    problem = tmp_path / "lifetime.qg"
    problem.write_text(PROBLEM)
    built = []
    build = cli.build_algebra

    def watched(*args, **kwargs):
        alg = build(*args, **kwargs)
        built.append([weakref.ref(p) for p in alg.ascending])
        return alg

    monkeypatch.setattr(cli, "build_algebra", watched)
    argv = ["charts-all", str(problem), "--prune", "--json"]
    outputs = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            buf = io.StringIO()
            assert cli.main(argv, stdout=buf) == 0
            outputs.append(buf.getvalue())
            assert built[-1] and all(r() is None for r in built[-1])
    finally:
        if enabled:
            gc.enable()
    assert len(built) == 2 and outputs[0] == outputs[1]


def test_quivers_reusing_an_arrow_name_build_their_own_paths():
    """b is 72 -> 73 in one quiver and 72 -> 71 in the other.  Built side by
    side, in either order, each algebra has its own dimension, and every path
    it lists is made of its own quiver's arrows."""
    def chain():
        q = Quiver([71, 72, 73], [("a", 71, 72), ("b", 72, 73)])
        return build_algebra(q, [], 2, QQ)

    def cycle():
        q = Quiver([71, 72], [("a", 71, 72), ("b", 72, 71)])
        rels = [AlgElement.of_path(QQ, path_of(q, "a", "b")), AlgElement.of_path(QQ, path_of(q, "b", "a"))]
        return build_algebra(q, rels, 1, QQ)

    for make in ((chain, cycle), (cycle, chain)):
        algs = [build() for build in make]
        for alg in algs:
            dim = 6 if len(alg.quiver.vertices) == 3 else 4
            assert alg.dim == dim
            arrows = alg.quiver.arrow_by_name
            assert all(a == arrows[a.name] for p in alg.ascending for a in p.arrows)
            assert all(p.end == (p.arrows[-1].target if p.arrows else p.start) for p in alg.ascending)


def _cyclic_garbage(run):
    """The objects that the cycle collector finds unreachable once run() has
    returned, with the collector off during the call and its output
    dropped."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_commands_leave_no_cyclic_garbage(monkeypatch):
    """A classify scene (enumeration, the per-point moduli calls, orbits
    with their moves and isomorphism classes with their Hom tests), a
    cross-validation pass and a `charts-all --prune --json` call free all
    they build by reference counting: no value a point, scene or algebra
    keeps refers back to its owner."""
    hom_tests = []
    isomorphic = oracle._modules_isomorphic

    def counted(*args):
        hom_tests.append(1)
        return isomorphic(*args)

    monkeypatch.setattr(oracle, "_modules_isomorphic", counted)

    def classify():
        alg = with_field(two_loop_fork(), GF(3))
        scene = enumerate_points(alg, (1,), 3)
        for pt in scene.points:
            is_fully_invariant(alg, pt)
            orbit_dim(alg, pt)
            unipotent_orbit_dim(alg, pt)
            top_multiplicity_criterion(alg, pt)
            point_report(alg, pt)
        orbits(scene)
        iso_classes(scene)

    def crossval():
        alg = with_field(two_loop_fork(), GF(2))
        scene = enumerate_points(alg, (1,), 3)
        for sk in enumerate_skeletons(alg, (1,), 3):
            assert cross_validate_chart(scene, sk).ok

    def charts_all():
        assert cli.main(["charts-all", "-", "--prune", "--json"], stdout=io.StringIO()) == 0

    assert _cyclic_garbage(classify) == 0
    assert hom_tests
    assert _cyclic_garbage(crossval) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(PROBLEM))
    assert _cyclic_garbage(charts_all) == 0
