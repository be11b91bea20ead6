"""How long interned paths live.

A path is interned by value: while any object holds a path, building one of
equal value returns that object.  So each check here uses vertices and arrow
names that no other object of the test process holds, and a path it watches
can only be kept alive by what the check itself built.
"""

import gc
import io
import weakref

from quivergrass import AlgElement, QQ, Quiver, build_algebra, cli

from algebras import path_of

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
