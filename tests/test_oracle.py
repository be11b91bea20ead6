"""Brute-force enumeration, orbits, isomorphism classes, cross-validation."""

import itertools

import pytest

from quivergrass import (
    GF,
    OracleConfig,
    OracleScaleError,
    TopNotSquarefreeError,
    compatible,
    cross_validate_chart,
    enumerate_points,
    enumerate_skeletons,
    gaussian_binomial,
    has_skeleton,
    iso_classes,
    make_skeleton,
    orbit_size_consistency,
    orbits,
    unipotent_orbits,
    with_field,
    Path,
)
from quivergrass import oracle
from quivergrass.linalg import is_invertible
from quivergrass.oracle import _modules_isomorphic, chart_solutions, group_size
from quivergrass.representations import hom_basis, hom_dim, hom_from_quotient, path_ranks, quotient_rep

from algebras import (
    double_triple,
    fork,
    loop_arrow,
    nilpotent_loop_arrow,
    path_of,
    triple_arrow,
    two_loop_fork,
)


def test_gaussian_binomial():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == 1


def test_enumerate_loop_arrow():
    alg = with_field(loop_arrow(), GF(2))
    scene = enumerate_points(alg, (1,), 3)
    assert len(scene.points) == 3
    # full Grassmannian: d = dim P has the zero submodule only
    full = enumerate_points(alg, (1,), 4)
    assert len(full.points) == 1 and full.points[0].rows == ()


def test_enumerate_tops_have_top_layer():
    alg = with_field(loop_arrow(), GF(2))
    for d in (1, 2, 3, 4):
        scene = enumerate_points(alg, (1,), d)
        for i in range(len(scene.points)):
            assert scene.layerings()[i].layers[0] == (1, 0)


def test_enumerate_double_triple_count():
    alg = with_field(double_triple(), GF(2))
    scene = enumerate_points(alg, (1,), 4)
    assert len(scene.points) == 100
    classes = scene.layering_classes()
    assert len(classes) == 4
    assert sorted(len(v) for v in classes.values()) == [1, 1, 49, 49]


def test_enumerate_budget():
    alg = with_field(double_triple(), GF(2))
    with pytest.raises(OracleScaleError):
        enumerate_points(alg, (1,), 4, OracleConfig(subspace_budget=10))


def test_orbits_loop_arrow():
    alg = with_field(loop_arrow(), GF(2))
    scene = enumerate_points(alg, (1,), 3)
    assert group_size(scene.cover) == 2
    orbs = orbits(scene)
    assert sorted(len(o) for o in orbs) == [1, 2]
    iso = iso_classes(scene)
    assert set(map(frozenset, iso)) == set(map(frozenset, orbs))


def test_orbits_nilpotent_loop():
    alg = with_field(nilpotent_loop_arrow(2), GF(2))
    scene = enumerate_points(alg, (1,), 4)
    orbs = orbits(scene)
    assert sorted(len(o) for o in orbs) == [1, 1, 2, 4]
    # the module-dimension (3,1) locus carries the three expected orbits
    locus = {
        i
        for i in range(len(scene.points))
        if scene.quotient(i).dims == (3, 1)
    }
    inside = [o for o in orbs if set(o) <= locus]
    assert sorted(len(o) for o in inside) == [1, 2, 4]


def test_orbits_refine_iso_classes():
    for make, tops in ((loop_arrow, (1,)), (nilpotent_loop_arrow, (1,)), (triple_arrow, (1,))):
        alg = with_field(make(), GF(2))
        dim_p = sum(1 for p in alg.basis if p.start in tops)
        for d in range(1, dim_p + 1):
            scene = enumerate_points(alg, tops, d)
            orbs = orbits(scene)
            iso = iso_classes(scene)
            cls_of = {}
            for k, c in enumerate(iso):
                for i in c:
                    cls_of[i] = k
            for o in orbs:
                assert len({cls_of[i] for i in o}) == 1
            # the representation map has orbit fibres on all tested scenes
            assert len(orbs) == len(iso)


def test_fork_non_squarefree_scene():
    alg = with_field(fork(), GF(2))
    scene = enumerate_points(alg, (1, 1), 4)
    assert not scene.squarefree
    assert len(scene.points) == 11
    classes = scene.layering_classes()
    mixed = [s for s in classes if s.layers == ((2, 0, 0), (0, 1, 1))]
    assert len(mixed) == 1
    members = classes[mixed[0]]
    assert len(members) == 9
    iso = iso_classes(scene)
    cls_of = {}
    for k, c in enumerate(iso):
        for i in c:
            cls_of[i] = k
    assert len({cls_of[i] for i in members}) == 2
    orbs = orbits(scene)
    orb_of = {}
    for k, o in enumerate(orbs):
        for i in o:
            orb_of[i] = k
    inside = {orb_of[i] for i in members}
    assert len(inside) == 2
    assert sorted(len(orbs[k]) for k in inside) == [3, 6]
    # orbits coincide with iso classes here too
    assert set(map(frozenset, orbs)) == set(map(frozenset, iso))


def test_fork_chart_machinery_refuses():
    alg = with_field(fork(), GF(2))
    scene = enumerate_points(alg, (1, 1), 4)
    with pytest.raises(TopNotSquarefreeError):
        make_skeleton(alg, (1, 1), [Path(1)])
    with pytest.raises(TopNotSquarefreeError):
        enumerate_skeletons(alg, (1, 1), 4)
    sk = make_skeleton(alg, (1,), [Path(1)])
    with pytest.raises(TopNotSquarefreeError):
        cross_validate_chart(scene, sk)


def test_cross_validate_two_loop_fork_example():
    alg = with_field(two_loop_fork(), GF(3))
    q = alg.quiver
    sk = make_skeleton(
        alg, (1,), [Path(1), path_of(q, "w1"), path_of(q, "w1", "a1"), path_of(q, "a2")]
    )
    sols = chart_solutions(alg, sk)
    assert len(sols) == 18  # 2 units for X1 (X4 determined), X2 and X3 free
    scene = enumerate_points(alg, (1,), 4)
    report = cross_validate_chart(scene, sk)
    assert report.ok
    assert report.n_solutions == 18 and report.n_points == 18


def test_cross_validate_single_point_chart():
    alg = with_field(loop_arrow(), GF(5))
    q = alg.quiver
    sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
    scene = enumerate_points(alg, (1,), 3)
    report = cross_validate_chart(scene, sk1)
    assert report.ok and report.n_solutions == 1 and report.n_points == 1


def test_cross_validate_empty_chart():
    alg = with_field(loop_arrow(), GF(2))
    q = alg.quiver
    degenerate = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "w")])
    scene = enumerate_points(alg, (1,), 3)
    report = cross_validate_chart(scene, degenerate)
    assert report.ok and report.n_solutions == 0 and report.n_points == 0


def test_charts_cover_all_points():
    for make, tops in ((loop_arrow, (1,)), (two_loop_fork, (1,)), (triple_arrow, (1,))):
        alg = with_field(make(), GF(2))
        dim_p = sum(1 for p in alg.basis if p.start in tops)
        for d in range(1, dim_p + 1):
            scene = enumerate_points(alg, tops, d)
            covered = set()
            for sk in enumerate_skeletons(alg, tops, d):
                for i in range(len(scene.points)):
                    if has_skeleton(alg, scene.points[i], sk):
                        covered.add(i)
            assert covered == set(range(len(scene.points)))


def test_point_layerings_compatible_with_charts():
    alg = with_field(loop_arrow(), GF(2))
    scene = enumerate_points(alg, (1,), 3)
    for sk in enumerate_skeletons(alg, (1,), 3):
        for i in range(len(scene.points)):
            if has_skeleton(alg, scene.points[i], sk):
                assert compatible(sk, scene.layerings()[i], alg.quiver.vertices)


def test_orbit_size_consistency_examples():
    scene = enumerate_points(with_field(nilpotent_loop_arrow(2), GF(2)), (1,), 4)
    report = orbit_size_consistency(scene)
    assert report.ok
    scene3 = enumerate_points(with_field(loop_arrow(), GF(3)), (1,), 3)
    orbs = orbits(scene3)
    assert sorted(len(o) for o in orbs) == [1, 3]
    assert orbit_size_consistency(scene3).ok


def test_unipotent_orbits_sizes():
    scene = enumerate_points(with_field(nilpotent_loop_arrow(2), GF(2)), (1,), 4)
    u_orbs = unipotent_orbits(scene)
    assert sorted(len(o) for o in u_orbs) == [1, 1, 2, 4]


def test_orbit_bfs_fallback_matches_exhaustive(small_scenes):
    """The generator BFS finds the exhaustive orbits, of Aut(P) and of its
    unipotent radical, also on the repeated top (1, 1) of the fork, where
    the GL_2 scalings and transvections act."""
    from quivergrass.oracle import orbit_provenance

    scenes = list(small_scenes)
    for prime in (2, 3):
        alg = with_field(fork(), GF(prime))
        for d in range(1, 7):
            scenes.append((f"fork (1, 1) F{prime} d={d}", enumerate_points(alg, (1, 1), d)))
    for label, full in scenes:
        assert orbit_provenance(full) == "exhaustive", label
        small = enumerate_points(full.alg, full.tops, full.d, OracleConfig(group_budget=1))
        assert orbits(small) == orbits(full), label
        bfs = "generator-bfs" if group_size(small.cover) > 1 else "exhaustive"
        assert orbit_provenance(small) == bfs, label
        assert unipotent_orbits(small) == unipotent_orbits(full), label


def _hom_scan_isomorphic(m, n):
    """Reference isomorphism test: scan every combination of the vertex-wise
    Hom basis for one that is invertible at every vertex."""
    f = m.alg.field
    basis = hom_basis(m, n)
    if not basis:
        return m.dim == 0
    assert f.char ** len(basis) <= 10 ** 6
    for coeffs in itertools.product(list(f.elements()), repeat=len(basis)):
        if all(c == f.zero for c in coeffs):
            continue
        ok = True
        for v in m.alg.quiver.vertices:
            nv, mv = n.dim_at(v), m.dim_at(v)
            if nv != mv:
                ok = False
                break
            mat = [[f.zero] * mv for _ in range(nv)]
            for c, h in zip(coeffs, basis):
                if c == f.zero:
                    continue
                hm = h[v]
                for a in range(nv):
                    for b in range(mv):
                        mat[a][b] = f.add(mat[a][b], f.mul(c, hm[a][b]))
            if not is_invertible(f, mat, nv):
                ok = False
                break
        if ok:
            return True
    return False


def test_iso_classes_match_unbucketed_pairwise_partition(top_scenes):
    """The Yoneda test agrees with the vertex-wise Hom scan on every pair,
    and iso_classes is the partition that scan gives."""
    for label, scene in top_scenes:
        n = len(scene.points)
        linked = {
            i: {j for j in range(n) if _hom_scan_isomorphic(scene.quotient(i), scene.quotient(j))}
            for i in range(n)
        }
        for i in range(n):
            for j in range(n):
                assert _modules_isomorphic(scene, i, j) == (j in linked[i]), (label, i, j)
        # isomorphism is an equivalence: every point's class is its link set
        classes = {tuple(sorted(linked[i])) for i in range(n)}
        for c in classes:
            assert all(linked[i] == set(c) for i in c), label
        assert iso_classes(scene) == tuple(sorted(classes)), label


def test_hom_from_quotient_has_the_dimension_of_hom(top_scenes, rational_points):
    """dim K(C_i, N_j) = dim Hom(M_i, N_j), over F2, F3 and at rational
    chart points over Q."""
    groups = [
        (label, scene.alg, scene.points[:12]) for label, scene in top_scenes
    ] + rational_points
    for label, alg, points in groups:
        for pi in points:
            for pj in points:
                n = quotient_rep(alg, pj)
                kernel = hom_from_quotient(pi, n)
                assert len(kernel) == hom_dim(quotient_rep(alg, pi), n), label


def test_iso_classes_do_not_use_the_orbit_code(top_scenes, monkeypatch):
    """Acceptance 07 compares orbits with isomorphism classes, so the
    isomorphism test must not be computed from the group action."""

    def forbidden(*args):
        raise AssertionError("isomorphism test used the orbit code")

    for name in ("_orbit_partition", "_end_basis", "_right_action"):
        monkeypatch.setattr(oracle, name, forbidden)
    for label, scene in top_scenes:
        fresh = enumerate_points(scene.alg, scene.tops, scene.d)
        assert iso_classes(fresh) == iso_classes(scene), label


def test_generating_vector_is_scanned_for_more_than_q_top_vertices():
    """Over F2 each coordinate is nonzero on some vector of the plane
    x0 + x1 + x2 = 0, but no vector of it is nonzero on all three, so with
    t = 3 > q only the scan gives the answer.  Over F3 the plane holds
    (1, 1, 2), and the coordinate test and the scan agree."""
    tops = [[[0]], [[1]], [[2]]]
    plane = [[1, 0, 1], [0, 1, 1]]
    assert all(any(x[c] for x in plane) for [[c]] in tops)
    assert not oracle._generates(GF(2), plane, tops, True, 10 ** 6)
    assert oracle._generates(GF(3), plane, tops, True, 10 ** 6)
    assert oracle._generates(GF(3), plane, tops, False, 10 ** 6)
    assert not oracle._generates(GF(3), plane[:1], tops, True, 10 ** 6)
    with pytest.raises(OracleScaleError):
        oracle._generates(GF(2), plane, tops, True, 3)


def test_orbits_have_a_single_iso_key(small_scenes):
    for label, scene in small_scenes:
        assert len(scene.tops) == 1
        for orb in orbits(scene):
            keys = {(scene.layerings()[i], path_ranks(scene.quotient(i))) for i in orb}
            assert len(keys) == 1, label


def test_path_ranks_on_trivial_paths_are_the_dimension_vector(small_scenes):
    for label, scene in small_scenes:
        alg = scene.alg
        for i in range(len(scene.points)):
            rep = scene.quotient(i)
            ranks = dict(zip(alg.basis, path_ranks(rep)))
            assert tuple(ranks[Path(v)] for v in alg.quiver.vertices) == rep.dims, label


def test_iso_scan_hom_calls_stay_bucketed(monkeypatch):
    hom_from_quotient = oracle.hom_from_quotient
    calls = []

    def counting_hom_from_quotient(point, n):
        calls.append(1)
        return hom_from_quotient(point, n)

    monkeypatch.setattr(oracle, "hom_from_quotient", counting_hom_from_quotient)
    scene = enumerate_points(with_field(double_triple(), GF(3)), (1,), 3)
    assert len(iso_classes(scene)) == 195
    # an unbucketed scan makes 14352 calls here
    assert len(calls) <= 1000
