"""Brute-force enumeration, orbits, isomorphism classes, cross-validation."""

import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quivergrass import (
    GF,
    OracleScaleError,
    ProjectiveCover,
    TopNotSquarefreeError,
    compatible,
    cross_validate_chart,
    enumerate_points,
    enumerate_skeletons,
    gaussian_binomial,
    has_skeleton,
    iso_classes,
    make_skeleton,
    orbits,
    with_field,
    Path,
)
from quivergrass import oracle
from quivergrass import polynomials as poly
from quivergrass.linalg import is_invertible, rref
from quivergrass.moduli import is_fully_invariant, orbit_dim, unipotent_orbit_dim
from quivergrass.oracle import OracleScene, _modules_isomorphic, chart_solutions, group_size, orbit_provenance
from quivergrass.representations import (
    hom_basis,
    hom_from_quotient,
    invariant_ranks,
    quotient_rep,
)

from algebras import (
    catalogue,
    cross_validation_jobs,
    double_triple,
    fork,
    loop_arrow,
    nilpotent_loop_arrow,
    path_of,
    random_presentation,
    simple_tops,
    triple_arrow,
    two_loop_fork,
)
from references import full_orbit_partition, index_of
from vertexwise import cover_rep, hom_dim, path_matrix


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
            assert scene.layerings[i].layers[0] == (1, 0)


def test_enumerate_double_triple_count():
    alg = with_field(double_triple(), GF(2))
    scene = enumerate_points(alg, (1,), 4)
    assert len(scene.points) == 100
    classes = scene.layering_classes
    assert len(classes) == 4
    assert sorted(len(v) for v in classes.values()) == [1, 1, 49, 49]


def test_enumerate_budget():
    alg = with_field(double_triple(), GF(2))
    with pytest.raises(OracleScaleError):
        enumerate_points(alg, (1,), 4, budget=10)


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
        if scene.layerings[i].totals_per_vertex() == (3, 1)
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
    classes = scene.layering_classes
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
                assert compatible(sk, scene.layerings[i], alg.quiver.vertices)


def test_orbit_size_consistency_examples(catalogue_scenes):
    """On every catalogue scene with a squarefree top, each orbit of the
    unipotent radical of Aut(P), from the scan over all its elements, has
    q^{unipotent_orbit_dim} points, and on a simple top each Aut(P) orbit
    has q^{orbit_dim} points.  At loop_arrow over F3, d = 3, the Aut(P)
    orbits have 1 and 3 points."""
    for label, scene in catalogue_scenes:
        if not scene.squarefree:
            continue
        for orb in full_orbit_partition(scene, True):
            for i in orb:
                assert len(orb) == scene.q ** unipotent_orbit_dim(scene.alg, scene.points[i]), (label, i)
        if len(scene.cover.slots) == 1:
            for orb in orbits(scene):
                for i in orb:
                    assert len(orb) == scene.q ** orbit_dim(scene.alg, scene.points[i]), (label, i)
    [scene] = [scene for label, scene in catalogue_scenes if label == "loop_arrow (1,) F3 d=3"]
    assert sorted(len(o) for o in orbits(scene)) == [1, 3]


def test_unipotent_orbits_sizes():
    scene = enumerate_points(with_field(nilpotent_loop_arrow(2), GF(2)), (1,), 4)
    assert sorted(len(o) for o in full_orbit_partition(scene, True)) == [1, 1, 2, 4]


def test_orbit_bfs_fallback_matches_exhaustive(small_scenes):
    """The generator BFS finds the exhaustive orbits of Aut(P), also on the
    repeated top (1, 1) of the fork, where the GL_2 scalings and
    transvections act.  The BFS runs on the same points under a budget of 1,
    which forces it whenever the group is not trivial."""
    from quivergrass.oracle import orbit_provenance

    scenes = list(small_scenes)
    for prime in (2, 3):
        alg = with_field(fork(), GF(prime))
        for d in range(1, 7):
            scenes.append((f"fork (1, 1) F{prime} d={d}", enumerate_points(alg, (1, 1), d)))
    for label, full in scenes:
        assert orbit_provenance(full) == "exhaustive", label
        small = OracleScene(full.cover, full.d, full.points, budget=1)
        assert orbits(small) == orbits(full), label
        bfs = "generator-bfs" if group_size(small.cover) > 1 else "exhaustive"
        assert orbit_provenance(small) == bfs, label


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
        quotients = [quotient_rep(p) for p in scene.points]
        linked = {
            i: {j for j in range(n) if _hom_scan_isomorphic(quotients[i], quotients[j])}
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
                kernel = hom_from_quotient(pi, pj)
                assert len(kernel) == hom_dim(quotient_rep(pi), quotient_rep(pj)), label


def test_iso_classes_do_not_use_the_orbit_code(top_scenes, monkeypatch):
    """Acceptance 07 compares orbits with isomorphism classes, so the
    isomorphism test must not be computed from the group action."""

    def forbidden(*args):
        raise AssertionError("isomorphism test used the orbit code")

    monkeypatch.setattr(oracle, "_orbit_partition", forbidden)
    monkeypatch.setattr(ProjectiveCover, "end_basis", property(forbidden))
    monkeypatch.setattr(ProjectiveCover, "right_action", forbidden)
    for label, scene in top_scenes:
        fresh = enumerate_points(scene.alg, scene.cover.slots, scene.d)
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


def test_orbits_have_a_single_iso_key(catalogue_scenes):
    """The key of `iso_classes`, the layering and the invariant ranks, is
    constant on every orbit, also at the two-vertex and repeated tops."""
    for label, scene in catalogue_scenes:
        for orb in orbits(scene):
            keys = {(scene.layerings[i], invariant_ranks(scene.points[i])) for i in orb}
            assert len(keys) == 1, label


def test_layering_totals_are_the_dimension_vector(small_scenes):
    """The iso key leaves out the ranks of the trivial paths, the dimension
    vector of P/C, since the layering's totals give it."""
    for label, scene in small_scenes:
        for i, point in enumerate(scene.points):
            assert scene.layerings[i].totals_per_vertex() == quotient_rep(point).dims, label


def test_invariant_ranks_match_the_matrix_route(catalogue_scenes):
    """Each invariant rank is the rank of the element's summed path matrices
    on P/C built as matrices: every basis path of positive length that acts
    nonzero on P, then a + c*b for parallel arrows a before b and c != 0."""
    for label, scene in catalogue_scenes:
        alg = scene.alg
        f = alg.field
        p_rep = cover_rep(scene.cover)
        elements = [
            [(1, p)] for p in alg.basis if p.length and any(x for row in path_matrix(p_rep, p) for x in row)
        ]
        arrows = alg.quiver.arrows
        for k, a in enumerate(arrows):
            for b in arrows[k + 1 :]:
                if (a.source, a.target) == (b.source, b.target):
                    elements += [[(1, Path(a.source, (a,))), (c, Path(b.source, (b,)))] for c in f.elements() if c]
        for point in scene.points:
            rep = quotient_rep(point)
            expected = []
            for element in elements:
                start, end = element[0][1].start, element[0][1].end
                summed = [[f.zero] * rep.dim_at(start) for _ in range(rep.dim_at(end))]
                for c, p in element:
                    for row, prow in zip(summed, path_matrix(rep, p)):
                        row[:] = [f.add(x, f.mul(c, y)) for x, y in zip(row, prow)]
                expected.append(rref(f, summed, rep.dim_at(start)).rank)
            assert invariant_ranks(point) == tuple(expected), label


def test_iso_classes_lie_in_layering_classes(catalogue_scenes):
    """`finite_local_type_check` compares only the two class counts, which
    says the layering determines the class because of this."""
    for label, scene in catalogue_scenes:
        for cls in iso_classes(scene):
            assert len({scene.layerings[i] for i in cls}) == 1, label


def test_iso_scan_hom_calls_stay_bucketed(monkeypatch):
    hom_from_quotient = oracle.hom_from_quotient
    calls = []

    def counting_hom_from_quotient(point, target):
        calls.append(1)
        return hom_from_quotient(point, target)

    monkeypatch.setattr(oracle, "hom_from_quotient", counting_hom_from_quotient)
    scene = enumerate_points(with_field(double_triple(), GF(3)), (1,), 3)
    assert len(iso_classes(scene)) == 195
    # an unbucketed scan makes 14352 calls here
    assert len(calls) <= 1000


def test_orbits_match_the_full_group_scan(catalogue_scenes):
    """The scan skips the identity and, on a squarefree top, the scalars;
    the orbits are still those of the scan over every group element, also
    at the repeated top (1, 1) of the fork, where it drops no scalar."""
    for label, scene in catalogue_scenes:
        assert orbit_provenance(scene) == "exhaustive", label
        assert orbits(scene) == full_orbit_partition(scene), label


def test_refined_iso_key_is_constant_on_orbits(catalogue_scenes):
    """The invariant ranks, the part of the key that refines the layering,
    are constant on every orbit, and on some scene they split a layering
    class, so the refinement is not idle."""
    split = []
    for label, scene in catalogue_scenes:
        for orb in orbits(scene):
            assert len({invariant_ranks(scene.points[i]) for i in orb}) == 1, label
        by_layering = {}
        for layering, point in zip(scene.layerings, scene.points):
            by_layering.setdefault(layering, set()).add(invariant_ranks(point))
        if any(len(ranks) > 1 for ranks in by_layering.values()):
            split.append(label)
    assert split


def test_iso_classes_do_not_depend_on_the_invariant_ranks(top_scenes, monkeypatch):
    """The invariant ranks only save Hom tests: without them the partition
    is the same, on the scenes of the pairwise test and on double_triple
    over F3 at d = 3, where they save most of them."""
    scenes = list(top_scenes)
    scenes.append(("double_triple F3 d=3", enumerate_points(with_field(double_triple(), GF(3)), (1,), 3)))
    expected = [iso_classes(scene) for _, scene in scenes]
    monkeypatch.setattr(oracle, "invariant_ranks", lambda point: ())
    for (label, scene), iso in zip(scenes, expected):
        fresh = enumerate_points(scene.alg, scene.cover.slots, scene.d)
        assert iso_classes(fresh) == iso, label


def test_classify_counts_stay_pinned(monkeypatch):
    """Hom tests and orbit-scan moves are deterministic.  On double_triple
    over F3 at d = 3, the slowest classify job, Aut(P) is the scalars, so
    no move is left, and the invariant ranks leave 12 Hom tests (the
    path ranks alone leave 486).  On two_loop_fork over F3 at d = 3,
    each of the 30 orbits takes the 8 moves of a group of 18 modulo its 2
    scalars, less the identity."""
    calls = {"_modules_isomorphic": 0, "_moved_rows": 0}
    for name in calls:

        def counted(*args, name=name, fn=getattr(oracle, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    scene = enumerate_points(with_field(double_triple(), GF(3)), (1,), 3)
    assert len(orbits(scene)) == len(iso_classes(scene)) == 195
    assert calls == {"_modules_isomorphic": 12, "_moved_rows": 0}
    scene = enumerate_points(with_field(two_loop_fork(), GF(3)), (1,), 3)
    assert group_size(scene.cover) == 18
    assert len(orbits(scene)) == 30 and calls["_moved_rows"] == 240


@settings(max_examples=40, deadline=None)
@given(start=st.integers(0, 400), k=st.integers(0, 2), d=st.integers(1, 8))
@example(start=75, k=0, d=6)  # 651 points, the most in a scan of seeds 0 to 300
def test_orbits_are_iso_classes_on_random_presentations(start, k, d):
    """At a simple top over F2, the orbits are the isomorphism classes, each
    orbit has q^{orbit_dim} points, and a point is fully invariant exactly
    when its orbit is a singleton; within the default budgets."""
    alg = with_field(random_presentation(start=start), GF(2))
    tops = simple_tops(alg)
    top = tops[k % len(tops)]
    d = 1 + (d - 1) % ProjectiveCover(alg, (top,)).dim
    try:
        scene = enumerate_points(alg, (top,), d)
    except OracleScaleError:
        assume(False)  # past the default candidate budget, as at start=304, k=1, d=4
    orbs = orbits(scene)
    assert orbit_provenance(scene) == "exhaustive"
    assert set(map(frozenset, orbs)) == set(map(frozenset, iso_classes(scene)))
    for orb in orbs:
        for i in orb:
            point = scene.points[i]
            assert len(orb) == scene.q ** orbit_dim(alg, point)
            assert is_fully_invariant(alg, point).holds == (len(orb) == 1)


# ---------------------------------------------------------------------------
# cross-validation: each chart-map value computed once, solutions depth first


def _product_scan(f, n, polys):
    """Reference: every tuple of F_q^n in product order, each tested on all
    polynomials."""
    return [
        c
        for c in itertools.product(list(f.elements()), repeat=n)
        if all(poly.evaluate(f, p, c) == f.zero for p in polys)
    ]


@st.composite
def _polynomial_systems(draw):
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(0, 4))
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    polys = draw(st.lists(st.dictionaries(monomials, st.integers(1, q - 1), max_size=4), max_size=4))
    return GF(q), n, polys


@settings(max_examples=150, deadline=None)
@given(system=_polynomial_systems())
@example(system=(GF(2), 0, []))
@example(system=(GF(3), 0, [{(): 2}]))
@example(system=(GF(3), 2, [{(0, 0): 1}]))
@example(system=(GF(2), 3, [{(1, 0, 0): 1, (0, 0, 0): 1}]))  # X2, X3 in no polynomial
@example(system=(GF(3), 3, [{(0, 0, 2): 1, (0, 0, 0): 2}, {(1, 1, 0): 1}]))
def test_depth_first_solutions_match_the_product_scan(system):
    f, n, polys = system
    assert oracle._solutions(f, n, polys) == _product_scan(f, n, polys)


def _two_loop_cross_validate_chart(scene, sk):
    """Reference: the solution loop and the enumerated-point loop each compute
    every chart-map value afresh, and membership runs `compatible` and
    `has_skeleton` on every point.  The chart maps are looked up on the
    oracle module, so a monkeypatch there reaches both versions."""
    alg = scene.alg
    mismatches = []
    sols = oracle.chart_solutions(alg, sk, scene.budget)
    image = {}
    for c in sols:
        pt = oracle.submodule_from_point(alg, sk, c, cover=scene.cover)
        image[c] = pt.rows
        if oracle.point_from_submodule(alg, sk, pt) != c:
            mismatches.append(f"round trip failed for chart point {c}")
    layerings = scene.layerings
    vs = alg.quiver.vertices
    with_sk = [
        i
        for i in range(len(scene.points))
        if compatible(sk, layerings[i], vs) and has_skeleton(alg, scene.points[i], sk)
    ]
    image_set = set(image.values())
    point_set = {scene.points[i].rows for i in with_sk}
    if image_set != point_set:
        mismatches.append(
            f"chart image has {len(image_set)} points, enumeration has {len(point_set)}"
        )
    if len(image_set) != len(sols):
        mismatches.append("chart map is not injective on solutions")
    for i in with_sk:
        c = oracle.point_from_submodule(alg, sk, scene.points[i])
        pt = oracle.submodule_from_point(alg, sk, c, cover=scene.cover)
        if pt.rows != scene.points[i].rows:
            mismatches.append(f"round trip failed for enumerated point {i}")
    return oracle.CrossValidationReport(sk, len(sols), len(with_sk), tuple(mismatches))


def test_cross_validation_matches_the_two_loop_reference():
    """On every scene of acceptance 05."""
    for name, alg, tops in cross_validation_jobs(catalogue()):
        for prime in (2, 3):
            algp = with_field(alg, GF(prime))
            dim_p = sum(1 for p in algp.basis if p.start in tops)
            for d in range(len(tops), dim_p + 1):
                scene = enumerate_points(algp, tops, d)
                for sk in enumerate_skeletons(algp, tops, d):
                    report = cross_validate_chart(scene, sk)
                    assert report == _two_loop_cross_validate_chart(scene, sk), (name, prime, d, sk)


def _fork_chart():
    """two_loop_fork over F3 at d=4 and a chart of 18 points on which X2
    and X3 are free."""
    alg = with_field(two_loop_fork(), GF(3))
    q = alg.quiver
    sk = make_skeleton(
        alg, (1,), [Path(1), path_of(q, "w1"), path_of(q, "w1", "a1"), path_of(q, "a2")]
    )
    return enumerate_points(alg, (1,), 4), sk


def test_perturbed_chart_coordinates_are_reported_as_before(monkeypatch):
    scene, sk = _fork_chart()
    f = scene.alg.field
    sols = chart_solutions(scene.alg, sk)
    victim = oracle.submodule_from_point(scene.alg, sk, sols[0], cover=scene.cover)
    point_from_submodule = oracle.point_from_submodule

    def perturbed(alg, sk_, point):
        c = point_from_submodule(alg, sk_, point)
        if point.rows == victim.rows:
            c = (c[0], f.add(c[1], f.one)) + c[2:]  # another solution
        return c

    monkeypatch.setattr(oracle, "point_from_submodule", perturbed)
    report = cross_validate_chart(scene, sk)
    assert report == _two_loop_cross_validate_chart(scene, sk)
    assert report.mismatches == (
        f"round trip failed for chart point {sols[0]}",
        f"round trip failed for enumerated point {index_of(scene, victim)}",
    )


def test_perturbed_chart_submodules_are_reported_as_before(monkeypatch):
    scene, sk = _fork_chart()
    sols = chart_solutions(scene.alg, sk)
    submodule_from_point = oracle.submodule_from_point
    lost = submodule_from_point(scene.alg, sk, sols[0], cover=scene.cover)

    def perturbed(alg, sk_, c, cover=None):
        return submodule_from_point(alg, sk_, sols[1] if tuple(c) == sols[0] else c, cover=cover)

    monkeypatch.setattr(oracle, "submodule_from_point", perturbed)
    report = cross_validate_chart(scene, sk)
    assert report == _two_loop_cross_validate_chart(scene, sk)
    assert not report.ok and report.mismatches == (
        f"round trip failed for chart point {sols[0]}",
        "chart image has 17 points, enumeration has 18",
        "chart map is not injective on solutions",
        f"round trip failed for enumerated point {index_of(scene, lost)}",
    )


def test_cross_validation_computes_each_chart_value_once(monkeypatch):
    calls = {"submodule_from_point": 0, "point_from_submodule": 0, "compatible": 0}

    def counting(name):
        fn = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name))
    alg = with_field(two_loop_fork(), GF(3))
    scene = enumerate_points(alg, (1,), 3)
    n_classes = len(scene.layering_classes)
    assert len(scene.points) == 54 and n_classes == 4
    n_solutions = 0
    for sk in enumerate_skeletons(alg, (1,), 3):
        before = dict(calls)
        report = cross_validate_chart(scene, sk)
        made = {name: calls[name] - before[name] for name in calls}
        # a matched chart leaves no enumerated point without a solution
        assert report.ok
        assert made["submodule_from_point"] <= report.n_solutions
        assert made["point_from_submodule"] <= report.n_solutions
        assert made["compatible"] <= n_classes
        n_solutions += report.n_solutions
    assert n_solutions >= len(scene.points)
