"""Moduli criteria: invariance, orbit dimensions, finite local type."""

import itertools
import os
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quivergrass import (
    AlgElement,
    GF,
    OracleScaleError,
    Path,
    ProjectiveCover,
    QQ,
    simple_top_moduli_criterion,
    enumerate_points,
    finite_local_type_check,
    is_fully_invariant,
    iso_classes,
    orbit_dim,
    orbits,
    top_multiplicity_criterion,
    unipotent_orbit_dim,
    with_field,
    build_algebra,
    Quiver,
)
from quivergrass import cli, representations
from quivergrass.linalg import Echelon, rank
from quivergrass.moduli import ModuliCriterionReport
from quivergrass.presentation import all_paths
from quivergrass.representations import quotient_rep

from algebras import (
    a2,
    loop_arrow,
    nilpotent_loop_arrow,
    path_of,
    point_of,
    random_presentation,
    triple_arrow,
)
from references import end_images_reference, normal_form
from vertexwise import cover_rep, hom_dim, radical_submodule, submodule_as_rep

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import inputs  # noqa: E402
import workloads  # noqa: E402


def _basis_vec(alg, x: AlgElement):
    """Coordinates of x in the basis of the algebra."""
    vec = [alg.field.zero] * len(alg.basis)
    for p, c in x.terms.items():
        vec[alg.basis_index[p]] = c
    return vec


def _cyclic_span(alg_p, lam: AlgElement) -> Echelon:
    """Echelon of Lambda*lambda in the basis of the algebra: the span of the
    normal forms of the left path multiples u*lam."""
    ech = Echelon(alg_p.field, len(alg_p.basis))
    for u in all_paths(alg_p.quiver, alg_p.loewy_bound):
        img = normal_form(alg_p, AlgElement.of_path(alg_p.field, u).mul(lam, maxlen=alg_p.loewy_bound + 1))
        if not img.is_zero():
            ech.add(_basis_vec(alg_p, img))
    return ech


def algebra_basis_criterion(alg, e, prime=2, budget=10 ** 6) -> ModuliCriterionReport:
    """Reference for `simple_top_moduli_criterion`, read in the basis of the
    algebra: the symbolic branches as the library has them, then, per
    nonzero lambda in Je over F_p in basis order, the first omega in eJe
    with lambda*omega outside the span of the left multiples of lambda."""
    je = [p for p in alg.basis if p.length >= 1 and p.start == e]
    eje = [p for p in je if p.end == e]
    if not eje:
        return ModuliCriterionReport(True, "symbolic", True, True)
    if all(y.then(x) is None or alg.nf_path(y.then(x)).is_zero() for y in eje for x in je):
        return ModuliCriterionReport(True, "symbolic", False, True)
    f = GF(prime)
    alg_p = with_field(alg, f)
    je_p = [p for p in alg_p.basis if p.length >= 1 and p.start == e]
    eje_p = [p for p in je_p if p.end == e]
    if prime ** len(je_p) > budget:
        raise OracleScaleError(f"{prime}^{len(je_p)} candidates for lambda exceed the budget {budget}")
    for coeffs in itertools.product(list(f.elements()), repeat=len(je_p)):
        lam = AlgElement(f, dict(zip(je_p, coeffs)))
        if lam.is_zero():
            continue
        span = _cyclic_span(alg_p, lam)
        for omega in eje_p:
            lam_om = normal_form(alg_p, lam.mul(AlgElement.of_path(f, omega), maxlen=alg_p.loewy_bound + 1))
            if not lam_om.is_zero() and not span.contains(_basis_vec(alg_p, lam_om)):
                return ModuliCriterionReport(
                    False, "finite-field", False, False, prime=prime, witness_lambda=lam, witness_omega=omega
                )
    return ModuliCriterionReport(True, "finite-field", False, False, prime=prime)


def verify_moduli_witness(alg, report) -> bool:
    """Re-check a negative witness: lambda*omega must escape Lambda*lambda."""
    if report.holds or report.witness_lambda is None:
        return False
    f = report.witness_lambda.field
    alg_p = with_field(alg, f)
    lam = report.witness_lambda
    lam_om = normal_form(
        alg_p, lam.mul(AlgElement.of_path(f, report.witness_omega), maxlen=alg_p.loewy_bound + 1)
    )
    return not lam_om.is_zero() and not _cyclic_span(alg_p, lam).contains(
        _basis_vec(alg_p, lam_om)
    )


def _loop_arrow_points(alg):
    q = alg.quiver
    cover = ProjectiveCover(alg, (1,))
    f = alg.field
    span_aw = point_of(
        cover, [(0, AlgElement.of_path(f, path_of(q, "w", "a")))]
    )
    span_a = point_of(
        cover, [(0, AlgElement.of_path(f, path_of(q, "a")))]
    )
    jp = point_of(
        cover, [(0, AlgElement.of_path(f, p)) for _, p in cover.basis if p.length >= 1]
    )
    return span_aw, span_a, jp


def test_is_fully_invariant_examples():
    alg = loop_arrow()
    span_aw, span_a, jp = _loop_arrow_points(alg)
    assert is_fully_invariant(alg, span_aw).holds
    res = is_fully_invariant(alg, span_a)
    assert not res.holds
    assert res.witness_path.render() == "w"
    assert is_fully_invariant(alg, jp).holds


def _right_multiply(alg, cover, vec, path):
    """Reference: image of a full-P vector under right multiplication by a
    path running between top vertices of a squarefree cover.  It moves the
    component over the slot of the path's end vertex to the slot of its start
    vertex."""
    f = alg.field
    out = [f.zero] * cover.dim
    end_slot = cover.slots.index(path.end)
    start_slot = cover.slots.index(path.start)
    for i, c in enumerate(vec):
        slot, p = cover.basis[i]
        if c == f.zero or slot != end_slot:
            continue
        for pth, a in alg.nf_path(path.then(p)).terms.items():
            j = cover.index[(start_slot, pth)]
            out[j] = f.add(out[j], f.mul(c, a))
    return out


def _full_p_invariance(alg, point):
    """Reference full invariance on full-P vectors: (holds, witness path,
    witness row) for the first basis path between top vertices, in path
    order, and then the first row of the point, that moves a row out of the
    point.  The trivial paths count: right multiplication by e_v is the
    projection onto the slot of v, which moves C at a top of several
    vertices when C is not the sum of its slot components."""
    cover = point.cover
    for path in alg.basis:
        if path.start not in cover.slots or path.end not in cover.slots:
            continue
        for row in point.rows:
            if not point.echelon.contains(_right_multiply(alg, cover, row, path)):
                return False, path, row
    return True, None, None


def test_invariance_matches_full_p_reference(top_scenes):
    checked = 0
    for label, scene in top_scenes:
        if not scene.squarefree:
            continue
        for point in scene.points:
            res = is_fully_invariant(scene.alg, point)
            assert (res.holds, res.witness_path, res.witness_row) == _full_p_invariance(scene.alg, point), label
            checked += 1
    assert checked > 100


def test_full_invariance_is_orbit_dimension_zero(top_scenes, catalogue_scenes):
    """On every squarefree scene, of one top vertex or several, a point is
    fully invariant exactly when its orbit dimension is 0: both ask whether
    every endomorphism of P, the top idempotents included, maps C into C.
    On merge at the top (1, 2), one point over F2 and two over F3 have
    orbit dimension 1 and are moved only by an idempotent."""
    checked = 0
    for label, scene in top_scenes + catalogue_scenes:
        if not scene.squarefree:
            continue
        for point in scene.points:
            assert is_fully_invariant(scene.alg, point).holds == (orbit_dim(scene.alg, point) == 0), (label, point)
            checked += 1
    assert checked > 4000


def test_invariance_witness_reverifies():
    alg = loop_arrow()
    _, span_a, _ = _loop_arrow_points(alg)
    res = is_fully_invariant(alg, span_a)
    cover = span_a.cover
    image = _right_multiply(alg, cover, res.witness_row, res.witness_path)
    assert not span_a.echelon.contains(image)


def test_orbit_dim_examples():
    alg = loop_arrow()
    span_aw, span_a, jp = _loop_arrow_points(alg)
    assert orbit_dim(alg, span_aw) == 0
    assert orbit_dim(alg, span_a) == 1
    assert orbit_dim(alg, jp) == 0
    assert unipotent_orbit_dim(alg, span_a) == 1
    assert unipotent_orbit_dim(alg, span_aw) == 0
    assert unipotent_orbit_dim(alg, jp) == 0


def test_orbit_dims_nilpotent_loop():
    alg = nilpotent_loop_arrow(2)
    q = alg.quiver
    w = q.arrow_by_name["w"]
    a = q.arrow_by_name["a"]
    cover = ProjectiveCover(alg, (1,))

    def aw(i):
        return AlgElement.of_path(QQ, Path(1, (w,) * i + (a,)))

    for j in (0, 1, 2):
        gens = [(0, aw(i)) for i in range(3) if i != j]
        point = point_of(cover, gens)
        assert orbit_dim(alg, point) == j
        assert unipotent_orbit_dim(alg, point) == j
        assert is_fully_invariant(alg, point).holds == (j == 0)


def test_count_criterion_examples():
    alg = loop_arrow()
    span_aw, span_a, jp = _loop_arrow_points(alg)
    assert top_multiplicity_criterion(alg, span_aw)
    assert not top_multiplicity_criterion(alg, span_a)
    assert top_multiplicity_criterion(alg, jp)


def test_moduli_criterion_a2_sufficient():
    rep = simple_top_moduli_criterion(a2(), 1)
    assert rep.holds and rep.provenance == "symbolic" and rep.eje_zero


def test_moduli_criterion_loop_arrow_fails_with_witness():
    alg = loop_arrow()
    rep = simple_top_moduli_criterion(alg, 1)
    assert not rep.holds
    assert rep.provenance == "finite-field"
    assert verify_moduli_witness(alg, rep)


def test_moduli_criterion_nilpotent_loop_fails():
    rep = simple_top_moduli_criterion(nilpotent_loop_arrow(2), 1)
    assert not rep.holds


def test_moduli_criterion_je_squared_zero():
    # loop with w^2 = 0 and no way out: (Je)^2 = 0 but eJe != 0
    q = Quiver([1], [("w", 1, 1)])
    alg = build_algebra(q, [AlgElement.of_path(QQ, Path(1, (q.arrow_by_name["w"],) * 2))], 1, QQ)
    rep = simple_top_moduli_criterion(alg, 1)
    assert rep.holds and rep.provenance == "symbolic"
    assert not rep.eje_zero and rep.je_squared_zero


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["random", "SMALL", "LARGE_Q"]), seed=st.integers(0, 2 ** 32 - 1))
@example(family="random", seed=6)  # the condition holds at vertex 1 over F2 and F3
@example(family="LARGE_Q", seed=44)  # at vertex 2 over F2, two omegas move the witness lambda
def test_moduli_criterion_matches_the_algebra_basis_reference(family, seed):
    """Random presentations of the catalogue's random shape and of the
    benchmark's SMALL and LARGE_Q shapes, over Q, at every vertex, over F2
    and F3 within a budget of 2 000 candidates for lambda: the criterion
    decided in P's basis gives the verdict, provenance and witnesses of the
    algebra-basis reference, and every negative witness re-verifies.  A
    failing presentation joins the catalogue in algebras.py."""
    if family == "random":
        alg = random_presentation(start=seed)
    else:
        [(text, _)] = inputs.random_problems(seed, 1, getattr(workloads, family))
        alg = cli.parse_problem(text).algebra("Q")
    checked = 0
    for v in alg.quiver.vertices:
        for prime in (2, 3):
            try:
                want = algebra_basis_criterion(alg, v, prime, budget=2000)
            except OracleScaleError:
                with pytest.raises(OracleScaleError):
                    simple_top_moduli_criterion(alg, v, prime, budget=2000)
                continue
            rep = simple_top_moduli_criterion(alg, v, prime, budget=2000)
            assert rep == want, (v, prime)
            if not rep.holds:
                assert verify_moduli_witness(alg, rep), (v, prime)
            checked += 1
    assume(checked)


def test_moduli_criterion_true_implies_all_points_invariant():
    for make in (a2, triple_arrow):
        alg = make()
        rep = simple_top_moduli_criterion(alg, 1)
        assert rep.holds
        algp = with_field(alg, GF(2))
        dim_p = sum(1 for p in algp.basis if p.start == 1)
        for d in range(1, dim_p + 1):
            scene = enumerate_points(algp, (1,), d)
            for pt in scene.points:
                assert is_fully_invariant(algp, pt).holds


def test_top_dimensions_are_read_once_per_point(monkeypatch):
    """orbit_dim, unipotent_orbit_dim, top_multiplicity_criterion,
    is_fully_invariant and iso_classes build no P/C as matrices, and share
    one elimination of the linearised action on C per point;
    is_fully_invariant reads the images of C that the elimination ranks and
    maps no vector of its own."""
    builds, eliminations, images = [], [], []
    real_quotient, real_ranks = representations.quotient_rep, representations.stabiliser_ranks
    point_cls, cover_cls = representations.SubmodulePoint, representations.ProjectiveCover
    real_terms, real_image = point_cls.image_terms, cover_cls.image

    def counting_quotient(point):
        builds.append(point)
        return real_quotient(point)

    def counting_ranks(point):
        eliminations.append(point)
        return real_ranks(point)

    def counting_terms(point, *args):
        images.append(point)
        return real_terms(point, *args)

    def counting_image(cover, *args):
        images.append(cover)
        return real_image(cover, *args)

    monkeypatch.setattr(representations, "quotient_rep", counting_quotient)
    monkeypatch.setattr(representations, "stabiliser_ranks", counting_ranks)
    monkeypatch.setattr(point_cls, "image_terms", counting_terms)
    monkeypatch.setattr(cover_cls, "image", counting_image)
    alg = with_field(loop_arrow(), GF(3))
    scene = enumerate_points(alg, (1,), 3)
    assert len(scene.points) > 1
    for pt in scene.points:
        dims = (orbit_dim(alg, pt), unipotent_orbit_dim(alg, pt), top_multiplicity_criterion(alg, pt))
        mapped = len(images)
        assert is_fully_invariant(alg, pt).holds == (dims[0] == 0)
        assert len(images) == mapped
    iso_classes(scene)
    assert builds == []
    assert eliminations == list(scene.points)


def test_end_images_match_the_reference(catalogue_scenes, top_scenes):
    """`SubmodulePoint.end_images`, which gives the identity of a one-slot
    cover a zero vector without mapping C's rows, equals the images of
    every row under every triple of End(P), the identity included; and so
    do the orbit ranks and, at a squarefree top, the witness of
    `is_fully_invariant` read from those images.  The scenes hold one-slot,
    two-slot and repeated tops."""
    shapes = set()
    for label, scene in [*catalogue_scenes, *top_scenes]:
        alg = scene.alg
        f = alg.field
        basis = scene.cover.end_basis
        units = sum(1 for t in basis if not t[2].length)
        shapes.add((len(scene.cover.slots), scene.cover.squarefree))
        for point in scene.points:
            images = end_images_reference(point)
            assert list(point.end_images) == images, (label, point)
            width = point.rank * point.quotient_dim
            assert point.orbit_ranks == (rank(f, images, width), rank(f, images[units:], width)), (label, point)
            if not scene.cover.squarefree:
                continue
            n = point.quotient_dim
            witness = next(
                (
                    (triple[2], row)
                    for triple, vec in sorted(zip(basis, images), key=lambda tv: alg.basis_index[tv[0][2]])
                    for k, row in enumerate(point.rows)
                    if any(vec[k * n : (k + 1) * n])
                ),
                (None, None),
            )
            result = is_fully_invariant(alg, point)
            assert (result.holds, result.witness_path, result.witness_row) == (witness[0] is None, *witness), label
    assert {(1, True), (2, True), (2, False)} <= shapes


def test_finite_local_type_examples():
    assert finite_local_type_check(nilpotent_loop_arrow(2), 1, 2).verdict
    assert finite_local_type_check(loop_arrow(), 1, 2).verdict
    q = Quiver([1, 2], [])
    semi = build_algebra(q, [], 0, QQ)
    assert finite_local_type_check(semi, 1, 2).verdict


def test_finite_local_type_failure():
    # two loops with all products zero: a 2-parameter family of quotients
    q = Quiver([1], [("x", 1, 1), ("y", 1, 1)])
    rels = [
        AlgElement.of_path(QQ, Path(1, (q.arrow_by_name[i], q.arrow_by_name[j])))
        for i in ("x", "y")
        for j in ("x", "y")
    ]
    alg = build_algebra(q, rels, 1, QQ)
    report = finite_local_type_check(alg, 1, 2)
    assert not report.verdict


def test_coherence_on_loop_arrow_scene():
    alg = with_field(loop_arrow(), GF(2))
    scene = enumerate_points(alg, (1,), 3)
    orb_size = {}
    for o in orbits(scene):
        for i in o:
            orb_size[i] = len(o)
    for i, pt in enumerate(scene.points):
        ffi = is_fully_invariant(alg, pt).holds
        od = orbit_dim(alg, pt)
        crit = top_multiplicity_criterion(alg, pt)
        assert ffi == (orb_size[i] == 1) == crit == (od == 0)
        assert orb_size[i] == 2 ** od
        assert od == unipotent_orbit_dim(alg, pt)
        assert od >= 0


def _hom_formulas(alg, point):
    """Reference values from vertex-wise Hom spaces: dim End(P),
    dim End(P) - dim Hom(P, C) - dim End(M), dim Hom(P, JM) - dim Hom(M, JM)
    and, for a squarefree top, mu(M) == t + dim Hom(M, JM)."""
    cover = point.cover
    rep_p = cover_rep(cover)
    m = quotient_rep(point)
    jm = radical_submodule(m)
    end_p = hom_dim(rep_p, rep_p)
    values = [
        end_p,
        end_p - hom_dim(rep_p, submodule_as_rep(point)) - hom_dim(m, m),
        hom_dim(rep_p, jm) - hom_dim(m, jm),
    ]
    if cover.squarefree:
        values.append(sum(m.dim_at(v) for v in cover.slots) == len(cover.slots) + hom_dim(m, jm))
    return values


def test_yoneda_dimensions_match_hom_formulas(top_scenes, rational_points):
    groups = [(label, scene.alg, scene.points) for label, scene in top_scenes] + rational_points
    for label, alg, points in groups:
        for point in points:
            values = [
                len(point.cover.end_basis),
                orbit_dim(alg, point),
                unipotent_orbit_dim(alg, point),
            ]
            if point.cover.squarefree:
                values.append(top_multiplicity_criterion(alg, point))
            assert values == _hom_formulas(alg, point), (label, point)


@settings(max_examples=25, deadline=None)
@given(start=st.integers(0, 400), tops=st.sampled_from([(1,), (1, 1), (1, 2)]), d=st.integers(1, 16))
def test_orbit_ranks_match_hom_formulas_on_random_presentations(start, tops, d):
    """The orbit dimensions, read from the linearised action of End(P) on
    C, equal the vertex-wise Hom formulas at every point of a random
    presentation over F2, at a simple, a repeated and a two-vertex top,
    within the default budgets.  With test_yoneda_dimensions_match_hom_formulas
    this keeps the orbit dimensions independent of the orbit scan, which
    acts by the same group."""
    alg = with_field(random_presentation(start=start), GF(2))
    d = 1 + (d - 1) % ProjectiveCover(alg, tops).dim
    try:
        scene = enumerate_points(alg, tops, d)
    except OracleScaleError:
        assume(False)
    for point in scene.points:
        values = [len(point.cover.end_basis), orbit_dim(alg, point), unipotent_orbit_dim(alg, point)]
        if point.cover.squarefree:
            values.append(top_multiplicity_criterion(alg, point))
        assert values == _hom_formulas(alg, point), (tops, d, point)
