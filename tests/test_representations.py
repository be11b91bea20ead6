"""Representations: quotients, hom spaces, layerings, semisimple sequences."""

import random

import pytest
from fractions import Fraction

from quivergrass import (
    AlgElement,
    GF,
    NotSubmoduleError,
    Path,
    ProjectiveCover,
    QQ,
    Representation,
    SubmodulePoint,
    TopNotSquarefreeError,
    build_algebra,
    Quiver,
    hom_basis,
    quotient_rep,
    radical_layering,
    top_multiplicity_criterion,
    with_field,
)
from quivergrass.linalg import is_invertible

from algebras import fork, loop_arrow, nilpotent_loop_arrow, path_of, point_of, random_presentation, two_loop_fork
from vertexwise import (
    cover_rep,
    hom_dim,
    layering_of_rep,
    mat_mul,
    radical_submodule,
    submodule_as_rep,
    validate_representation,
)


@pytest.fixture(scope="module")
def la():
    return loop_arrow()


def _point(alg, elems):
    cover = ProjectiveCover(alg, (1,))
    return cover, point_of(
        cover, [(0, AlgElement.of_path(alg.field, p)) for p in elems]
    )


def test_quotient_span_aw(la):
    q = la.quiver
    cover, point = _point(la, [path_of(q, "w", "a")])
    m = quotient_rep(point)
    validate_representation(m)
    assert m.dims == (2, 1)
    # w sends e1 to w, a sends e1 to a (the complement column)
    assert any(x != QQ.zero for row in m.mat("w") for x in row)
    assert any(x != QQ.zero for row in m.mat("a") for x in row)


def test_quotient_by_radical_is_top(la):
    q = la.quiver
    cover = ProjectiveCover(la, (1,))
    jp = [p for _, p in cover.basis if p.length >= 1]
    point = point_of(
        cover, [(0, AlgElement.of_path(QQ, p)) for p in jp]
    )
    m = quotient_rep(point)
    assert m.dims == (1, 0)
    assert all(x == QQ.zero for mat in m.mats.values() for row in mat for x in row)


def test_quotient_twisted_line(la):
    q = la.quiver
    k = QQ.coerce(Fraction(7, 2))
    gen = AlgElement.of_path(QQ, path_of(q, "a")).sub(
        AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)
    )
    cover = ProjectiveCover(la, (1,))
    point = point_of(cover, [(0, gen)])
    m = quotient_rep(point)
    assert m.dims == (2, 1)
    # a*e1 is congruent to k * (a*w) modulo the line
    col = [m.mat("a")[0][j] for j in range(2)]
    assert k in col


def test_not_submodule_error(la):
    cover = ProjectiveCover(la, (1,))
    # span(w) is not stable: a*w escapes (w*w = 0 stays inside)
    with pytest.raises(NotSubmoduleError, match=r"stable under the arrow a$"):
        point_of(
            cover, [(0, AlgElement.of_path(QQ, path_of(la.quiver, "w")))]
        )


def _assert_rows_in_jp(point, label):
    """The rows of a point are vectors of P that vanish at the length-0 pairs."""
    cover = point.cover
    f = cover.alg.field
    for row in point.rows:
        assert len(row) == cover.dim, label
        assert all(c == f.zero for (_, p), c in zip(cover.basis, row) if p.length == 0), label


def test_point_rows_are_vectors_of_p_inside_jp(top_scenes, rational_points):
    """Points from enumerate_points (tops of several and repeated vertices
    too), from submodule_from_point at rational chart points and from
    SubmodulePoint.from_rows (through point_of) all have rows in the cover's
    basis, inside JP."""
    for label, scene in top_scenes:
        for point in scene.points:
            _assert_rows_in_jp(point, label)
    for label, _, points in rational_points:
        for point in points:
            _assert_rows_in_jp(point, label)
    for alg, tops in ((loop_arrow(), (1,)), (loop_arrow(), (1, 2)), (two_loop_fork(), (1,)), (fork(), (1, 1))):
        cover = ProjectiveCover(alg, tops)
        for m in range(1, alg.loewy_bound + 2):
            # J^m P, spanned by the paths of length >= m over every slot
            elems = [(s, AlgElement.of_path(alg.field, p)) for s, p in cover.basis if p.length >= m]
            point = point_of(cover, elems)
            assert point.rank == sum(1 for _, p in cover.basis if p.length >= m)
            _assert_rows_in_jp(point, (tops, m))


def test_from_rows_refuses_rows_outside_jp_and_rows_of_another_length(la):
    cover = ProjectiveCover(la, (1,))
    f = la.field
    # all of P is graded and arrow-stable, but not inside JP
    every = [[f.one if j == i else f.zero for j in range(cover.dim)] for i in range(cover.dim)]
    with pytest.raises(NotSubmoduleError, match="not inside JP"):
        SubmodulePoint.from_rows(cover, every)
    with pytest.raises(NotSubmoduleError, match="not inside JP"):
        point_of(cover, [(0, AlgElement.of_path(f, Path(1)))])
    # a row over the basis of JP alone is one column short
    for width in (cover.dim - 1, cover.dim + 1):
        with pytest.raises(NotSubmoduleError, match="not a vector of P"):
            SubmodulePoint.from_rows(cover, [[f.zero] * (width - 1) + [f.one]])
    radical = [row for row, (_, p) in zip(every, cover.basis) if p.length]
    assert SubmodulePoint.from_rows(cover, radical).rank == cover.dim - 1


def test_from_rows_reads_integers_mod_p(la):
    """Rows given with any ints over F3 name the same point as their residues
    in range(3), which the echelon takes as they are."""
    cover = ProjectiveCover(with_field(la, GF(3)), (1,))
    rows = [[int(j == i) for j in range(cover.dim)] for i, (_, p) in enumerate(cover.basis) if p.length]
    shifted = [[c + 3 * ((i + j) % 3 - 1) for j, c in enumerate(row)] for i, row in enumerate(rows)]
    assert SubmodulePoint.from_rows(cover, shifted).rows == SubmodulePoint.from_rows(cover, rows).rows


def test_hom_dim_examples(la):
    cover = ProjectiveCover(la, (1,))
    rep_p = cover_rep(cover)
    assert hom_dim(rep_p, rep_p) == 2
    jp = radical_submodule(rep_p)
    # Hom(P, JP) is the e1-component of JP, spanned by w alone
    assert hom_dim(rep_p, jp) == 1


def test_hom_simples_delta():
    q = Quiver([1, 2], [("a", 1, 2)])
    alg = build_algebra(q, [], 1, QQ)
    s1 = Representation(alg, (1, 0), {"a": ()})
    s2 = Representation(alg, (0, 1), {"a": ((),)})
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s2, s2) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0


def test_radical_layering_examples(la):
    q = la.quiver
    _, point_aw = _point(la, [path_of(q, "w", "a")])
    assert radical_layering(point_aw).layers == (
        (1, 0),
        (1, 1),
        (0, 0),
    )
    _, point_a = _point(la, [path_of(q, "a")])
    assert radical_layering(point_a).layers == (
        (1, 0),
        (1, 0),
        (0, 1),
    )


def test_layering_of_semisimple():
    q = Quiver([1, 2], [("a", 1, 2)])
    alg = build_algebra(q, [], 1, QQ)
    semi = Representation(alg, (1, 1), {"a": ((QQ.zero,),)})
    assert layering_of_rep(semi).layers == ((1, 1), (0, 0))
    cover = ProjectiveCover(alg, (1, 2))
    jp = [(s, AlgElement.of_path(QQ, p)) for s, p in cover.basis if p.length >= 1]
    assert radical_layering(point_of(cover, jp)).layers == ((1, 1), (0, 0))


def _top_multiplicity(point):
    """The multiplicity of the top simples in M = P/C, sum_s dim M_{v_s}:
    the width of the Yoneda equations of End(M)."""
    return sum(quotient_rep(point).dim_at(v) for v in point.cover.slots)


def test_multiplicity_examples(la):
    q = la.quiver
    _, point_aw = _point(la, [path_of(q, "w", "a")])
    assert _top_multiplicity(point_aw) == 2
    with pytest.raises(TopNotSquarefreeError):
        top_multiplicity_criterion(la, SubmodulePoint(ProjectiveCover(la, (1, 1)), ()))

    nl = nilpotent_loop_arrow(2)
    cover = ProjectiveCover(nl, (1,))
    w = nl.quiver.arrow_by_name["w"]
    a = nl.quiver.arrow_by_name["a"]
    c1 = point_of(
        cover,
        [
            (0, AlgElement.of_path(QQ, Path(1, (a,)))),
            (0, AlgElement.of_path(QQ, Path(1, (w, w, a)))),
        ],
    )
    assert _top_multiplicity(c1) == 3


def test_multiplicity_of_top_itself():
    q = Quiver([1, 2], [("a", 1, 2)])
    alg = build_algebra(q, [], 1, QQ)
    cover = ProjectiveCover(alg, (1, 2))
    jp = [(s, AlgElement.of_path(QQ, p)) for s, p in cover.basis if p.length >= 1]
    point = point_of(cover, jp)
    assert _top_multiplicity(point) == 2


def _random_invertible(field, n, rng):
    while True:
        mat = tuple(
            tuple(field.coerce(rng.randint(0, field.char - 1)) for _ in range(n))
            for _ in range(n)
        )
        if is_invertible(field, mat, n):
            return mat


def test_hom_dim_base_change_invariance():
    alg = with_field(random_presentation(), GF(5))
    f = alg.field
    rng = random.Random(11)
    cover = ProjectiveCover(alg, (alg.quiver.vertices[0],))
    rep = cover_rep(cover)
    jp = radical_submodule(rep)
    base = hom_dim(rep, jp)
    change = {v: _random_invertible(f, rep.dim_at(v), rng) for v in alg.quiver.vertices}
    inverse = {}
    for v, g in change.items():
        n = rep.dim_at(v)
        # invert by augmenting with the identity
        from quivergrass.linalg import Echelon

        ech = Echelon(f, 2 * n)
        for i in range(n):
            ech.add(list(g[i]) + [f.one if j == i else f.zero for j in range(n)])
        inverse[v] = tuple(tuple(row[n:]) for row in ech.rows)
    twisted_mats = {}
    for arrow in alg.quiver.arrows:
        g_t = change[arrow.target]
        g_s_inv = inverse[arrow.source]
        m = rep.mat(arrow.name)
        twisted = mat_mul(f, mat_mul(f, g_t, m, rep.dim_at(arrow.source)), g_s_inv, rep.dim_at(arrow.source))
        twisted_mats[arrow.name] = twisted
    twisted_rep = Representation(alg, rep.dims, twisted_mats)
    validate_representation(twisted_rep)
    twisted_jp = radical_submodule(twisted_rep)
    assert hom_dim(twisted_rep, twisted_jp) == base


def test_hom_basis_matrices_intertwine(la):
    cover = ProjectiveCover(la, (1,))
    rep = cover_rep(cover)
    for h in hom_basis(rep, rep):
        for arrow in la.quiver.arrows:
            src, tgt = arrow.source, arrow.target
            m = rep.mat(arrow.name)
            lhs = mat_mul(QQ, h[tgt], m, rep.dim_at(src))
            rhs = mat_mul(QQ, m, h[src], rep.dim_at(src))
            assert lhs == rhs


def test_submodule_as_rep_dims(la):
    q = la.quiver
    _, point = _point(la, [path_of(q, "w", "a")])
    rep_c = submodule_as_rep(point)
    assert rep_c.dims == (0, 1)
    validate_representation(rep_c)


def test_validate_representation_sums_the_terms_of_a_relation():
    """a1*w1 = a2*w2 holds when the two products agree and fails when they
    differ, though no single term vanishes."""
    alg = two_loop_fork()
    shift = ((QQ.zero, QQ.zero), (QQ.one, QQ.zero))

    def rep(c):
        mats = {"w1": shift, "w2": shift, "a1": ((QQ.zero, QQ.one),), "a2": ((QQ.zero, c),)}
        return Representation(alg, (2, 1), mats)

    validate_representation(rep(QQ.one))
    with pytest.raises(ValueError, match="relation does not annihilate"):
        validate_representation(rep(Fraction(2)))
