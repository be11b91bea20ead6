"""Representations: quotients, hom spaces, layerings, semisimple sequences."""

import itertools
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from quivergrass import (
    AlgElement,
    GF,
    NotSubmoduleError,
    Path,
    ProjectiveCover,
    QQ,
    Representation,
    SemisimpleSequence,
    SubmodulePoint,
    TopNotSquarefreeError,
    build_algebra,
    Quiver,
    dim_vector,
    hom_basis,
    hom_dim,
    multiplicity_mu,
    quotient_rep,
    radical_layering,
    radical_submodule,
    sseq_leq,
    submodule_as_rep,
    validate_representation,
    with_field,
)
from quivergrass.linalg import is_invertible, mat_mul

from algebras import loop_arrow, nilpotent_loop_arrow, path_of, random_presentation


@pytest.fixture(scope="module")
def la():
    return loop_arrow()


def _point(alg, elems):
    cover = ProjectiveCover(alg, (1,))
    return cover, SubmodulePoint.from_elements(
        cover, [(0, AlgElement.of_path(alg.field, p)) for p in elems]
    )


def test_quotient_span_aw(la):
    q = la.quiver
    cover, point = _point(la, [path_of(q, "w", "a")])
    m = quotient_rep(la, point)
    validate_representation(m)
    assert m.dims == (2, 1)
    # w sends e1 to w, a sends e1 to a (the complement column)
    assert any(x != QQ.zero for row in m.mat("w") for x in row)
    assert any(x != QQ.zero for row in m.mat("a") for x in row)


def test_quotient_by_radical_is_top(la):
    q = la.quiver
    cover = ProjectiveCover(la, (1,))
    jp = [p for _, p in cover.basis if p.length >= 1]
    point = SubmodulePoint.from_elements(
        cover, [(0, AlgElement.of_path(QQ, p)) for p in jp]
    )
    m = quotient_rep(la, point)
    assert m.dims == (1, 0)
    assert all(x == QQ.zero for mat in m.mats.values() for row in mat for x in row)


def test_quotient_twisted_line(la):
    q = la.quiver
    k = QQ.coerce(Fraction(7, 2))
    gen = AlgElement.of_path(QQ, path_of(q, "a")).sub(
        AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)
    )
    cover = ProjectiveCover(la, (1,))
    point = SubmodulePoint.from_elements(cover, [(0, gen)])
    m = quotient_rep(la, point)
    assert m.dims == (2, 1)
    # a*e1 is congruent to k * (a*w) modulo the line
    col = [m.mat("a")[0][j] for j in range(2)]
    assert k in col


def test_not_submodule_error(la):
    cover = ProjectiveCover(la, (1,))
    # span(w) is not stable: a*w escapes (w*w = 0 stays inside)
    with pytest.raises(NotSubmoduleError, match=r"stable under the arrow a$"):
        SubmodulePoint.from_elements(
            cover, [(0, AlgElement.of_path(QQ, path_of(la.quiver, "w")))]
        )


def test_hom_dim_examples(la):
    cover = ProjectiveCover(la, (1,))
    rep_p = cover.as_representation()
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
    assert radical_layering(quotient_rep(la, point_aw)).layers == (
        (1, 0),
        (1, 1),
        (0, 0),
    )
    _, point_a = _point(la, [path_of(q, "a")])
    assert radical_layering(quotient_rep(la, point_a)).layers == (
        (1, 0),
        (1, 0),
        (0, 1),
    )


def test_layering_of_semisimple():
    q = Quiver([1, 2], [("a", 1, 2)])
    alg = build_algebra(q, [], 1, QQ)
    semi = Representation(alg, (1, 1), {"a": ((QQ.zero,),)})
    assert radical_layering(semi).layers == ((1, 1), (0, 0))


def test_sseq_leq_examples():
    s = SemisimpleSequence(((1, 0), (1, 0), (0, 1)))
    t = SemisimpleSequence(((1, 0), (1, 1), (0, 0)))
    assert sseq_leq(s, t)
    assert not sseq_leq(t, s)
    assert sseq_leq(s, s)
    bigger = SemisimpleSequence(((1, 0), (1, 0), (0, 2)))
    assert not sseq_leq(s, bigger)


def test_dim_vector_examples():
    assert dim_vector(SemisimpleSequence(((1, 0), (1, 0), (0, 1)))) == (1, 1, 1)
    assert dim_vector(SemisimpleSequence(((1, 0), (1, 1), (0, 0)))) == (1, 2, 0)
    assert dim_vector(SemisimpleSequence(((0, 0), (0, 0)))) == (0, 0)


def _small_sseqs():
    layers = list(itertools.product(range(2), repeat=2))
    seqs = [
        SemisimpleSequence((l0, l1))
        for l0 in layers
        for l1 in layers
    ]
    return st.sampled_from(seqs)


@settings(max_examples=80, deadline=None)
@given(a=_small_sseqs(), b=_small_sseqs(), c=_small_sseqs())
def test_sseq_partial_order(a, b, c):
    assert sseq_leq(a, a)
    if sseq_leq(a, b) and sseq_leq(b, a):
        assert a == b
    if sseq_leq(a, b) and sseq_leq(b, c):
        assert sseq_leq(a, c)
    if sseq_leq(a, b):
        assert dim_vector(a) <= dim_vector(b)


def test_top_stable_degeneration_dim_vectors(la):
    """The two layerings of the quotients are comparable the expected way."""
    q = la.quiver
    _, point_a = _point(la, [path_of(q, "a")])
    _, point_aw = _point(la, [path_of(q, "w", "a")])
    s = radical_layering(quotient_rep(la, point_a))
    t = radical_layering(quotient_rep(la, point_aw))
    assert sseq_leq(s, t)
    assert dim_vector(s) < dim_vector(t)


def test_multiplicity_examples(la):
    q = la.quiver
    _, point_aw = _point(la, [path_of(q, "w", "a")])
    m = quotient_rep(la, point_aw)
    assert multiplicity_mu(m, (1,)) == 2
    with pytest.raises(TopNotSquarefreeError):
        multiplicity_mu(m, (1, 1))

    nl = nilpotent_loop_arrow(2)
    cover = ProjectiveCover(nl, (1,))
    w = nl.quiver.arrow_by_name["w"]
    a = nl.quiver.arrow_by_name["a"]
    c1 = SubmodulePoint.from_elements(
        cover,
        [
            (0, AlgElement.of_path(QQ, Path(1, (a,)))),
            (0, AlgElement.of_path(QQ, Path(1, (w, w, a)))),
        ],
    )
    assert multiplicity_mu(quotient_rep(nl, c1), (1,)) == 3


def test_multiplicity_of_top_itself():
    q = Quiver([1, 2], [("a", 1, 2)])
    alg = build_algebra(q, [], 1, QQ)
    cover = ProjectiveCover(alg, (1, 2))
    jp = [(s, AlgElement.of_path(QQ, p)) for s, p in cover.basis if p.length >= 1]
    point = SubmodulePoint.from_elements(cover, jp)
    top = quotient_rep(alg, point)
    assert multiplicity_mu(top, (1, 2)) == 2


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
    rep = cover.as_representation()
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
    rep = cover.as_representation()
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
