"""Algebra presentations: bases, normal forms, projective covers."""

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quivergrass import (
    AdmissibilityError,
    AlgElement,
    GF,
    LoewyBoundError,
    Path,
    ProjectiveCover,
    QQ,
    Quiver,
    all_paths,
    build_algebra,
    with_field,
)
from quivergrass.presentation import default_order_key

from algebras import double_triple, loop_arrow, path_of, random_presentation, two_loop_fork


def test_loop_arrow_basis():
    alg = loop_arrow()
    assert alg.dim == 5
    rendered = {p.render() for p in alg.basis}
    assert rendered == {"e1", "e2", "w", "a", "a*w"}


def test_semisimple_algebra():
    q = Quiver([1, 2, 3], [])
    alg = build_algebra(q, [], 0, QQ)
    assert alg.dim == 3


def test_two_loop_fork_basis_pivot_choice():
    alg = two_loop_fork()
    q = alg.quiver
    assert alg.is_basis_path(path_of(q, "w1", "a1"))
    assert not alg.is_basis_path(path_of(q, "w2", "a2"))


def test_normal_form_examples():
    alg = loop_arrow()
    q = alg.quiver
    w2 = path_of(q, "w", "w")
    assert alg.nf_path(w2).is_zero()
    e1 = Path(1)
    assert alg.nf_path(e1) == AlgElement.of_path(QQ, e1)

    fork = two_loop_fork()
    rel = AlgElement(
        QQ,
        {
            path_of(fork.quiver, "w1", "a1"): QQ.one,
            path_of(fork.quiver, "w2", "a2"): QQ.coerce(-1),
        },
    )
    assert fork.normal_form(rel).is_zero()


def test_normal_form_rejects_long_support():
    alg = loop_arrow()
    q = alg.quiver
    too_long = Path(1, (q.arrow_by_name["w"],) * 4)
    with pytest.raises(ValueError):
        alg.normal_form(AlgElement.of_path(QQ, too_long))


def test_projective_cover_dimensions():
    alg = loop_arrow()
    cover = ProjectiveCover(alg, (1,))
    assert cover.dim == 4 and cover.dim_jp == 3

    q = Quiver([1], [])
    semi = build_algebra(q, [], 0, QQ)
    cover = ProjectiveCover(semi, (1,))
    assert cover.dim == 1 and cover.dim_jp == 0

    dt = double_triple()
    cover = ProjectiveCover(dt, (1,))
    assert cover.dim == 7 and cover.dim_jp == 6


def test_admissibility_error():
    q = Quiver([1, 2], [("a", 1, 2)])
    with pytest.raises(AdmissibilityError):
        build_algebra(q, [AlgElement.of_path(QQ, path_of(q, "a"))], 1, QQ)


def test_loewy_bound_error():
    q = Quiver([1], [("w", 1, 1)])
    with pytest.raises(LoewyBoundError):
        build_algebra(q, [], 2, QQ)  # free loop is infinite dimensional


def test_ideal_multiples_vanish():
    for alg in (loop_arrow(), two_loop_fork(), random_presentation()):
        L1 = alg.loewy_bound + 1
        paths = all_paths(alg.quiver, L1)
        for rel in alg.relations:
            budget = L1 - rel.min_length()
            for v in paths:
                if v.length > budget:
                    continue
                rv = rel.mul(AlgElement.of_path(alg.field, v), maxlen=L1)
                for u in paths:
                    if u.length <= budget - v.length:
                        uv = AlgElement.of_path(alg.field, u).mul(rv, maxlen=L1)
                        assert alg.normal_form(uv).is_zero()


def test_dimension_independent_of_order():
    for make in (loop_arrow, two_loop_fork):
        alg = make()
        base_key = default_order_key(alg.quiver)

        def reversed_key(path):
            start, length, arrows = base_key(path)
            return (start, length, tuple(-i for i in arrows))

        alt = build_algebra(
            alg.quiver, list(alg.relations), alg.loewy_bound, QQ, order_key=reversed_key
        )
        assert alt.dim == alg.dim


def test_loewy_bound_stability():
    for make in (loop_arrow, two_loop_fork):
        alg = make()
        bigger = build_algebra(
            alg.quiver, list(alg.relations), alg.loewy_bound + 1, QQ
        )
        assert bigger.dim == alg.dim


def test_with_field_coerces():
    alg = loop_arrow()
    alg2 = with_field(alg, GF(2))
    assert alg2.dim == alg.dim
    assert alg2.field == GF(2)


def _elements(alg, max_terms=3):
    paths = all_paths(alg.quiver, alg.loewy_bound + 1)
    coeffs = st.integers(min_value=-3, max_value=3).map(Fraction)
    term = st.tuples(st.sampled_from(paths), coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: AlgElement(QQ, {})
        if not ts
        else _sum_terms(alg, ts)
    )


def _sum_terms(alg, ts):
    acc = AlgElement(QQ, {})
    for p, c in ts:
        acc = acc.add(AlgElement.of_path(QQ, p, QQ.coerce(c)))
    return acc


ALG = loop_arrow()
ALG_FORK = two_loop_fork()


@settings(max_examples=60, deadline=None)
@given(x=_elements(ALG_FORK))
def test_normal_form_idempotent(x):
    nf = ALG_FORK.normal_form(x)
    assert ALG_FORK.normal_form(nf) == nf


@settings(max_examples=60, deadline=None)
@given(x=_elements(ALG_FORK), y=_elements(ALG_FORK), c=st.integers(-3, 3))
def test_normal_form_linear(x, y, c):
    lhs = ALG_FORK.normal_form(x.scale(QQ.coerce(c)).add(y))
    rhs = ALG_FORK.normal_form(x).scale(QQ.coerce(c)).add(ALG_FORK.normal_form(y))
    assert lhs == rhs
