"""Algebra presentations: bases, normal forms, projective covers."""

import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from quivergrass import (
    AdmissibilityError,
    AlgElement,
    Arrow,
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
from quivergrass.fields import FieldError
from quivergrass.presentation import default_order_key

from algebras import (
    catalogue,
    double_triple,
    fork,
    loop_arrow,
    merge,
    path_of,
    random_presentation,
    two_loop_fork,
)
from references import incremental_build_algebra, normal_form


def test_loop_arrow_basis():
    alg = loop_arrow()
    assert alg.dim == 5
    rendered = {p.render() for p in alg.basis}
    assert rendered == {"e1", "e2", "w", "a", "a*w"}


def test_arrows_hash_as_their_fields_and_paths_are_interned():
    """An arrow stores the hash of its fields.  A path is interned: building
    it again returns the same object, so equal paths are identical."""
    q = two_loop_fork().quiver
    a = q.arrow_by_name["a1"]
    assert a == Arrow("a1", 1, 2) and hash(a) == hash(("a1", 1, 2))
    assert not hasattr(a, "__dict__")
    p = path_of(q, "w1", "a1")
    assert Path(1, p.arrows) is p
    assert Path(1).extended_by(q.arrow_by_name["w1"]).extended_by(a) is p
    assert not hasattr(p, "__dict__")
    assert all(x is y for x, y in zip(all_paths(q, 3), all_paths(q, 3)))


def test_semisimple_algebra():
    q = Quiver([1, 2, 3], [])
    alg = build_algebra(q, [], 0, QQ)
    assert alg.dim == 3


def test_two_loop_fork_basis_pivot_choice():
    alg = two_loop_fork()
    q = alg.quiver
    assert path_of(q, "w1", "a1") in alg.basis_index
    assert path_of(q, "w2", "a2") not in alg.basis_index


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
    assert normal_form(fork, rel).is_zero()


def test_normal_form_rejects_long_support():
    alg = loop_arrow()
    q = alg.quiver
    too_long = Path(1, (q.arrow_by_name["w"],) * 4)
    with pytest.raises(ValueError):
        normal_form(alg, AlgElement.of_path(QQ, too_long))


def test_projective_cover_dimensions():
    alg = loop_arrow()
    cover = ProjectiveCover(alg, (1,))
    assert cover.dim == 4 and sum(1 for _, p in cover.basis if p.length) == 3

    q = Quiver([1], [])
    semi = build_algebra(q, [], 0, QQ)
    cover = ProjectiveCover(semi, (1,))
    assert cover.dim == 1 and sum(1 for _, p in cover.basis if p.length) == 0

    dt = double_triple()
    cover = ProjectiveCover(dt, (1,))
    assert cover.dim == 7 and sum(1 for _, p in cover.basis if p.length) == 6


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
                        assert normal_form(alg, uv).is_zero()


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


def test_with_field_refuses_to_move_residues():
    """A residue mod 3 stands for no one rational: -1 and 2 are one element
    of F3 but not of F2 or Q, so F3 coefficients move into no other field."""
    alg3 = with_field(two_loop_fork(), GF(3))
    assert with_field(alg3, GF(3)) is alg3
    for field in (GF(2), GF(5), QQ):
        with pytest.raises(FieldError):
            with_field(alg3, field)


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
    nf = normal_form(ALG_FORK, x)
    assert normal_form(ALG_FORK, nf) == nf


@settings(max_examples=60, deadline=None)
@given(x=_elements(ALG_FORK), y=_elements(ALG_FORK), c=st.integers(-3, 3))
def test_normal_form_linear(x, y, c):
    lhs = normal_form(ALG_FORK, x.scale(QQ.coerce(c)).add(y))
    rhs = normal_form(ALG_FORK, x).scale(QQ.coerce(c)).add(normal_form(ALG_FORK, y))
    assert lhs == rhs


def _reversed_key(quiver):
    """The default order with the arrow indices negated: another total order
    of the paths, with its own pivots and basis."""
    base_key = default_order_key(quiver)

    def key(path):
        start, length, arrows = base_key(path)
        return (start, length, tuple(-i for i in arrows))

    return key


def _build_outcome(build, quiver, relations, loewy, field, order_key=None):
    """What a build gives: its basis and the normal form of every path of
    length <= L+1 (which carries the reduced rows: a pivot path's normal form
    is minus the rest of its row), or the error it raises."""
    try:
        alg = build(quiver, relations, loewy, field, order_key=order_key)
    except (AdmissibilityError, LoewyBoundError) as exc:
        return type(exc), str(exc)
    return (
        alg.basis,
        {p: alg.nf_path(p).terms for p in all_paths(quiver, loewy + 1)},
    )


def _assert_builds_agree(alg, field, loewy=None, order_key=None, extra=()):
    """build_algebra and the incremental reference agree on alg's relations
    moved into field (the reference cannot drop a relation that vanishes
    there), plus the extra relations, at the bound loewy."""
    rels = [AlgElement(field, {p: field.coerce(c) for p, c in r.terms.items()}) for r in alg.relations]
    rels += list(extra)
    loewy = alg.loewy_bound if loewy is None else loewy
    args = (alg.quiver, rels, loewy, field, order_key)
    got = _build_outcome(build_algebra, *args)
    assert got == _build_outcome(incremental_build_algebra, *args)
    return got


def _chained_pivots():
    """Two arrows 1 -> 2 and two 2 -> 3, with relations inserted so that the
    semi-echelon rows chain: the leading path of each relation is the other
    term of the one before, b2*a2 > b1*a2 > b2*a1 > b1*a1, so back-substitution
    must run in ascending pivot order."""
    q = Quiver([1, 2, 3], [("a1", 1, 2), ("a2", 1, 2), ("b1", 2, 3), ("b2", 2, 3)])
    pairs = ((("a2", "b2"), ("a2", "b1")), (("a2", "b1"), ("a1", "b2")), (("a1", "b2"), ("a1", "b1")))
    rels = [AlgElement(QQ, {path_of(q, *x): 1, path_of(q, *y): 1}) for x, y in pairs]
    return build_algebra(q, rels, 2, QQ)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_one_pass_build_matches_the_incremental_reference_on_the_catalogue(field):
    """The catalogue, merge, the fork and the chained pivots, at their bound
    and one below it (where most fail the bound), and three of them in the
    reversed order."""
    outcomes = set()
    for alg in [*catalogue().values(), merge(), fork(), _chained_pivots()]:
        for loewy in (alg.loewy_bound, alg.loewy_bound - 1):
            got = _assert_builds_agree(alg, field, loewy)
            outcomes.add(got[0] if got[0] is LoewyBoundError else "built")
    for alg in (loop_arrow(), two_loop_fork(), _chained_pivots()):
        _assert_builds_agree(alg, field, order_key=_reversed_key(alg.quiver))
    assert outcomes == {"built", LoewyBoundError}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    field=st.sampled_from([QQ, GF(2), GF(3)]),
    lower=st.booleans(),
    reverse=st.booleans(),
    short=st.booleans(),
)
@example(seed=140, field=GF(2), lower=False, reverse=False, short=False)  # chained pivots
def test_one_pass_build_matches_the_incremental_reference(seed, field, lower, reverse, short):
    """On random presentations over Q, F2 and F3, in the default or the
    reversed order, perhaps one below the bound and perhaps with a relation
    that has an arrow for a term: the same basis, rows and normal forms as
    the incremental build, or the same AdmissibilityError or LoewyBoundError."""
    alg = random_presentation(start=seed)
    q = alg.quiver
    extra = ()
    if short:
        a = q.arrows[0]
        extra = (AlgElement(field, {Path(a.source, (a,)): field.one}),)
    got = _assert_builds_agree(
        alg, field,
        alg.loewy_bound - lower,
        _reversed_key(q) if reverse else None,
        extra,
    )
    assert (got[0] is AdmissibilityError) == short


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), reverse=st.booleans())
def test_ranks_follow_the_order_key_and_paths_are_interned(seed, reverse):
    """On random presentations, in the default or the reversed order: the
    ranks sort the path table as the order key does, `lazy_keys` and the
    keys of `arrow_extensions` are those ranks, and every way of building a
    path (`extended_by`, `prefix`, `then`, `Path(start, arrows)`) returns
    the same object."""
    alg = random_presentation(start=seed)
    q = alg.quiver
    key = _reversed_key(q) if reverse else default_order_key(q)
    alg = build_algebra(q, list(alg.relations), alg.loewy_bound, alg.field, order_key=key)
    table = all_paths(q, alg.loewy_bound + 1)
    assert sorted(table, key=alg.path_key) == sorted(table, key=key) == list(alg.ascending)
    assert [alg.rank[p] for p in alg.ascending] == list(range(len(table)))
    assert alg.lazy_keys == {v: alg.rank[Path(v)] for v in q.vertices}
    for p in table:
        assert Path(p.start, p.arrows) is p
        if p.length <= alg.loewy_bound:
            for a, ap, k, _ in alg.arrow_extensions(p):
                assert ap is p.extended_by(a) and ap.parent is p and k == alg.rank[ap]
        for k in range(p.length + 1):
            head = p.prefix(k)
            assert head is Path(p.start, p.arrows[:k])
            assert head.then(Path(head.end, p.arrows[k:])) is p
            if k < p.length:
                assert head.extended_by(p.arrows[k]) is p.prefix(k + 1)


def test_relation_that_vanishes_in_the_field_is_dropped():
    """2*b*a is zero over F2: the relation drops out, as it does when
    with_field moves a presentation, instead of failing on an empty term set."""
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    twice = AlgElement(QQ, {path_of(q, "a", "b"): 2})
    alg = build_algebra(q, [twice], 2, GF(2))
    assert alg.relations == () and alg.basis == build_algebra(q, [], 2, GF(2)).basis
