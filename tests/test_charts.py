"""Chart rewriting, chart ideals, and the point/submodule dictionary."""

import random

import pytest
from fractions import Fraction

from quivergrass import (
    AlgElement,
    GF,
    NotOnChartError,
    Path,
    ProjectiveCover,
    QQ,
    SkeletonMismatchError,
    SubmodulePoint,
    chart_ideal,
    enumerate_skeletons,
    has_skeleton,
    make_skeleton,
    module_from_point,
    point_from_submodule,
    quotient_rep,
    reduce,
    submodule_from_point,
    transition_matrix,
    validate_representation,
    with_field,
)
from quivergrass import polynomials as poly
from quivergrass.charts import chart_context, ideal_generators
from quivergrass.linalg import mat_mul, is_invertible
from quivergrass.presentation import all_paths

from algebras import catalogue, loop_arrow, path_of, simple_tops, two_loop_fork


@pytest.fixture(scope="module")
def fork_chart():
    alg = two_loop_fork()
    q = alg.quiver
    sk = make_skeleton(
        alg, (1,), [Path(1), path_of(q, "w1"), path_of(q, "w1", "a1"), path_of(q, "a2")]
    )
    return alg, sk


def test_reduce_binomial(fork_chart):
    alg, sk = fork_chart
    q = alg.quiver
    z = AlgElement(
        QQ,
        {path_of(q, "w1", "a1"): QQ.one, path_of(q, "w2", "a2"): QQ.coerce(-1)},
    )
    out = reduce(alg, sk, z)
    assert set(out) == {path_of(q, "w1", "a1")}
    # 1 - X1*X4 in the chart coordinates
    assert out[path_of(q, "w1", "a1")] == {
        (0, 0, 0, 0): QQ.one,
        (1, 0, 0, 1): QQ.coerce(-1),
    }


def test_reduce_skeleton_path_is_unit(fork_chart):
    alg, sk = fork_chart
    p = sk.paths[1]
    out = reduce(alg, sk, AlgElement.of_path(QQ, p))
    assert out == {p: {(0, 0, 0, 0): QQ.one}}


def test_reduce_loop_squares_vanish(fork_chart):
    alg, sk = fork_chart
    q = alg.quiver
    for i in ("w1", "w2"):
        for j in ("w1", "w2"):
            assert reduce(alg, sk, AlgElement.of_path(QQ, path_of(q, i, j))) == {}


def test_chart_ideal_golden(fork_chart):
    alg, sk = fork_chart
    ideal = chart_ideal(alg, sk)
    assert ideal.nvars == 4
    expected = poly.frozen(
        poly.canonicalize(
            QQ, {(0, 0, 0, 0): QQ.one, (1, 0, 0, 1): QQ.coerce(-1)}
        )
    )
    assert ideal.polynomials == (expected,)


def test_chart_ideal_loop_arrow():
    alg = loop_arrow()
    q = alg.quiver
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    ideal = chart_ideal(alg, sk2)
    assert ideal.nvars == 1 and ideal.polynomials == ()
    sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
    ideal = chart_ideal(alg, sk1)
    assert ideal.nvars == 0 and ideal.polynomials == ()


def test_submodule_from_point_examples():
    alg = loop_arrow()
    q = alg.quiver
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    k = QQ.coerce(Fraction(5))
    pt = submodule_from_point(alg, sk2, (k,))
    cover = pt.cover
    expected = SubmodulePoint.from_elements(
        cover,
        [(0, AlgElement.of_path(QQ, path_of(q, "a")).sub(
            AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)))],
    )
    assert pt.rows == expected.rows

    sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
    pt1 = submodule_from_point(alg, sk1, ())
    expected1 = SubmodulePoint.from_elements(
        cover, [(0, AlgElement.of_path(QQ, path_of(q, "w", "a")))]
    )
    assert pt1.rows == expected1.rows


def test_zero_point_not_on_cut_out_chart(fork_chart):
    alg, sk = fork_chart
    # the all-zero tuple violates the only equation of this chart
    with pytest.raises(NotOnChartError):
        submodule_from_point(alg, sk, tuple(QQ.zero for _ in range(4)))


def test_zero_point_on_free_chart():
    alg = loop_arrow()
    q = alg.quiver
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    pt = submodule_from_point(alg, sk2, (QQ.zero,))
    # U(0) is generated by the critical product a itself
    expected = SubmodulePoint.from_elements(
        pt.cover, [(0, AlgElement.of_path(QQ, path_of(q, "a")))]
    )
    assert pt.rows == expected.rows


def test_point_from_submodule_examples():
    alg = loop_arrow()
    q = alg.quiver
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    cover = ProjectiveCover(alg, (1,))
    k = QQ.coerce(3)
    gen = AlgElement.of_path(QQ, path_of(q, "a")).sub(
        AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)
    )
    point = SubmodulePoint.from_elements(cover, [(0, gen)])
    assert point_from_submodule(alg, sk2, point) == (k,)
    # round trip
    assert submodule_from_point(alg, sk2, (k,)).rows == point.rows
    # wrong skeleton
    sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
    with pytest.raises(SkeletonMismatchError):
        point_from_submodule(alg, sk1, point)


def test_point_coordinates_satisfy_chart_equation(fork_chart):
    """Coordinates read off oracle points of the four-variable chart always
    satisfy X1*X4 = 1."""
    alg0, sk0 = fork_chart
    alg = with_field(alg0, GF(3))
    q = alg.quiver
    sk = make_skeleton(alg, (1,), [Path(1)] + [
        path_of(q, "w1"), path_of(q, "w1", "a1"), path_of(q, "a2")
    ])
    from quivergrass.oracle import enumerate_points

    f = alg.field
    scene = enumerate_points(alg, (1,), 4)
    found = 0
    for pt in scene.points:
        if has_skeleton(alg, pt, sk):
            c = point_from_submodule(alg, sk, pt)
            assert f.mul(c[0], c[3]) == f.one
            found += 1
    assert found == 18


def test_module_from_point_examples(fork_chart):
    alg = loop_arrow()
    q = alg.quiver
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    k = QQ.coerce(2)
    m = module_from_point(alg, sk2, (k,))
    validate_representation(m)
    assert m.dims == (2, 1)
    # basis at vertex 1: e1, w; at vertex 2: a*w
    assert m.mat("w") == ((QQ.zero, QQ.zero), (QQ.one, QQ.zero))
    assert m.mat("a") == ((k, QQ.one),)

    falg, sk = fork_chart
    c = (QQ.one, QQ.zero, QQ.zero, QQ.one)
    fm = module_from_point(falg, sk, c)
    validate_representation(fm)


def test_module_from_point_matches_quotient():
    """The chart module and the quotient by the chart submodule are
    explicitly intertwined by the change of basis between the skeleton basis
    and the pivot complement."""
    for alg, tops in ((two_loop_fork(), (1,)), (loop_arrow(), (1,))):
        algp = with_field(alg, GF(3))
        f = algp.field
        for d in (2, 3, 4):
            for sk in enumerate_skeletons(algp, tops, d):
                from quivergrass.oracle import chart_solutions

                for c in chart_solutions(algp, sk):
                    m_chart = module_from_point(algp, sk, c)
                    pt = submodule_from_point(algp, sk, c)
                    m_quot = quotient_rep(algp, pt)
                    assert m_chart.dims == m_quot.dims
                    t = _sigma_to_complement(algp, sk, pt)
                    for arrow in algp.quiver.arrows:
                        src, tgt = arrow.source, arrow.target
                        lhs = mat_mul(
                            f, t[tgt], m_chart.mat(arrow.name), m_chart.dim_at(src)
                        )
                        rhs = mat_mul(
                            f, m_quot.mat(arrow.name), t[src], m_chart.dim_at(src)
                        )
                        assert lhs == rhs


def _sigma_to_complement(alg, sk, point):
    """Per-vertex matrix expanding skeleton-path images in the pivot
    complement basis of the quotient."""
    f = alg.field
    cover = point.cover
    ech = point.echelon()
    pivot_cols = {cover.jp_cols[k] for k in ech.pivots}
    complement = [i for i in range(cover.dim) if i not in pivot_cols]
    by_vertex_cols = {v: [] for v in alg.quiver.vertices}
    for i in complement:
        by_vertex_cols[cover.basis[i][1].end].append(i)
    blocks = {v: [] for v in alg.quiver.vertices}
    for p in sk.paths:
        blocks[p.end].append(p)
    mats = {}
    for v in alg.quiver.vertices:
        cols = []
        for p in blocks[v]:
            vec = cover.path_vector(p)
            res = ech.residual([vec[c] for c in cover.jp_cols])
            full = list(vec)
            for k, c in enumerate(cover.jp_cols):
                full[c] = res[k]
            cols.append([full[i] for i in by_vertex_cols[v]])
        mats[v] = tuple(
            tuple(cols[j][i] for j in range(len(cols)))
            for i in range(len(by_vertex_cols[v]))
        )
    return mats


def test_transition_matrix_examples():
    alg = loop_arrow()
    q = alg.quiver
    sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    cover = ProjectiveCover(alg, (1,))
    k = QQ.coerce(4)
    gen = AlgElement.of_path(QQ, path_of(q, "a")).sub(
        AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)
    )
    point = SubmodulePoint.from_elements(cover, [(0, gen)])
    same = transition_matrix(alg, sk2, sk2, point)
    assert same == tuple(
        tuple(QQ.one if i == j else QQ.zero for j in range(3)) for i in range(3)
    )
    g12 = transition_matrix(alg, sk1, sk2, point)
    g21 = transition_matrix(alg, sk2, sk1, point)
    assert is_invertible(QQ, g12, 3) and is_invertible(QQ, g21, 3)
    flat = [x for row in g12 for x in row] + [x for row in g21 for x in row]
    assert QQ.coerce(Fraction(1, 4)) in flat or QQ.coerce(4) in flat
    assert mat_mul(QQ, g12, g21, 3) == same

    # at k = 0 the first skeleton is not a basis of the quotient
    zero_gen = AlgElement.of_path(QQ, path_of(q, "a"))
    zero_point = SubmodulePoint.from_elements(cover, [(0, zero_gen)])
    with pytest.raises(SkeletonMismatchError):
        transition_matrix(alg, sk1, sk2, zero_point)


def test_transition_cocycle_on_shared_point():
    alg = with_field(two_loop_fork(), GF(5))
    f = alg.field
    d = 4
    from quivergrass.oracle import chart_solutions

    sks = enumerate_skeletons(alg, (1,), d)
    # find a point carried by three skeleton bases
    for sk in sks:
        for c in chart_solutions(alg, sk):
            pt = submodule_from_point(alg, sk, c)
            carriers = []
            for other in sks:
                try:
                    transition_matrix(alg, other, sk, pt)
                    carriers.append(other)
                except SkeletonMismatchError:
                    continue
                if len(carriers) == 3:
                    a, b, cc = carriers
                    g_ab = transition_matrix(alg, a, b, pt)
                    g_bc = transition_matrix(alg, b, cc, pt)
                    g_ac = transition_matrix(alg, a, cc, pt)
                    assert mat_mul(f, g_ab, g_bc, d) == g_ac
                    return
    pytest.skip("no point with three carrying bases found")


def test_chart_module_has_its_skeleton():
    for alg, tops in ((with_field(two_loop_fork(), GF(2)), (1,)),):
        from quivergrass.oracle import chart_solutions

        for d in (3, 4):
            for sk in enumerate_skeletons(alg, tops, d):
                for c in chart_solutions(alg, sk):
                    pt = submodule_from_point(alg, sk, c)
                    assert has_skeleton(alg, pt, sk)
                    got = point_from_submodule(alg, sk, pt)
                    assert got == c


def test_reduce_confluence_randomized():
    """Worklist processing order cannot change the expansion."""
    rng = random.Random(20240817)
    for name, alg in catalogue().items():
        tops = (simple_tops(alg)[0],)
        d = 3
        sks = enumerate_skeletons(alg, tops, d)[:4]
        for sk in sks:
            ctx = chart_context(alg, sk)
            gens = ideal_generators(alg, sk.tops)
            extra = [
                AlgElement.of_path(alg.field, p)
                for p in all_paths(alg.quiver, alg.loewy_bound + 1, start=tops[0])
            ]
            for z in (gens + extra)[:20]:
                baseline = ctx.reduce_element(z)
                for _ in range(5):
                    shuffled = ctx.reduce_element_worklist(z, rng=rng)
                    assert shuffled == baseline


def test_route_pruning_is_conservative():
    for name, alg in catalogue().items():
        tops = (simple_tops(alg)[0],)
        for d in (2, 3):
            for sk in enumerate_skeletons(alg, tops, d)[:6]:
                ctx = chart_context(alg, sk)
                for z in ideal_generators(alg, sk.tops):
                    assert ctx.reduce_element(z, route_prune=True) == ctx.reduce_element(
                        z, route_prune=False
                    )
                for p in all_paths(alg.quiver, alg.loewy_bound + 1, start=tops[0]):
                    z = AlgElement.of_path(alg.field, p)
                    assert ctx.reduce_element(z, route_prune=True) == ctx.reduce_element(
                        z, route_prune=False
                    )


def test_chart_soundness_at_points():
    """Every ideal generator evaluates to zero in the quotient by the chart
    submodule."""
    alg = with_field(two_loop_fork(), GF(3))
    f = alg.field
    from quivergrass.oracle import chart_solutions

    for d in (3, 4):
        for sk in enumerate_skeletons(alg, (1,), d):
            ctx = chart_context(alg, sk)
            for c in chart_solutions(alg, sk):
                pt = submodule_from_point(alg, sk, c)
                cover = pt.cover
                for g in ideal_generators(alg, sk.tops):
                    expansion = ctx.reduce_element(g)
                    acc = [f.zero] * cover.dim
                    for qpath, coeff in expansion.items():
                        val = poly.evaluate(f, coeff, c)
                        if val != f.zero:
                            vec = cover.vector_of(0, alg.nf_path(qpath))
                            acc = [f.add(a, f.mul(val, b)) for a, b in zip(acc, vec)]
                    # the combination must agree with g modulo the submodule
                    gvec = [f.zero] * cover.dim
                    for p, cc in alg.normal_form(g).terms.items():
                        vec = cover.vector_of(0, AlgElement.of_path(f, p, cc))
                        gvec = [f.add(a, b) for a, b in zip(gvec, vec)]
                    diff = [f.sub(a, b) for a, b in zip(gvec, acc)]
                    assert pt.contains_full(diff) or all(x == f.zero for x in diff)
