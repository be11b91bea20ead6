"""Chart rewriting, chart ideals, and the point/submodule dictionary."""

import gc
import io
import math
import os
import random
import sys
import weakref
from collections import Counter

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from quivergrass import (
    AlgElement,
    GF,
    NotOnChartError,
    Path,
    ProjectiveCover,
    QQ,
    Quiver,
    SkeletonMismatchError,
    SubmodulePoint,
    build_algebra,
    chart_ideal,
    cross_validate_chart,
    enumerate_points,
    enumerate_skeletons,
    has_skeleton,
    make_skeleton,
    point_from_submodule,
    quotient_rep,
    submodule_from_point,
    with_field,
)
from quivergrass import cli, polynomials as poly
from quivergrass.charts import chart_context
from quivergrass.linalg import Echelon, Expander, rref
from quivergrass.presentation import all_paths
from quivergrass.skeletons import skeleton_expander

from algebras import catalogue, loop_arrow, merge, path_of, point_of, simple_tops, two_loop_fork
from references import normal_form, reduce_element_worklist
from vertexwise import mat_mul, module_from_point, validate_representation

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import inputs  # noqa: E402


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
    out = chart_context(alg, sk).reduce_element(z)
    assert set(out) == {path_of(q, "w1", "a1")}
    # 1 - X1*X4 in the chart coordinates
    assert out[path_of(q, "w1", "a1")] == {
        (0, 0, 0, 0): QQ.one,
        (1, 0, 0, 1): QQ.coerce(-1),
    }


def test_reduce_skeleton_path_is_unit(fork_chart):
    alg, sk = fork_chart
    p = sk.paths[1]
    out = chart_context(alg, sk).reduce_element(AlgElement.of_path(QQ, p))
    assert out == {p: {(0, 0, 0, 0): QQ.one}}


def test_reduce_loop_squares_vanish(fork_chart):
    alg, sk = fork_chart
    q = alg.quiver
    for i in ("w1", "w2"):
        for j in ("w1", "w2"):
            assert chart_context(alg, sk).reduce_element(AlgElement.of_path(QQ, path_of(q, i, j))) == {}


_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_rationals = st.fractions(max_denominator=6).filter(bool).map(QQ.coerce)


@settings(max_examples=200, deadline=None)
@given(a=st.dictionaries(_monomials, _rationals | st.sampled_from([1, -1, 2, -2, 6]), min_size=1, max_size=5))
def test_canonicalize_over_q_gives_coprime_integers_with_positive_lead(a):
    """Over Q the canonical form is the multiple of a with coprime integer
    coefficients and a positive leading one; a polynomial of that form,
    which canonicalize returns as it is, is its own canonical form."""
    out = poly.canonicalize(QQ, a)
    lead = poly.leading_monomial(a)
    ratio = Fraction(out[lead]) / a[lead]
    assert out.keys() == a.keys() and all(out[e] == ratio * a[e] for e in a)
    assert all(type(c) is int for c in out.values())
    assert out[lead] > 0 and math.gcd(*out.values()) == 1
    assert poly.canonicalize(QQ, out) is out


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), a=st.dictionaries(_monomials, st.integers(1, 4), min_size=1, max_size=5))
def test_canonicalize_over_f_p_is_monic(p, a):
    """Over F_p the canonical form is the monic multiple of a, and a monic
    polynomial is returned as it is."""
    f = GF(p)
    a = {e: c % p for e, c in a.items() if c % p}
    if not a:
        return
    out = poly.canonicalize(f, a)
    lead = poly.leading_monomial(a)
    assert out.keys() == a.keys() and out[lead] == 1
    assert all(out[e] == f.mul(out[lead] * pow(a[lead], -1, p), a[e]) for e in a)
    assert poly.canonicalize(f, out) is out


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
    expected = point_of(
        cover,
        [(0, AlgElement.of_path(QQ, path_of(q, "a")).sub(
            AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)))],
    )
    assert pt.rows == expected.rows

    sk1 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "a")])
    pt1 = submodule_from_point(alg, sk1, ())
    expected1 = point_of(
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
    expected = point_of(
        pt.cover, [(0, AlgElement.of_path(QQ, path_of(q, "a")))]
    )
    assert pt.rows == expected.rows


def test_chart_points_are_canonical_submodules(top_scenes, rational_points):
    """submodule_from_point files its rows without a check: at every
    catalogue chart point, from_rows (which re-reduces the rows and checks
    the grading and the arrows) returns them unchanged."""
    from quivergrass.oracle import chart_solutions

    points = [pt for _, _, pts in rational_points for pt in pts]
    for label, scene in top_scenes:
        if not scene.squarefree:
            continue
        for sk in enumerate_skeletons(scene.alg, scene.cover.slots, scene.d, prune=True):
            for c in chart_solutions(scene.alg, sk):
                points.append(submodule_from_point(scene.alg, sk, c, cover=scene.cover))
    # b*a + d*c + f*e ends at three vertices; build_algebra splits it, so
    # the normal forms, and with them the chart generators, stay homogeneous
    q = Quiver(range(1, 8), [("a", 1, 2), ("b", 2, 3), ("c", 1, 4), ("d", 4, 5), ("e", 1, 6), ("f", 6, 7)])
    rel = AlgElement(QQ, {path_of(q, *names): QQ.one for names in (("a", "b"), ("c", "d"), ("e", "f"))})
    for prime in (2, 3):
        alg = build_algebra(q, [rel], 2, GF(prime))
        cover = ProjectiveCover(alg, (1,))
        for d in range(1, cover.dim + 1):
            for sk in enumerate_skeletons(alg, (1,), d, prune=True):
                for c in chart_solutions(alg, sk):
                    points.append(submodule_from_point(alg, sk, c, cover=cover))
    assert len(points) > 800  # some 900 chart points
    for pt in points:
        assert SubmodulePoint.from_rows(pt.cover, pt.rows).rows == pt.rows, pt


def test_point_from_submodule_examples():
    alg = loop_arrow()
    q = alg.quiver
    sk2 = make_skeleton(alg, (1,), [Path(1), path_of(q, "w"), path_of(q, "w", "a")])
    cover = ProjectiveCover(alg, (1,))
    k = QQ.coerce(3)
    gen = AlgElement.of_path(QQ, path_of(q, "a")).sub(
        AlgElement.of_path(QQ, path_of(q, "w", "a")).scale(k)
    )
    point = point_of(cover, [(0, gen)])
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
                    m_quot = quotient_rep(pt)
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
    ech = point.echelon
    pivot_cols = set(ech.pivots)
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
            res = ech.residual(cover.path_vector(p))
            cols.append([res[i] for i in by_vertex_cols[v]])
        mats[v] = tuple(
            tuple(cols[j][i] for j in range(len(cols)))
            for i in range(len(by_vertex_cols[v]))
        )
    return mats


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
            gens = list(ctx.generators)
            extra = [
                AlgElement.of_path(alg.field, p)
                for p in all_paths(alg.quiver, alg.loewy_bound + 1, start=tops[0])
            ]
            for z in (gens + extra)[:20]:
                baseline = ctx.reduce_element(z)
                for _ in range(5):
                    shuffled = reduce_element_worklist(ctx, z, rng=rng)
                    assert shuffled == baseline


def test_route_pruning_is_conservative():
    for name, alg in catalogue().items():
        tops = (simple_tops(alg)[0],)
        for d in (2, 3):
            for sk in enumerate_skeletons(alg, tops, d)[:6]:
                ctx = chart_context(alg, sk)
                for z in ctx.generators:
                    assert ctx.reduce_element(z) == reduce_element_worklist(ctx, z, route_prune=False)
                for p in all_paths(alg.quiver, alg.loewy_bound + 1, start=tops[0]):
                    z = AlgElement.of_path(alg.field, p)
                    assert ctx.reduce_element(z) == reduce_element_worklist(ctx, z, route_prune=False)


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
                for g in ctx.generators:
                    expansion = ctx.reduce_element(g)
                    acc = [f.zero] * cover.dim
                    for qpath, coeff in expansion.items():
                        val = poly.evaluate(f, coeff, c)
                        if val != f.zero:
                            vec = cover.vector_of(0, alg.nf_path(qpath))
                            acc = [f.add(a, f.mul(val, b)) for a, b in zip(acc, vec)]
                    # the combination must agree with g modulo the submodule
                    gvec = [f.zero] * cover.dim
                    for p, cc in normal_form(alg, g).terms.items():
                        vec = cover.vector_of(0, AlgElement.of_path(f, p, cc))
                        gvec = [f.add(a, b) for a, b in zip(gvec, vec)]
                    diff = [f.sub(a, b) for a, b in zip(gvec, acc)]
                    assert pt.echelon.contains(diff)


# Reference for chart membership and chart coordinates, by the definition:
# sk is a skeleton of P/C iff, for every l, its length-l paths are
# independent modulo J^{l+1}P + C (one echelon per layer, in full-P
# coordinates); the coordinates are the expansions of the critical products
# over C followed by the skeleton paths.


def _radical_rows_full(cover):
    """Echelon rows of J^m P in full-P coordinates, for m = 1..L+1."""
    alg = cover.alg
    out = {}
    for m in range(1, alg.loewy_bound + 2):
        ech = Echelon(alg.field, cover.dim)
        for s, v in enumerate(cover.slots):
            for q in all_paths(alg.quiver, alg.loewy_bound, start=v):
                if q.length >= m:
                    ech.add(cover.vector_of(s, alg.nf_path(q)))
        out[m] = ech.rows
    return out


def _layer_test(cover, c_rows, radical_rows):
    """The layer condition for one C, as a function of sk.  The skeletons of
    a scene share their layers, so the verdict is kept per layer: paths of
    length l are independent modulo J^{l+1}P + C iff their residuals
    modulo that span are."""
    f = cover.alg.field
    spans, verdicts = {}, {}

    def independent(layer):
        if layer not in verdicts:
            l = layer[0].length
            if l not in spans:
                spans[l] = rref(f, list(radical_rows[l + 1]) + list(c_rows), cover.dim)
            ech = Echelon(f, cover.dim)
            verdicts[layer] = all(ech.add(spans[l].residual(cover.path_vector(p))) for p in layer)
        return verdicts[layer]

    def layers_independent(sk):
        return all(independent(sk.of_length(l)) for l in range(sk.max_length() + 1) if sk.of_length(l))

    return layers_independent


def _reference_coordinates(alg, sk, point, layers_independent):
    """Chart coordinates of point on sk, or None when sk is not a skeleton
    of the quotient."""
    cover = point.cover
    f = alg.field
    if tuple(cover.slots) != tuple(sk.tops) or point.quotient_dim != sk.dim:
        return None
    if not layers_independent(sk):
        return None
    exp = Expander(f, cover.dim)
    for row in point.rows:
        exp.add(row)
    n_c = exp.rank
    assert all(exp.add(cover.path_vector(p)) for p in sk.paths)
    ctx = chart_context(alg, sk)
    coords = [f.zero] * ctx.nvars
    for product, targets in ctx.targets.items():
        combo = exp.express(cover.path_vector(product))
        for p, c in zip(sk.paths, combo[n_c:]):
            if c != f.zero:
                coords[dict(targets)[p]] = c  # KeyError if ineligible
    return tuple(coords)


def _membership_configs():
    """Every catalogue algebra at each simple top, plus merge at (1, 2)."""
    out = [("merge", merge(), (1, 2))]
    for name, alg in catalogue().items():
        out.extend((name, alg, (v,)) for v in simple_tops(alg))
    return out


def test_chart_membership_and_coordinates_match_layer_definition():
    n_on = 0
    for name, alg, tops in _membership_configs():
        for prime in (2, 3):
            alg_p = with_field(alg, GF(prime))
            dim_p = sum(1 for p in alg_p.basis if p.start in tops)
            for d in range(1, dim_p + 1):
                scene = enumerate_points(alg_p, tops, d)
                if len(scene.points) > 300:
                    continue
                sks = enumerate_skeletons(alg_p, tops, d)
                radical_rows = _radical_rows_full(scene.cover)
                for i, pt in enumerate(scene.points):
                    layers_independent = _layer_test(scene.cover, pt.rows, radical_rows)
                    for j, sk in enumerate(sks):
                        label = (name, tops, prime, d, i, j)
                        ref = _reference_coordinates(alg_p, sk, pt, layers_independent)
                        assert has_skeleton(alg_p, pt, sk) == (ref is not None), label
                        if ref is None:
                            with pytest.raises(SkeletonMismatchError):
                                point_from_submodule(alg_p, sk, pt)
                            continue
                        n_on += 1
                        assert point_from_submodule(alg_p, sk, pt) == ref, label
                        # no J^{l+1}P row is accepted: modulo C, only the paths of length >= 1
                        exp = skeleton_expander(pt.cover, sk, pt.rows)
                        assert exp.rank == sk.dim - len(tops), label
    assert n_on > 1000


def test_pruned_skeletons_match_layer_definition():
    for name, alg, tops in _membership_configs():
        cover = ProjectiveCover(alg, tops)
        layers_independent = _layer_test(cover, (), _radical_rows_full(cover))
        for d in range(1, cover.dim + 1):
            kept = [sk for sk in enumerate_skeletons(alg, tops, d) if layers_independent(sk)]
            assert enumerate_skeletons(alg, tops, d, prune=True) == kept, (name, tops, d)


def reference_chart_ideal(alg, sk):
    """chart_ideal as it was before generators longer than the skeleton were
    skipped: every ideal generator is rewritten."""
    ctx = chart_context(alg, sk)
    polys, seen = [], set()
    for g in ctx.generators:
        for q, coeff in sorted(ctx.reduce_element(g).items(), key=lambda t: alg.path_key(t[0])):
            canon = poly.frozen(poly.canonicalize(alg.field, coeff))
            if canon and canon not in seen:
                seen.add(canon)
                polys.append(canon)
    return tuple(sorted(polys))


def test_skipped_generators_rewrite_to_zero():
    """Every catalogue chart with d <= 4, at a simple top and at (1, 2): a
    generator longer than every skeleton path rewrites to zero, pruned and
    unpruned, and chart_ideal equals the ideal of all generators."""
    skipped = 0
    for name, alg in catalogue().items():
        for tops in ((simple_tops(alg)[0],), (1, 2)):
            for d in range(len(tops), 5):
                for sk in enumerate_skeletons(alg, tops, d):
                    ctx = chart_context(alg, sk)
                    for g in ctx.generators:
                        if g.min_length() > sk.max_length():
                            skipped += 1
                            assert ctx.reduce_element(g) == {}, (name, sk, g)
                            assert reduce_element_worklist(ctx, g, route_prune=False) == {}, (name, sk, g)
                    assert chart_ideal(alg, sk).polynomials == reference_chart_ideal(alg, sk), (name, sk)
    assert skipped > 100


def test_chart_ideal_matches_the_per_generator_sorted_reference_over_f3():
    """test_skipped_generators_rewrite_to_zero over F3: chart_ideal, which
    neither sorts a generator's rewritten terms nor rewrites the generators
    longer than the skeleton, gives the polynomials of the reference that
    does both, on every catalogue chart with d <= 4 at a simple top and at
    (1, 2)."""
    charts = 0
    for name, alg in catalogue().items():
        alg = with_field(alg, GF(3))
        for tops in ((simple_tops(alg)[0],), (1, 2)):
            for d in range(len(tops), 5):
                for sk in enumerate_skeletons(alg, tops, d):
                    assert chart_ideal(alg, sk).polynomials == reference_chart_ideal(alg, sk), (name, sk)
                    charts += 1
    assert charts > 100


def test_charts_all_reads_each_generator_length_once(monkeypatch):
    """charts-all on the catalogue problems at every d: each ideal
    generator's least term length is computed once per algebra and top,
    however many charts the command rewrites."""
    built = []
    calls = []
    real_build, real_min_length = cli.build_algebra, AlgElement.min_length

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def min_length(self):
        calls.append(self)  # kept alive, so ids stay distinct
        return real_min_length(self)

    monkeypatch.setattr(cli, "build_algebra", build)
    monkeypatch.setattr(AlgElement, "min_length", min_length)
    counted = 0
    for name in ("loop_arrow", "two_loop_fork", "double_triple", "merge"):
        path = os.path.join(inputs.PROBLEM_DIR, name + ".qg")
        pf = cli.parse_problem(inputs.catalogue_text(name))
        dim_p = ProjectiveCover(pf.algebra(), pf.tops).dim
        for d in range(len(pf.tops), dim_p + 1):
            built.clear()
            calls.clear()
            assert cli.main(["charts-all", path, "--json", "--dim", str(d)], stdout=io.StringIO()) == 0
            [alg] = built
            per_element = Counter(id(x) for x in calls)
            for tops, (gens, _) in alg.ideal_generators_by_tops.items():
                for g in gens:
                    assert per_element[id(g)] == 1, (name, d, tops, g)
                    counted += 1
    assert counted > 40


def test_ideal_generators_are_filed_on_the_algebra():
    """Every chart context of one top reads the one generator memo of the
    algebra, with each generator's least term length beside it."""
    alg = two_loop_fork()
    first, *rest = [chart_context(alg, sk) for sk in enumerate_skeletons(alg, (1,), 3)]
    gens = first.generators
    assert gens and alg.ideal_generators_by_tops == {(1,): (gens, tuple(g.min_length() for g in gens))}
    assert first.generator_lengths is alg.ideal_generators_by_tops[(1,)][1]
    assert rest and all(ctx.generators is gens for ctx in rest)


def test_algebra_is_freed_without_the_cycle_collector():
    """Chart contexts live on their algebra, so nothing they hold may point
    back at it: with the collector off, the algebra dies with its last name."""
    gc.disable()
    try:
        alg = with_field(two_loop_fork(), GF(2))
        ref = weakref.ref(alg)
        sks = enumerate_skeletons(alg, (1,), 3, prune=True)
        scene = enumerate_points(alg, (1,), 3)
        for sk in sks:
            chart_ideal(alg, sk)
            assert cross_validate_chart(scene, sk).ok
        del alg, scene, sks, sk
        assert ref() is None
    finally:
        gc.enable()
