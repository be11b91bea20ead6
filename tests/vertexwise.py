"""Vertex-wise module builders and Hom, kept as test references.

The library builds every module as a quotient P/C (`quotient_rep`) and
every Hom space from one Yoneda kernel (`hom_from_quotient`).  The code here
builds the same modules on other bases (the cover's path basis, a chart's
skeleton basis, submodules on their own echelon bases) and measures Hom
vertex-wise through `hom_basis`, so the tests can compare the two routes.
"""

from typing import Dict

from quivergrass.charts import chart_context, chart_ideal, point_on_chart
from quivergrass.errors import NotOnChartError, NotSubmoduleError
from quivergrass.linalg import Echelon, Expander, mat_vec
from quivergrass.representations import (
    ProjectiveCover,
    Representation,
    SubmodulePoint,
    hom_basis,
    representation_on_blocks,
)


def cover_rep(cover: ProjectiveCover) -> Representation:
    """P itself as a representation (vertex blocks = basis items by end)."""
    blocks = {v: [] for v in cover.alg.quiver.vertices}
    for i, (_, p) in enumerate(cover.basis):
        blocks[p.end].append(i)

    return representation_on_blocks(cover.alg, blocks, lambda arrow, col: cover.arrow_action(arrow).get(col, ()))


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of the space of module homomorphisms M -> N."""
    return len(hom_basis(m, n))


def submodule_rep(rep: Representation, rows_per_vertex) -> Representation:
    """A subrepresentation spanned by per-vertex rows (must be arrow stable)."""
    alg = rep.alg
    f = alg.field
    expanders = {}
    originals = {}
    blocks = {}
    for v in alg.quiver.vertices:
        exp = Expander(f, rep.dim_at(v))
        orig = []
        for row in rows_per_vertex.get(v, []):
            if exp.add(row):
                orig.append(list(row))
        expanders[v] = exp
        originals[v] = orig
        blocks[v] = [(v, k) for k in range(len(orig))]

    def column_action(arrow, label):
        v, k = label
        img = mat_vec(f, rep.mat(arrow.name), originals[v][k])
        coeffs = expanders[arrow.target].express(img)
        if coeffs is None:
            raise NotSubmoduleError("rows are not stable under the arrow action")
        return [
            (lab, c)
            for lab, c in zip(blocks[arrow.target], coeffs)
            if c != f.zero
        ]

    return representation_on_blocks(alg, blocks, column_action)


def radical_submodule(rep: Representation) -> Representation:
    """JM as a representation (basis: canonical echelon of the arrow images)."""
    alg = rep.alg
    f = alg.field
    per_vertex = {}
    collected = {v: Echelon(f, rep.dim_at(v)) for v in alg.quiver.vertices}
    for arrow in alg.quiver.arrows:
        m = rep.mat(arrow.name)
        for i in range(rep.dim_at(arrow.source)):
            col = [m[r][i] for r in range(rep.dim_at(arrow.target))]
            collected[arrow.target].add(col)
    for v in alg.quiver.vertices:
        per_vertex[v] = [list(r) for r in collected[v].snapshot()]
    return submodule_rep(rep, per_vertex)


def submodule_as_rep(point: SubmodulePoint) -> Representation:
    """A submodule point C of JP as a representation in its own right."""
    cover = point.cover
    f = point.alg.field
    per_vertex: Dict[int, list] = {}
    for r in point.rows:
        ends = {cover.basis[i][1].end for i, c in enumerate(r) if c != f.zero}
        if len(ends) != 1:
            raise NotSubmoduleError("non-homogeneous row in a submodule point")
        v = ends.pop()
        per_vertex.setdefault(v, []).append(
            [c for (_, p), c in zip(cover.basis, r) if p.end == v]
        )
    return submodule_rep(cover_rep(cover), per_vertex)


def module_from_point(alg, sk, point) -> Representation:
    """The quotient at a chart point as a representation on the skeleton
    basis: an arrow sends a skeleton path to its extension when that is a
    skeleton path, else to the chart coordinates of the critical product."""
    ctx = chart_context(alg, sk)
    f = alg.field
    point = tuple(point)
    ideal = chart_ideal(alg, sk)
    if not point_on_chart(alg, ideal, point):
        raise NotOnChartError("coordinates do not satisfy the chart equations")
    blocks = {v: [] for v in alg.quiver.vertices}
    for p in sk.paths:
        blocks[p.end].append(p)

    def column_action(arrow, p):
        ap = p.extended_by(arrow)
        if ap in ctx.path_set:
            return [(ap, f.one)]
        cp = ctx.pair_by_product.get(ap)
        if cp is None:
            return []
        return [
            (q, point[ctx.var_index[(ap, q)]])
            for q in cp.targets
            if point[ctx.var_index[(ap, q)]] != f.zero
        ]

    return representation_on_blocks(alg, blocks, column_action)
