"""Vertex-wise module builders, Hom and radical layers, kept as test references.

The library reads every module P/C from C's rows in P's basis: its Hom
spaces from one Yoneda kernel (`hom_from_quotient`), its radical layering,
invariant ranks and orbit ranks, with no matrices.  The code here builds modules
as matrices (`quotient_rep`, and on other bases: the cover's path basis, a
chart's skeleton basis, submodules on their own echelon bases), multiplies
them along paths (`path_matrix`), measures Hom vertex-wise through
`hom_basis`, reads the radical layers of any representation from its
matrices, and checks that a representation satisfies the relations
(`validate_representation`), so the tests can compare the two routes.
"""

from typing import Dict, List, Tuple

from quivergrass.charts import chart_context, chart_ideal, point_on_chart
from quivergrass.errors import NotOnChartError, NotSubmoduleError
from quivergrass.linalg import Echelon, Expander, rref
from quivergrass.presentation import all_paths
from quivergrass.representations import (
    ProjectiveCover,
    Representation,
    SemisimpleSequence,
    SubmodulePoint,
    hom_basis,
    representation_on_blocks,
)


def mat_mul(field, a, b, inner_cols):
    """Product a*b where a is r x inner and b is inner x c; inner_cols = c."""
    f = field
    if not a:
        return ()
    if not b:
        return tuple((f.zero,) * inner_cols for _ in a)
    out = []
    for row in a:
        acc = [f.zero] * inner_cols
        for coeff, brow in zip(row, b):
            if coeff != f.zero:
                for j, v in enumerate(brow):
                    if v != f.zero:
                        acc[j] = f.add(acc[j], f.mul(coeff, v))
        out.append(tuple(acc))
    return tuple(out)


def identity(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def path_matrix(rep: Representation, path):
    """Matrix of the path action on rep, from the start block to the end
    block, multiplied out arrow by arrow."""
    f = rep.alg.field
    out = identity(f, rep.dim_at(path.start))
    for arrow in path.arrows:
        out = mat_mul(f, rep.mat(arrow.name), out, rep.dim_at(path.start))
    return out


def mat_vec(field, mat, vec):
    f = field
    out = []
    for row in mat:
        acc = f.zero
        for a, x in zip(row, vec):
            if a != f.zero and x != f.zero:
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


def validate_representation(rep: Representation):
    """Check the relations and the vanishing of length-(L+1) paths."""
    alg = rep.alg
    f = alg.field
    for rel in alg.relations:
        per_pair: Dict[Tuple[int, int], object] = {}
        for p, c in rel.terms.items():
            key = (p.start, p.end)
            m = path_matrix(rep, p)
            scaled = tuple(tuple(f.mul(c, x) for x in row) for row in m)
            cur = per_pair.get(key)
            if cur is None:
                per_pair[key] = scaled
            else:
                per_pair[key] = tuple(
                    tuple(f.add(a, b) for a, b in zip(r1, r2))
                    for r1, r2 in zip(cur, scaled)
                )
        for m in per_pair.values():
            if any(x != f.zero for row in m for x in row):
                raise ValueError("relation does not annihilate the representation")
    for w in all_paths(alg.quiver, alg.loewy_bound + 1):
        if w.length == alg.loewy_bound + 1:
            m = path_matrix(rep, w)
            if any(x != f.zero for row in m for x in row):
                raise ValueError("a path beyond the nilpotency bound acts nontrivially")


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


def radical_filtration(rep: Representation) -> List[Dict[int, Echelon]]:
    """Echelons of J^l M per vertex (block coordinates), for l = 0..L+1."""
    alg = rep.alg
    f = alg.field
    vs = alg.quiver.vertices
    current = {v: rref(f, identity(f, rep.dim_at(v)), rep.dim_at(v)) for v in vs}
    filtration = [current]
    for _ in range(alg.loewy_bound + 1):
        nxt = {v: Echelon(f, rep.dim_at(v)) for v in vs}
        for arrow in alg.quiver.arrows:
            m = rep.mat(arrow.name)
            for row in current[arrow.source].rows:
                nxt[arrow.target].add(mat_vec(f, m, row))
        filtration.append(nxt)
        current = nxt
    return filtration


def layering_of_rep(rep: Representation) -> SemisimpleSequence:
    """Multiplicity matrix of the radical layers J^l M / J^{l+1} M."""
    vs = rep.alg.quiver.vertices
    filtration = radical_filtration(rep)
    if any(filtration[-1][v].rank for v in vs):
        raise ValueError("radical filtration does not terminate at the bound")
    return SemisimpleSequence(
        tuple(
            tuple(jl[v].rank - jl1[v].rank for v in vs)
            for jl, jl1 in zip(filtration, filtration[1:])
        )
    )
