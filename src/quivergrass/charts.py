"""Affine charts of the Grassmannian of top-T quotients.

The congruence rewriting expands any path element over the skeleton basis
with polynomial coefficients in the chart variables X_{alpha p, q}; applied
to a generating set of the relation ideal restricted to the top vertices it
yields the defining polynomials of the chart.  Points of the chart convert
both ways to submodules of JP and to explicit representations; the way back
(`point_from_submodule`) and the membership test (`has_skeleton`) are one
pass of `skeletons.skeleton_expander` over C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import polynomials as poly
from .errors import (
    NotOnChartError,
    RankError,
    SkeletonMismatchError,
    TopNotSquarefreeError,
)
from .linalg import Echelon, Expander
from .presentation import AlgElement, AlgebraPresentation, Path, all_paths
from .representations import (
    ProjectiveCover,
    Representation,
    SubmodulePoint,
    representation_on_blocks,
)
from .skeletons import CriticalPair, Skeleton, critical_pairs, is_route, skeleton_expander


@dataclass(frozen=True)
class ChartVariable:
    """Coordinate X for the expansion of a critical product alpha*p over a
    target path q of the skeleton."""

    product: Path
    target: Path

    def render(self):
        return f"{self.product.render()} -> {self.target.render()}"


class ChartContext:
    """Variables, critical pairs, and the memoized path rewriter for one
    (algebra, skeleton) pair."""

    def __init__(self, alg: AlgebraPresentation, sk: Skeleton):
        if len(set(sk.tops)) != len(sk.tops):
            raise TopNotSquarefreeError(f"repeated top vertex in {sk.tops}")
        self.field = alg.field  # not alg: alg.chart_contexts holds this context
        self.sk = sk
        self.pairs: List[CriticalPair] = critical_pairs(alg, sk)
        self.pair_by_product: Dict[Path, CriticalPair] = {
            cp.product: cp for cp in self.pairs
        }
        self.variables: List[ChartVariable] = []
        self.var_index: Dict[Tuple[Path, Path], int] = {}
        for cp in self.pairs:
            for q in cp.targets:
                self.var_index[(cp.product, q)] = len(self.variables)
                self.variables.append(ChartVariable(cp.product, q))
        self.path_set = set(sk.paths)
        self._memo: Dict[Path, Dict[Path, dict]] = {}
        self.ideal: Optional[ChartIdeal] = None  # filled by chart_ideal

    @property
    def nvars(self):
        return len(self.variables)

    def var_names(self):
        return [f"X{i + 1}" for i in range(self.nvars)]

    def _longest_prefix_in(self, path: Path) -> int:
        best = -1
        for k in range(path.length, -1, -1):
            if path.prefix(k) in self.path_set:
                return k
        return best

    def reduce_path(self, path: Path, route_prune: bool = True) -> Dict[Path, dict]:
        """Expansion of a single path over the skeleton, memoized.

        The cache only serves the pruned variant, so the unpruned one stays
        an independent computation.
        """
        if route_prune and path in self._memo:
            return self._memo[path]
        out = self._reduce_path_uncached(path, route_prune)
        if route_prune:
            self._memo[path] = out
        return out

    def _reduce_path_uncached(self, path: Path, route_prune: bool) -> Dict[Path, dict]:
        f = self.field
        if path.start not in self.sk.tops:
            return {}
        if path in self.path_set:
            return {path: poly.const(self.nvars, f, 1)}
        if route_prune and not is_route(path, self.sk):
            return {}
        k = self._longest_prefix_in(path)
        if k < 0:
            return {}
        prefix = path.prefix(k)
        arrow = path.arrows[k]
        product = prefix.extended_by(arrow)
        tail = Path(product.end, path.arrows[k + 1 :])
        cp = self.pair_by_product.get(product)
        if cp is None:
            # critical pair dropped (product vanishes in the algebra) or has
            # no targets: the congruence sends the whole term to zero
            return {}
        out: Dict[Path, dict] = {}
        for q in cp.targets:
            idx = self.var_index[(product, q)]
            rest = q.then(tail)
            for final_q, coeff in self.reduce_path(rest, route_prune).items():
                term = poly.mul_variable(f, coeff, idx)
                out[final_q] = poly.add(f, out.get(final_q, {}), term)
        return {q: c for q, c in out.items() if c}

    def reduce_element(self, z: AlgElement, route_prune: bool = True) -> Dict[Path, dict]:
        f = self.field
        out: Dict[Path, dict] = {}
        for p, c in z.terms.items():
            for q, coeff in self.reduce_path(p, route_prune).items():
                out[q] = poly.add(f, out.get(q, {}), poly.scale(f, coeff, c))
        return {q: c for q, c in out.items() if c}

    def reduce_element_worklist(self, z: AlgElement, rng=None, route_prune: bool = True):
        """Unmemoized worklist variant; the processing order may be shuffled.

        Used to check that the expansion does not depend on the order in
        which pending terms are rewritten.
        """
        f = self.field
        pending: List[Tuple[Path, dict]] = [
            (p, poly.const(self.nvars, f, c)) for p, c in z.terms.items()
        ]
        out: Dict[Path, dict] = {}
        while pending:
            idx = rng.randrange(len(pending)) if rng is not None else 0
            path, coeff = pending.pop(idx)
            if path.start not in self.sk.tops:
                continue
            if path in self.path_set:
                out[path] = poly.add(f, out.get(path, {}), coeff)
                continue
            if route_prune and not is_route(path, self.sk):
                continue
            k = self._longest_prefix_in(path)
            if k < 0:
                continue
            product = path.prefix(k).extended_by(path.arrows[k])
            tail = Path(product.end, path.arrows[k + 1 :])
            cp = self.pair_by_product.get(product)
            if cp is None:
                continue
            for q in cp.targets:
                vidx = self.var_index[(product, q)]
                pending.append((q.then(tail), poly.mul_variable(f, coeff, vidx)))
        return {q: c for q, c in out.items() if c}


def chart_context(alg, sk: Skeleton) -> ChartContext:
    """The chart context of sk, memoized on the algebra."""
    ctx = alg.chart_contexts.get(sk)
    if ctx is None:
        ctx = alg.chart_contexts[sk] = ChartContext(alg, sk)
    return ctx


def reduce(alg, sk: Skeleton, z: AlgElement, route_prune: bool = True) -> Dict[Path, dict]:
    """Expansion of z over the skeleton paths with polynomial coefficients."""
    return chart_context(alg, sk).reduce_element(z, route_prune=route_prune)


@dataclass(frozen=True)
class ChartIdeal:
    """Defining data of one affine chart."""

    skeleton: Skeleton
    variables: Tuple[ChartVariable, ...]
    polynomials: Tuple[tuple, ...]  # frozen canonical forms, deduplicated

    @property
    def nvars(self):
        return len(self.variables)

    def poly_dicts(self):
        return [dict(p) for p in self.polynomials]


def ideal_generators(alg: AlgebraPresentation, tops) -> List[AlgElement]:
    """Left-ideal generators of the relations restricted to the top vertices:
    right multiples rho*u by paths u from a top vertex, bounded in length so
    that some term can still have length <= L."""
    f = alg.field
    out = []
    for rel in alg.relations:
        budget = alg.loewy_bound - rel.min_length()
        if budget < 0:
            # every term too long to matter; such generators rewrite to zero
            for v in tops:
                keep = AlgElement(
                    f, {p: c for p, c in rel.terms.items() if p.start == v}
                )
                if not keep.is_zero():
                    out.append(keep)
            continue
        for v in tops:
            for u in all_paths(alg.quiver, budget, start=v):
                g = rel.mul(AlgElement.of_path(f, u))
                if not g.is_zero():
                    out.append(g)
    return out


def chart_ideal(alg, sk: Skeleton) -> ChartIdeal:
    """Variables and defining polynomials of the chart of a skeleton."""
    ctx = chart_context(alg, sk)
    if ctx.ideal is not None:
        return ctx.ideal
    f = alg.field
    polys = []
    seen = set()
    for g in ideal_generators(alg, sk.tops):
        for q, coeff in sorted(
            ctx.reduce_element(g).items(), key=lambda t: alg.path_key(t[0])
        ):
            canon = poly.frozen(poly.canonicalize(f, coeff))
            if canon and canon not in seen:
                seen.add(canon)
                polys.append(canon)
    ctx.ideal = ChartIdeal(sk, tuple(ctx.variables), tuple(sorted(polys)))
    return ctx.ideal


def point_on_chart(alg, ideal: ChartIdeal, point) -> bool:
    f = alg.field
    return all(
        poly.evaluate(f, dict(p), point) == f.zero for p in ideal.polynomials
    )


def submodule_from_point(alg, sk: Skeleton, point, cover: Optional[ProjectiveCover] = None) -> SubmodulePoint:
    """The submodule generated by the twisted differences alpha*p minus the
    coordinate combination of the target paths."""
    ctx = chart_context(alg, sk)
    f = alg.field
    point = tuple(point)
    if len(point) != ctx.nvars:
        raise ValueError(f"expected {ctx.nvars} coordinates, got {len(point)}")
    ideal = chart_ideal(alg, sk)
    if not point_on_chart(alg, ideal, point):
        raise NotOnChartError("coordinates do not satisfy the chart equations")
    if cover is None:
        cover = ProjectiveCover(alg, sk.tops)
    ech = Echelon(f, cover.dim_jp)
    frontier = []
    for cp in ctx.pairs:
        # the generator mixes summands: alpha*p sits over the slot of p while
        # the target paths sit over their own start vertices; all lie in JP
        vec = cover.jp_path_vector(cp.product)
        for q in cp.targets:
            c = point[ctx.var_index[(cp.product, q)]]
            if c != f.zero:
                vec = [f.sub(x, f.mul(c, y)) for x, y in zip(vec, cover.jp_path_vector(q))]
        if ech.add(vec):
            frontier.append(vec)
    while frontier:
        nxt = []
        for vec in frontier:
            for arrow in alg.quiver.arrows:
                img = cover.jp_image(arrow, vec)
                if img is not None and ech.add(img):
                    nxt.append(img)
        frontier = nxt
    rows = ech.snapshot()
    if cover.dim - len(rows) != sk.dim:
        raise RankError(
            f"chart point generated codimension {cover.dim - len(rows)}, expected {sk.dim}"
        )
    return SubmodulePoint.from_rows(cover, rows)


def _chart_expander(point: SubmodulePoint, sk: Skeleton, kind=Expander):
    """The pass of `skeleton_expander` over the rows of C, or None when sk is
    not a skeleton of P/C."""
    cover = point.cover
    if tuple(cover.slots) != tuple(sk.tops) or point.quotient_dim != sk.dim:
        return None
    return skeleton_expander(cover, sk, point.rows, kind)


def has_skeleton(alg, point: SubmodulePoint, sk: Skeleton) -> bool:
    """Whether sk is a skeleton of P/C: layer by layer, the skeleton paths
    must be independent modulo C plus the next radical power of P."""
    return _chart_expander(point, sk, Echelon) is not None


def point_from_submodule(alg, sk: Skeleton, point: SubmodulePoint):
    """Chart coordinates of a submodule whose quotient has this skeleton:
    the expansions of the critical products over sk modulo C."""
    exp = _chart_expander(point, sk)
    if exp is None:
        raise SkeletonMismatchError("the path set is not a skeleton of the quotient")
    ctx = chart_context(alg, sk)
    f = alg.field
    # the expander holds C, then the positive-length paths, longest first
    order = [p for l in range(sk.max_length(), 0, -1) for p in sk.of_length(l)]
    coords = [f.zero] * ctx.nvars
    for cp in ctx.pairs:
        combo = exp.express(point.cover.jp_path_vector(cp.product))
        if combo is None:
            raise SkeletonMismatchError("critical product escapes the basis")
        eligible = set(cp.targets)
        for p, c in zip(order, combo[point.rank :]):
            if c == f.zero:
                continue
            if p not in eligible:
                raise SkeletonMismatchError(
                    f"expansion of {cp.product.render()} hits ineligible path {p.render()}"
                )
            coords[ctx.var_index[(cp.product, p)]] = c
    return tuple(coords)


def module_from_point(alg, sk: Skeleton, point) -> Representation:
    """The quotient as a representation on the skeleton basis."""
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


def transition_matrix(alg, sk: Skeleton, sk2: Skeleton, point: SubmodulePoint):
    """Change of basis of P/C from the sk2 path basis to the sk path basis.

    Column j holds the sk-coordinates of the j-th sk2 path; both path sets
    must induce bases of the quotient (no layering condition needed).
    """
    cover = point.cover
    f = alg.field
    exp = Expander(f, cover.dim)
    for row in point.rows:
        exp.add(cover.jp_to_full(row))
    n_c = exp.rank
    if not all(exp.add(cover.path_vector(p)) for p in sk.paths):
        raise SkeletonMismatchError("first path set is not a basis of the quotient")
    cols = []
    for p2 in sk2.paths:
        vec = cover.path_vector(p2)
        if all(c == f.zero for c in vec):
            raise SkeletonMismatchError("second path set is not a basis of the quotient")
        combo = exp.express(vec)
        if combo is None:
            raise SkeletonMismatchError("second path set escapes the quotient basis")
        cols.append(combo[n_c:])
    d = sk.dim
    matrix = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    ech = Echelon(f, d)
    for row in matrix:
        ech.add(list(row))
    if ech.rank != d:
        raise SkeletonMismatchError("second path set is not a basis of the quotient")
    return matrix
