"""Affine charts of the Grassmannian of top-T quotients.

The congruence rewriting expands any path element over the skeleton basis
with polynomial coefficients in the chart variables X_{alpha p, q}; applied
to a generating set of the relation ideal restricted to the top vertices it
yields the defining polynomials of the chart.  Points of the chart convert
both ways to submodules C of JP, written like every vector here in the
basis of the projective cover P; the way back (`point_from_submodule`) and
the membership test (`has_skeleton`) are one pass of
`skeletons.skeleton_expander` modulo C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from .representations import ProjectiveCover, SubmodulePoint
from .skeletons import CriticalPair, Skeleton, critical_pairs, is_route, skeleton_expander


@dataclass(frozen=True)
class ChartVariable:
    """Coordinate X for the expansion of a critical product alpha*p over a
    target path q of the skeleton."""

    product: Path
    target: Path


class ChartContext:
    """Variables, critical pairs, the ideal generators of the skeleton's
    tops, the memoized path rewriter and the chart ideal for one (algebra,
    skeleton) pair."""

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
        self.generators, self.generator_lengths = _generators_and_lengths(alg, tuple(sk.tops))

    @property
    def nvars(self):
        return len(self.variables)

    def var_names(self):
        return [f"X{i + 1}" for i in range(self.nvars)]

    def _longest_prefix_in(self, path: Path) -> int:
        while path is not None and path not in self.path_set:
            path = path.parent
        return -1 if path is None else path.length

    def reduce_path(self, path: Path) -> Dict[Path, dict]:
        """Expansion of a single path over the skeleton, memoized; a path
        that is not a route of the skeleton expands to zero."""
        if path in self._memo:
            return self._memo[path]
        f = self.field
        out: Dict[Path, dict] = {}
        if path in self.path_set:
            out[path] = poly.const(self.nvars, f, 1)
        elif is_route(path, self.sk) and (k := self._longest_prefix_in(path)) >= 0:
            product = path.prefix(k + 1)
            tail = Path(product.end, path.arrows[k + 1 :])
            # a critical pair dropped (product vanishes in the algebra) or
            # without targets: the congruence sends the whole term to zero
            cp = self.pair_by_product.get(product)
            for q in cp.targets if cp is not None else ():
                idx = self.var_index[(product, q)]
                for final_q, coeff in self.reduce_path(q.then(tail)).items():
                    term = poly.mul_variable(f, coeff, idx)
                    out[final_q] = poly.add(f, out.get(final_q, {}), term)
            out = {q: c for q, c in out.items() if c}
        self._memo[path] = out
        return out

    def reduce_element(self, z: AlgElement) -> Dict[Path, dict]:
        f = self.field
        out: Dict[Path, dict] = {}
        for p, c in z.terms.items():
            for q, coeff in self.reduce_path(p).items():
                out[q] = poly.add(f, out.get(q, {}), poly.scale(f, coeff, c))
        return {q: c for q, c in out.items() if c}

    @cached_property
    def ideal(self) -> "ChartIdeal":
        """The chart's variables and defining polynomials (`chart_ideal`):
        the nonzero coefficients of the rewritten generators, canonical."""
        polys = set()
        top_length = self.sk.max_length()
        for g, length in zip(self.generators, self.generator_lengths):
            if length > top_length:
                continue  # rewriting never shortens a path, so g rewrites to zero
            polys.update(poly.frozen(poly.canonicalize(self.field, c)) for c in self.reduce_element(g).values())
        return ChartIdeal(self.sk, tuple(self.variables), tuple(sorted(polys)))


def chart_context(alg, sk: Skeleton) -> ChartContext:
    """The chart context of sk, memoized on the algebra."""
    ctx = alg.chart_contexts.get(sk)
    if ctx is None:
        ctx = alg.chart_contexts[sk] = ChartContext(alg, sk)
    return ctx


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


def _generators_and_lengths(alg: AlgebraPresentation, tops: tuple):
    """Left-ideal generators of the relations restricted to the top
    vertices: right multiples rho*u by paths u from a top vertex, bounded in
    length so that some term can still have length <= L.  Next to them, each
    one's `min_length()`; both are computed once and memoized on the
    algebra as one pair."""
    memo = alg.ideal_generators_by_tops.get(tops)
    if memo is None:
        f = alg.field
        out = []
        for rel in alg.relations:
            budget = alg.loewy_bound - rel.min_length()
            if budget < 0:
                # every term too long to matter: such generators rewrite to
                # zero, and the chart ideal skips them
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
        memo = alg.ideal_generators_by_tops[tops] = (tuple(out), tuple(g.min_length() for g in out))
    return memo


def chart_ideal(alg, sk: Skeleton) -> ChartIdeal:
    """Variables and defining polynomials of the chart of a skeleton: the
    coefficients of the rewritten ideal generators, skipping those longer
    than every skeleton path.  The polynomials are deduplicated and sorted,
    so the order in which they are met does not matter.  Computed once, on
    the chart context."""
    return chart_context(alg, sk).ideal


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
    gens = []
    for cp in ctx.pairs:
        # the generator mixes summands: alpha*p sits over the slot of p while
        # the target paths sit over their own start vertices; all lie in JP
        vec = cover.path_vector(cp.product)
        for q in cp.targets:
            c = point[ctx.var_index[(cp.product, q)]]
            if c != f.zero:
                vec = [f.sub(x, f.mul(c, y)) for x, y in zip(vec, cover.path_vector(q))]
        gens.append(vec)
    rows = cover.closure(Echelon(f, cover.dim), gens).snapshot()
    if cover.dim - len(rows) != sk.dim:
        raise RankError(
            f"chart point generated codimension {cover.dim - len(rows)}, expected {sk.dim}"
        )
    # canonical RREF, closed under the arrows, and graded by end vertex since
    # every generator is (relations are split into uniform parts): a submodule
    return SubmodulePoint(cover, rows)


def _chart_expander(point: SubmodulePoint, sk: Skeleton, kind=Expander):
    """The pass of `skeleton_expander` modulo the rows of C, or None when sk
    is not a skeleton of P/C."""
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
    # the expander holds the positive-length paths, longest first, modulo C
    order = [p for l in range(sk.max_length(), 0, -1) for p in sk.of_length(l)]
    coords = [f.zero] * ctx.nvars
    for cp in ctx.pairs:
        combo = exp.express(point.cover.path_vector(cp.product))
        if combo is None:
            raise SkeletonMismatchError("critical product escapes the basis")
        eligible = set(cp.targets)
        for p, c in zip(order, combo):
            if c == f.zero:
                continue
            if p not in eligible:
                raise SkeletonMismatchError(
                    f"expansion of {cp.product.render()} hits ineligible path {p.render()}"
                )
            coords[ctx.var_index[(cp.product, p)]] = c
    return tuple(coords)
