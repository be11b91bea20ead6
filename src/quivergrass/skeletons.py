"""Skeletons: right-subpath-closed path sets indexing the affine charts.

A skeleton with top T is a set of d paths of length <= L, one tree per top
vertex, containing the lazy paths and closed under right subpaths.  Critical
pairs (alpha, p) with alpha*p outside the skeleton carry the chart
coordinates; routes decide which paths can survive the rewriting.
`skeleton_expander` is the one elimination, deepest layer first, that decides
whether a skeleton indexes a chart containing a submodule C and from which
the chart coordinates are read.  With C = 0 the test splits into independent
(start, length, end) blocks, which `enumerate_skeletons` checks as it grows
a skeleton, to prune the enumeration.  The growth carries each node's
candidate paths down to its children, so no node rebuilds them.  Paths are
interned, and a path's order key is its rank in the algebra's path table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import TopNotSquarefreeError
from .linalg import Echelon, Expander
from .presentation import AlgebraPresentation, Path
from .representations import ProjectiveCover, SemisimpleSequence


@dataclass(frozen=True)
class Skeleton:
    """d paths starting at the (squarefree) top vertices, prefix closed."""

    tops: Tuple[int, ...]
    paths: Tuple[Path, ...]

    @property
    def dim(self):
        return len(self.paths)

    @cached_property
    def _layers(self) -> Dict[int, Tuple[Path, ...]]:
        out: Dict[int, list] = {}
        for p in self.paths:
            out.setdefault(p.length, []).append(p)
        return {l: tuple(ps) for l, ps in out.items()}

    def of_length(self, l) -> Tuple[Path, ...]:
        return self._layers.get(l, ())

    def max_length(self):
        return max(self._layers)

    @cached_property
    def paths_by_end(self) -> Dict[int, Tuple[Path, ...]]:
        """The paths ending at each vertex, in path order."""
        out: Dict[int, list] = {}
        for p in self.paths:
            out.setdefault(p.end, []).append(p)
        return {v: tuple(ps) for v, ps in out.items()}

    @cached_property
    def lengths_by_end(self) -> Dict[int, Tuple[int, ...]]:
        return {v: tuple(sorted({p.length for p in ps})) for v, ps in self.paths_by_end.items()}

    def render(self):
        return "{" + ", ".join(p.render() for p in self.paths) + "}"

    def __repr__(self):
        return f"Skeleton{self.render()}"


def make_skeleton(alg: AlgebraPresentation, tops, paths) -> Skeleton:
    """Validate and canonically order a path set as a skeleton."""
    tops = tuple(tops)
    if len(tops) != len(set(tops)):
        raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
    tops = tuple(sorted(tops, key=alg.quiver.vertex_index.__getitem__))
    pset = set(paths)
    if len(pset) != len(list(paths)):
        raise ValueError("repeated path in skeleton")
    for v in tops:
        if Path(v) not in pset:
            raise ValueError(f"skeleton misses the lazy path e{v}")
    for p in pset:
        if p.start not in tops:
            raise ValueError(f"path {p.render()} does not start at a top vertex")
        if p.length > alg.loewy_bound:
            raise ValueError(f"path {p.render()} exceeds length {alg.loewy_bound}")
        if p.length and p.parent not in pset:
            raise ValueError(f"skeleton not closed under right subpaths at {p.render()}")
    ordered = tuple(sorted(pset, key=alg.path_key))
    return Skeleton(tops, ordered)


def enumerate_skeletons(alg: AlgebraPresentation, tops, d: int, prune: bool = False) -> List[Skeleton]:
    """All d-dimensional skeletons with the given top, in canonical order.

    Growth adds paths in increasing path order, which visits each
    prefix-closed set exactly once.  Each node carries its candidates, the
    one-arrow extensions of its paths above its last path, in path order, as
    (rank, path) pairs; the child that adds q takes the candidates after q
    merged with q's own extensions above q.  The extensions and their ranks
    are read from the algebra's memo, `arrow_extensions`, and the ranks of
    the lazy paths from `lazy_keys`.  With prune on, only skeletons whose
    length-l paths are independent modulo J^{l+1}P for every l are kept.
    J^lP/J^{l+1}P splits into (start, length, end) blocks, so the test runs
    per block during growth: the rows of each block's path tuple modulo
    J^{l+1}P are filed once per call in `layer_rows`, and a path that makes
    its block dependent is not added, which cuts every extension of it.
    """
    tops = tuple(tops)
    if len(set(tops)) != len(tops):
        raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
    tops = tuple(sorted(tops, key=alg.quiver.vertex_index.__getitem__))
    t = len(tops)
    if d < t:
        return []
    roots = tuple((alg.lazy_keys[v], Path(v)) for v in tops)

    def extensions(kp, p):
        """p's one-arrow extensions above it, as (rank, path) pairs."""
        if p.length >= alg.loewy_bound:
            return []
        return [(k, q) for _, q, k, _ in alg.arrow_extensions(p) if k > kp]

    if prune:
        cover = ProjectiveCover(alg, tops)
        below = {}  # l -> the echelon of J^{l+1}P
        layer_rows = {(): ()}  # a block's path tuple -> its rows, None once dependent
    results: List[Skeleton] = []
    stack = []
    if roots:
        last = max(k for k, _ in roots)
        start = sorted(kq for kr, r in roots for kq in extensions(kr, r) if kq[0] > last)
        stack.append((roots, start, {}))
    # depth first, children in path order: a stack of (paths, candidates in
    # path order, the path tuple of each block), paths and candidates as
    # (rank, path) pairs; ranks are distinct per path, so pairs sort by rank
    while stack:
        current, candidates, blocks = stack.pop()
        if len(current) == d:
            results.append(Skeleton(tops, tuple(p for _, p in sorted(current))))
            continue
        for i in range(len(candidates) - 1, -1, -1):
            kq, q = candidates[i]
            child = blocks
            if prune:
                b = (q.start, q.length, q.end)
                block = blocks.get(b, ()) + (q,)
                if block not in layer_rows:
                    layer_rows[block] = _block_rows(cover, below, layer_rows[block[:-1]], q)
                if layer_rows[block] is None:
                    continue
                child = {**blocks, b: block}
            later = ()  # a full child needs no candidates
            if len(current) + 1 < d:
                later = sorted(candidates[i + 1:] + extensions(kq, q))
            stack.append((current + ((kq, q),), later, child))
    return results


def _block_rows(cover: ProjectiveCover, below: Dict, rows, q: Path):
    """Echelon rows modulo J^{l+1}P of a block's paths with rows `rows` and
    the path q of length l, or None if q depends on them."""
    f, l = cover.alg.field, q.length
    if l not in below:
        below[l] = Echelon.of_reduced(f, cover.dim, cover.radical_rows(l + 1))
    ech = Echelon.of_reduced(f, cover.dim, rows)
    return ech.rows if ech.add(below[l].residual(cover.path_vector(q))) else None


def skeleton_expander(cover: ProjectiveCover, sk: Skeleton, c_rows: Sequence = (), kind=Expander) -> Optional[Echelon]:
    """One elimination over P deciding whether sk is a skeleton of P/C.

    Works modulo C, the base of the elimination: for l from the longest
    length down to 1 it adds the rows of J^{l+1}P and the length-l paths.
    Longer paths lie in J^{l+1}P, so a path is accepted iff its layer stays
    independent modulo C + J^{l+1}P (the length-0 tops always do); None at
    the first path refused.  When all are accepted and |sk| = dim P/C, no J
    row is: the Expander holds the positive-length paths, longest first,
    modulo C, ready to express coordinates.  Membership alone runs with
    kind=Echelon, which pivots on the same columns without carrying the
    combinations.
    """
    exp = kind(cover.alg.field, cover.dim, c_rows)
    for l in range(sk.max_length(), 0, -1):
        for row in cover.radical_rows(l + 1):
            exp.add(row)
        for p in sk.of_length(l):
            if not exp.add(cover.path_vector(p)):
                return None
    return exp


@dataclass(frozen=True)
class CriticalPair:
    """An arrow alpha and a path p in the skeleton with alpha*p outside it.

    targets lists the skeleton paths eligible to carry coordinates: at least
    as long as alpha*p and ending at the same vertex; product is alpha*p.
    """

    arrow: object
    path: Path
    targets: Tuple[Path, ...]
    product: Path = field(compare=False, repr=False)

    def render(self):
        return f"({self.arrow.name}, {self.path.render()})"


def critical_pairs(alg: AlgebraPresentation, sk: Skeleton) -> List[CriticalPair]:
    """All critical pairs of the skeleton, in path order of alpha*p.

    Pairs whose product vanishes in the algebra are dropped (their
    coordinates would be forced to zero anyway).  The products, their ranks
    (distinct, so the pairs sort by rank alone) and whether they vanish are
    read from the algebra's memo, `arrow_extensions`.
    """
    pset = set(sk.paths)
    keyed = []
    for p in sk.paths:
        for a, ap, key, vanishes in alg.arrow_extensions(p):
            if ap in pset or vanishes:
                continue
            targets = tuple(q for q in sk.paths_by_end.get(ap.end, ()) if q.length >= ap.length)
            keyed.append((key, CriticalPair(a, p, targets, ap)))
    keyed.sort()
    return [cp for _, cp in keyed]


def is_route(path: Path, sk: Skeleton) -> bool:
    """Whether the skeleton shadows the path with strictly longer paths
    ending at its successive vertices.

    Decided greedily: at each vertex of the itinerary take the smallest
    usable length.  Paths starting outside the top are never routes.
    """
    if path.start not in sk.tops:
        return False
    by_end = sk.lengths_by_end
    if 0 not in by_end.get(path.start, ()):
        return False
    prev = 0
    for a in path.arrows:
        lengths = by_end.get(a.target, ())
        nxt = next((l for l in lengths if l > prev), None)
        if nxt is None:
            return False
        prev = nxt
    return True


def compatible(sk: Skeleton, sseq: SemisimpleSequence, vertices) -> bool:
    """Exact count comparison: paths of length l ending at vertex i versus
    the layer multiplicities."""
    for l, layer in enumerate(sseq.layers):
        counts = {v: 0 for v in vertices}
        for p in sk.of_length(l):
            counts[p.end] += 1
        if tuple(counts[v] for v in vertices) != layer:
            return False
    return True
