"""Skeletons: right-subpath-closed path sets indexing the affine charts.

A skeleton with top T is a set of d paths of length <= L, one tree per top
vertex, containing the lazy paths and closed under right subpaths.  Critical
pairs (alpha, p) with alpha*p outside the skeleton carry the chart
coordinates; routes decide which paths can survive the rewriting.
`skeleton_expander` is the one elimination, deepest layer first, that decides
whether a skeleton indexes a chart containing a submodule C (with C = 0 it
prunes the enumeration) and from which the chart coordinates are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import TopMismatchError, TopNotSquarefreeError
from .linalg import Echelon, Expander, identity, mat_vec
from .presentation import AlgebraPresentation, Path
from .representations import (
    ProjectiveCover,
    Representation,
    SemisimpleSequence,
    radical_filtration,
)


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
    def lengths_by_end(self) -> Dict[int, Tuple[int, ...]]:
        out: Dict[int, set] = {}
        for p in self.paths:
            out.setdefault(p.end, set()).add(p.length)
        return {v: tuple(sorted(ls)) for v, ls in out.items()}

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
        for k in range(p.length):
            if p.prefix(k) not in pset:
                raise ValueError(f"skeleton not closed under right subpaths at {p.render()}")
    ordered = tuple(sorted(pset, key=alg.path_key))
    return Skeleton(tops, ordered)


def enumerate_skeletons(alg: AlgebraPresentation, tops, d: int, prune: bool = False) -> List[Skeleton]:
    """All d-dimensional skeletons with the given top, in canonical order.

    Growth adds paths in increasing path order, which visits each
    prefix-closed set exactly once.  With prune on, skeletons whose length-l
    layer is linearly dependent modulo J^{l+1}P are dropped (the pass of
    `skeleton_expander` with C = 0).
    """
    tops = tuple(tops)
    if len(set(tops)) != len(tops):
        raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
    tops = tuple(sorted(tops, key=alg.quiver.vertex_index.__getitem__))
    t = len(tops)
    if d < t:
        return []
    roots = tuple(Path(v) for v in tops)
    key = alg.path_key
    results: List[Skeleton] = []
    # depth first, children in path order: a stack of (paths, key of the last)
    stack = [(roots, max(key(r) for r in roots))] if roots else []
    while stack:
        current, last_key = stack.pop()
        if len(current) == d:
            results.append(Skeleton(tops, tuple(sorted(current, key=key))))
            continue
        candidates = set()
        for p in current:
            if p.length >= alg.loewy_bound:
                continue
            for a in alg.quiver.arrows_from(p.end):
                q = p.extended_by(a)
                if q not in current and key(q) > last_key:
                    candidates.add(q)
        for q in reversed(sorted(candidates, key=key)):
            stack.append((current + (q,), key(q)))
    if prune:
        cover = ProjectiveCover(alg, tops)
        results = [sk for sk in results if skeleton_expander(cover, sk, kind=Echelon) is not None]
    return results


def skeleton_expander(cover: ProjectiveCover, sk: Skeleton, c_rows: Sequence = (), kind=Expander) -> Optional[Echelon]:
    """One elimination over JP deciding whether sk is a skeleton of P/C.

    Adds the rows of C, then for l from the longest length down to 1 the rows
    of J^{l+1}P and the length-l paths.  Longer paths lie in J^{l+1}P, so a
    path is accepted iff its layer stays independent modulo C + J^{l+1}P
    (the length-0 tops always do); None at the first path refused.  When all
    are accepted and |sk| = dim P/C, no J row is: the Expander holds C, then
    the positive-length paths, longest first, ready to express coordinates.
    Membership alone runs with kind=Echelon, which pivots on the same
    columns without carrying the combinations.
    """
    exp = kind(cover.alg.field, cover.dim_jp)
    for row in c_rows:
        exp.add(row)
    for l in range(sk.max_length(), 0, -1):
        for row in cover.radical_rows(l + 1):
            exp.add(row)
        for p in sk.of_length(l):
            if not exp.add(cover.jp_path_vector(p)):
                return None
    return exp


@dataclass(frozen=True)
class CriticalPair:
    """An arrow alpha and a path p in the skeleton with alpha*p outside it.

    targets lists the skeleton paths eligible to carry coordinates: at least
    as long as alpha*p and ending at the same vertex.
    """

    arrow: object
    path: Path
    targets: Tuple[Path, ...]

    @property
    def product(self) -> Path:
        return self.path.extended_by(self.arrow)

    def render(self):
        return f"({self.arrow.name}, {self.path.render()})"


def critical_pairs(alg: AlgebraPresentation, sk: Skeleton, omit_ideal: bool = True) -> List[CriticalPair]:
    """All critical pairs of the skeleton, in path order of alpha*p.

    With omit_ideal on, pairs whose product vanishes in the algebra are
    dropped (their coordinates would be forced to zero anyway).
    """
    pset = set(sk.paths)
    out = []
    for p in sk.paths:
        for a in alg.quiver.arrows_from(p.end):
            ap = p.extended_by(a)
            if ap in pset:
                continue
            if omit_ideal and alg.nf_path(ap).is_zero():
                continue
            targets = tuple(
                q for q in sk.paths if q.length >= ap.length and q.end == ap.end
            )
            out.append(CriticalPair(a, p, targets))
    out.sort(key=lambda cp: alg.path_key(cp.product))
    return out


def is_route(path: Path, sk: Skeleton) -> bool:
    """Whether the skeleton shadows the path with strictly longer paths
    ending at its successive vertices.

    Decided greedily: at each vertex of the itinerary take the smallest
    usable length.  Paths starting outside the top are never routes.
    """
    if path.start not in sk.tops:
        return False
    by_end = sk.lengths_by_end
    itinerary = path.vertex_itinerary()
    if 0 not in by_end.get(itinerary[0], ()):
        return False
    prev = 0
    for v in itinerary[1:]:
        lengths = by_end.get(v, ())
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


def skeleton_of(alg: AlgebraPresentation, rep: Representation, tops) -> Skeleton:
    """A canonical skeleton of a module with squarefree top.

    Layer by layer, extensions alpha*p of already chosen paths are scanned in
    path order; a path is kept when its image extends a basis of the layer
    modulo the next radical power.
    """
    tops = tuple(sorted(set(tops), key=alg.quiver.vertex_index.__getitem__))
    f = alg.field
    vs = alg.quiver.vertices
    filtration = radical_filtration(rep)  # J^l M per vertex, l = 0..L+1
    top = tuple(filtration[0][v].rank - filtration[1][v].rank for v in vs)
    if top != tuple(1 if v in tops else 0 for v in vs):
        raise TopMismatchError(f"module top {top} does not match {tops}")

    n_total = rep.dim
    offsets = {}
    run = 0
    for v in vs:
        offsets[v] = run
        run += rep.dim_at(v)

    def embed(v, block_vec):
        out = [f.zero] * n_total
        for k, c in enumerate(block_vec):
            out[offsets[v] + k] = c
        return out

    # deterministic top elements: first standard vector outside JM per top vertex
    gen_vec = {}
    for v in tops:
        for cand in identity(f, rep.dim_at(v)):
            if not filtration[1][v].contains(cand):
                gen_vec[v] = embed(v, cand)
                break

    def act(path: Path):
        vec = gen_vec[path.start]
        for a in path.arrows:
            block = [
                vec[offsets[a.source] + k] for k in range(rep.dim_at(a.source))
            ]
            img = mat_vec(f, rep.mat(a.name), block)
            vec = embed(a.target, img)
        return vec

    chosen_paths = [Path(v) for v in tops]
    layer_paths = list(chosen_paths)
    for l in range(1, alg.loewy_bound + 1):
        ech = Echelon(f, n_total)
        for v in vs:
            for row in filtration[l + 1][v].rows:
                ech.add(embed(v, row))
        new_layer = []
        candidates = []
        for p in layer_paths:
            for a in alg.quiver.arrows_from(p.end):
                candidates.append(p.extended_by(a))
        for q in sorted(set(candidates), key=alg.path_key):
            if ech.add(act(q)):
                new_layer.append(q)
        chosen_paths.extend(new_layer)
        layer_paths = new_layer
    sk = Skeleton(tuple(tops), tuple(sorted(chosen_paths, key=alg.path_key)))
    if sk.dim != rep.dim:
        raise TopMismatchError("greedy growth did not exhaust the module")
    return sk
