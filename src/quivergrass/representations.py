"""Modules as matrix representations; projective covers and submodule points.

A representation assigns a vector space dimension to each vertex and a
(target x source) matrix to each arrow.  The projective cover of a top is
handled through an explicit path basis with one slot per top generator, so
tops with repeated simples (needed by the brute-force oracle) work the same
way as squarefree ones.  `ProjectiveCover` is the one owner of that basis,
and every vector, row and action is written in it: the coordinates of path
images, the action of each arrow, the path basis of End(P) with its right
action, and the test of whether a subspace is a submodule.  `image`
applies such an action to a vector, and `closure` closes a span under the
arrows.  A submodule C of JP is a subspace of P whose rows vanish at the
length-0 pairs.  What C determines is kept on its `SubmodulePoint` and
computed on first read: P/C as matrices (`quotient_rep`) and the ranks of
the Yoneda equations of End(P/C) (`yoneda_equations`), from which the
orbit dimensions are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from typing import Dict, List, Tuple

from .errors import NotSubmoduleError
from .linalg import Echelon, identity, mat_mul, nullspace, rank, rref
from .presentation import AlgElement, AlgebraPresentation, Path, all_paths


class ProjectiveCover:
    """P = direct sum of Lambda*e_v over the slots (vertices, repeats allowed).

    The basis consists of pairs (slot, path) with the path a basis path
    starting at the slot's vertex, ordered by (slot, path order).  The
    radical JP is spanned by the pairs of positive length.
    """

    def __init__(self, alg: AlgebraPresentation, slots):
        self.alg = alg
        for v in slots:
            if v not in alg.quiver.vertex_index:
                raise ValueError(f"unknown vertex {v}")
        vi = alg.quiver.vertex_index
        self.slots = tuple(sorted(slots, key=vi.__getitem__))
        self.slot_of = {v: s for s, v in enumerate(self.slots)}
        # the slots of each top vertex, in vertex order
        self.slot_groups = tuple(tuple(g) for _, g in groupby(range(len(self.slots)), self.slots.__getitem__))
        self.basis: List[Tuple[int, Path]] = []
        for s, v in enumerate(self.slots):
            for p in alg.basis:
                if p.start == v:
                    self.basis.append((s, p))
        self.index = {bp: i for i, bp in enumerate(self.basis)}
        # sparse actions, keyed by arrow name or by end_basis triple
        self._actions: Dict[object, Dict[int, List[Tuple[int, object]]]] = {}
        self._radical_rows: Dict[int, Tuple[Tuple[object, ...], ...]] = {}
        self._path_vectors: Dict[Path, Tuple[object, ...]] = {}

    @property
    def dim(self):
        return len(self.basis)

    @property
    def squarefree(self):
        return len(self.slot_groups) == len(self.slots)

    def vector_of(self, slot: int, x: AlgElement):
        """P coordinates of an element of Lambda*e_{slot} (basis support)."""
        f = self.alg.field
        vec = [f.zero] * self.dim
        for p, c in x.terms.items():
            vec[self.index[(slot, p)]] = c
        return vec

    def path_vector(self, p: Path):
        """P coordinates of the normal form of a path starting at a top
        vertex, in the (last) slot of that vertex, as a tuple computed once
        per path."""
        out = self._path_vectors.get(p)
        if out is None:
            out = self._path_vectors[p] = tuple(self.vector_of(self.slot_of[p.start], self.alg.nf_path(p)))
        return out

    def element_of(self, vec) -> List[Tuple[int, AlgElement]]:
        """Per-slot algebra elements of a vector of P."""
        f = self.alg.field
        per: Dict[int, Dict[Path, object]] = {}
        for i, c in enumerate(vec):
            if c != f.zero:
                s, p = self.basis[i]
                per.setdefault(s, {})[p] = c
        return [(s, AlgElement(f, terms)) for s, terms in sorted(per.items())]

    def _sparse_action(self, key, moves) -> Dict[int, List[Tuple[int, object]]]:
        """Build and memoise under key the action sending a P basis column to
        the P coordinates of the normal form of a path in a slot, read from
        the (column, slot, path) triples of moves; a column whose image
        vanishes is left out."""
        act = {}
        for i, s, path in moves:
            img = self.alg.nf_path(path)
            if not img.is_zero():
                act[i] = [(self.index[(s, q)], c) for q, c in img.terms.items()]
        self._actions[key] = act
        return act

    def arrow_action(self, arrow) -> Dict[int, List[Tuple[int, object]]]:
        """Sparse left action of an arrow: the column (s, p) goes to
        arrow*p in slot s."""
        act = self._actions.get(arrow.name)
        if act is None:
            act = self._sparse_action(arrow.name, (
                (i, s, p.extended_by(arrow)) for i, (s, p) in enumerate(self.basis) if p.end == arrow.source
            ))
        return act

    def image(self, action, vec):
        """Coordinates of the image of a vector v of P under a sparse action
        (of `arrow_action` or `right_action`), or None when the image is
        zero because no column of v is moved."""
        f = self.alg.field
        out = None
        for i, c in enumerate(vec):
            if c != f.zero:
                img = action.get(i)
                if img:
                    if out is None:
                        out = [f.zero] * self.dim
                    for j, a in img:
                        out[j] = f.add(out[j], f.mul(c, a))
        return out

    def escaping_arrow(self, ech: Echelon):
        """The first arrow, scanning the rows of the echelon ech and then
        the arrows, that moves a row out of the span; None for a submodule."""
        actions = [(arrow, self.arrow_action(arrow)) for arrow in self.alg.quiver.arrows]
        for r in ech.rows:
            for arrow, act in actions:
                img = self.image(act, r)
                if img is not None and not ech.contains(img):
                    return arrow
        return None

    def closure(self, ech: Echelon, vectors) -> Echelon:
        """File the vectors in the echelon ech and close its span under the
        arrows, breadth first; returns ech."""
        actions = [self.arrow_action(arrow) for arrow in self.alg.quiver.arrows]
        frontier = [vec for vec in vectors if ech.add(vec)]
        while frontier:
            nxt = []
            for vec in frontier:
                for act in actions:
                    img = self.image(act, vec)
                    if img is not None and ech.add(img):
                        nxt.append(img)
            frontier = nxt
        return ech

    @cached_property
    def end_basis(self) -> Tuple[Tuple[int, int, Path], ...]:
        """Path basis of End(P): triples (r, s, p) sending the generator of
        slot r to p times the generator of slot s, for every basis path p
        from the vertex of slot s to the vertex of slot r.  The unit triples
        (length 0) come first, group by group of `slot_groups`; the radical
        triples follow in (r, s, path) order."""
        triples = [
            (r, s, p)
            for r, vr in enumerate(self.slots)
            for s, vs in enumerate(self.slots)
            for p in self.alg.basis
            if p.start == vs and p.end == vr
        ]
        return tuple(sorted(triples, key=lambda t: t[2].length > 0))

    def right_action(self, triple) -> Dict[int, List[Tuple[int, object]]]:
        """Sparse right action of a triple (r, s, p) of `end_basis`: the
        column (r, q) goes to q*p (first p, then q) in slot s."""
        act = self._actions.get(triple)
        if act is None:
            r, s, p = triple
            act = self._sparse_action(triple, (
                (i, s, p.then(q)) for i, (slot, q) in enumerate(self.basis) if slot == r
            ))
        return act

    def radical_rows(self, m: int):
        """Canonical echelon rows of J^m P, for m >= 1."""
        rows = self._radical_rows.get(m)
        if rows is None:
            ech = Echelon(self.alg.field, self.dim)
            if m <= self.alg.loewy_bound:
                for s, v in enumerate(self.slots):
                    for q in all_paths(self.alg.quiver, self.alg.loewy_bound, start=v):
                        if q.length >= m:
                            ech.add(self.vector_of(s, self.alg.nf_path(q)))
            rows = ech.snapshot()
            self._radical_rows[m] = rows
        return rows


def representation_on_blocks(alg, blocks, column_action):
    """Build a Representation from a basis split into vertex blocks.

    blocks: vertex -> list of column labels; column_action(arrow, label) is a
    sparse image list of (label, coeff) supported on the arrow's target block.
    """
    f = alg.field
    dims = tuple(len(blocks[v]) for v in alg.quiver.vertices)
    pos = {}
    for v in alg.quiver.vertices:
        for k, lab in enumerate(blocks[v]):
            pos[lab] = k
    mats = {}
    for arrow in alg.quiver.arrows:
        src = blocks[arrow.source]
        tgt = blocks[arrow.target]
        rows = [[f.zero] * len(src) for _ in tgt]
        for j, lab in enumerate(src):
            for img_lab, c in column_action(arrow, lab):
                i = pos[img_lab]
                rows[i][j] = f.add(rows[i][j], c)
        mats[arrow.name] = tuple(tuple(r) for r in rows)
    return Representation(alg, dims, mats)


@dataclass(frozen=True, eq=False)
class Representation:
    """One matrix per arrow; dims indexed like quiver.vertices."""

    alg: AlgebraPresentation
    dims: Tuple[int, ...]
    mats: Dict[str, Tuple[Tuple[object, ...], ...]]
    _paths: Dict[Path, tuple] = field(default_factory=dict, init=False, repr=False)  # by path_matrix

    @property
    def dim(self):
        return sum(self.dims)

    def dim_at(self, vertex):
        return self.dims[self.alg.quiver.vertex_index[vertex]]

    def mat(self, arrow_name):
        return self.mats[arrow_name]

    def path_matrix(self, path: Path):
        """Matrix of the path action, from the start block to the end block;
        computed once per path, from the matrix of its prefix."""
        if path not in self._paths:
            f, n = self.alg.field, self.dim_at(path.start)
            self._paths[path] = identity(f, n) if not path.arrows else mat_mul(
                f, self.mats[path.arrows[-1].name], self.path_matrix(path.parent), n
            )
        return self._paths[path]

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.alg is other.alg
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Representation(dims={self.dims})"


class SubmodulePoint:
    """A submodule C of JP, stored as canonical RREF rows over the basis of
    the cover; every row is zero at the length-0 pairs.

    Rows of a submodule are homogeneous for the end-vertex grading, so the
    RREF over the (slot, path)-ordered columns doubles as a per-vertex
    description.  What the rows determine is computed once, on first read:
    their echelon, the vertex blocks of P/C, P/C itself and its orbit ranks.
    """

    def __init__(self, cover: ProjectiveCover, rows):
        self.cover = cover
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def from_rows(cls, cover: ProjectiveCover, raw_rows):
        """Validate and canonicalize spanning rows (P coordinates), each
        entry coerced into the field (over F_p an int in range(p))."""
        alg = cover.alg
        f = alg.field
        ech = Echelon(f, cover.dim)
        for r in raw_rows:
            if len(r) != cover.dim:
                raise NotSubmoduleError(f"a row of length {len(r)} is not a vector of P (dim {cover.dim})")
            ech.add([f.coerce(c) for c in r])
        rows = ech.snapshot()
        for r in rows:
            if any(c != f.zero and cover.basis[i][1].length == 0 for i, c in enumerate(r)):
                raise NotSubmoduleError("row space is not inside JP")
            for v in alg.quiver.vertices:
                proj = [c if cover.basis[i][1].end == v else f.zero for i, c in enumerate(r)]
                if not ech.contains(proj):
                    raise NotSubmoduleError("row space is not graded by vertices")
        arrow = cover.escaping_arrow(ech)
        if arrow is not None:
            raise NotSubmoduleError(f"row space is not stable under the arrow {arrow.name}")
        return cls(cover, rows)

    @property
    def alg(self):
        return self.cover.alg

    @property
    def rank(self):
        return len(self.rows)

    @property
    def quotient_dim(self):
        return self.cover.dim - self.rank

    @cached_property
    def echelon(self) -> Echelon:
        """The rows as an Echelon; every constructor passes canonical RREF
        rows sorted by pivot, so they are filed as they are."""
        return Echelon.of_reduced(self.alg.field, self.cover.dim, self.rows)

    @cached_property
    def blocks(self) -> Dict[object, List[int]]:
        """Per vertex, the columns of P off the pivots of C: the basis of P/C."""
        pivot_cols = set(self.echelon.pivots)
        blocks = {v: [] for v in self.alg.quiver.vertices}
        for i, (_, p) in enumerate(self.cover.basis):
            if i not in pivot_cols:
                blocks[p.end].append(i)
        return blocks

    @cached_property
    def quotient(self) -> Representation:
        """M = P/C as matrices, built by `quotient_rep`."""
        return quotient_rep(self)

    @cached_property
    def orbit_ranks(self) -> Tuple[int, int]:
        """The rank of the Yoneda equations E of End(M), M = P/C, and the
        rank of E on the columns off `generator_coordinates(self, self)`.

        E has one column per coordinate of the tuples (x_s), x_s in M_{v_s},
        so dim End(M) is the width less the first rank, and dim Hom(M, JM),
        the solutions with zero generator coordinates, is the width less
        the generator columns less the second.  One elimination gives both:
        with the generator columns last, the pivots before them count the
        second rank."""
        equations, width = yoneda_equations(self, self.quotient)
        gens = {c for g in generator_coordinates(self, self) for row in g for c in row}
        order = [c for c in range(width) if c not in gens] + sorted(gens)
        ech = rref(self.alg.field, ([eq[c] for c in order] for eq in equations), width)
        return ech.rank, sum(1 for piv in ech.pivots if piv < width - len(gens))

    def __eq__(self, other):
        return (
            isinstance(other, SubmodulePoint)
            and self.cover.slots == other.cover.slots
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.cover.slots, self.rows))

    def __repr__(self):
        elems = []
        for r in self.rows:
            parts = self.cover.element_of(r)
            elems.append(" (+) ".join(f"[{s}] {x.render()}" for s, x in parts))
        return "SubmodulePoint<" + "; ".join(elems) + ">"


def quotient_rep(point: SubmodulePoint) -> Representation:
    """P/C on the echelon-pivot complement basis of C; read it as
    `point.quotient`, which builds it once.

    Modulo C's reduced rows, a pivot column is minus the rest of its row and
    any other column is itself, so an arrow's image of a column is read from
    the rows without a reduction."""
    cover = point.cover
    f = cover.alg.field
    ech = point.echelon
    rest = {
        piv: [(j, f.neg(x)) for j, x in enumerate(row) if x and j != piv]
        for piv, row in zip(ech.pivots, ech.rows)
    }

    def column_action(arrow, col):
        for i, c in cover.arrow_action(arrow).get(col, ()):
            if i in rest:
                for j, x in rest[i]:
                    yield j, f.mul(c, x)
            else:
                yield i, c

    return representation_on_blocks(cover.alg, point.blocks, column_action)


def yoneda_equations(point: SubmodulePoint, n: Representation):
    """The Yoneda equations E of Hom(P/C, N), with their width.

    A map P -> N is the tuple x = (x_s), x_s in N_{v_s}, of the images of
    the slot generators, here flattened slot by slot; it factors through P/C
    when it kills each row c of C, that is, when
    sum_{(s, p)} c_{s,p} N_p x_s = 0.  These are the rows of E."""
    cover = point.cover
    f = cover.alg.field
    offsets = [0, *accumulate(n.dim_at(v) for v in cover.slots)]
    equations = []
    for row in point.rows:
        block = None  # dim N_w equations, w the end vertex of the row
        for i, c in enumerate(row):
            if c != f.zero:
                s, p = cover.basis[i]
                mat = n.path_matrix(p)
                block = block or [[f.zero] * offsets[-1] for _ in mat]
                for eq, mrow in zip(block, mat):
                    for j, a in enumerate(mrow, offsets[s]):
                        if a != f.zero:
                            eq[j] = f.add(eq[j], f.mul(c, a))
        equations.extend(block or ())
    return equations, offsets[-1]


def hom_from_quotient(point: SubmodulePoint, n: Representation):
    """Canonical basis of Hom(P/C, N): the nullspace of `yoneda_equations`."""
    return nullspace(point.alg.field, *yoneda_equations(point, n))


def generator_coordinates(point: SubmodulePoint, target: SubmodulePoint):
    """Per group of slots at one vertex, the square matrix of the positions
    where x in hom_from_quotient(point, N), N the quotient of target on the
    same cover, holds the coefficient of generator e_s2 of N in x_s.  The
    rest of N_v spans (JN)_v: x maps into JN when these vanish, and onto N
    (Nakayama) when each matrix is invertible."""
    cover = point.cover
    blocks = target.blocks
    offsets = [0, *accumulate(len(blocks[v]) for v in cover.slots)]
    gens = [blocks[v].index(cover.index[(s, Path(v))]) for s, v in enumerate(cover.slots)]  # e_s in N_v
    return [[[offsets[s] + gens[s2] for s2 in g] for s in g] for g in cover.slot_groups]


def radical_layering(point: SubmodulePoint) -> "SemisimpleSequence":
    """Multiplicity matrix of the radical layers J^l M / J^{l+1} M of
    M = P/C, read from C's rows in one elimination over P.

    Modulo C, the rows of J^l P are added for l = L down to 1, so the rows
    accepted while J^l P is added span J^l M / J^{l+1} M.  C and
    every J^l P are graded by end vertex, and so is each accepted row: it
    counts once in layer l under the end vertex of its leading column.  C
    lies in JP, so layer 0, the top of M, is the cover's top.
    """
    cover = point.cover
    alg = cover.alg
    vi = alg.quiver.vertex_index
    ech = Echelon(alg.field, cover.dim, point.rows)
    layers = [[0] * len(vi) for _ in range(alg.loewy_bound + 1)]
    for v in cover.slots:
        layers[0][vi[v]] += 1
    for l in range(alg.loewy_bound, 0, -1):
        for row in cover.radical_rows(l):
            if ech.add(row):
                layers[l][vi[cover.basis[row.index(alg.field.one)][1].end]] += 1
    return SemisimpleSequence(tuple(map(tuple, layers)))


def path_ranks(rep: Representation) -> Tuple[int, ...]:
    """Rank of the action of each basis path of the algebra, in basis order;
    on the trivial paths these are the dimensions at the vertices."""
    f = rep.alg.field
    return tuple(
        rank(f, rep.path_matrix(p), rep.dim_at(p.start)) if p.length else rep.dim_at(p.start)
        for p in rep.alg.basis
    )


def parallel_arrow_ranks(rep: Representation) -> Tuple[int, ...]:
    """Rank of the action of a + c*b for each pair of parallel arrows a
    before b, in arrow order, and each c != 0 of the finite field.  Each
    a + c*b is an element of the algebra, so these ranks are isomorphism
    invariants, like `path_ranks`."""
    f = rep.alg.field
    arrows = rep.alg.quiver.arrows
    out = []
    for k, a in enumerate(arrows):
        for b in arrows[k + 1 :]:
            if a.source == b.source and a.target == b.target:
                ma, mb = rep.mats[a.name], rep.mats[b.name]
                width = rep.dim_at(a.source)
                for c in f.elements():
                    if c:
                        summed = [[f.add(x, f.mul(c, y)) for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)]
                        out.append(rank(f, summed, width))
    return tuple(out)


@dataclass(frozen=True)
class SemisimpleSequence:
    """Layer-by-vertex multiplicity matrix, layers 0..L."""

    layers: Tuple[Tuple[int, ...], ...]

    def totals_per_vertex(self):
        n = len(self.layers[0])
        return tuple(sum(l[i] for l in self.layers) for i in range(n))

    def render(self, vertices):
        bits = []
        for layer in self.layers:
            terms = []
            for v, m in zip(vertices, layer):
                if m == 1:
                    terms.append(f"S{v}")
                elif m > 1:
                    terms.append(f"S{v}^{m}")
            bits.append(" + ".join(terms) if terms else "0")
        return "(" + ", ".join(bits) + ")"

    def __repr__(self):
        return f"SemisimpleSequence{self.layers}"


def hom_basis(m: Representation, n: Representation):
    """Canonical basis of Hom(M, N): vertex-wise matrices f with
    f_target * M_a = N_a * f_source for every arrow a.

    Unknowns are flattened vertex by vertex, row major; the basis is the
    canonical nullspace basis for that flattening, each element a dict
    vertex -> matrix.
    """
    alg = m.alg
    f = alg.field
    vs = alg.quiver.vertices
    zero = f.zero
    mdim = dict(zip(vs, m.dims))
    ndim = dict(zip(vs, n.dims))
    offsets = {}
    total = 0
    for v in vs:
        offsets[v] = total
        total += ndim[v] * mdim[v]
    equations = []
    for arrow in alg.quiver.arrows:
        src, tgt = arrow.source, arrow.target
        ma = m.mat(arrow.name)
        na = n.mat(arrow.name)
        m_src, m_tgt = mdim[src], mdim[tgt]
        for i in range(ndim[tgt]):
            tgt_base = offsets[tgt] + i * m_tgt
            for j in range(m_src):
                row = [zero] * total
                for k in range(m_tgt):
                    if ma[k][j] != zero:
                        idx = tgt_base + k
                        row[idx] = f.add(row[idx], ma[k][j])
                for k in range(ndim[src]):
                    if na[i][k] != zero:
                        idx = offsets[src] + k * m_src + j
                        row[idx] = f.sub(row[idx], na[i][k])
                if any(c != zero for c in row):
                    equations.append(row)
    out = []
    for vec in nullspace(f, equations, total):
        mats = {}
        for v in vs:
            rows = []
            for i in range(ndim[v]):
                base = offsets[v] + i * mdim[v]
                rows.append(tuple(vec[base + j] for j in range(mdim[v])))
            mats[v] = tuple(rows)
        out.append(mats)
    return out
