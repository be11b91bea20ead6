"""Projective covers and submodule points, with P/C read from C's rows.

The projective cover of a top is handled through an explicit path basis
with one slot per top generator, so tops with repeated simples (needed by
the brute-force oracle) work the same way as squarefree ones.
`ProjectiveCover` is the one owner of that basis, and every vector, row and
action is written in it: the coordinates of path images, the sparse action
of each arrow and path, the path basis of End(P) with its right action, and
the test of whether a subspace is a submodule.  `image` applies such an
action to a vector, and `closure` closes a span under the arrows.  A
submodule C of JP is a subspace of P whose rows vanish at the length-0
pairs.  The module M = P/C is never built: its basis is the columns of P
off C's pivots, a pivot column is minus the rest of its reduced row, and
what C determines is read from its rows through the cover's actions.  A
`SubmodulePoint` keeps, computed on first read, each column of P modulo C,
the images of C under End(P) modulo C and the orbit ranks read from them;
the Yoneda equations of Hom(M, N), the radical layering and the ranks of
the algebra elements that key an isomorphism class are read the same way
(`yoneda_equations`, `radical_layering`, `invariant_ranks`).  A
`Representation`, a matrix per arrow, is what `quotient_rep` builds and
`hom_basis` compares: the vertex-wise route the tests check the library
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby
from typing import Dict, List, Tuple

from .errors import NotSubmoduleError
from .linalg import Echelon, nullspace, rank
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
        # sparse actions, keyed by arrow name, path or end_basis triple
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

    def path_action(self, path) -> Dict[int, List[Tuple[int, object]]]:
        """Sparse left action of a path: the column (s, q), for q ending at
        the path's start, goes to q then path in slot s."""
        act = self._actions.get(path)
        if act is None:
            act = self._sparse_action(path, (
                (i, s, q.then(path)) for i, (s, q) in enumerate(self.basis) if q.end == path.start
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

    @cached_property
    def rank_elements(self) -> Tuple[tuple, ...]:
        """The algebra elements whose ranks on P/C key an isomorphism class
        (`invariant_ranks`), each as (start vertex, [(coefficient, sparse
        action)]): every basis path of positive length that moves some
        column of P, in basis order, then a + c*b for each pair of parallel
        arrows a before b, in arrow order, and each c != 0 of the field.
        A path that moves no column acts by 0 on every P/C, and the trivial
        paths' ranks, the dimension vector, are the layering's totals."""
        f = self.alg.field
        arrows = self.alg.quiver.arrows
        out = [(p.start, [(1, act)]) for p in self.alg.basis if p.length and (act := self.path_action(p))]
        for k, a in enumerate(arrows):
            for b in arrows[k + 1 :]:
                if a.source == b.source and a.target == b.target:
                    act_a, act_b = self.arrow_action(a), self.arrow_action(b)
                    out.extend((a.source, [(1, act_a), (c, act_b)]) for c in f.elements() if c)
        return tuple(out)

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

    @property
    def dim(self):
        return sum(self.dims)

    def dim_at(self, vertex):
        return self.dims[self.alg.quiver.vertex_index[vertex]]

    def mat(self, arrow_name):
        return self.mats[arrow_name]

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
    their echelon, the vertex blocks of P/C, each column of P modulo C, the
    images of the rows under End(P) modulo C and the orbit ranks.
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
    def residues(self) -> Tuple[Tuple[Tuple[int, object], ...], ...]:
        """Per column of P, the column modulo C in the basis of P/C, the
        columns off C's pivots numbered in column order, as (number,
        coefficient) terms: a free column is itself, and a pivot column is
        minus the rest of its reduced row."""
        f = self.alg.field
        rows = dict(zip(self.echelon.pivots, self.rows))
        number = {}
        for i in range(self.cover.dim):
            if i not in rows:
                number[i] = len(number)
        return tuple(
            tuple((number[j], f.neg(x)) for j, x in enumerate(rows[i]) if x and j != i)
            if i in rows else ((number[i], f.one),)
            for i in range(self.cover.dim)
        )

    def image_terms(self, action, col):
        """The image of the column col of P under a sparse action of the
        cover, modulo C, as (number, coefficient) terms in the basis of
        `residues`; a number may repeat and a coefficient is left unreduced,
        for the caller to sum."""
        res = self.residues
        return [(k, a * x) for j, a in action.get(col, ()) for k, x in res[j]]

    @cached_property
    def end_images(self) -> Tuple[List[object], ...]:
        """Per triple of `cover.end_basis`, the images of C's rows under its
        right action, modulo C, as one field vector: the image of the k-th
        row, in the basis of `residues`, fills the k-th block of
        `quotient_dim` entries, which is zero when the triple keeps that row
        in C."""
        cover = self.cover
        f = self.alg.field
        n = self.quotient_dim
        rows = [[(i, c) for i, c in enumerate(row) if c] for row in self.rows]
        width = n * len(rows)
        out = []
        for triple in cover.end_basis:
            act = cover.right_action(triple)
            vec = [0] * width
            for base, row in zip(range(0, width, n), rows):
                for i, c in row:
                    for k, x in self.image_terms(act, i):
                        vec[base + k] += c * x
            out.append(_field_vector(f, vec))
        return tuple(out)

    @cached_property
    def orbit_ranks(self) -> Tuple[int, int]:
        """The ranks of the linearised action on C (`stabiliser_ranks`):
        the orbit dimension and the unipotent orbit dimension."""
        return stabiliser_ranks(self)

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
    """P/C as matrices on the echelon-pivot complement basis of C, an
    arrow's image of a column read from C's rows (`SubmodulePoint.residues`).
    The library reads P/C from C's rows without building it; the tests
    compare the two routes through this module."""
    cover = point.cover
    f = cover.alg.field
    pivots = set(point.echelon.pivots)
    free = [i for i in range(cover.dim) if i not in pivots]

    def column_action(arrow, col):
        return [(free[k], f.coerce(x)) for k, x in point.image_terms(cover.arrow_action(arrow), col)]

    return representation_on_blocks(cover.alg, point.blocks, column_action)


def _field_vector(f, vec):
    """A vector summed with int or Fraction arithmetic, as field elements:
    over F_p each entry is reduced mod p once."""
    p = f.char
    return [x % p for x in vec] if p else [f.coerce(x) for x in vec]


def stabiliser_ranks(point: SubmodulePoint) -> Tuple[int, int]:
    """The rank of phi -> (phi restricted to C, taken modulo C) over the
    triples of `cover.end_basis`, and its rank over the radical triples.

    The stabiliser of C in Aut(P) is the unit group of the algebra
    {phi in End(P) : phi(C) in C}, the kernel of this map, so the first
    rank is the orbit dimension dim End(P) - dim Hom(P, C) - dim End(P/C).
    The radical triples span Hom(P, JP), and the second rank is the
    unipotent orbit dimension dim Hom(P, JM) - dim Hom(M, JM), M = P/C.
    One elimination of `SubmodulePoint.end_images` gives both: the radical
    triples, which follow the unit triples in `end_basis`, are added first."""
    images = point.end_images
    units = sum(1 for t in point.cover.end_basis if not t[2].length)
    ech = Echelon(point.alg.field, point.rank * point.quotient_dim)
    for vec in images[units:]:
        ech.add(vec)
    unipotent = ech.rank
    for vec in images[:units]:
        ech.add(vec)
    return ech.rank, unipotent


def yoneda_equations(point: SubmodulePoint, target: SubmodulePoint):
    """The Yoneda equations E of Hom(P/C, N), N = P/C' for the point
    target on a cover of the same slots, with their width.

    A map P -> N is the tuple x = (x_s), x_s in N_{v_s}, of the images of
    the slot generators, each in the basis `target.blocks[v_s]`, here
    flattened slot by slot; it factors through P/C when it kills each row c
    of C, that is, when sum_{(s, p)} c_{s,p} p x_s = 0 in N.  A path acts on
    N through the cover's sparse path action, taken modulo C'.  Each row of
    C gives one row of E per basis vector of N that its sum reaches."""
    cover = point.cover
    f = point.alg.field
    blocks = target.blocks
    offsets = [0, *accumulate(len(blocks[v]) for v in cover.slots)]
    equations = []
    for row in point.rows:
        block = {}  # per basis vector of N, its coefficient in the sum
        for i, c in enumerate(row):
            if c:
                s, p = cover.basis[i]
                act = target.cover.path_action(p)
                for x_col, col in enumerate(blocks[cover.slots[s]], offsets[s]):
                    for k, a in target.image_terms(act, col):
                        eq = block.get(k)
                        if eq is None:
                            eq = block[k] = [0] * offsets[-1]
                        eq[x_col] += c * a
        equations.extend(_field_vector(f, eq) for eq in block.values())
    return equations, offsets[-1]


def hom_from_quotient(point: SubmodulePoint, target: SubmodulePoint):
    """Canonical basis of Hom(P/C, N), N the quotient of target: the
    nullspace of `yoneda_equations`."""
    return nullspace(point.alg.field, *yoneda_equations(point, target))


def generator_coordinates(point: SubmodulePoint, target: SubmodulePoint):
    """Per group of slots at one vertex, the square matrix of the positions
    where x in hom_from_quotient(point, target) holds the coefficient of
    the generator e_s2 of N, the quotient of target, in x_s.  The
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


def invariant_ranks(point: SubmodulePoint) -> Tuple[int, ...]:
    """The rank on M = P/C of each element of the cover's `rank_elements`,
    read from its sparse actions modulo C, on the basis columns of M at the
    element's start vertex; a column that no action moves adds no image."""
    f = point.alg.field
    res = point.residues
    n = point.quotient_dim
    out = []
    for v, actions in point.cover.rank_elements:
        images = []
        for col in point.blocks[v]:
            vec = None
            for c, act in actions:
                for j, a in act.get(col, ()):
                    vec = vec or [0] * n
                    for k, x in res[j]:
                        vec[k] += c * a * x
            if vec:
                images.append(_field_vector(f, vec))
        out.append(rank(f, images, n))
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
