"""Modules as matrix representations; projective covers and submodule points.

A representation assigns a vector space dimension to each vertex and a
(target x source) matrix to each arrow.  The projective cover of a top is
handled through an explicit path basis with one slot per top generator, so
tops with repeated simples (needed by the brute-force oracle) work the same
way as squarefree ones.  `ProjectiveCover` is the one owner of that layout:
the coordinates of path images in P, the action of each arrow as a map from
P into JP, and the test of whether a subspace of JP is a submodule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import NotSubmoduleError, RankError, TopNotSquarefreeError
from .linalg import Echelon, Expander, identity, mat_mul, mat_vec, nullspace, rref
from .presentation import AlgElement, AlgebraPresentation, Path, all_paths


class ProjectiveCover:
    """P = direct sum of Lambda*e_v over the slots (vertices, repeats allowed).

    The basis consists of pairs (slot, path) with the path a basis path
    starting at the slot's vertex, ordered by (slot, path order).  Columns of
    the radical JP are the pairs of positive length.
    """

    def __init__(self, alg: AlgebraPresentation, slots):
        self.alg = alg
        for v in slots:
            if v not in alg.quiver.vertex_index:
                raise ValueError(f"unknown vertex {v}")
        vi = alg.quiver.vertex_index
        self.slots = tuple(sorted(slots, key=vi.__getitem__))
        self.slot_of = {v: s for s, v in enumerate(self.slots)}
        self.basis: List[Tuple[int, Path]] = []
        for s, v in enumerate(self.slots):
            for p in alg.basis:
                if p.start == v:
                    self.basis.append((s, p))
        self.index = {bp: i for i, bp in enumerate(self.basis)}
        self.jp_cols = [i for i, (_, p) in enumerate(self.basis) if p.length >= 1]
        self.jp_index = {c: k for k, c in enumerate(self.jp_cols)}
        self._arrow_action: Dict[str, Dict[int, List[Tuple[int, object]]]] = {}
        self._rep = None
        self._end_dim: Optional[int] = None
        self._radical_rows: Dict[int, Tuple[Tuple[object, ...], ...]] = {}

    @property
    def dim(self):
        return len(self.basis)

    @property
    def dim_jp(self):
        return len(self.jp_cols)

    @property
    def squarefree(self):
        return len(set(self.slots)) == len(self.slots)

    def vector_of(self, slot: int, x: AlgElement):
        """Full-P coordinates of an element of Lambda*e_{slot} (basis support)."""
        f = self.alg.field
        vec = [f.zero] * self.dim
        for p, c in x.terms.items():
            vec[self.index[(slot, p)]] = c
        return vec

    def path_vector(self, p: Path):
        """Full-P coordinates of the normal form of a path starting at a top
        vertex, in the (last) slot of that vertex."""
        return self.vector_of(self.slot_of[p.start], self.alg.nf_path(p))

    def element_of(self, vec) -> List[Tuple[int, AlgElement]]:
        """Per-slot algebra elements of a full-P vector."""
        f = self.alg.field
        per: Dict[int, Dict[Path, object]] = {}
        for i, c in enumerate(vec):
            if c != f.zero:
                s, p = self.basis[i]
                per.setdefault(s, {})[p] = c
        return [(s, AlgElement(f, terms)) for s, terms in sorted(per.items())]

    def jp_to_full(self, jvec):
        f = self.alg.field
        vec = [f.zero] * self.dim
        for k, c in enumerate(jvec):
            vec[self.jp_cols[k]] = c
        return vec

    def full_to_jp(self, vec):
        f = self.alg.field
        for i, c in enumerate(vec):
            if c != f.zero and self.basis[i][1].length == 0:
                raise ValueError("vector has a component outside JP")
        return [vec[c] for c in self.jp_cols]

    def arrow_action(self, arrow) -> Dict[int, List[Tuple[int, object]]]:
        """Sparse left action of an arrow: P basis column -> JP coordinates
        of its image (arrow images lie in JP because I is inside J^2)."""
        act = self._arrow_action.get(arrow.name)
        if act is None:
            act = {}
            for i, (s, p) in enumerate(self.basis):
                if p.end != arrow.source:
                    continue
                img = self.alg.nf_path(p.extended_by(arrow))
                if not img.is_zero():
                    act[i] = [
                        (self.jp_index[self.index[(s, q)]], c)
                        for q, c in img.terms.items()
                    ]
            self._arrow_action[arrow.name] = act
        return act

    def jp_image(self, arrow, jvec):
        """JP coordinates of arrow * v for v in JP coordinates, or None when
        the image is zero because no column of v is moved."""
        f = self.alg.field
        act = self.arrow_action(arrow)
        out = None
        for k, c in enumerate(jvec):
            if c != f.zero:
                img = act.get(self.jp_cols[k])
                if img:
                    if out is None:
                        out = [f.zero] * self.dim_jp
                    for j, a in img:
                        out[j] = f.add(out[j], f.mul(c, a))
        return out

    def escaping_arrow(self, ech: Echelon):
        """The first arrow, scanning the rows of the JP echelon ech and then
        the arrows, that moves a row out of the span; None for a submodule."""
        for r in ech.rows:
            for arrow in self.alg.quiver.arrows:
                img = self.jp_image(arrow, r)
                if img is not None and not ech.contains(img):
                    return arrow
        return None

    def as_representation(self) -> "Representation":
        """P itself as a representation (vertex blocks = basis items by end)."""
        if self._rep is None:
            blocks = {v: [] for v in self.alg.quiver.vertices}
            for i, (_, p) in enumerate(self.basis):
                blocks[p.end].append(i)

            def column_action(arrow, col):
                return [(self.jp_cols[k], c) for k, c in self.arrow_action(arrow).get(col, ())]

            self._rep = representation_on_blocks(self.alg, blocks, column_action)
        return self._rep

    def end_dim(self) -> int:
        """dim End(P), computed once."""
        if self._end_dim is None:
            rep_p = self.as_representation()
            self._end_dim = hom_dim(rep_p, rep_p)
        return self._end_dim

    def radical_rows(self, m: int):
        """Canonical echelon rows (full-P coordinates) of J^m P."""
        rows = self._radical_rows.get(m)
        if rows is None:
            f = self.alg.field
            ech = Echelon(f, self.dim)
            if m <= self.alg.loewy_bound:
                for s, v in enumerate(self.slots):
                    for q in all_paths(self.alg.quiver, self.alg.loewy_bound, start=v):
                        if q.length >= m:
                            img = self.alg.nf_path(q)
                            if not img.is_zero():
                                ech.add(self.vector_of(s, img))
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

    def path_matrix(self, path: Path):
        """Matrix of the path action, from the start block to the end block."""
        f = self.alg.field
        n = self.dim_at(path.start)
        out = tuple(
            tuple(f.one if i == j else f.zero for j in range(n)) for i in range(n)
        )
        for a in path.arrows:
            out = mat_mul(f, self.mats[a.name], out, n)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.alg is other.alg
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def validate_representation(rep: Representation):
    """Check the relations and the vanishing of length-(L+1) paths."""
    alg = rep.alg
    f = alg.field
    for rel in alg.relations:
        per_pair: Dict[Tuple[int, int], object] = {}
        for p, c in rel.terms.items():
            key = (p.start, p.end)
            m = rep.path_matrix(p)
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
            m = rep.path_matrix(w)
            if any(x != f.zero for row in m for x in row):
                raise ValueError("a path beyond the nilpotency bound acts nontrivially")


class SubmodulePoint:
    """A submodule C of JP, stored as canonical RREF rows over the JP basis.

    Rows of a submodule are homogeneous for the end-vertex grading, so the
    RREF over the (slot, path)-ordered columns doubles as a per-vertex
    description.
    """

    def __init__(self, cover: ProjectiveCover, rows):
        self.cover = cover
        self.rows = tuple(tuple(r) for r in rows)
        self._ech = None

    @classmethod
    def from_rows(cls, cover: ProjectiveCover, raw_rows, expect_corank=None):
        """Validate and canonicalize spanning rows (JP coordinates)."""
        alg = cover.alg
        f = alg.field
        ech = Echelon(f, cover.dim_jp)
        for r in raw_rows:
            ech.add(r)
        rows = ech.snapshot()
        for r in rows:
            for v in alg.quiver.vertices:
                proj = [
                    c if cover.basis[cover.jp_cols[k]][1].end == v else f.zero
                    for k, c in enumerate(r)
                ]
                if not ech.contains(proj):
                    raise NotSubmoduleError("row space is not graded by vertices")
        arrow = cover.escaping_arrow(ech)
        if arrow is not None:
            raise NotSubmoduleError(f"row space is not stable under the arrow {arrow.name}")
        point = cls(cover, rows)
        if expect_corank is not None and cover.dim - len(rows) != expect_corank:
            raise RankError(
                f"submodule has codimension {cover.dim - len(rows)}, expected {expect_corank}"
            )
        return point

    @classmethod
    def from_elements(cls, cover: ProjectiveCover, slot_elements, expect_corank=None):
        """Spanning set given as (slot, AlgElement) pairs inside JP."""
        raw = [cover.full_to_jp(cover.vector_of(s, x)) for s, x in slot_elements]
        return cls.from_rows(cover, raw, expect_corank=expect_corank)

    @property
    def alg(self):
        return self.cover.alg

    @property
    def rank(self):
        return len(self.rows)

    @property
    def quotient_dim(self):
        return self.cover.dim - self.rank

    def echelon(self) -> Echelon:
        if self._ech is None:
            ech = Echelon(self.alg.field, self.cover.dim_jp)
            for r in self.rows:
                ech.add(r)
            self._ech = ech
        return self._ech

    def contains_full(self, vec) -> bool:
        f = self.alg.field
        for i, c in enumerate(vec):
            if c != f.zero and self.cover.basis[i][1].length == 0:
                return False
        return self.echelon().contains([vec[c] for c in self.cover.jp_cols])

    def rows_per_vertex(self):
        """Rows grouped by the end vertex carrying their support."""
        f = self.alg.field
        out = {v: [] for v in self.alg.quiver.vertices}
        for r in self.rows:
            ends = {
                self.cover.basis[self.cover.jp_cols[k]][1].end
                for k, c in enumerate(r)
                if c != f.zero
            }
            if len(ends) != 1:
                raise NotSubmoduleError("non-homogeneous row in a submodule point")
            out[ends.pop()].append(r)
        return out

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
            parts = self.cover.element_of(self.cover.jp_to_full(r))
            elems.append(" (+) ".join(f"[{s}] {x.render()}" for s, x in parts))
        return "SubmodulePoint<" + "; ".join(elems) + ">"


def quotient_rep(alg: AlgebraPresentation, point) -> Representation:
    """The representation of P/C on the echelon-pivot complement basis of C."""
    if not isinstance(point, SubmodulePoint):
        raise NotSubmoduleError("expected a SubmodulePoint (use from_rows/from_elements)")
    cover = point.cover
    f = alg.field
    ech = point.echelon()
    pivot_cols = {cover.jp_cols[k] for k in ech.pivots}
    blocks = {v: [] for v in alg.quiver.vertices}
    for i, (_, p) in enumerate(cover.basis):
        if i not in pivot_cols:
            blocks[p.end].append(i)

    def column_action(arrow, col):
        img = [f.zero] * cover.dim_jp
        for k, c in cover.arrow_action(arrow).get(col, ()):
            img[k] = c
        res = ech.residual(img)
        return [(cover.jp_cols[k], c) for k, c in enumerate(res) if c != f.zero]

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


def radical_layering(rep: Representation) -> "SemisimpleSequence":
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


def path_ranks(rep: Representation) -> Tuple[int, ...]:
    """Rank of the action of each basis path of the algebra, in basis order;
    on the trivial paths these are the dimensions at the vertices."""
    f = rep.alg.field
    return tuple(
        rref(f, rep.path_matrix(p), rep.dim_at(p.start)).rank for p in rep.alg.basis
    )


@dataclass(frozen=True)
class SemisimpleSequence:
    """Layer-by-vertex multiplicity matrix, layers 0..L."""

    layers: Tuple[Tuple[int, ...], ...]

    @property
    def total_dim(self):
        return sum(sum(l) for l in self.layers)

    def totals_per_vertex(self):
        n = len(self.layers[0])
        return tuple(sum(l[i] for l in self.layers) for i in range(n))

    def layer(self, l):
        return self.layers[l]

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


def sseq_leq(s: SemisimpleSequence, t: SemisimpleSequence) -> bool:
    """True iff the sequences share total multiplicities and s precedes t.

    At the first differing layer, s's layer must be a direct summand of t's
    (necessarily proper there).
    """
    if len(s.layers) != len(t.layers):
        raise ValueError("sequences have different lengths")
    if s.totals_per_vertex() != t.totals_per_vertex():
        return False
    for ls, lt in zip(s.layers, t.layers):
        if ls != lt:
            return all(a <= b for a, b in zip(ls, lt))
    return True


def dim_vector(s: SemisimpleSequence) -> Tuple[int, ...]:
    """Total dimension of each layer; compare lexicographically."""
    return tuple(sum(l) for l in s.layers)


def multiplicity_mu(rep: Representation, tops) -> int:
    """Sum over the top vertices of the dimension of the vertex component."""
    if len(set(tops)) != len(tops):
        raise TopNotSquarefreeError(f"repeated top vertex in {tops}")
    return sum(rep.dim_at(r) for r in tops)


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
    rep_p = point.cover.as_representation()
    blocks = {v: [] for v in point.alg.quiver.vertices}
    for i, (_, p) in enumerate(point.cover.basis):
        blocks[p.end].append(i)
    per_vertex = {}
    for v, rows in point.rows_per_vertex().items():
        block = blocks[v]
        posmap = {i: k for k, i in enumerate(block)}
        vrows = []
        for r in rows:
            full = point.cover.jp_to_full(r)
            vrows.append([full[i] for i in block])
        per_vertex[v] = vrows
    return submodule_rep(rep_p, per_vertex)
