"""Quivers, paths, and bound quiver algebras with an explicit basis.

A path is stored with its arrows in order of application, so the product
``p*q`` ("first q, then p") concatenates q's arrows before p's.  A right
subpath is an initial segment of the application sequence.

The algebra KQ/I is presented by relation generators and a nilpotency bound
L (the radical power L+1 vanishes).  All computations happen in the span of
paths of length <= L+1 with longer paths truncated to zero; plain row
reduction then yields an exact normal form and a basis of residue classes of
paths.
"""

from __future__ import annotations

import bisect
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import AdmissibilityError, LoewyBoundError
from .fields import QQ, FieldError


@dataclass(frozen=True, slots=True)
class Arrow:
    """A named arrow source -> target, equal to and hashed as its fields."""

    name: str
    source: int
    target: int

    def __repr__(self):
        return f"{self.name}: {self.source} -> {self.target}"


class Quiver:
    """A finite directed graph with ordered vertices and named arrows."""

    def __init__(self, vertices: Iterable[int], arrows: Iterable[Tuple[str, int, int]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex identifiers must be distinct")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        built = []
        for name, src, tgt in arrows:
            if src not in self.vertex_index or tgt not in self.vertex_index:
                raise ValueError(f"arrow {name}: undeclared vertex")
            built.append(Arrow(name, src, tgt))
        self.arrows = tuple(built)
        if len({a.name for a in self.arrows}) != len(self.arrows):
            raise ValueError("arrow names must be distinct")
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self._from: Dict[int, Tuple[Arrow, ...]] = {
            v: tuple(a for a in self.arrows if a.source == v) for v in self.vertices
        }

    def arrows_from(self, vertex: int) -> Tuple[Arrow, ...]:
        return self._from[vertex]

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {list(self.arrows)})"


class Path:
    """A path: start vertex plus arrows in order of application.

    Paths are interned: `Path(start, arrows)` returns the one live object
    per (start, arrows), so equality is identity and the hash is the
    object's; the fields are never written after construction, and paths are
    built from one thread (the table takes no lock).  A path holds its
    prefix one arrow shorter, `parent`, and weak references to its children
    by arrow; the lazy paths e_v are held weakly by vertex.  So the table
    has no reference cycle and keeps no path that nothing else holds.
    """

    __slots__ = ("start", "arrows", "length", "end", "parent", "_children", "__weakref__")

    def __new__(cls, start: int, arrows: Iterable[Arrow] = ()):
        ref = _LAZY.get(start)
        p = None if ref is None else ref()
        if p is None:
            p = _new_path(start, (), 0, start, None)
            _LAZY[start] = weakref.ref(p)
        for a in arrows:
            p = p.extended_by(a)
        return p

    def extended_by(self, arrow: Arrow) -> "Path":
        """The path "first self, then arrow"; arrow must start at self.end."""
        ref = self._children.get(arrow)
        child = None if ref is None else ref()
        if child is None:
            if arrow.source != self.end:
                raise ValueError(f"cannot apply {arrow.name} after a path ending at {self.end}")
            child = _new_path(self.start, self.arrows + (arrow,), self.length + 1, arrow.target, self)
            self._children[arrow] = weakref.ref(child)
        return child

    def prefix(self, length: int) -> "Path":
        """Right subpath consisting of the first `length` applied arrows."""
        p = self
        for _ in range(self.length - length):
            p = p.parent
        return p

    def then(self, outer: "Path") -> Optional["Path"]:
        """Composite "first self, then outer"; None if the ends do not meet."""
        if outer.start != self.end:
            return None
        p = self
        for a in outer.arrows:
            p = p.extended_by(a)
        return p

    def render(self) -> str:
        if not self.arrows:
            return f"e{self.start}"
        return "*".join(a.name for a in reversed(self.arrows))

    def __repr__(self):
        return self.render()


# a weak reference to the lazy path e_v per vertex v
_LAZY: Dict[int, "weakref.ref[Path]"] = {}


def _new_path(start, arrows, length, end, parent) -> Path:
    p = object.__new__(Path)
    p.start, p.arrows, p.length, p.end, p.parent, p._children = start, arrows, length, end, parent, {}
    return p


class AlgElement:
    """A sparse exact linear combination of paths.

    Zero coefficients are never stored.  Mixed starts and ends are allowed.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms: Dict[Path, object] = {}
        if terms:
            for path, coeff in terms.items() if isinstance(terms, dict) else terms:
                if coeff != field.zero:
                    self.terms[path] = coeff

    @classmethod
    def of_path(cls, field, path, coeff=None):
        return cls(field, {path: field.one if coeff is None else coeff})

    @classmethod
    def zero(cls, field):
        return cls(field)

    def is_zero(self):
        return not self.terms

    def add(self, other: "AlgElement") -> "AlgElement":
        f = self.field
        out = dict(self.terms)
        for p, c in other.terms.items():
            s = f.add(out.get(p, f.zero), c)
            if s == f.zero:
                out.pop(p, None)
            else:
                out[p] = s
        return AlgElement(f, out)

    def sub(self, other: "AlgElement") -> "AlgElement":
        return self.add(other.scale(self.field.neg(self.field.one)))

    def scale(self, coeff) -> "AlgElement":
        f = self.field
        if coeff == f.zero:
            return AlgElement(f)
        return AlgElement(f, {p: f.mul(coeff, c) for p, c in self.terms.items()})

    def mul(self, other: "AlgElement", maxlen=None) -> "AlgElement":
        """Concatenation product self*other ("first other, then self").

        Terms longer than maxlen (when given) are truncated to zero.
        """
        f = self.field
        out: Dict[Path, object] = {}
        for q, cq in other.terms.items():
            for p, cp in self.terms.items():
                if maxlen is not None and q.length + p.length > maxlen:
                    continue
                joined = q.then(p)
                if joined is None:
                    continue
                c = f.mul(cp, cq)
                s = f.add(out.get(joined, f.zero), c)
                if s == f.zero:
                    out.pop(joined, None)
                else:
                    out[joined] = s
        return AlgElement(f, out)

    def min_length(self):
        return min(p.length for p in self.terms)

    def __eq__(self, other):
        return isinstance(other, AlgElement) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def render(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items(), key=lambda t: (t[0].start, t[0].length, t[0].render())):
            bits.append(f"{c}*{p.render()}" if c != self.field.one else p.render())
        return " + ".join(bits)

    def __repr__(self):
        return self.render()


def all_paths(quiver: Quiver, maxlen: int, start=None) -> List[Path]:
    """All paths of length <= maxlen, optionally restricted to one start."""
    starts = [start] if start is not None else list(quiver.vertices)
    out = []
    frontier = [Path(v) for v in starts]
    out.extend(frontier)
    for _ in range(maxlen):
        nxt = []
        for p in frontier:
            for a in quiver.arrows_from(p.end):
                nxt.append(p.extended_by(a))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


class AlgebraPresentation:
    """The algebra KQ/I with its path basis and normal-form table.

    Built by :func:`build_algebra`, which fills the basis and the normal
    form of every path of length <= L+1; immutable afterwards (the extension
    memo and the chart contexts only memoize, so sharing between tasks is
    safe).  A path's order key is its `rank` in `ascending`, the paths of
    length <= L+1 sorted once; it lives on the algebra, as two algebras on
    one quiver may order paths differently.  `lazy_keys` holds the ranks of
    the lazy paths e_v and `arrow_extensions` those of one-arrow extensions.
    """

    def __init__(self, quiver, relations, loewy_bound, field, order_key):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.loewy_bound = loewy_bound
        self.field = field
        self.ascending: Tuple[Path, ...] = tuple(sorted(all_paths(quiver, loewy_bound + 1), key=order_key))
        self.rank: Dict[Path, int] = {p: i for i, p in enumerate(self.ascending)}
        self.path_key = self.rank.__getitem__
        self.lazy_keys = {v: self.rank[Path(v)] for v in quiver.vertices}
        # filled by build_algebra
        self.basis: Tuple[Path, ...] = ()
        self.basis_index: Dict[Path, int] = {}
        self._normal_forms: Dict[Path, AlgElement] = {}
        self._extensions: Dict[Path, Tuple[tuple, ...]] = {}
        # charts.ChartContext per skeleton, filled by charts.chart_context,
        # and per tops tuple the ideal generators with their least term
        # lengths, which each chart context of those tops reads
        self.chart_contexts: Dict[object, object] = {}
        self.ideal_generators_by_tops: Dict[tuple, Tuple[tuple, tuple]] = {}

    @property
    def dim(self):
        return len(self.basis)

    def nf_path(self, path: Path) -> AlgElement:
        """The normal form of a single path, read from the table (zero
        beyond length L+1)."""
        if path.length > self.loewy_bound + 1:
            return AlgElement.zero(self.field)
        return self._normal_forms[path]

    def arrow_extensions(self, path: Path) -> Tuple[tuple, ...]:
        """Memoized one-arrow extensions of a path of length <= L: per arrow
        from its end, in quiver order, (arrow, path*arrow, its rank, whether
        its normal form is zero)."""
        out = self._extensions.get(path)
        if out is None:
            out = []
            for a in self.quiver.arrows_from(path.end):
                ap = path.extended_by(a)
                out.append((a, ap, self.rank[ap], self.nf_path(ap).is_zero()))
            out = self._extensions[path] = tuple(out)
        return out

    def __repr__(self):
        return (
            f"AlgebraPresentation(dim={self.dim}, L={self.loewy_bound}, "
            f"field={self.field!r}, arrows={len(self.quiver.arrows)})"
        )


def default_order_key(quiver: Quiver):
    """Order paths by (start-vertex index, length, arrow indices in order of
    application)."""

    def key(path: Path):
        return (
            quiver.vertex_index[path.start],
            path.length,
            tuple(quiver.arrow_index[a.name] for a in path.arrows),
        )

    return key


def build_algebra(quiver, relations, loewy_bound, field=QQ, order_key=None):
    """Build KQ/(I + J^{L+1}) from relation generators and the nilpotency
    bound L.

    The span of the two-sided multiples of the relations, each truncated
    beyond length L+1, is row reduced (pivot = largest path in the order);
    the surviving paths of length <= L form the basis.  Every path of
    length L+1 must land in the span, otherwise the bound (or
    admissibility) fails.  Since the terms longer than L+1 are dropped,
    this checks J^{L+1} in I + J^{L+2}, not J^{L+1} in I.  The two agree
    when each relation's terms have one length.  Otherwise the result can
    differ from KQ/I: with one loop w, w*w*w - w*w at L = 2 passes the
    check and gives basis e, w, yet in KQ/I, w*w = w*w*w is not zero.

    The paths of length <= L+1 are ranked in the order (the algebra's
    `rank`), and each multiple, a dict from rank to coefficient, is reduced
    against the rows found so far only until its leading rank is new, so the
    rows stay semi-echelon.  One back-substitution in ascending pivot order
    then gives the reduced echelon form, which the span and the order alone
    determine.  Its rows give the normal form of every path of length
    <= L+1: a pivot path is minus the rest of its row, and every other path
    is itself.

    Each relation is first split into its parts e_j*rho*e_i, which generate
    the same ideal; the stored relations are these uniform parts.
    """
    if loewy_bound < 0:
        raise ValueError("loewy bound must be non-negative")
    rels = []
    for rel in relations:
        if rel.field != field:
            # a coefficient can vanish in the new field, and so can rel
            rel = AlgElement(field, {p: field.coerce(c) for p, c in rel.terms.items()})
        if rel.is_zero():
            continue
        if rel.min_length() < 2:
            raise AdmissibilityError(f"relation {rel.render()} has a term of length < 2")
        # the row reduction below multiplies on the left only by paths of
        # positive length, which never separates the terms by end vertex
        parts: Dict[Tuple[int, int], Dict[Path, object]] = {}
        for p, c in rel.terms.items():
            parts.setdefault((p.start, p.end), {})[p] = c
        rels.extend(AlgElement(field, terms) for terms in parts.values())

    key = order_key if order_key is not None else default_order_key(quiver)
    alg = AlgebraPresentation(quiver, rels, loewy_bound, field, key)

    L1 = loewy_bound + 1
    zero = field.zero
    paths = all_paths(quiver, L1)
    ascending, rank = alg.ascending, alg.rank
    rows: Dict[int, Dict[int, object]] = {}  # pivot rank -> row, pivot entry 1

    def insert(x: Dict[int, object]):
        while True:
            pivot = max(x)
            row = rows.get(pivot)
            if row is None:
                break
            c = x[pivot]
            for j, rc in row.items():
                s = field.sub(x.get(j, zero), field.mul(c, rc))
                if s == zero:
                    del x[j]
                else:
                    x[j] = s
            if not x:
                return
        inv = field.inv(x[pivot])
        rows[pivot] = {j: field.mul(inv, c) for j, c in x.items()}

    # all_paths lists paths by length: upto[l] counts those of length <= l
    lengths = [p.length for p in paths]
    upto = [bisect.bisect_right(lengths, l) for l in range(L1 + 1)]
    for rel in rels:
        budget = L1 - rel.min_length()
        if budget < 0:
            continue
        # rel is uniform: every term runs from rel_start to rel_end
        [(rel_start, rel_end)] = {(p.start, p.end) for p in rel.terms}
        for v in paths[: upto[budget]]:
            if v.end != rel_start:
                continue
            # rel*v, "first v, then rel", as (path, room left below L+1,
            # coefficient) per term, truncated beyond length L+1
            rv = [
                (v.then(p), L1 - v.length - p.length, c)
                for p, c in rel.terms.items()
                if v.length + p.length <= L1
            ]
            if not rv:
                continue
            insert({rank[vp]: c for vp, _, c in rv})
            # u*rel*v, "first rel*v, then u"
            for u in paths[upto[0] : upto[budget - v.length]]:
                if u.start == rel_end:
                    uv = {rank[vp.then(u)]: c for vp, room, c in rv if u.length <= room}
                    if uv:
                        insert(uv)

    for pivot in sorted(rows):
        # the rows of smaller pivots are reduced already, so subtracting one
        # clears its pivot and touches no other pivot column
        row = rows[pivot]
        for j in [j for j in row if j != pivot and j in rows]:
            c = row[j]
            for k, rc in rows[j].items():
                s = field.sub(row.get(k, zero), field.mul(c, rc))
                if s == zero:
                    del row[k]
                else:
                    row[k] = s

    alg._normal_forms = nf = {
        p: AlgElement(field, {ascending[j]: field.neg(c) for j, c in rows[i].items() if j != i})
        if i in rows else AlgElement.of_path(field, p)
        for i, p in enumerate(ascending)
    }
    alg.basis = tuple(
        p for i, p in enumerate(ascending) if p.length <= loewy_bound and i not in rows
    )
    alg.basis_index = {p: i for i, p in enumerate(alg.basis)}

    for w in paths:
        if w.length == L1 and not nf[w].is_zero():
            raise LoewyBoundError(
                f"path {w.render()} of length {L1} does not vanish; "
                "nilpotency bound too small or ideal not admissible"
            )
    return alg


def with_field(alg: AlgebraPresentation, field):
    """The same presentation and path order, with rational coefficients in
    another field.  A residue mod p stands for no one rational, so the
    coefficients of a finite field move into no other field."""
    if field == alg.field:
        return alg
    if alg.field.char != 0:
        raise FieldError(f"cannot move the coefficients of {alg.field.tag} into {field.tag}")
    rels = [
        AlgElement(field, {p: field.coerce(c) for p, c in r.terms.items()})
        for r in alg.relations
    ]
    return build_algebra(alg.quiver, rels, alg.loewy_bound, field, order_key=alg.path_key)
