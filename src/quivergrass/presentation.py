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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import AdmissibilityError, LoewyBoundError
from .fields import QQ


@dataclass(frozen=True)
class Arrow:
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

    @property
    def n(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {list(self.arrows)})"


@dataclass(frozen=True)
class Path:
    """A path: start vertex plus arrows in order of application.

    The empty arrow tuple is the vertex (lazy) path e_i of length 0.
    """

    start: int
    arrows: Tuple[Arrow, ...] = ()

    @property
    def end(self) -> int:
        return self.arrows[-1].target if self.arrows else self.start

    def __len__(self):
        return len(self.arrows)

    @property
    def length(self):
        return len(self.arrows)

    def extended_by(self, arrow: Arrow) -> "Path":
        """The path "first self, then arrow"; arrow must start at self.end."""
        if arrow.source != self.end:
            raise ValueError(f"cannot apply {arrow.name} after a path ending at {self.end}")
        return Path(self.start, self.arrows + (arrow,))

    def prefix(self, length: int) -> "Path":
        """Right subpath consisting of the first `length` applied arrows."""
        return Path(self.start, self.arrows[:length])

    def then(self, outer: "Path") -> Optional["Path"]:
        """Composite "first self, then outer"; None if the ends do not meet."""
        if outer.start != self.end:
            return None
        return Path(self.start, self.arrows + outer.arrows)

    def vertex_itinerary(self) -> Tuple[int, ...]:
        seq = [self.start]
        for a in self.arrows:
            seq.append(a.target)
        return tuple(seq)

    def render(self) -> str:
        if not self.arrows:
            return f"e{self.start}"
        return "*".join(a.name for a in reversed(self.arrows))

    def __repr__(self):
        return self.render()


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
                joined = q.then(p)
                if joined is None:
                    continue
                if maxlen is not None and joined.length > maxlen:
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

    def project_end(self, vertex) -> "AlgElement":
        return AlgElement(self.field, {p: c for p, c in self.terms.items() if p.end == vertex})

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
    """The algebra KQ/I with its path basis and normal-form map.

    Built by :func:`build_algebra`; immutable afterwards (the normal-form
    cache and the chart contexts only memoize, so sharing between tasks is
    safe).
    """

    def __init__(self, quiver, relations, loewy_bound, field, tops, order_key):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.loewy_bound = loewy_bound
        self.field = field
        self.tops = tuple(tops) if tops is not None else None
        self._order_key = order_key
        # filled by build_algebra
        self.basis: Tuple[Path, ...] = ()
        self.basis_index: Dict[Path, int] = {}
        self._rows: Dict[Path, AlgElement] = {}
        self._nf_cache: Dict[Path, AlgElement] = {}
        # charts.ChartContext per skeleton, filled by charts.chart_context
        self.chart_contexts: Dict[object, object] = {}

    def path_key(self, path: Path):
        return self._order_key(path)

    def sort_paths(self, paths):
        return sorted(paths, key=self._order_key)

    @property
    def dim(self):
        return len(self.basis)

    def is_basis_path(self, path: Path) -> bool:
        return path in self.basis_index

    def normal_form(self, x: AlgElement) -> AlgElement:
        """The unique representative of x + I supported on the basis."""
        f = self.field
        L1 = self.loewy_bound + 1
        for p in x.terms:
            if p.length > L1:
                raise ValueError(f"element has a term of length {p.length} > L+1 = {L1}")
        out = dict(x.terms)
        hits = [p for p in out if p in self._rows]
        for p in sorted(hits, key=self._order_key, reverse=True):
            c = out.get(p, f.zero)
            if c == f.zero:
                continue
            for q, rc in self._rows[p].terms.items():
                s = f.sub(out.get(q, f.zero), f.mul(c, rc))
                if s == f.zero:
                    out.pop(q, None)
                else:
                    out[q] = s
        return AlgElement(f, out)

    def nf_path(self, path: Path) -> AlgElement:
        """Memoized normal form of a single path (zero beyond length L+1)."""
        if path.length > self.loewy_bound + 1:
            return AlgElement.zero(self.field)
        cached = self._nf_cache.get(path)
        if cached is None:
            cached = self.normal_form(AlgElement.of_path(self.field, path))
            self._nf_cache[path] = cached
        return cached

    def nf_mul_path(self, arrow_or_path, x: AlgElement) -> AlgElement:
        """Normal form of (left path multiple of x)."""
        left = arrow_or_path
        if isinstance(left, Arrow):
            left = Path(left.source, (left,))
        f = self.field
        out = AlgElement.zero(f)
        for p, c in x.terms.items():
            joined = p.then(left)
            if joined is None:
                continue
            out = out.add(self.nf_path(joined).scale(c))
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


def build_algebra(quiver, relations, loewy_bound, field=QQ, tops=None, order_key=None):
    """Build KQ/I from relation generators and the nilpotency bound.

    The span of the truncated two-sided multiples of the relations is row
    reduced (pivot = largest path in the order); the surviving paths of
    length <= L form the basis.  Every path of length L+1 must land in the
    span, otherwise the bound (or admissibility) fails.
    """
    if loewy_bound < 0:
        raise ValueError("loewy bound must be non-negative")
    rels = []
    for rel in relations:
        if rel.is_zero():
            continue
        if rel.field != field:
            rel = AlgElement(field, {p: field.coerce(c) for p, c in rel.terms.items()})
        if rel.min_length() < 2:
            raise AdmissibilityError(f"relation {rel.render()} has a term of length < 2")
        rels.append(rel)

    key = order_key if order_key is not None else default_order_key(quiver)
    alg = AlgebraPresentation(quiver, rels, loewy_bound, field, tops, key)

    L1 = loewy_bound + 1
    paths = all_paths(quiver, L1)
    descending = sorted(paths, key=key, reverse=True)

    rows = alg._rows  # normal_form reduces against the rows found so far

    def insert(x: AlgElement):
        x = alg.normal_form(x)
        if x.is_zero():
            return
        pivot = max(x.terms, key=key)
        x = x.scale(field.inv(x.terms[pivot]))
        # keep existing rows fully reduced against the new pivot
        for piv, row in list(rows.items()):
            c = row.terms.get(pivot)
            if c is not None:
                rows[piv] = row.sub(x.scale(c))
        rows[pivot] = x

    for rel in rels:
        minlen = rel.min_length()
        budget = L1 - minlen
        for v in paths:
            if v.length > budget:
                continue
            rv = rel.mul(AlgElement.of_path(field, v), maxlen=L1)
            if rv.is_zero():
                continue
            insert(rv)
            for u in paths:
                if 0 < u.length <= budget - v.length:
                    uv = AlgElement.of_path(field, u).mul(rv, maxlen=L1)
                    if not uv.is_zero():
                        insert(uv)

    basis = [p for p in descending if p.length <= loewy_bound and p not in rows]
    basis.sort(key=key)
    alg.basis = tuple(basis)
    alg.basis_index = {p: i for i, p in enumerate(alg.basis)}

    for w in paths:
        if w.length == L1 and not alg.nf_path(w).is_zero():
            raise LoewyBoundError(
                f"path {w.render()} of length {L1} does not vanish; "
                "nilpotency bound too small or ideal not admissible"
            )
    return alg


def with_field(alg: AlgebraPresentation, field):
    """The same presentation with coefficients coerced into another field."""
    if field == alg.field:
        return alg
    rels = [
        AlgElement(field, {p: field.coerce(c) for p, c in r.terms.items()})
        for r in alg.relations
    ]
    return build_algebra(alg.quiver, rels, alg.loewy_bound, field, tops=alg.tops)
