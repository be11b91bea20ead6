"""Helpers that only the tests use, kept out of the library.

`reduce_element_worklist` is the unmemoized rewriting, kept as the reference
for `ChartContext.reduce_element`; with `route_prune=False` it also rewrites
the paths that are not routes, the reference for the route pruning.
`index_of` finds a point of a scene.  `end_images_reference` maps C's rows
under every triple of End(P)'s path basis, the identity included, the
reference for `SubmodulePoint.end_images`.  `incremental_build_algebra` is the
reference for `build_algebra`.  `full_orbit_partition` is the reference
for the exhaustive orbit scan.  `normal_form` reduces an algebra element
through the algebra's table of path normal forms, and `render_problem`
writes a parsed problem back as text, for the parse/render round trips.
"""

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

from quivergrass import polynomials as poly
from quivergrass.charts import ChartContext
from quivergrass.errors import AdmissibilityError, LoewyBoundError
from quivergrass.fields import QQ
from quivergrass.linalg import Echelon, is_invertible
from quivergrass.oracle import OracleScene
from quivergrass.presentation import (
    AlgElement,
    AlgebraPresentation,
    Path,
    all_paths,
    default_order_key,
)
from quivergrass.representations import SubmodulePoint
from quivergrass.skeletons import is_route


def reduce_element_worklist(ctx: ChartContext, z: AlgElement, rng=None, route_prune: bool = True):
    """Unmemoized worklist variant of `ctx.reduce_element`; the processing
    order may be shuffled.

    Used to check that the expansion does not depend on the order in which
    pending terms are rewritten.
    """
    f = ctx.field
    pending: List[Tuple[Path, dict]] = [
        (p, {(0,) * ctx.nvars: c}) for p, c in z.terms.items()
    ]
    out: Dict[Path, dict] = {}
    while pending:
        idx = rng.randrange(len(pending)) if rng is not None else 0
        path, coeff = pending.pop(idx)
        if path.start not in ctx.sk.tops:
            continue
        if path in ctx.path_set:
            out[path] = poly.add(f, out.get(path, {}), coeff)
            continue
        if route_prune and not is_route(path, ctx.sk):
            continue
        k = ctx._longest_prefix_in(path)
        if k < 0:
            continue
        product = path.prefix(k).extended_by(path.arrows[k])
        tail = Path(product.end, path.arrows[k + 1 :])
        for q, vidx in ctx.targets.get(product, ()):
            pending.append((q.then(tail), poly.mul_variable(f, coeff, vidx)))
    return {q: c for q, c in out.items() if c}


def index_of(scene: OracleScene, point: SubmodulePoint) -> Optional[int]:
    """The index of a point among the scene's points, or None."""
    for i, p in enumerate(scene.points):
        if p.rows == point.rows:
            return i
    return None


def end_images_reference(point: SubmodulePoint):
    """Per triple of `cover.end_basis`, the images of C's rows under its
    right action, modulo C, as one vector: every triple's action applied to
    every row, each image reduced by C's echelon and read at the columns off
    C's pivots, the k-th row's image filling the k-th block."""
    cover = point.cover
    zero = [point.alg.field.zero] * cover.dim
    ech = point.echelon
    pivots = set(ech.pivots)
    free = [i for i in range(cover.dim) if i not in pivots]
    out = []
    for triple in cover.end_basis:
        act = cover.right_action(triple)
        vec = []
        for row in point.rows:
            image = ech.residual(cover.image(act, row) or zero)
            vec += [image[i] for i in free]
        out.append(vec)
    return out


def full_orbit_partition(scene: OracleScene, unipotent_only: bool = False):
    """Orbits of Aut(P), or of its unipotent radical, in order of least point:
    each orbit's least point is moved by every group element, the identity
    and the scalars included.  A group element is a coefficient vector over
    `cover.end_basis`, invertible unit blocks and then any radical values,
    and acts on a row as the sum of its basis triples' images."""
    cover = scene.cover
    f = scene.alg.field
    basis = cover.end_basis
    actions = [cover.right_action(b) for b in basis]
    n_unit = sum(1 for _, _, p in basis if p.length == 0)
    elems = list(f.elements())
    if unipotent_only:
        units = [[tuple(f.one if r == s else f.zero for r, s, _ in basis[:n_unit])]]
    else:
        units = []
        for group in cover.slot_groups:
            t = len(group)
            mats = itertools.product(itertools.product(elems, repeat=t), repeat=t)
            units.append([sum(m, ()) for m in mats if is_invertible(f, m, t)])
    index = {p.rows: i for i, p in enumerate(scene.points)}
    seen = set()
    orbits = []
    for i, point in enumerate(scene.points):
        if i in seen:
            continue
        zero = [f.zero] * cover.dim
        images = [[cover.image(act, row) or zero for act in actions] for row in point.rows]
        orbit = set()
        for unit in itertools.product(*units):
            for rad in itertools.product(elems, repeat=len(basis) - n_unit):
                coeffs = sum(unit, ()) + rad
                ech = Echelon(f, cover.dim)
                for per_triple in images:
                    vec = zero
                    for c, img in zip(coeffs, per_triple):
                        vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, img)]
                    ech.add(vec)
                orbit.add(index[ech.snapshot()])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def normal_form(alg: AlgebraPresentation, x: AlgElement) -> AlgElement:
    """The unique representative of x + I supported on the basis: the
    linear extension of the algebra's table of path normal forms."""
    f = alg.field
    L1 = alg.loewy_bound + 1
    out: Dict[Path, object] = {}
    for p, c in x.terms.items():
        if p.length > L1:
            raise ValueError(f"element has a term of length {p.length} > L+1 = {L1}")
        for q, qc in alg.nf_path(p).terms.items():
            s = f.add(out.get(q, f.zero), f.mul(c, qc))
            if s == f.zero:
                out.pop(q, None)
            else:
                out[q] = s
    return AlgElement(f, out)


def render_problem(pf) -> str:
    """Canonical text form of a parsed problem file (`cli.ProblemFile`);
    parse(render(parse(t))) == parse(t)."""
    lines = [f"field: {pf.field_tag}", f"loewy: {pf.loewy}"]
    lines.append("vertices: " + " ".join(str(v) for v in pf.quiver.vertices))
    lines.append(
        "arrows: "
        + ", ".join(f"{a.name}: {a.source} -> {a.target}" for a in pf.quiver.arrows)
    )
    if pf.relations:
        lines.append("relations:")
        for rel in pf.relations:
            bits = []
            for p, c in sorted(rel.terms.items(), key=lambda t: (t[0].start, t[0].length, t[0].render())):
                bits.append((c, p.render()))
            text = ""
            for i, (c, pr) in enumerate(bits):
                if c == 1:
                    term = pr
                elif c == -1:
                    term = f"-{pr}"
                else:
                    term = f"{c}*{pr}"
                if i == 0:
                    text = term
                else:
                    text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
            lines.append(f"  {text}")
    if pf.tops is not None:
        lines.append("top: " + " ".join(str(v) for v in pf.tops))
    if pf.dim is not None:
        lines.append(f"dim: {pf.dim}")
    return "\n".join(lines) + "\n"


def _sorted_reduction(field, rows, key, x: AlgElement) -> AlgElement:
    """x reduced against fully reduced rows (pivot path -> row with pivot
    entry 1), largest pivot first: the normal form as it was computed before
    the algebra kept a table of them."""
    out = dict(x.terms)
    hits = [p for p in out if p in rows]
    for p in sorted(hits, key=key, reverse=True):
        c = out.get(p, field.zero)
        if c == field.zero:
            continue
        for q, rc in rows[p].terms.items():
            s = field.sub(out.get(q, field.zero), field.mul(c, rc))
            if s == field.zero:
                out.pop(q, None)
            else:
                out[q] = s
    return AlgElement(field, out)


def incremental_build_algebra(quiver, relations, loewy_bound, field=QQ, order_key=None):
    """`build_algebra` as it was before the one-pass build: KQ/I from
    relation generators and the nilpotency bound, with every stored row
    kept fully reduced as each multiple is inserted, and each normal form
    found by the sorted reduction against the rows.

    The span of the truncated two-sided multiples of the relations is row
    reduced (pivot = largest path in the order); the surviving paths of
    length <= L form the basis.  Every path of length L+1 must land in the
    span, otherwise the bound (or admissibility) fails.

    Each relation is first split into its parts e_j*rho*e_i, which generate
    the same ideal; the stored relations are these uniform parts.
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
        # the row reduction below multiplies on the left only by paths of
        # positive length, which never separates the terms by end vertex
        parts: Dict[Tuple[int, int], Dict[Path, object]] = {}
        for p, c in rel.terms.items():
            parts.setdefault((p.start, p.end), {})[p] = c
        rels.extend(AlgElement(field, terms) for terms in parts.values())

    key = order_key if order_key is not None else default_order_key(quiver)
    alg = AlgebraPresentation(quiver, rels, loewy_bound, field, key)

    L1 = loewy_bound + 1
    paths = all_paths(quiver, L1)
    descending = sorted(paths, key=key, reverse=True)

    rows: Dict[Path, AlgElement] = {}  # pivot path -> fully reduced row

    def insert(x: AlgElement):
        x = _sorted_reduction(field, rows, key, x)
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

    # all_paths lists paths by length: upto[l] counts those of length <= l
    lengths = [p.length for p in paths]
    upto = [bisect.bisect_right(lengths, l) for l in range(L1 + 1)]
    for rel in rels:
        budget = L1 - rel.min_length()
        if budget < 0:
            continue
        for v in paths[: upto[budget]]:
            rv = rel.mul(AlgElement.of_path(field, v), maxlen=L1)
            if rv.is_zero():
                continue
            insert(rv)
            for u in paths[upto[0] : upto[budget - v.length]]:
                uv = AlgElement.of_path(field, u).mul(rv, maxlen=L1)
                if not uv.is_zero():
                    insert(uv)

    basis = [p for p in descending if p.length <= loewy_bound and p not in rows]
    basis.sort(key=key)
    alg.basis = tuple(basis)
    alg.basis_index = {p: i for i, p in enumerate(alg.basis)}
    alg._normal_forms = {p: _sorted_reduction(field, rows, key, AlgElement.of_path(field, p)) for p in paths}

    for w in paths:
        if w.length == L1 and not alg.nf_path(w).is_zero():
            raise LoewyBoundError(
                f"path {w.render()} of length {L1} does not vanish; "
                "nilpotency bound too small or ideal not admissible"
            )
    return alg
