"""Brute-force ground truth over small finite fields.

Enumerates all submodule points of a Grassmannian of top-T quotients over
F_q, partitions them into automorphism orbits and isomorphism classes, and
cross-validates the chart machinery against the enumeration.  A submodule
of JP is built one vertex block at a time.  The arrows from earlier blocks
force their images into the next block, so that block is chosen only among
the subspaces holding the forced span, and the loops at its vertex and the
arrows back into earlier blocks drop a partial choice as soon as they move
a row out of its target block; no candidate subspace is ever tested as a
whole.

Aut(P) acts through the path basis of End(P) that the projective cover
owns: each basis triple (r, s, p) sends the generator of slot r to p times
the generator of slot s, and acts on P by a sparse right multiplication
kept on the cover, which the invariance test and the orbit ranks of a point
read too.  A group element is a coefficient vector over that basis.  One
orbit loop moves a point's rows by such vectors: when the group fits the
budget, by every group element but the identity, and on a squarefree top
only by those whose first unit is 1, since scalars move no subspace
(exhaustive scan); else by the one-parameter generators 1 + c*b, closing
each orbit breadth first (generator BFS).  Isomorphism is decided through
Yoneda (see `_iso_partition`), only between points with equal exact
invariants: the radical layering, and the ranks of the positive-length
paths that act on P and of a + c*b for parallel arrows a, b
(`invariant_ranks`).  Every one of these is read from C's reduced rows in
P's basis, through the cover's sparse actions, and no module is built as
matrices.  A scene keeps its layerings, orbits and isomorphism classes,
each computed on first read.  Everything is exact and deterministic;
budgets guard against blowups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from . import polynomials as poly
from .charts import (
    chart_ideal,
    has_skeleton,
    point_from_submodule,
    submodule_from_point,
)
from .errors import OracleScaleError, TopNotSquarefreeError
from .linalg import Echelon, is_invertible, rank
from .presentation import AlgebraPresentation
from .representations import (
    ProjectiveCover,
    SemisimpleSequence,
    SubmodulePoint,
    generator_coordinates,
    hom_from_quotient,
    invariant_ranks,
    radical_layering,
)
from .skeletons import Skeleton, compatible


def gaussian_binomial(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _echelon_block_matrices(field, nrows, ncols):
    """All reduced echelon nrows x ncols matrices of full rank, canonical order."""
    if nrows == 0:
        yield ()
        return
    elems = list(field.elements())
    for pivots in itertools.combinations(range(ncols), nrows):
        free_positions = [
            (r, c)
            for r in range(nrows)
            for c in range(ncols)
            if c > pivots[r] and c not in pivots
        ]
        for values in itertools.product(elems, repeat=len(free_positions)):
            rows = [[field.zero] * ncols for _ in range(nrows)]
            for r, p in enumerate(pivots):
                rows[r][p] = field.one
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


class OracleScene:
    """Enumerated Grassmannian of one (algebra over F_q, top, d) triple.

    budget bounds every exponential scan of the scene: the group elements
    of an exhaustive orbit scan (beyond it, orbits are closed by generator
    BFS), the chart scan over F_q^n and the Hom-space scan.  What the points
    determine is computed once, on first read: their layerings and layering
    classes, the orbit partition and the isomorphism classes."""

    def __init__(self, cover, d, points, budget):
        self.cover = cover
        self.d = d
        self.points: Tuple[SubmodulePoint, ...] = tuple(points)
        self.budget = budget

    @property
    def alg(self):
        return self.cover.alg

    @property
    def q(self):
        return self.alg.field.char

    @property
    def squarefree(self):
        return self.cover.squarefree

    @cached_property
    def layerings(self) -> Tuple[SemisimpleSequence, ...]:
        return tuple(radical_layering(p) for p in self.points)

    @cached_property
    def layering_classes(self) -> Dict[SemisimpleSequence, Tuple[int, ...]]:
        out: Dict[SemisimpleSequence, List[int]] = {}
        for i, s in enumerate(self.layerings):
            out.setdefault(s, []).append(i)
        return {s: tuple(idx) for s, idx in out.items()}

    @cached_property
    def orbit_partition(self):
        """The orbits of Aut(P) and how they were found (`_orbit_partition`)."""
        return _orbit_partition(self)

    @cached_property
    def iso_classes(self):
        """The isomorphism classes of the quotients (`_iso_partition`)."""
        return _iso_partition(self)

    def skeleton_candidates(self, sk: Skeleton) -> Tuple[int, ...]:
        """Sorted indices of the points that can carry sk: those whose
        layering matches the skeleton's length/end-vertex counts, tested
        once per layering class."""
        vs = self.alg.quiver.vertices
        return tuple(sorted(
            i
            for sseq, members in self.layering_classes.items()
            if compatible(sk, sseq, vs)
            for i in members
        ))


def enumerate_points(alg: AlgebraPresentation, tops, d, budget: int = 10 ** 6) -> OracleScene:
    """All submodules of JP of codimension d in P, as canonical points.

    A submodule C is graded by end vertex, C = sum of its blocks C_v in
    (JP)_v, and stable under every arrow.  For each composition of dim C over
    the vertices, the blocks are chosen one vertex at a time.  The arrows
    into a block from earlier blocks force their images into it, so it is
    chosen among the subspaces of its size that hold that forced span and
    that the loops at its vertex keep (`_block_choices`, once per vertex,
    size and forced span), and a partial choice is dropped as soon as an
    arrow back into an earlier block maps a row out of it.  The rows of a
    full choice, sorted by pivot, are already the canonical RREF of C.
    The budget bounds the candidates: the graded subspaces of dimension
    dim C, each of which a test of every candidate would have to try.
    """
    if alg.field.char == 0:
        raise OracleScaleError("the oracle needs a finite coefficient field")
    f = alg.field
    q = f.char
    cover = ProjectiveCover(alg, tops)
    dp = cover.dim - d
    if dp < 0:
        return OracleScene(cover, d, (), budget)
    vs = alg.quiver.vertices
    # the columns of (JP)_v: the pairs of positive length ending at v
    block_cols = [[i for i, (_, p) in enumerate(cover.basis) if p.length and p.end == v] for v in vs]
    block_dims = [len(cols) for cols in block_cols]

    total = 0
    compositions = []
    for split in _compositions(dp, block_dims):
        count = 1
        for n, k in zip(block_dims, split):
            count *= gaussian_binomial(n, k, q)
        if count:
            compositions.append(split)
            total += count
    if total > budget:
        raise OracleScaleError(f"{total} candidate subspaces exceed the budget {budget}")

    # per vertex position j, the arrows into block j from an earlier block
    # i, which force their images into it, and the arrows out of block j
    # into an earlier block, which filter; each as (i, arrow name)
    forcing = [[] for _ in vs]
    back = [[] for _ in vs]
    vi = alg.quiver.vertex_index
    for a in alg.quiver.arrows:
        i, j = vi[a.source], vi[a.target]
        if i < j:
            forcing[j].append((i, a.name))
        elif i > j:
            back[i].append((j, a.name))
    choices = {}  # (vertex position, dim, forced span) -> the blocks holding it
    points = []
    for split in compositions:
        partial = [()]
        for j, k in enumerate(split):
            grown = []
            for chosen in partial:
                key = (j, k, _forced_span(f, block_dims[j], chosen, forcing[j]))
                if key not in choices:
                    choices[key] = _block_choices(cover, block_cols, *key)
                grown.extend(chosen + (ch,) for ch in choices[key] if _fits(ch, chosen, back[j]))
            partial = grown
        for chosen in partial:
            rows = []
            for cols, ch in zip(block_cols, chosen):
                for piv, r in zip(ch.ech.pivots, ch.ech.rows):
                    row = [f.zero] * cover.dim
                    for c, x in zip(cols, r):
                        row[c] = x
                    rows.append((cols[piv], row))
            rows.sort(key=lambda pr: pr[0])
            points.append(SubmodulePoint(cover, [r for _, r in rows]))
    points.sort(key=lambda p: p.rows)
    return OracleScene(cover, d, points, budget)


class _BlockChoice:
    """A candidate block C_v in block coordinates: the `Echelon` of its
    reduced rows, and per arrow leaving v the images of the rows in the
    coordinates of the arrow's target block."""

    __slots__ = ("ech", "images")

    def __init__(self, ech, images):
        self.ech = ech
        self.images = images


def _forced_span(f, n, chosen, forcing):
    """Canonical rows, in the n block coordinates, of the span that the
    chosen earlier blocks force into the next one: their images along the
    arrows of forcing."""
    images = [x for i, name in forcing for x in chosen[i].images[name]]
    if not images:
        return ()
    ech = Echelon(f, n)
    for x in images:
        ech.add(x)
    return ech.snapshot()


def _block_choices(cover: ProjectiveCover, block_cols, j, k, forced):
    """The k-dimensional blocks at the j-th vertex that hold the forced rows
    and that its loops keep.  Each is the forced span plus the lift of a
    reduced echelon matrix over the columns off the forced pivots, a
    subspace of the block modulo the forced span, in the order of
    `_echelon_block_matrices`."""
    alg = cover.alg
    f = alg.field
    v = alg.quiver.vertices[j]
    cols = block_cols[j]
    arrows = alg.quiver.arrows_from(v)
    targets = [block_cols[alg.quiver.vertex_index[a.target]] for a in arrows]
    actions = [cover.arrow_action(a) for a in arrows]
    pivots = {r.index(f.one) for r in forced}
    free = [c for c in range(len(cols)) if c not in pivots]
    out = []
    if len(forced) > k:
        return out
    for lifted in _echelon_block_matrices(f, k - len(forced), len(free)):
        ech = Echelon.of_reduced(f, len(cols), [_spread(f, len(cols), free, r) for r in lifted])
        for r in forced:
            ech.add(r)
        images = {}
        for a, act, tcols in zip(arrows, actions, targets):
            moved = images[a.name] = []
            for r in ech.rows:
                img = cover.image(act, _spread(f, cover.dim, cols, r))
                if img is not None:
                    moved.append([img[c] for c in tcols])
        if all(ech.contains(x) for a in arrows if a.target == v for x in images[a.name]):
            out.append(_BlockChoice(ech, images))
    return out


def _spread(f, n, cols, values):
    """The vector of length n holding values at the positions cols."""
    vec = [f.zero] * n
    for c, x in zip(cols, values):
        vec[c] = x
    return vec


def _fits(ch: _BlockChoice, chosen, back) -> bool:
    """Whether every arrow of back maps the rows of the block ch into the
    span of its chosen target block."""
    return all(chosen[i].ech.contains(x) for i, name in back for x in ch.images[name])


def _compositions(total, bounds):
    if not bounds:
        if total == 0:
            yield ()
        return
    first = bounds[0]
    for k in range(min(total, first) + 1):
        for rest in _compositions(total - k, bounds[1:]):
            yield (k,) + rest


# ---------------------------------------------------------------------------
# the automorphism group of P over F_q, through the path basis of End(P)


def group_size(cover: ProjectiveCover) -> int:
    q = cover.alg.field.char
    size = q ** sum(1 for _, _, p in cover.end_basis if p.length >= 1)
    for block in cover.slot_groups:
        t = len(block)
        gl = 1
        for i in range(t):
            gl *= q ** t - q ** i
        size *= gl
    return size


def _all_invertible(field, n):
    mats = []
    for rows in itertools.product(
        itertools.product(list(field.elements()), repeat=n), repeat=n
    ):
        if is_invertible(field, rows, n):
            mats.append(tuple(rows))
    return mats


def _orbit_partition(scene: OracleScene):
    """Orbits of Aut(P), in order of least point.

    A group element is a coefficient vector over `cover.end_basis`: invertible
    unit blocks, then any radical values.  Within the group budget every
    element but the identity moves each orbit's least point (exhaustive
    scan); on a squarefree top the first slot's unit is fixed to 1, since a
    scalar multiple of an element moves every subspace as the element does,
    so the scan runs over the group modulo scalars.  Beyond the budget the
    orbit is closed under the generators 1 + c*b, for every basis triple b
    and every c != 0 that keeps them invertible (generator BFS).  The orbits
    of the generated subgroup refine the true orbits: if the generators fail
    to generate the whole group, a true orbit may split, but never merge with
    another.
    """
    cover = scene.cover
    f = scene.alg.field
    p = f.char
    basis = cover.end_basis
    actions = [cover.right_action(b) for b in basis]
    n_unit = sum(1 for _, _, path in basis if path.length == 0)
    n_rad = len(basis) - n_unit
    one = tuple(f.one if r == s else f.zero for r, s, _ in basis[:n_unit]) + (f.zero,) * n_rad
    elems = list(f.elements())
    grow = group_size(cover) > scene.budget
    if grow:
        gens = [
            one[:b] + (f.add(one[b], c),) + one[b + 1 :]
            for b in range(len(basis))
            for c in elems
            if c != f.zero and f.add(one[b], c) != f.zero
        ]
        moves = lambda: gens
    else:
        units = [
            [tuple(c for row in m for c in row) for m in _all_invertible(f, len(b))]
            for b in cover.slot_groups
        ]
        if cover.squarefree:
            units[0] = [(f.one,)]  # modulo scalars
        elements = lambda: (
            sum(unit, ()) + rad
            for unit in itertools.product(*units)
            for rad in itertools.product(elems, repeat=n_rad)
        )
        moves = lambda: (g for g in elements() if g != one)  # the identity moves nothing
    index = {pt.rows: i for i, pt in enumerate(scene.points)}
    seen = set()
    orbits = []
    for i in range(len(scene.points)):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            rows = scene.points[frontier.pop()].rows
            moved = None
            for coeffs in moves():
                if moved is None:  # per row, its image under each basis triple as (column, value) terms
                    moved = [
                        [
                            [(j, c * a % p) for k, c in enumerate(row) if c for j, a in act.get(k, ())]
                            for act in actions
                        ]
                        for row in rows
                    ]
                k = index.get(_moved_rows(f, cover.dim, moved, coeffs))
                if k is None:
                    raise OracleScaleError("group action left the enumerated point set")
                if k not in orbit:
                    orbit.add(k)
                    if grow:
                        frontier.append(k)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits), "generator-bfs" if grow else "exhaustive"


def _moved_rows(f, dim, moved, coeffs):
    """Canonical rows of a point's image under the group element coeffs,
    from moved, per row of the point its image under each basis triple as
    (column, value) terms.  Each image row is summed as ints and reduced
    mod p once."""
    p = f.char
    ech = Echelon(f, dim)
    for images in moved:
        vec = [0] * dim
        for c, terms in zip(coeffs, images):
            if c:
                for j, x in terms:
                    vec[j] += c * x
        ech.add([x % p for x in vec])
    return ech.snapshot()


def orbits(scene: OracleScene):
    """Partition of the points into automorphism orbits."""
    return scene.orbit_partition[0]


def orbit_provenance(scene: OracleScene):
    """"exhaustive" or "generator-bfs", the scan that found the orbits."""
    return scene.orbit_partition[1]


# ---------------------------------------------------------------------------
# isomorphism classes


def _modules_isomorphic(scene: OracleScene, i, j) -> bool:
    """Whether P/C_i is isomorphic to N = P/C_j: some x in K(C_i, N) has all
    its generator matrices invertible.  The points of a scene share their
    codimension d, so the modules have equal dimension."""
    kernel = hom_from_quotient(scene.points[i], scene.points[j])
    tops = generator_coordinates(scene.points[i], scene.points[j])
    return _generates(scene.alg.field, kernel, tops, scene.squarefree, scene.budget)


def _generates(f, kernel, tops, squarefree, budget) -> bool:
    """Whether some x in the span of kernel has each matrix of tops (lists of
    positions in x) invertible.  For a squarefree top on t <= q vertices these
    are t coordinates, and if each is nonzero on some vector of the span, all
    are on one (F_q^n is no union of q proper subspaces); else the span is
    scanned behind budget on q^{dim}."""
    if squarefree and len(tops) <= f.char:
        return all(any(x[c] != f.zero for x in kernel) for [[c]] in tops)
    if not kernel:
        return False
    if f.char ** len(kernel) > budget:
        raise OracleScaleError("hom-space scan exceeds the budget")
    for coeffs in itertools.product(list(f.elements()), repeat=len(kernel)):
        x = [f.zero] * len(kernel[0])
        for c, k in zip(coeffs, kernel):
            x = [f.add(a, f.mul(c, b)) for a, b in zip(x, k)]
        if all(rank(f, [[x[c] for c in row] for row in m], len(m)) == len(m) for m in tops):
            return True
    return False


def _iso_partition(scene: OracleScene):
    """Partition of the points into isomorphism classes of their quotients,
    sorted by least point.

    By Yoneda, Hom(P/C_i, N) is the space K of tuples (x_s), x_s in N_{v_s},
    that C_i kills, and P/C_i = N when some x in K generates N.  A point is
    tested only against the class representatives sharing its key: its
    radical layering and its `invariant_ranks`, the ranks of the cover's
    `rank_elements`.  The key is exact: an isomorphism phi: M -> N gives
    N_x = phi_t M_x phi_s^-1 for every element x of the algebra from s to
    t, and it fixes the layering.  So every class lies in one layering
    class.
    """
    reps: Dict[tuple, List[int]] = {}
    classes: Dict[int, List[int]] = {}
    for i, (layering, point) in enumerate(zip(scene.layerings, scene.points)):
        bucket = reps.setdefault((layering, invariant_ranks(point)), [])
        r = next((r for r in bucket if _modules_isomorphic(scene, r, i)), None)
        if r is None:
            bucket.append(i)
            classes[i] = [i]
        else:
            classes[r].append(i)
    return tuple(tuple(c) for c in classes.values())


def iso_classes(scene: OracleScene):
    """Partition of the points into isomorphism classes of their quotients
    (`_iso_partition`)."""
    return scene.iso_classes


# ---------------------------------------------------------------------------
# cross validation against the chart machinery


@dataclass
class CrossValidationReport:
    skeleton: Skeleton
    n_solutions: int
    n_points: int
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self):
        return not self.mismatches


def chart_solutions(alg, sk: Skeleton, budget: int = 10 ** 6):
    """All F_q points of the chart ideal, by exhaustive search behind the
    budget on q^n, in the order of a scan over F_q^n."""
    f = alg.field
    ideal = chart_ideal(alg, sk)
    n = ideal.nvars
    if f.char ** n > budget:
        raise OracleScaleError(f"chart scan q^{n} exceeds the budget")
    return _solutions(f, n, ideal.poly_dicts())


def _solutions(f, n, polys):
    """Common zeros in F_q^n of polynomials in n variables, depth first:
    variables in order, values in field order, so the zeros come out in
    lexicographic order.  A polynomial is tested as soon as its last variable
    is fixed, and a partial assignment it refutes is not extended."""
    due = [[] for _ in range(n + 1)]  # due[k]: polynomials in X1..Xk only
    for p in polys:
        due[max((i + 1 for e in p for i, k in enumerate(e) if k), default=0)].append(p)
    last = list(f.elements())[::-1]  # pushed last first, so popped in field order
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        if any(poly.evaluate(f, p, prefix) != f.zero for p in due[len(prefix)]):
            continue
        if len(prefix) == n:
            out.append(prefix)
        else:
            stack.extend(prefix + (x,) for x in last)
    return out


def cross_validate_chart(scene: OracleScene, sk: Skeleton) -> CrossValidationReport:
    """Solutions of the chart ideal versus enumerated points carrying the
    skeleton, with both round trips checked.

    Both chart maps are deterministic in (cover, rows, sk), so each value is
    computed once: `image` keys solution -> rows and `coords` rows ->
    coordinates, and the enumerated-point loop computes only what the
    solution loop left missing.  Rows in `coords` passed the skeleton pass,
    so their points carry sk without a second membership test."""
    if not scene.squarefree:
        raise TopNotSquarefreeError("chart cross-validation needs a squarefree top")
    alg = scene.alg
    mismatches = []
    sols = chart_solutions(alg, sk, scene.budget)
    image = {}
    coords = {}
    for c in sols:
        pt = submodule_from_point(alg, sk, c, cover=scene.cover)
        image[c] = pt.rows
        back = coords[pt.rows] = point_from_submodule(alg, sk, pt)
        if back != c:
            mismatches.append(f"round trip failed for chart point {c}")
    with_sk = [
        i
        for i in scene.skeleton_candidates(sk)
        if scene.points[i].rows in coords or has_skeleton(alg, scene.points[i], sk)
    ]
    image_set = set(image.values())
    point_set = {scene.points[i].rows for i in with_sk}
    if image_set != point_set:
        mismatches.append(
            f"chart image has {len(image_set)} points, enumeration has {len(point_set)}"
        )
    if len(image_set) != len(sols):
        mismatches.append("chart map is not injective on solutions")
    for i in with_sk:
        rows = scene.points[i].rows
        c = coords[rows] if rows in coords else point_from_submodule(alg, sk, scene.points[i])
        back = image[c] if c in image else submodule_from_point(alg, sk, c, cover=scene.cover).rows
        if back != rows:
            mismatches.append(f"round trip failed for enumerated point {i}")
    return CrossValidationReport(
        skeleton=sk,
        n_solutions=len(sols),
        n_points=len(with_sk),
        mismatches=tuple(mismatches),
    )
