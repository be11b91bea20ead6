"""Brute-force ground truth over small finite fields.

Enumerates all submodule points of a Grassmannian of top-T quotients over
F_q, partitions them into automorphism orbits and isomorphism classes, and
cross-validates the chart machinery against the enumeration.  A candidate
subspace of JP is kept when `ProjectiveCover.escaping_arrow` finds no arrow
moving it out of its span, the stability test `SubmodulePoint.from_rows`
also uses.  Isomorphism classes are found by Hom scans only between points
with equal exact invariants (radical layering and path-action ranks).
Everything is exact and deterministic; budgets guard against blowups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import polynomials as poly
from .charts import (
    chart_ideal,
    has_skeleton,
    point_from_submodule,
    submodule_from_point,
)
from .errors import OracleScaleError, TopNotSquarefreeError
from .linalg import Echelon, is_invertible, mat_vec
from .presentation import AlgebraPresentation, AlgElement, Path
from .representations import (
    ProjectiveCover,
    Representation,
    SemisimpleSequence,
    SubmodulePoint,
    hom_basis,
    path_ranks,
    quotient_rep,
    radical_layering,
)
from .skeletons import Skeleton, compatible


@dataclass
class OracleConfig:
    subspace_budget: int = 10 ** 6
    group_budget: int = 10 ** 6
    hom_budget: int = 10 ** 6


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
    """Enumerated Grassmannian of one (algebra over F_q, top, d) triple."""

    def __init__(self, alg, tops, d, cover, points, config):
        self.alg = alg
        self.tops = tuple(tops)
        self.d = d
        self.cover = cover
        self.points: Tuple[SubmodulePoint, ...] = tuple(points)
        self.config = config
        self._quotients: Dict[int, Representation] = {}
        self._layerings: Optional[List[SemisimpleSequence]] = None
        self._orbits = None
        self._orbit_provenance = None
        self._iso = None
        self._unipotent_orbits = None

    @property
    def q(self):
        return self.alg.field.char

    @property
    def squarefree(self):
        return len(set(self.tops)) == len(self.tops)

    def quotient(self, i) -> Representation:
        rep = self._quotients.get(i)
        if rep is None:
            rep = quotient_rep(self.alg, self.points[i])
            self._quotients[i] = rep
        return rep

    def layerings(self) -> List[SemisimpleSequence]:
        if self._layerings is None:
            self._layerings = [
                radical_layering(self.quotient(i)) for i in range(len(self.points))
            ]
        return self._layerings

    def layering_classes(self) -> Dict[SemisimpleSequence, Tuple[int, ...]]:
        out: Dict[SemisimpleSequence, List[int]] = {}
        for i, s in enumerate(self.layerings()):
            out.setdefault(s, []).append(i)
        return {s: tuple(idx) for s, idx in out.items()}

    def index_of(self, point: SubmodulePoint) -> Optional[int]:
        for i, p in enumerate(self.points):
            if p.rows == point.rows:
                return i
        return None


def enumerate_points(alg: AlgebraPresentation, tops, d, config: Optional[OracleConfig] = None) -> OracleScene:
    """All submodules of JP of codimension d in P, as canonical points.

    Candidates are generated per vertex block (submodules are graded by end
    vertex) and filtered by arrow stability.
    """
    if alg.field.char == 0:
        raise OracleScaleError("the oracle needs a finite coefficient field")
    config = config or OracleConfig()
    f = alg.field
    q = f.char
    cover = ProjectiveCover(alg, tops)
    dp = cover.dim - d
    if dp < 0:
        return OracleScene(alg, cover.slots, d, cover, (), config)
    vs = alg.quiver.vertices
    block_cols = {
        v: [k for k, c in enumerate(cover.jp_cols) if cover.basis[c][1].end == v]
        for v in vs
    }
    block_dims = [len(block_cols[v]) for v in vs]

    total = 0
    compositions = []
    for split in _compositions(dp, block_dims):
        count = 1
        for n, k in zip(block_dims, split):
            count *= gaussian_binomial(n, k, q)
        if count:
            compositions.append(split)
            total += count
    if total > config.subspace_budget:
        raise OracleScaleError(
            f"{total} candidate subspaces exceed the budget {config.subspace_budget}"
        )

    width = cover.dim_jp
    points = []
    for split in compositions:
        per_block_choices = [
            list(_echelon_block_matrices(f, k, n)) for n, k in zip(block_dims, split)
        ]
        for combo in itertools.product(*per_block_choices):
            rows = []
            for v, mats in zip(vs, combo):
                cols = block_cols[v]
                for brow in mats:
                    row = [f.zero] * width
                    for c, x in zip(cols, brow):
                        row[c] = x
                    rows.append(row)
            ech = Echelon(f, width)
            for r in rows:
                ech.add(r)
            if cover.escaping_arrow(ech) is None:
                points.append(SubmodulePoint(cover, ech.snapshot()))
    points.sort(key=lambda p: p.rows)
    return OracleScene(alg, cover.slots, d, cover, points, config)


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
# the automorphism group of P over F_q


def _hom_p_jp_coordinates(cover: ProjectiveCover):
    """Free coordinates of Hom(P, JP): for slots (s, r), the basis paths from
    the vertex of slot s to the vertex of slot r, of positive length."""
    alg = cover.alg
    coords = []
    for r, vr in enumerate(cover.slots):
        for s, vs_ in enumerate(cover.slots):
            for p in alg.basis:
                if p.length >= 1 and p.start == vs_ and p.end == vr:
                    coords.append((r, s, p))
    return coords


def _unit_blocks(cover: ProjectiveCover):
    """Slots grouped by vertex; the unit part of an endomorphism is one
    invertible matrix per group."""
    groups: Dict[int, List[int]] = {}
    for s, v in enumerate(cover.slots):
        groups.setdefault(v, []).append(s)
    return [tuple(slots) for _, slots in sorted(groups.items(), key=lambda t: cover.alg.quiver.vertex_index[t[0]])]


def group_size(cover: ProjectiveCover) -> int:
    q = cover.alg.field.char
    size = q ** len(_hom_p_jp_coordinates(cover))
    for block in _unit_blocks(cover):
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


def iter_group_elements(cover: ProjectiveCover):
    """Endomorphism data (unit matrices per block, radical part per hom
    coordinate) for every automorphism of P over F_q."""
    f = cover.alg.field
    coords = _hom_p_jp_coordinates(cover)
    blocks = _unit_blocks(cover)
    unit_choices = [_all_invertible(f, len(b)) for b in blocks]
    elems = list(f.elements())
    for units in itertools.product(*unit_choices):
        for rad in itertools.product(elems, repeat=len(coords)):
            yield units, rad


def endomorphism_matrix(cover: ProjectiveCover, units, rad, unipotent_only=False):
    """Matrix (full P coordinates) of the endomorphism z_r -> unit part +
    radical part, acting by right multiplication on each basis path."""
    alg = cover.alg
    f = alg.field
    coords = _hom_p_jp_coordinates(cover)
    blocks = _unit_blocks(cover)
    n = cover.dim
    cols = [[f.zero] * n for _ in range(n)]
    gen_images: List[List[Tuple[int, AlgElement]]] = [[] for _ in cover.slots]
    if unipotent_only:
        for r in range(len(cover.slots)):
            gen_images[r].append((r, AlgElement.of_path(f, Path(cover.slots[r]))))
    else:
        for block, unit in zip(blocks, units):
            t = len(block)
            for j, r in enumerate(block):
                for i, s in enumerate(block):
                    c = unit[i][j]
                    if c != f.zero:
                        gen_images[r].append(
                            (s, AlgElement.of_path(f, Path(cover.slots[s]), c))
                        )
    for (r, s, p), c in zip(coords, rad):
        if c != f.zero:
            gen_images[r].append((s, AlgElement.of_path(f, p, c)))
    for i, (slot_i, path_i) in enumerate(cover.basis):
        for s, elem in gen_images[slot_i]:
            img = elem  # image of the generator of slot_i in slot s
            moved = AlgElement.zero(f)
            for pth, c in img.terms.items():
                joined = pth.then(path_i)
                if joined is None:
                    continue
                moved = moved.add(cover.alg.nf_path(joined).scale(c))
            for pth, c in moved.terms.items():
                cols[i][cover.index[(s, pth)]] = f.add(
                    cols[i][cover.index[(s, pth)]], c
                )
    # transpose columns into a matrix acting on column vectors
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _apply_matrix_to_point(cover, mat, point: SubmodulePoint) -> Tuple:
    f = cover.alg.field
    ech = Echelon(f, cover.dim_jp)
    for r in point.rows:
        full = cover.jp_to_full(r)
        img = mat_vec(f, mat, full)
        ech.add([img[c] for c in cover.jp_cols])
    return ech.snapshot()


def _group_matrices(cover: ProjectiveCover, unipotent_only: bool):
    f = cover.alg.field
    coords = _hom_p_jp_coordinates(cover)
    if unipotent_only:
        for rad in itertools.product(list(f.elements()), repeat=len(coords)):
            yield endomorphism_matrix(cover, None, rad, unipotent_only=True)
    else:
        for units, rad in iter_group_elements(cover):
            yield endomorphism_matrix(cover, units, rad)


def _orbit_partition(scene: OracleScene, unipotent_only: bool):
    cover = scene.cover
    f = scene.alg.field
    config = scene.config
    q = f.char
    coords = _hom_p_jp_coordinates(cover)
    size = q ** len(coords)
    if not unipotent_only:
        size = group_size(cover)
    if size > config.group_budget:
        return _orbit_partition_bfs(scene, unipotent_only), "generator-bfs"
    # materialize small groups once; stream large ones per representative
    mats = list(_group_matrices(cover, unipotent_only)) if size <= 65536 else None
    index = {p.rows: i for i, p in enumerate(scene.points)}
    assigned = {}
    orbits = []
    for i, p in enumerate(scene.points):
        if i in assigned:
            continue
        orbit = set()
        for mat in mats if mats is not None else _group_matrices(cover, unipotent_only):
            rows = _apply_matrix_to_point(cover, mat, p)
            j = index.get(rows)
            if j is None:
                raise OracleScaleError("group action left the enumerated point set")
            orbit.add(j)
        for j in orbit:
            assigned[j] = len(orbits)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    return tuple(orbits), "exhaustive"


def _orbit_partition_bfs(scene: OracleScene, unipotent_only: bool):
    """Orbit closure under one-parameter generators.  The orbits of the
    generated subgroup refine the true orbits: if the generators fail to
    generate the whole group, a true orbit may split, but never merge with
    another."""
    cover = scene.cover
    f = scene.alg.field
    coords = _hom_p_jp_coordinates(cover)
    gens = []
    elems = [e for e in f.elements() if e != f.zero]
    blocks = _unit_blocks(cover)
    id_units = tuple(
        tuple(
            tuple(f.one if i == j else f.zero for j in range(len(b)))
            for i in range(len(b))
        )
        for b in blocks
    )
    zero_rad = tuple(f.zero for _ in coords)
    for k in range(len(coords)):
        for c in elems:
            rad = list(zero_rad)
            rad[k] = c
            gens.append(endomorphism_matrix(cover, id_units, tuple(rad)))
    if not unipotent_only:
        for bi, b in enumerate(blocks):
            t = len(b)
            for i in range(t):
                for j in range(t):
                    for c in elems:
                        if i == j and c == f.one:
                            continue
                        unit = [
                            [f.one if x == y else f.zero for y in range(t)]
                            for x in range(t)
                        ]
                        unit[i][j] = c  # scaling on the diagonal, transvection off it
                        units = list(id_units)
                        units[bi] = tuple(tuple(r) for r in unit)
                        gens.append(endomorphism_matrix(cover, tuple(units), zero_rad))
    index = {p.rows: i for i, p in enumerate(scene.points)}
    seen = set()
    orbits = []
    for i in range(len(scene.points)):
        if i in seen:
            continue
        frontier = [i]
        orbit = {i}
        while frontier:
            j = frontier.pop()
            for mat in gens:
                rows = _apply_matrix_to_point(cover, mat, scene.points[j])
                k = index.get(rows)
                if k is None:
                    raise OracleScaleError("group action left the enumerated point set")
                if k not in orbit:
                    orbit.add(k)
                    frontier.append(k)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    return tuple(orbits)


def orbits(scene: OracleScene):
    """Partition of the points into automorphism orbits."""
    if scene._orbits is None:
        scene._orbits, scene._orbit_provenance = _orbit_partition(scene, False)
    return scene._orbits


def orbit_provenance(scene: OracleScene):
    orbits(scene)
    return scene._orbit_provenance


def unipotent_orbits(scene: OracleScene):
    """Partition under the unipotent radical only."""
    if scene._unipotent_orbits is None:
        scene._unipotent_orbits, _ = _orbit_partition(scene, True)
    return scene._unipotent_orbits


# ---------------------------------------------------------------------------
# isomorphism classes


def _modules_isomorphic(scene: OracleScene, i, j) -> bool:
    f = scene.alg.field
    m, n = scene.quotient(i), scene.quotient(j)
    basis = hom_basis(m, n)
    if not basis:
        return m.dim == 0
    if len(basis) > 0 and f.char ** len(basis) > scene.config.hom_budget:
        raise OracleScaleError("hom-space scan exceeds the budget")
    vs = scene.alg.quiver.vertices
    elems = list(f.elements())
    for coeffs in itertools.product(elems, repeat=len(basis)):
        if all(c == f.zero for c in coeffs):
            continue
        ok = True
        for v in vs:
            nv, mv = n.dim_at(v), m.dim_at(v)
            if nv != mv:
                ok = False
                break
            mat = [[f.zero] * mv for _ in range(nv)]
            for c, h in zip(coeffs, basis):
                if c == f.zero:
                    continue
                hm = h[v]
                for a in range(nv):
                    for b in range(mv):
                        mat[a][b] = f.add(mat[a][b], f.mul(c, hm[a][b]))
            if not is_invertible(f, mat, nv):
                ok = False
                break
        if ok:
            return True
    return False


def iso_classes(scene: OracleScene):
    """Partition of the points into isomorphism classes of their quotients,
    sorted by least point.

    A point is compared by a Hom scan only with the class representatives
    that share its key: the radical layering and the rank of every basis
    path's action.  The key is exact, since an isomorphism phi: M -> N gives
    N_p = phi_t M_p phi_s^-1 for every path p from s to t, and it fixes the
    dimension vector (the ranks of the trivial paths).
    """
    if scene._iso is None:
        layerings = scene.layerings()
        reps: Dict[tuple, List[int]] = {}
        classes: Dict[int, List[int]] = {}
        for i in range(len(scene.points)):
            bucket = reps.setdefault((layerings[i], path_ranks(scene.quotient(i))), [])
            r = next((r for r in bucket if _modules_isomorphic(scene, r, i)), None)
            if r is None:
                bucket.append(i)
                classes[i] = [i]
            else:
                classes[r].append(i)
        scene._iso = tuple(tuple(c) for c in classes.values())
    return scene._iso


# ---------------------------------------------------------------------------
# cross validation against the chart machinery


@dataclass
class CrossValidationReport:
    skeleton: Skeleton
    n_solutions: int
    n_points: int
    matched: bool
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self):
        return self.matched and not self.mismatches


def chart_solutions(alg, sk: Skeleton, config: Optional[OracleConfig] = None):
    """All F_q points of the chart ideal, by exhaustive scan."""
    config = config or OracleConfig()
    f = alg.field
    ideal = chart_ideal(alg, sk)
    n = ideal.nvars
    if f.char ** n > config.subspace_budget:
        raise OracleScaleError(f"chart scan q^{n} exceeds the budget")
    polys = ideal.poly_dicts()
    out = []
    for cand in itertools.product(list(f.elements()), repeat=n):
        if all(poly.evaluate(f, p, cand) == f.zero for p in polys):
            out.append(cand)
    return out


def cross_validate_chart(scene: OracleScene, sk: Skeleton) -> CrossValidationReport:
    """Solutions of the chart ideal versus enumerated points carrying the
    skeleton, with both round trips checked."""
    if not scene.squarefree:
        raise TopNotSquarefreeError("chart cross-validation needs a squarefree top")
    alg = scene.alg
    mismatches = []
    sols = chart_solutions(alg, sk, scene.config)
    image = {}
    for c in sols:
        pt = submodule_from_point(alg, sk, c, cover=scene.cover)
        image[c] = pt.rows
        back = point_from_submodule(alg, sk, pt)
        if back != c:
            mismatches.append(f"round trip failed for chart point {c}")
    # a point can carry the skeleton only if its layering matches the
    # skeleton's length/end-vertex counts, which is much cheaper to test
    layerings = scene.layerings()
    vs = alg.quiver.vertices
    with_sk = [
        i
        for i in range(len(scene.points))
        if compatible(sk, layerings[i], vs)
        and has_skeleton(alg, scene.points[i], sk)
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
        c = point_from_submodule(alg, sk, scene.points[i])
        pt = submodule_from_point(alg, sk, c, cover=scene.cover)
        if pt.rows != scene.points[i].rows:
            mismatches.append(f"round trip failed for enumerated point {i}")
    return CrossValidationReport(
        skeleton=sk,
        n_solutions=len(sols),
        n_points=len(with_sk),
        matched=image_set == point_set,
        mismatches=tuple(mismatches),
    )


@dataclass
class OrbitSizeReport:
    entries: Tuple[Tuple[int, int, int], ...]  # (point index, actual size, predicted)
    mismatches: Tuple[int, ...]

    @property
    def ok(self):
        return not self.mismatches


def orbit_size_consistency(scene: OracleScene) -> OrbitSizeReport:
    """Unipotent orbit sizes against q^m; for a simple top also the full
    orbit size against q^(orbit dimension)."""
    from .moduli import orbit_dim, unipotent_orbit_dim

    if not scene.squarefree:
        raise TopNotSquarefreeError("orbit-size consistency needs a squarefree top")
    q = scene.q
    by_point_u = {}
    for orb in unipotent_orbits(scene):
        for i in orb:
            by_point_u[i] = len(orb)
    entries = []
    bad = []
    for i, pt in enumerate(scene.points):
        predicted = q ** unipotent_orbit_dim(scene.alg, pt)
        entries.append((i, by_point_u[i], predicted))
        if by_point_u[i] != predicted:
            bad.append(i)
    if len(scene.tops) == 1:
        by_point = {}
        for orb in orbits(scene):
            for i in orb:
                by_point[i] = len(orb)
        for i, pt in enumerate(scene.points):
            predicted = q ** orbit_dim(scene.alg, pt)
            entries.append((i, by_point[i], predicted))
            if by_point[i] != predicted:
                bad.append(i)
    return OrbitSizeReport(tuple(entries), tuple(sorted(set(bad))))
