"""Decision procedures for moduli existence and finite local type.

Full invariance of a submodule point decides the absence of proper
top-stable degenerations of its quotient; the quiver-level test for a simple
top checks whether products lambda*omega stay in the cyclic left module of
lambda.  Orbit dimensions come from homomorphism-space dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import OracleScaleError, TopNotSquarefreeError
from .linalg import Echelon
from .presentation import AlgElement, AlgebraPresentation, Path, all_paths, with_field
from .fields import GF
from .representations import (
    ProjectiveCover,
    SubmodulePoint,
    hom_dim,
    multiplicity_mu,
    quotient_rep,
    radical_submodule,
    submodule_as_rep,
)


@dataclass(frozen=True)
class InvarianceResult:
    holds: bool
    # right multiplication by this path moves the witness row out of C
    witness_path: Optional[Path] = None
    witness_row: Optional[tuple] = None

    def __bool__(self):
        return self.holds


def _endo_paths(alg: AlgebraPresentation, tops):
    """Basis of End(P) for squarefree tops: right multiplications by basis
    paths running between top vertices."""
    return [
        p
        for p in alg.basis
        if p.start in tops and p.end in tops
    ]


def _right_multiply(alg, cover: ProjectiveCover, vec, path: Path):
    """Image of a full-P vector under right multiplication by a path.

    The path must run between top vertices; it moves the component sitting
    over the slot of its end vertex to the slot of its start vertex.
    """
    f = alg.field
    out = [f.zero] * cover.dim
    end_slot = cover.slots.index(path.end)
    start_slot = cover.slots.index(path.start)
    for i, c in enumerate(vec):
        if c == f.zero:
            continue
        slot, p = cover.basis[i]
        if slot != end_slot:
            continue
        prod = path.then(p)  # first path, then p
        if prod is None:
            continue
        img = alg.nf_path(prod)
        for pth, a in img.terms.items():
            j = cover.index[(start_slot, pth)]
            out[j] = f.add(out[j], f.mul(c, a))
    return out


def is_fully_invariant(alg: AlgebraPresentation, point: SubmodulePoint) -> InvarianceResult:
    """Whether the submodule is stable under every endomorphism of P.

    Endomorphisms of P are right multiplications by algebra elements running
    between the top vertices; the first violating basis path (in path order)
    and point row are returned as a witness.
    """
    cover = point.cover
    if not cover.squarefree:
        raise TopNotSquarefreeError("full invariance needs a squarefree top")
    ech = point.echelon()
    f = alg.field
    for path in _endo_paths(alg, cover.slots):
        if path.length == 0:
            continue  # identity components always preserve C
        for row in point.rows:
            full = cover.jp_to_full(row)
            img = _right_multiply(alg, cover, full, path)
            if any(c != f.zero for c in img):
                jimg = [img[c] for c in cover.jp_cols]
                if not ech.contains(jimg):
                    return InvarianceResult(False, path, row)
    return InvarianceResult(True)


def orbit_dim(alg: AlgebraPresentation, point: SubmodulePoint) -> int:
    """dim End(P) - dim Hom(P, C) - dim End(P/C)."""
    cover = point.cover
    rep_p = cover.as_representation()
    rep_c = submodule_as_rep(point)
    rep_m = quotient_rep(alg, point)
    return cover.end_dim() - hom_dim(rep_p, rep_c) - hom_dim(rep_m, rep_m)


def unipotent_orbit_dim(alg: AlgebraPresentation, point: SubmodulePoint) -> int:
    """dim Hom(P, JM) - dim Hom(M, JM) for M = P/C."""
    cover = point.cover
    rep_p = cover.as_representation()
    rep_m = quotient_rep(alg, point)
    rep_jm = radical_submodule(rep_m)
    return hom_dim(rep_p, rep_jm) - hom_dim(rep_m, rep_jm)


def top_multiplicity_criterion(alg, point) -> bool:
    """Numeric half of the singleton-orbit criterion: the multiplicity of the
    top simples among the composition factors equals t + dim Hom(M, JM)."""
    cover = point.cover
    if not cover.squarefree:
        raise TopNotSquarefreeError("the criterion needs a squarefree top")
    rep_m = quotient_rep(alg, point)
    rep_jm = radical_submodule(rep_m)
    t = len(cover.slots)
    return multiplicity_mu(rep_m, cover.slots) == t + hom_dim(rep_m, rep_jm)


@dataclass(frozen=True)
class ModuliCriterionReport:
    holds: bool
    provenance: str  # "symbolic" or "finite-field"
    eje_zero: bool
    je_squared_zero: bool
    prime: Optional[int] = None
    witness_lambda: Optional[AlgElement] = None
    witness_omega: Optional[Path] = None

    def __bool__(self):
        return self.holds


def simple_top_moduli_criterion(alg: AlgebraPresentation, e, prime: int = 2, budget: int = 10 ** 6) -> ModuliCriterionReport:
    """Moduli existence for all d at the simple top S_e.

    The sufficient conditions eJe = 0 and (Je)^2 = 0 are decided exactly;
    otherwise the defining condition (lambda*omega in Lambda*lambda for all
    lambda in Je and omega in eJe) is checked exhaustively over F_p, with
    the provenance recorded.
    """
    if e not in alg.quiver.vertex_index:
        raise ValueError(f"unknown vertex {e}")
    je = [p for p in alg.basis if p.length >= 1 and p.start == e]
    eje = [p for p in je if p.end == e]
    if not eje:
        return ModuliCriterionReport(True, "symbolic", True, True)
    # (Je)^2 = 0: products x*y with y ending at e (so the concatenation is typed)
    je_sq_zero = True
    for y in eje:
        for x in je:
            prod = y.then(x)
            if prod is not None and not alg.nf_path(prod).is_zero():
                je_sq_zero = False
                break
        if not je_sq_zero:
            break
    if je_sq_zero:
        return ModuliCriterionReport(True, "symbolic", False, True)

    f = GF(prime)
    alg_p = with_field(alg, f)
    je_p = [p for p in alg_p.basis if p.length >= 1 and p.start == e]
    eje_p = [p for p in je_p if p.end == e]
    if prime ** len(je_p) > budget:
        raise OracleScaleError(
            f"{prime}^{len(je_p)} candidates for lambda exceed the budget {budget}"
        )
    for coeffs in itertools.product(list(f.elements()), repeat=len(je_p)):
        lam = AlgElement(f, dict(zip(je_p, coeffs)))
        if lam.is_zero():
            continue
        ech = _cyclic_span(alg_p, lam)
        for omega in eje_p:
            lam_om = lam.mul(
                AlgElement.of_path(f, omega), maxlen=alg_p.loewy_bound + 1
            )
            lam_om = alg_p.normal_form(lam_om)
            if lam_om.is_zero():
                continue
            if not ech.contains(_basis_vec(alg_p, lam_om)):
                return ModuliCriterionReport(
                    False,
                    "finite-field",
                    False,
                    False,
                    prime=prime,
                    witness_lambda=lam,
                    witness_omega=omega,
                )
    return ModuliCriterionReport(True, "finite-field", False, False, prime=prime)


def _cyclic_span(alg_p, lam: AlgElement) -> Echelon:
    """Echelon of Lambda*lambda, the span of the left path multiples of lam."""
    ech = Echelon(alg_p.field, len(alg_p.basis))
    for u in all_paths(alg_p.quiver, alg_p.loewy_bound):
        img = alg_p.nf_mul_path(u, lam)
        if not img.is_zero():
            ech.add(_basis_vec(alg_p, img))
    return ech


def _basis_vec(alg, x: AlgElement):
    vec = [alg.field.zero] * len(alg.basis)
    for p, c in x.terms.items():
        vec[alg.basis_index[p]] = c
    return vec


def verify_moduli_witness(alg: AlgebraPresentation, report: ModuliCriterionReport) -> bool:
    """Re-check a negative witness: lambda*omega must escape Lambda*lambda."""
    if report.holds or report.witness_lambda is None:
        return False
    f = report.witness_lambda.field
    alg_p = with_field(alg, f)
    lam = report.witness_lambda
    lam_om = alg_p.normal_form(
        lam.mul(AlgElement.of_path(f, report.witness_omega), maxlen=alg_p.loewy_bound + 1)
    )
    return not lam_om.is_zero() and not _cyclic_span(alg_p, lam).contains(
        _basis_vec(alg_p, lam_om)
    )


@dataclass(frozen=True)
class ModuliReport:
    """Per-point verdicts for one submodule point."""

    fully_invariant: bool
    invariance_witness: Optional[Tuple[Path, tuple]]
    orbit_dimension: int
    unipotent_orbit_dimension: int
    split_count_holds: bool
    split_into_locals_checked: bool  # vacuous for a simple top
    provenance: str = "symbolic"


def point_report(alg: AlgebraPresentation, point: SubmodulePoint) -> ModuliReport:
    inv = is_fully_invariant(alg, point)
    return ModuliReport(
        fully_invariant=inv.holds,
        invariance_witness=None if inv.holds else (inv.witness_path, inv.witness_row),
        orbit_dimension=orbit_dim(alg, point),
        unipotent_orbit_dimension=unipotent_orbit_dim(alg, point),
        split_count_holds=top_multiplicity_criterion(alg, point),
        split_into_locals_checked=len(point.cover.slots) == 1,
    )


@dataclass
class LocalTypeReport:
    """Finite local representation type evidence over one finite field."""

    vertex: int
    q: int
    per_d: Tuple[Tuple[int, int, int, int], ...]  # (d, points, layering classes, iso classes)
    layering_determines_iso: bool
    charts_single_orbits: bool
    provenance: str = "finite-field"

    @property
    def verdict(self):
        return self.layering_determines_iso and self.charts_single_orbits


def finite_local_type_check(alg: AlgebraPresentation, e, q: int, config=None) -> LocalTypeReport:
    """Oracle evidence for finite local type at the simple top S_e over F_q.

    For every d up to dim P, points are grouped by radical layering and by
    isomorphism class (the layering must determine the class), and every
    nonempty chart must consist of a single orbit.
    """
    from .charts import has_skeleton
    from .oracle import OracleConfig, enumerate_points, iso_classes, orbits
    from .skeletons import compatible, enumerate_skeletons

    config = config or OracleConfig()
    alg_q = with_field(alg, GF(q))
    cover = ProjectiveCover(alg_q, (e,))
    dim_p = cover.dim
    per_d = []
    layering_ok = True
    charts_ok = True
    for d in range(1, dim_p + 1):
        scene = enumerate_points(alg_q, (e,), d, config)
        lay_classes = scene.layering_classes()
        iso = iso_classes(scene)
        per_d.append((d, len(scene.points), len(lay_classes), len(iso)))
        if len(lay_classes) != len(iso):
            layering_ok = False
        else:
            iso_of_point = {}
            for k, cls in enumerate(iso):
                for i in cls:
                    iso_of_point[i] = k
            for members in lay_classes.values():
                if len({iso_of_point[i] for i in members}) != 1:
                    layering_ok = False
        orbit_of_point = {}
        for k, orb in enumerate(orbits(scene)):
            for i in orb:
                orbit_of_point[i] = k
        layerings = scene.layerings()
        vs = alg_q.quiver.vertices
        for sk in enumerate_skeletons(alg_q, (e,), d):
            members = [
                i
                for i in range(len(scene.points))
                if compatible(sk, layerings[i], vs)
                and has_skeleton(alg_q, scene.points[i], sk)
            ]
            if members and len({orbit_of_point[i] for i in members}) != 1:
                charts_ok = False
    return LocalTypeReport(
        vertex=e,
        q=q,
        per_d=tuple(per_d),
        layering_determines_iso=layering_ok,
        charts_single_orbits=charts_ok,
    )
