"""Decision procedures for moduli existence and finite local type.

Full invariance of a submodule point decides the absence of proper
top-stable degenerations of its quotient.  It and both orbit dimensions are
read from the images of C's rows under the End(P) path basis that the
projective cover owns, modulo C (`SubmodulePoint.end_images`), the same
right action the oracle orbits use.  C is fully invariant when every image
vanishes, top idempotents included: at a top of several vertices the
trivial path e_v projects onto v's slot and can move C.  The stabiliser of
C in Aut(P) is the unit group of the kernel of phi -> (phi on C, modulo C),
so the orbit dimension is the rank of the images over the End(P) path
basis, 0 exactly at a fully invariant point, and the unipotent orbit
dimension their rank over the radical triples.  The quiver-level test for a
simple top S_e, lambda*omega in Lambda*lambda for every lambda in Je and
omega in eJe, is the same test in the basis of P = Lambda*e: each cyclic
submodule Lambda*lambda of JP must be fully invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from .charts import has_skeleton
from .errors import OracleScaleError, TopNotSquarefreeError
from .linalg import Echelon
from .oracle import enumerate_points, iso_classes, orbits
from .presentation import AlgElement, AlgebraPresentation, Path, with_field
from .fields import GF
from .representations import ProjectiveCover, SubmodulePoint
from .skeletons import enumerate_skeletons


@dataclass(frozen=True)
class InvarianceResult:
    holds: bool
    # right multiplication by this path moves the witness row out of C
    witness_path: Optional[Path] = None
    witness_row: Optional[tuple] = None

    def __bool__(self):
        return self.holds


def is_fully_invariant(alg: AlgebraPresentation, point: SubmodulePoint) -> InvarianceResult:
    """Whether the submodule is stable under every endomorphism of P.

    Endomorphisms of P are right multiplications by algebra elements running
    between the top vertices, spanned by the triples of `cover.end_basis`;
    for a squarefree top each basis path is one triple, and a trivial path
    e_v is the projection onto v's slot.  A triple keeps C when its vector
    of `point.end_images` is zero.  The first violating basis path (in path
    order, trivial paths included) and point row are returned as a witness.
    """
    cover = point.cover
    if not cover.squarefree:
        raise TopNotSquarefreeError("full invariance needs a squarefree top")
    images = point.end_images
    if any(map(any, images)):
        n = point.quotient_dim
        for triple, vec in sorted(zip(cover.end_basis, images), key=lambda tv: alg.basis_index[tv[0][2]]):
            for k, row in enumerate(point.rows):
                if any(vec[k * n : (k + 1) * n]):
                    return InvarianceResult(False, triple[2], row)
    return InvarianceResult(True)


def orbit_dim(alg: AlgebraPresentation, point: SubmodulePoint) -> int:
    """dim End(P) - dim Hom(P, C) - dim End(P/C), the rank of
    phi -> (phi on C, modulo C) over End(P)."""
    return point.orbit_ranks[0]


def unipotent_orbit_dim(alg: AlgebraPresentation, point: SubmodulePoint) -> int:
    """dim Hom(P, JM) - dim Hom(M, JM) for M = P/C, the rank of
    phi -> (phi on C, modulo C) over Hom(P, JP)."""
    return point.orbit_ranks[1]


def top_multiplicity_criterion(alg, point) -> bool:
    """Numeric half of the singleton-orbit criterion: the multiplicity of the
    top simples in M, sum_s dim M_{v_s}, equals t + dim Hom(M, JM), that is,
    the unipotent orbit dimension is 0."""
    if not point.cover.squarefree:
        raise TopNotSquarefreeError("the criterion needs a squarefree top")
    return point.orbit_ranks[1] == 0


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
    the provenance recorded: lambda runs over the nonzero vectors of JP, in
    the basis of P = Lambda*e, and Lambda*lambda, the closure of lambda
    under the arrows, must be fully invariant.
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
    cover = ProjectiveCover(alg_p, (e,))
    je_cols = [i for i, (_, p) in enumerate(cover.basis) if p.length >= 1]
    if prime ** len(je_cols) > budget:
        raise OracleScaleError(
            f"{prime}^{len(je_cols)} candidates for lambda exceed the budget {budget}"
        )
    for coeffs in itertools.product(list(f.elements()), repeat=len(je_cols)):
        if not any(coeffs):
            continue
        lam = [f.zero] * cover.dim
        for i, c in zip(je_cols, coeffs):
            lam[i] = c
        span = cover.closure(Echelon(f, cover.dim), [lam])
        # Lambda*lambda*omega = Lambda*(lambda*omega): the first omega that
        # moves a row of Lambda*lambda out of it moves lambda out of it
        inv = is_fully_invariant(alg_p, SubmodulePoint(cover, span.snapshot()))
        if not inv:
            [(_, witness)] = cover.element_of(lam)
            return ModuliCriterionReport(
                False,
                "finite-field",
                False,
                False,
                prime=prime,
                witness_lambda=witness,
                witness_omega=inv.witness_path,
            )
    return ModuliCriterionReport(True, "finite-field", False, False, prime=prime)


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


def finite_local_type_check(alg: AlgebraPresentation, e, q: int, budget: int = 10 ** 6) -> LocalTypeReport:
    """Oracle evidence for finite local type at the simple top S_e over F_q.

    For every d up to dim P, points are grouped by radical layering and by
    isomorphism class, and the layering must determine the class: every
    class lies in one layering class (`iso_classes` keys by the layering),
    so it does exactly when the two counts agree.  Every nonempty chart
    must consist of a single orbit.
    """
    alg_q = with_field(alg, GF(q))
    cover = ProjectiveCover(alg_q, (e,))
    dim_p = cover.dim
    per_d = []
    layering_ok = True
    charts_ok = True
    for d in range(1, dim_p + 1):
        scene = enumerate_points(alg_q, (e,), d, budget)
        lay_classes = scene.layering_classes
        iso = iso_classes(scene)
        per_d.append((d, len(scene.points), len(lay_classes), len(iso)))
        if len(lay_classes) != len(iso):
            layering_ok = False
        orbit_of_point = {}
        for k, orb in enumerate(orbits(scene)):
            for i in orb:
                orbit_of_point[i] = k
        for sk in enumerate_skeletons(alg_q, (e,), d):
            members = [
                i
                for i in scene.skeleton_candidates(sk)
                if has_skeleton(alg_q, scene.points[i], sk)
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
