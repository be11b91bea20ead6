"""Affine charts and finite-field oracles for Grassmannians of quotients of a
projective cover with fixed squarefree top, over a quiver algebra given by
quiver and relations."""

from .errors import (
    AdmissibilityError,
    LoewyBoundError,
    NotOnChartError,
    NotSubmoduleError,
    OracleScaleError,
    ParseError,
    QuivergrassError,
    RankError,
    SemanticError,
    SkeletonMismatchError,
    TopNotSquarefreeError,
)
from .fields import GF, QQ, parse_field
from .presentation import (
    AlgElement,
    AlgebraPresentation,
    Arrow,
    Path,
    Quiver,
    all_paths,
    build_algebra,
    with_field,
)
from .representations import (
    ProjectiveCover,
    Representation,
    SemisimpleSequence,
    SubmodulePoint,
    hom_basis,
    quotient_rep,
    radical_layering,
)
from .skeletons import (
    CriticalPair,
    Skeleton,
    compatible,
    critical_pairs,
    enumerate_skeletons,
    is_route,
    make_skeleton,
)
from .charts import (
    ChartIdeal,
    chart_ideal,
    has_skeleton,
    point_from_submodule,
    submodule_from_point,
)
from .oracle import (
    OracleScene,
    cross_validate_chart,
    enumerate_points,
    gaussian_binomial,
    iso_classes,
    orbits,
)
from .moduli import (
    simple_top_moduli_criterion,
    finite_local_type_check,
    is_fully_invariant,
    orbit_dim,
    top_multiplicity_criterion,
    unipotent_orbit_dim,
)

__version__ = "0.1.0"
