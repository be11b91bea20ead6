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
    TopMismatchError,
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
    dim_vector,
    hom_basis,
    hom_dim,
    multiplicity_mu,
    quotient_rep,
    radical_layering,
    radical_submodule,
    sseq_leq,
    submodule_as_rep,
    validate_representation,
)
from .skeletons import (
    CriticalPair,
    Skeleton,
    compatible,
    critical_pairs,
    enumerate_skeletons,
    is_route,
    make_skeleton,
    skeleton_of,
)
from .charts import (
    ChartIdeal,
    chart_ideal,
    has_skeleton,
    module_from_point,
    point_from_submodule,
    reduce,
    submodule_from_point,
    transition_matrix,
)
from .oracle import (
    OracleConfig,
    OracleScene,
    cross_validate_chart,
    enumerate_points,
    gaussian_binomial,
    iso_classes,
    orbit_size_consistency,
    orbits,
    unipotent_orbits,
)
from .moduli import (
    simple_top_moduli_criterion,
    finite_local_type_check,
    is_fully_invariant,
    orbit_dim,
    point_report,
    top_multiplicity_criterion,
    unipotent_orbit_dim,
)

__version__ = "0.1.0"
