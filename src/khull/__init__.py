"""Generalized hulls, Poisson normal-bundle processes, and zero cells."""

from .bodies import (
    Ball,
    BallIntersection,
    EMPTY,
    EmptySet,
    GEO_TOL,
    HalfBall,
    HalfSpace,
    PolyhedralCone,
    Polytope,
    WHOLE_SPACE,
    WholeSpace,
    body_from_json,
    body_to_json,
    cross_polytope,
    cube,
)
from .empirical import (
    ExperimentReport,
    dual_cone_intensity_experiment,
    inclusion_functional_estimate,
    ks_statistic,
    so2_square_experiment,
    translation_box_experiment,
    uniform_sample,
    xn_membership,
)
from .hulls import (
    BallHullOracle,
    FAMILY_PRESETS,
    HullFamily,
    HullResult,
    generic_hull_membership,
    hull_full_affine,
    hull_linear_ball,
    hull_translations_scalings,
    k_hull_translations,
    positive_hull,
    spherical_hull_halfball,
)
from .matexp import matrix_exponential, skew_dim, skew_matrix
from .poisson import (
    BoundarySampler,
    PoissonSample,
    replicate_rngs,
    sample_PK,
    sample_PK_block,
    spawn_rng,
)
from .zerocell import (
    CONE_PRESETS,
    ConeSpec,
    HalfSpaceSystem,
    build_zero_cell,
    cone_preset,
    contains_reflected_recession,
    flatten_pair,
    halfspaces_from_marks,
    is_bounded,
    membership,
    reflect,
    restrict_to_cone,
    support_extent,
    transform_rotation_of_K,
    transform_translation_of_K,
)

__version__ = "0.1.0"
