"""Furstenberg-set constructions at finite resolution.

Build the sharp examples for the box- and packing-dimension line-family
problems, measure covering numbers and dimension exponents, and run the
certified lower-bound extractions against the measured counts.
"""

from .boxcount import (
    CoverReport,
    PointCloud,
    dyadic_schedule,
    estimate_dimension,
    fit_slope,
    grid_count,
    grid_counts,
)
from .cantor import (
    CantorSpec,
    covering_count,
    covering_count_at_scale,
    points_at_depth,
    scaled_count_check,
    spec_for_dimension,
)
from .construct_box import (
    BoxSharpSpec,
    DirectionSequence,
    TranslationSequence,
    build_lines,
    build_points,
    calibrate_cover,
    k_of_delta,
    l_of_delta,
    make_directions,
    make_translations,
    predicted_cover,
)
from .construct_packing import (
    MarkedLineState,
    NeighborhoodCounts,
    ScaleSchedule,
    initial_state,
    intersection_profile,
    neighborhood_counts,
    predicted_step_factors,
    run_alternating,
    spread_lines,
    spread_marks,
)
from .grassmann import (
    DirectionCover,
    LineFamily,
    direction_cover,
    line_distances,
    mesh_cover_count,
    metric_d1,
    projection_distance,
)
from .verifier import (
    ExtractionCertificate,
    dimension_thresholds,
    pigeonhole_extract,
    tangent_margin,
    two_point_extract,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BoxSharpSpec",
    "CantorSpec",
    "CoverReport",
    "DirectionCover",
    "DirectionSequence",
    "ExtractionCertificate",
    "LineFamily",
    "MarkedLineState",
    "NeighborhoodCounts",
    "PointCloud",
    "ScaleSchedule",
    "TranslationSequence",
    "build_lines",
    "build_points",
    "calibrate_cover",
    "covering_count",
    "covering_count_at_scale",
    "dimension_thresholds",
    "direction_cover",
    "dyadic_schedule",
    "errors",
    "estimate_dimension",
    "fit_slope",
    "grid_count",
    "grid_counts",
    "initial_state",
    "intersection_profile",
    "k_of_delta",
    "l_of_delta",
    "line_distances",
    "make_directions",
    "make_translations",
    "mesh_cover_count",
    "metric_d1",
    "neighborhood_counts",
    "pigeonhole_extract",
    "points_at_depth",
    "predicted_cover",
    "predicted_step_factors",
    "projection_distance",
    "run_alternating",
    "scaled_count_check",
    "spec_for_dimension",
    "spread_lines",
    "spread_marks",
    "tangent_margin",
    "two_point_extract",
]
