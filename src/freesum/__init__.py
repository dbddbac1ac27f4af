"""Exact lattice-point generating functions for free sums of rational polytopes."""

from .cones import (
    ConeOverPolytope, LambdaP, ShiftSearchResult, cone_over, embed_at_height_one, lambda_p,
    llenv_points, shifted_envelope_lattice_points, shifted_envelope_nonempty,
)
from .errors import (
    ClassificationError, FreesumError, InconclusiveError, InputError, InternalCheckError,
    PreconditionError, TruncationError,
)
from .freesums import (
    AFFINE_FREE_SUM, FREE_SUM, BraunVerdict, ConverseReport, DecompositionReport,
    EnvelopeCondition, FreeSumWitness, UnivariateBraunVerdict, check_braun_multivariate,
    check_braun_univariate, classify_sum, converse_search, decompose_sigma, decomposition_check,
    envelope_condition_check, gorenstein_affine_check, hull_union,
)
from .linalg import (
    IntMatrix, LatticeBasis, complementary_in, hnf, in_pos_hull, lattice_basis_of_span,
)
from .polytopes import (
    DualPolyhedron, GorensteinData, HalfspaceRep, RationalPolytope, denominator, dual_denominator,
    gorenstein_data, halfspace_rep, interior_lattice_points_in_dilate, is_lattice_polyhedron,
    is_reflexive, lattice_points_in_dilate, polar_dual,
)
from .series import (
    DeltaPolynomial, TruncatedSeries, UnivariateSeries, apply_one_minus_monomial,
    delta_polynomial, ehrhart_series, series_mul, sigma_cone,
)

__version__ = "0.1.0"

__all__ = [
    # cones
    "ConeOverPolytope", "LambdaP", "ShiftSearchResult", "cone_over", "embed_at_height_one",
    "lambda_p", "llenv_points", "shifted_envelope_lattice_points", "shifted_envelope_nonempty",
    # errors
    "ClassificationError", "FreesumError", "InconclusiveError", "InputError", "InternalCheckError",
    "PreconditionError", "TruncationError",
    # freesums
    "AFFINE_FREE_SUM", "FREE_SUM", "BraunVerdict", "ConverseReport", "DecompositionReport",
    "EnvelopeCondition", "FreeSumWitness", "UnivariateBraunVerdict", "check_braun_multivariate",
    "check_braun_univariate", "classify_sum", "converse_search", "decompose_sigma",
    "decomposition_check", "envelope_condition_check", "gorenstein_affine_check", "hull_union",
    # linalg
    "IntMatrix", "LatticeBasis", "complementary_in", "hnf", "in_pos_hull",
    "lattice_basis_of_span",
    # polytopes
    "DualPolyhedron", "GorensteinData", "HalfspaceRep", "RationalPolytope", "denominator",
    "dual_denominator", "gorenstein_data", "halfspace_rep", "interior_lattice_points_in_dilate",
    "is_lattice_polyhedron", "is_reflexive", "lattice_points_in_dilate", "polar_dual",
    # series
    "DeltaPolynomial", "TruncatedSeries", "UnivariateSeries", "apply_one_minus_monomial",
    "delta_polynomial", "ehrhart_series", "series_mul", "sigma_cone",
]
