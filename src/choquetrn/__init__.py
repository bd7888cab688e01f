"""Exact Choquet integration and Radon-Nikodym derivatives for monotone
measures on finite spaces.

The library works entirely over exact extended rationals: measures, simple
functions, Choquet integrals, decreasing threshold families, the two-sided
decomposition inequalities, density construction and refutation, the additive
special case, and finitely-truncated models of countable spaces.
"""

from .choquet import (
    IntegralBreakdown,
    choquet_integral,
    choquet_value,
    indefinite_integral_measure,
    is_comonotone,
)
from .decomposition import (
    Band,
    DecompositionFamily,
    DecompositionReport,
    PairRecord,
    RnReport,
    check_decomposition,
    derive_function,
    dyadic_approximant,
    family_from_function,
    lemma_tail_check,
    make_family,
    verify_rn,
)
from .errors import (
    ChoquetRnError,
    InvalidFamilyError,
    InvalidMeasureError,
    NotAbsolutelyContinuousError,
    NotAdditiveError,
    PreconditionError,
    SpaceMismatchError,
    SpecFileError,
)
from .extreal import INF, ONE, ZERO, ExtReal, ext_max, ext_min, ext_sum
from .fixtures import fixture_f1, fixture_f2, fixture_f3, fixture_f4
from .functions import (
    AeComparison,
    SimpleFunction,
    constant_function,
    equal_ae,
    function_from_values,
    indicator_function,
)
from .measures import (
    MonotoneMeasure,
    abs_continuous,
    additive_measure,
    cardinality_measure,
    has_property_sigma,
    indicator_full_measure,
    is_null_additive,
    is_weakly_null_additive,
    make_measure,
    max_weight_measure,
    measure_from_table,
    strongly_abs_continuous,
    zero_measure,
)
from .results import Verdict, Witness
from .sigma_finite import (
    GlueResult,
    SigmaFiniteReport,
    TruncationModel,
    glue_derivative,
    make_truncation_model,
    threshold_tail_family,
    verify_sigma_finite,
)
from .solver import (
    ClassicalReport,
    SolverCertificate,
    classical_family,
    classical_rn_check,
    density_ratios,
    hahn_positive_set,
    solve_rn,
)
from .spaces import MeasurableSet, MeasurableSpace, build_space
from .specio import ProblemSpec, load_problem, parse_problem, problem_to_dict

__version__ = "0.1.0"

__all__ = [
    "AeComparison",
    "Band",
    "ChoquetRnError",
    "ClassicalReport",
    "DecompositionFamily",
    "DecompositionReport",
    "ExtReal",
    "GlueResult",
    "INF",
    "IntegralBreakdown",
    "InvalidFamilyError",
    "InvalidMeasureError",
    "MeasurableSet",
    "MeasurableSpace",
    "MonotoneMeasure",
    "NotAbsolutelyContinuousError",
    "NotAdditiveError",
    "ONE",
    "PairRecord",
    "PreconditionError",
    "ProblemSpec",
    "RnReport",
    "SigmaFiniteReport",
    "SimpleFunction",
    "SolverCertificate",
    "SpaceMismatchError",
    "SpecFileError",
    "TruncationModel",
    "Verdict",
    "Witness",
    "ZERO",
    "abs_continuous",
    "additive_measure",
    "build_space",
    "cardinality_measure",
    "check_decomposition",
    "choquet_integral",
    "choquet_value",
    "classical_family",
    "classical_rn_check",
    "constant_function",
    "density_ratios",
    "derive_function",
    "dyadic_approximant",
    "equal_ae",
    "ext_max",
    "ext_min",
    "ext_sum",
    "family_from_function",
    "fixture_f1",
    "fixture_f2",
    "fixture_f3",
    "fixture_f4",
    "function_from_values",
    "glue_derivative",
    "hahn_positive_set",
    "has_property_sigma",
    "indefinite_integral_measure",
    "indicator_full_measure",
    "indicator_function",
    "is_comonotone",
    "is_null_additive",
    "is_weakly_null_additive",
    "lemma_tail_check",
    "load_problem",
    "make_family",
    "make_measure",
    "make_truncation_model",
    "max_weight_measure",
    "measure_from_table",
    "parse_problem",
    "problem_to_dict",
    "solve_rn",
    "strongly_abs_continuous",
    "threshold_tail_family",
    "verify_rn",
    "verify_sigma_finite",
    "zero_measure",
]
