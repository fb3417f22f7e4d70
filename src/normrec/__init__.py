"""Exact arithmetic toolkit for norm form equations and multi-recurrences:
number field arithmetic over Q, unit systems and decompositions, component
recurrences of solution families, coincidence detection with symbolically
verified exception certificates, zero structure of linear recurrences, and
generalized unit equations.
"""

from .errors import (
    DecompositionFailed,
    DegreeCapExceeded,
    DimensionCapExceeded,
    DivisionByZero,
    NoNonsingularSelection,
    NonIntegerBase,
    NonMonic,
    NonSimpleUnsupported,
    NormrecError,
    NotAUnit,
    NotSquarefree,
    ReducibleMinPoly,
    ShapeMismatch,
)
from .numberfield import (
    NumberField,
    NumberFieldElement,
    SplittingContainer,
    char_poly,
    factor_over_field,
    field_create,
    is_algebraic_integer,
    is_root_of_unity,
    min_poly_of,
    norm,
    splitting_container,
    torsion_units,
    trace,
)
from .units import (
    UnitDecomposition,
    UnitSystem,
    auto_unit_system,
    fundamental_unit_real_quadratic,
    is_unit,
    unit_decompose,
    verify_unit_system,
)
from .multirec import (
    MultiProgression,
    MultiRecurrence,
    ShiftedSublattice,
    ZeroStructure,
    is_zero_on_progression,
    mr_reduce,
    sml_zero_structure,
)
from .normform import (
    ComponentRecurrence,
    EmbeddingMatrix,
    NormFormProblem,
    RepresentativeSet,
    build_component_recurrences,
    embedding_matrix,
    lift,
    norm_representatives,
    solve_bruteforce,
)
from .uniteq import (
    CascadeReport,
    GroupSpec,
    UnitEqSolution,
    degenerate_cascade,
    ess_bound,
    solve_unit_equation,
    vanishing_subsums,
)
from .intersect import (
    ExceptionCertificate,
    FinitenessReport,
    Hit,
    IntersectConfig,
    detect_exception,
    detect_reduced_exception,
    find_coincidences,
    fit_affine_lattice,
    result_document,
    sample_verify,
)

__version__ = "0.1.0"
