"""Exact intersection-closure constructions and their ring structure."""

from .analysis import (
    Certificate,
    MembershipSolver,
    NotRing,
    Ring,
    RingContext,
    Unknown,
    check_ring,
    lattice_coordinates,
    quadratic_integer_test,
    same_lattice,
    tangent_point,
    verify_certificate,
)
from .construction import (
    ConstructionConfig,
    ElementaryMonomial,
    GenerationSet,
    ProjectionSet,
    closure_to_depth,
    elementary_monomials,
    initial_generation,
    nontrivial_monomials,
    projection_set,
    step,
)
from .cyclotomic import CyclotomicElement, cyclotomic_polynomial, euler_phi
from .density import DensityWitness, approximate, find_scaling_projection
from .errors import (
    BackendMismatchError,
    CapExceededError,
    NonInvertibleError,
    OrigamiError,
    ParallelLinesError,
    PrecisionError,
    ScalingProjectionNotFoundError,
    UnsupportedConfigurationError,
)
from .geometry import AngleSet, UnitAngle, bracket, intersect
from .intervals import ComplexInterval
from .ratfunc import ParamRational
from .scalars import (
    ExactScalar,
    Rational,
    as_scalar,
    ceil_exact,
    real_imag_parts,
    real_sign,
    scalar_from_obj,
)

root_of_unity = CyclotomicElement.root_of_unity

__version__ = "0.1.0"

__all__ = [
    "AngleSet",
    "BackendMismatchError",
    "CapExceededError",
    "Certificate",
    "ComplexInterval",
    "ConstructionConfig",
    "CyclotomicElement",
    "DensityWitness",
    "ElementaryMonomial",
    "ExactScalar",
    "GenerationSet",
    "MembershipSolver",
    "NonInvertibleError",
    "NotRing",
    "OrigamiError",
    "ParallelLinesError",
    "ParamRational",
    "PrecisionError",
    "ProjectionSet",
    "Rational",
    "Ring",
    "RingContext",
    "ScalingProjectionNotFoundError",
    "Unknown",
    "UnitAngle",
    "UnsupportedConfigurationError",
    "approximate",
    "as_scalar",
    "bracket",
    "ceil_exact",
    "check_ring",
    "closure_to_depth",
    "cyclotomic_polynomial",
    "elementary_monomials",
    "euler_phi",
    "find_scaling_projection",
    "initial_generation",
    "intersect",
    "lattice_coordinates",
    "nontrivial_monomials",
    "projection_set",
    "quadratic_integer_test",
    "real_imag_parts",
    "real_sign",
    "root_of_unity",
    "scalar_from_obj",
    "same_lattice",
    "step",
    "tangent_point",
    "verify_certificate",
]
