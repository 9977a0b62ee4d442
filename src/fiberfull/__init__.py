"""Exact computer algebra for graded local cohomology over a parameter line:
Groebner bases, free resolutions and Betti tables, Ext-duality Hilbert
functions, fiber-fullness certificates, and square-free initial-degeneration
verification.
"""

from .errors import (
    AlgebraError,
    InfiniteDimensionError,
    InvalidArgumentError,
    InvalidFieldError,
    InvalidGradingError,
    OrderMismatchError,
    ParseError,
    RingMismatchError,
    TheoremViolationError,
    UnknownCommandError,
    WeightVectorMismatchError,
)
from .ext import ext_modules, hilbert_function, local_cohomology_hilbert, local_cohomology_tables
from .fields import GF, QQ
from .fiberfull import (
    DegenerationReport,
    FiberFullReport,
    TorsionCertificate,
    fiber_full_check,
    fiber_full_locus,
    fiber_hilbert_compare,
    parameter_torsion,
    specialize_presentation,
    verify_degeneration,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    colon,
    contract_to_parameter,
    homogenize_omega,
    initial_module,
    is_squarefree,
    module_kernel,
    normal_form,
    saturate,
    syzygies,
    weight_vector_for,
)
from .hilbert import HilbertTable, monomials_of_degree
from .hochster import hochster_hilbert
from .modules import GradedFreeModule, PolyVector, SubmodulePresentation
from .orders import TermOrder, TOPOrder, order_from_string
from .parser import ProblemSpec, parse_input, parse_polynomial
from .resolution import (
    BettiTable,
    Resolution,
    betti_table,
    depth_and_regularity,
    free_resolution,
    krull_dimension,
)
from .rings import GradedRing, Polynomial, evaluate_parameter, make_ring, parameter_lcm, parameter_monic

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
