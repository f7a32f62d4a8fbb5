"""Sup-norm bounds for derivatives of Stein-equation solutions.

The package computes rigorous coefficient bounds on ||f^(n)|| for the
distinguished solutions of a catalog of Stein equations via an iterative
chaining technique, and verifies them numerically by solving each
equation through its explicit integral representation.
"""

from .catalog import (
    DistributionSpec,
    FAMILIES,
    catalog_json,
    langevin_exponents,
    make_spec,
    quantile,
    quartic_a_coeffs,
    refined_small_case_constants,
    vg_base_constants,
)
from .closedform import bound_for, closed_form_bound
from .engine import (
    BoundCoefficients,
    IterationScheme,
    NormSymbol,
    a_coefficient,
    coefficients,
    deriv_coupled_bound,
    enumerate_subsets,
    enumerated_mixed_bound,
    index_set,
    mixed_coupled_bound,
    recursion_oracle,
    value_coupled_bound,
)
from .errors import NumericError, ValidityError
from .solver import (
    CosineTest,
    Mesh,
    PolyProbe,
    SineTest,
    SteinSolution,
    build_mesh,
    empirical_sup,
    expectation,
    parse_test_function,
    propagate_derivatives,
    solve,
)
from .verifier import (
    VerificationReport,
    check_bessel_inequalities,
    check_mills_ratio,
    check_operator_identity,
    check_quartic_identities,
    sweep,
    verify,
)

__version__ = "0.1.0"
