"""Hamiltonization of a class of nonholonomic mechanical systems.

Given a system on coordinates (r1, r2, s_1..s_k) with kinetic Lagrangian and
velocity constraints sdot_a = -A_a(r1) r2dot, this package

* evaluates the constrained dynamics and the invariant-measure density,
* builds the associated second-order systems in normal form,
* certifies or refutes the multiplier (Helmholtz) conditions numerically,
* constructs the closed-form Lagrangians and Hamiltonians together with
  their phase-space constraint sets, and
* verifies by integration that the restricted canonical flow reproduces the
  nonholonomic motion, with an optimal-control cross-check.
"""

from .errors import (
    CoefficientSingularityError,
    ConfigError,
    EvaluationError,
    ExprDomainError,
    ExprParseError,
    GridMismatchError,
    IntegrationAborted,
    SingularHessianError,
    SingularVelocityError,
)
from .expr import Expr, parse_expr
from .systems import (
    Jet,
    SystemSpec,
    builtin_system,
    disk_closed_form_state,
    load_system_file,
    measure_pde_residual,
    nonholonomic_ode,
    parse_system_file,
)
from .sode import SodeSystem, first_associated, second_associated, third_associated
from .integrate import CompareMetrics, IntegratorConfig, Trajectory, compare, integrate
from .helmholtz import (
    CertificateReport,
    HelmholtzReport,
    MultiplierField,
    algebraic_system,
    helmholtz_residuals,
    nabla,
    nabla_phi,
    nullspace,
    phi,
    singularity_certificate,
)
from .variational import (
    LagrangianModel,
    PhaseState,
    default_coefficients,
    euler_lagrange_rhs,
    hamilton_rhs,
    hamiltonian_value,
    hessian,
    hessian_field,
    lagrangian_model,
    lagrangian_value,
    legendre,
    legendre_inverse,
    phase_constraint_residual,
)
from .pontryagin import (
    OptimalControlReport,
    controlled_rhs,
    cost,
    optimal_control_check,
    optimal_controls,
    optimal_hamiltonian_value,
    pontryagin_hamiltonian,
)

__version__ = "0.1.0"
