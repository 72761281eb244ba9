"""Exception types shared across the package.

The split matters for the command-line front end: configuration problems
(bad flags, unparsable system files) map to exit code 1, evaluation
failures at runtime (domain errors, singular coefficients) to exit code 2.
"""


class ConfigError(Exception):
    """A system specification or run manifest failed validation."""


class ExprParseError(ConfigError):
    """Syntax or identifier error while parsing an expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(Exception):
    """A model could not be evaluated at the requested point."""


class ExprDomainError(EvaluationError):
    """An expression was evaluated outside its domain (ln of a non-positive
    number, division by zero, tangent at a pole, overflow)."""


class SingularVelocityError(EvaluationError):
    """An operation that is only defined away from r1dot = 0 was evaluated
    on or too close to that set."""


class CoefficientSingularityError(EvaluationError):
    """A constraint coefficient A_alpha or its weight N*A_alpha vanished where an
    operation divides by it.  Carries the offending constraint index (0-based)."""

    def __init__(self, alpha: int, r1: float):
        super().__init__(
            f"constraint coefficient A[{alpha}] vanishes at r1={r1!r}"
        )
        self.alpha = alpha
        self.r1 = r1


class SingularHessianError(EvaluationError):
    """The velocity Hessian of a Lagrangian is numerically singular at the
    evaluation point, so accelerations cannot be solved for."""


def weight_vanishes(entry: int, r1: float) -> EvaluationError:
    """The error for the weight ``SystemSpec.exp_xi_exprs[entry]`` vanishing at
    ``r1``: ExprDomainError for r2's, CoefficientSingularityError for s_a's N*A_a."""
    if entry == 0:  # float(): a numpy scalar would print as np.float64(...)
        return ExprDomainError(f"velocity weight 0 vanishes at r1={float(r1)!r}")
    return CoefficientSingularityError(entry - 1, float(r1))


class GridMismatchError(ValueError):
    """Two trajectories do not share a time grid and cannot be compared."""


class IntegrationAborted(EvaluationError):
    """An integration hit an evaluation error mid-run.

    Carries the time of failure, the partial trajectory accumulated so far
    and the underlying cause.
    """

    def __init__(self, time: float, trajectory, cause: Exception):
        super().__init__(f"integration aborted at t={time}: {cause}")
        self.time = time
        self.trajectory = trajectory
        self.cause = cause
