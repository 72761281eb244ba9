"""Optimal-control route to the same Hamiltonians.

Because the decoupled associated system integrates by quadrature (r1' is
constant, q_a'/exp(xi_a) is constant), one can treat those constants as
controls of the first-order system

    r1' = u_1,    q_a' = u_a * exp(xi_a(r1))

and ask for controls minimizing an action-like running cost.  Two costs are
provided.  The first charges every coordinate through the weights of the
decoupled system:

    G1 = (1/2) (I1 u_1^2 + sum_a C_a exp(xi_a(r1)) u_a^2 / u_1).

The second, available only when the measure density is constant, charges r2
kinetically and keeps the weights on the constrained coordinates
(the r2 weight is constant then, so its control is taken unweighted):

    G2 = (1/2) (I1 u_1^2 + I2 u_2^2 + sum_s a_s exp(xi_s(r1)) u_s^2 / u_1).

Forming H = <p, f(x, u)> - G (normal multiplier convention, abnormal
extremals out of scope) and eliminating the controls at the stationary point
yields exactly the Hamiltonians of the variational module, a fact the test
suite checks by evaluating both routes independently.  Controls are only
meaningful for u_1 bounded away from zero; 1e-6 is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularVelocityError
from .systems import SystemSpec
from .variational import PhaseState, default_coefficients

__all__ = [
    "ControlVector",
    "controlled_rhs",
    "controlled_ode",
    "cost",
    "pontryagin_hamiltonian",
    "optimal_controls",
    "optimal_hamiltonian_value",
]

COST_KINDS = ("g1", "g2")
U1_MIN = 1e-6


@dataclass(frozen=True)
class ControlVector:
    """Controls (u_1, u_a) of the associated first-order system."""

    u1: float
    ua: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ua", tuple(float(v) for v in self.ua))


def _check_kind(sys: SystemSpec, kind: str):
    if kind not in COST_KINDS:
        raise ConfigError(f"unknown cost kind {kind!r}")
    if kind == "g2" and not sys.constant_measure:
        raise ConfigError(
            "the second cost requires a constant invariant measure density"
        )


def _coefficients(sys: SystemSpec, kind: str, coefficients) -> tuple[float, ...]:
    if coefficients is not None:
        return tuple(float(c) for c in coefficients)
    return default_coefficients(sys, "first" if kind == "g1" else "second")


def controlled_rhs(sys: SystemSpec, q, u: ControlVector, kind: str = "g1") -> np.ndarray:
    """Position derivative (r1', q_a') of the controlled first-order system."""
    _check_kind(sys, kind)
    weights = sys.weight_fns
    r1 = float(q[0])
    out = np.empty(sys.n)
    out[0] = u.u1
    for a in range(sys.n - 1):
        # G2 charges r2 kinetically, so its control is unweighted
        out[1 + a] = u.ua[a] * (1.0 if kind == "g2" and a == 0 else weights[a][0](r1))
    return out


def controlled_ode(sys: SystemSpec, control, kind: str = "g1"):
    """First-order right-hand side with a state-feedback control law.

    ``control`` maps (t, q) to a ControlVector; pass a constant one for
    open-loop runs.
    """

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        u = control(t, y) if callable(control) else control
        return controlled_rhs(sys, y, u, kind)

    return rhs


def cost(sys: SystemSpec, q, u: ControlVector, kind: str = "g1", coefficients=None) -> float:
    """Instantaneous running cost of the controls at position q."""
    _check_kind(sys, kind)
    coeffs = _coefficients(sys, kind, coefficients)
    if abs(u.u1) < U1_MIN:
        raise SingularVelocityError("cost undefined for u_1 near zero")
    weights = sys.weight_fns
    r1 = float(q[0])
    value = sys.i1 * u.u1**2
    if kind == "g1":
        for a in range(sys.n - 1):
            value += coeffs[a] * weights[a][0](r1) * u.ua[a] ** 2 / u.u1
    else:
        value += sys.i2 * u.ua[0] ** 2
        for a in range(sys.k):
            value += coeffs[a] * weights[1 + a][0](r1) * u.ua[1 + a] ** 2 / u.u1
    return 0.5 * value


def pontryagin_hamiltonian(
    sys: SystemSpec, ps: PhaseState, u: ControlVector, kind: str = "g1", coefficients=None
) -> float:
    """<p, f(q, u)> - G(q, u) with the normal multiplier set to one."""
    qdot = controlled_rhs(sys, ps.q, u, kind)
    return float(np.dot(ps.p, qdot)) - cost(sys, ps.q, u, kind, coefficients)


def optimal_controls(
    sys: SystemSpec, ps: PhaseState, kind: str = "g1", coefficients=None
) -> ControlVector:
    """The stationary point of the control Hamiltonian in u."""
    _check_kind(sys, kind)
    coeffs = _coefficients(sys, kind, coefficients)
    weights = sys.weight_fns
    r1 = ps.r1
    p = ps.p
    ua = [0.0] * (sys.n - 1)
    if kind == "g1":
        total = p[0]
        for a in range(sys.n - 1):
            total += 0.5 * weights[a][0](r1) * p[1 + a] ** 2 / coeffs[a]
        u1 = total / sys.i1
        if abs(u1) < U1_MIN:
            raise SingularVelocityError("degenerate optimal control: u_1 near zero")
        for a in range(sys.n - 1):
            ua[a] = p[1 + a] * u1 / coeffs[a]
    else:
        total = p[0]
        for a in range(sys.k):
            total += 0.5 * weights[1 + a][0](r1) * p[2 + a] ** 2 / coeffs[a]
        u1 = total / sys.i1
        if abs(u1) < U1_MIN:
            raise SingularVelocityError("degenerate optimal control: u_1 near zero")
        ua[0] = p[1] / sys.i2
        for a in range(sys.k):
            ua[1 + a] = p[2 + a] * u1 / coeffs[a]
    return ControlVector(u1, tuple(ua))


def optimal_hamiltonian_value(
    sys: SystemSpec, ps: PhaseState, kind: str = "g1", coefficients=None
) -> float:
    """Control Hamiltonian evaluated at the optimal controls.

    Deliberately computed through the <p, f> - G route rather than the
    squared closed form, so agreement with the variational module's
    Hamiltonians is a genuine two-route check.
    """
    u_star = optimal_controls(sys, ps, kind, coefficients)
    return pontryagin_hamiltonian(sys, ps, u_star, kind, coefficients)
