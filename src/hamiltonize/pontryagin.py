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

G1 and G2 charge the coordinates exactly as the first and second closed-form
models do, so neither cost decides its own layout: each reads the ``kinetic``
and ``terms`` of the model ``cost_model`` returns (``MODEL_KINDS`` maps g1 to
first and g2 to second), with the same coefficients C_b / a_b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularVelocityError
from .systems import SystemSpec
from .variational import LagrangianModel, PhaseState, hamiltonian_model

__all__ = [
    "ControlVector",
    "controlled_rhs",
    "controlled_ode",
    "cost",
    "cost_model",
    "pontryagin_hamiltonian",
    "optimal_controls",
    "optimal_hamiltonian_value",
]

MODEL_KINDS = {"g1": "first", "g2": "second"}  # the model each cost reproduces
U1_MIN = 1e-6


@dataclass(frozen=True)
class ControlVector:
    """Controls (u_1, u_a) of the associated first-order system."""

    u1: float
    ua: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ua", tuple(float(v) for v in self.ua))


def cost_model(sys: SystemSpec, kind: str, coefficients=None) -> LagrangianModel:
    """The closed-form model whose layout and coefficients cost ``kind``
    uses; its Hamiltonian is the one the cost reproduces.  Like the second
    model, G2 is rejected on a system whose measure density is not
    constant."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown cost kind {kind!r}")
    return hamiltonian_model(sys, MODEL_KINDS[kind], coefficients)


def controlled_rhs(sys: SystemSpec, q, u: ControlVector, kind: str = "g1") -> np.ndarray:
    """Position derivative (r1', q_a') of the controlled first-order system."""
    model = cost_model(sys, kind)
    r1 = float(q[0])
    out = np.empty(sys.n)
    out[0] = u.u1
    for b, _ in model.kinetic:
        out[b] = u.ua[b - 1]  # charged kinetically, so its control is unweighted
    for b, _, e_fn, _ in model.terms:
        out[b] = u.ua[b - 1] * e_fn(r1)
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
    model = cost_model(sys, kind, coefficients)
    if abs(u.u1) < U1_MIN:
        raise SingularVelocityError("cost undefined for u_1 near zero")
    r1 = float(q[0])
    value = sys.i1 * u.u1**2
    for b, inertia in model.kinetic:
        value += inertia * u.ua[b - 1] ** 2
    for b, c, e_fn, _ in model.terms:
        value += c * e_fn(r1) * u.ua[b - 1] ** 2 / u.u1
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
    model = cost_model(sys, kind, coefficients)
    p = ps.p
    u1 = model.momentum_sum(ps.r1, p) / sys.i1
    if abs(u1) < U1_MIN:
        raise SingularVelocityError("degenerate optimal control: u_1 near zero")
    ua = [0.0] * (sys.n - 1)
    for b, inertia in model.kinetic:
        ua[b - 1] = p[b] / inertia
    for b, c, _, _ in model.terms:
        ua[b - 1] = p[b] * u1 / c
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
