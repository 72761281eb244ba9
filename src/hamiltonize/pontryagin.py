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
models do, so neither cost decides its own layout.  ``cost_model`` is the one
map from a cost to its model (``MODEL_KINDS``: g1 to first, g2 to second,
with the same coefficients C_b / a_b); every other function here takes that
model and reads its ``kinetic`` and ``terms``.  Controls are a sequence
indexed like the coordinates: u[0] is u_1 and u[b] the control of
coordinate b.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SingularVelocityError
from .systems import SystemSpec
from .variational import LagrangianModel, PhaseState, hamiltonian_model

__all__ = [
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


def cost_model(sys: SystemSpec, kind: str, coefficients=None) -> LagrangianModel:
    """The closed-form model whose layout and coefficients cost ``kind``
    uses; its Hamiltonian is the one the cost reproduces.  Like the second
    model, G2 is rejected on a system whose measure density is not
    constant."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown cost kind {kind!r}")
    return hamiltonian_model(sys, MODEL_KINDS[kind], coefficients)


def controlled_rhs(model: LagrangianModel, q, u) -> list:
    """Position derivative (r1', q_b') of the controlled first-order system.
    Coordinates the model charges kinetically keep their controls
    unweighted."""
    r1 = float(q[0])
    out = list(u)
    for b, _, e_fn, _ in model.terms:
        out[b] = u[b] * e_fn(r1)
    return out


def controlled_ode(model: LagrangianModel, control):
    """First-order right-hand side with a state-feedback control law.

    ``control`` maps (t, q) to a control sequence; pass a constant one for
    open-loop runs.
    """

    def rhs(t: float, y) -> list:
        u = control(t, y) if callable(control) else control
        return controlled_rhs(model, y, u)

    return rhs


def cost(model: LagrangianModel, q, u) -> float:
    """Instantaneous running cost of the controls at position q."""
    u1 = u[0]
    if abs(u1) < U1_MIN:
        raise SingularVelocityError("cost undefined for u_1 near zero")
    r1 = float(q[0])
    value = model.system.i1 * u1**2
    for b, inertia in model.kinetic:
        value += inertia * u[b] ** 2
    for b, c, e_fn, _ in model.terms:
        value += c * e_fn(r1) * u[b] ** 2 / u1
    return 0.5 * value


def pontryagin_hamiltonian(model: LagrangianModel, ps: PhaseState, u) -> float:
    """<p, f(q, u)> - G(q, u) with the normal multiplier set to one."""
    qdot = controlled_rhs(model, ps.q, u)
    return float(np.dot(ps.p, qdot)) - cost(model, ps.q, u)


def optimal_controls(model: LagrangianModel, ps: PhaseState) -> tuple[float, ...]:
    """The stationary point of the control Hamiltonian in u."""
    p = ps.p
    u1 = model.momentum_sum(ps.r1, p) / model.system.i1
    if abs(u1) < U1_MIN:
        raise SingularVelocityError("degenerate optimal control: u_1 near zero")
    u = [u1] + [0.0] * (len(p) - 1)
    for b, inertia in model.kinetic:
        u[b] = p[b] / inertia
    for b, c, _, _ in model.terms:
        u[b] = p[b] * u1 / c
    return tuple(u)


def optimal_hamiltonian_value(model: LagrangianModel, ps: PhaseState) -> float:
    """Control Hamiltonian evaluated at the optimal controls.

    Deliberately computed through the <p, f> - G route rather than the
    squared closed form, so agreement with the variational module's
    Hamiltonians is a genuine two-route check.
    """
    return pontryagin_hamiltonian(model, ps, optimal_controls(model, ps))
