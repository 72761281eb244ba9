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

Controls may be complex.  Every operation from the controls to the control
Hamiltonian is analytic in them, so ``control_gradient`` differentiates the
Hamiltonian's own code by the complex step (Squire & Trapp, SIAM Review 40,
1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003):

    dH/du_k = Im H(u + i eps e_k) / eps,    eps = 1e-30.

No difference of two values is taken, so the step can be far below the
roundoff of H and the gradient is exact to roundoff, at one evaluation per
control.  Stationarity at the optimal controls is then checked to about
1e-15 instead of to a stencil's truncation error.
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
    "control_gradient",
    "optimal_controls",
    "optimal_hamiltonian_value",
]

MODEL_KINDS = {"g1": "first", "g2": "second"}  # the model each cost reproduces
U1_MIN = 1e-6
CS_STEP = 1e-30  # complex step: its square vanishes against any real part


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
    return _controlled_rhs(model, u, model.system.weight_table(float(q[0]))[model.weight_start:])


def _controlled_rhs(model: LagrangianModel, u, weights) -> list:
    """``controlled_rhs`` from the flat (E_b, E_b') values of the terms."""
    out = list(u)
    values = iter(weights)
    for (b, _), e_val, _ in zip(model.terms, values, values):
        out[b] = u[b] * e_val
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
    return _cost(model, u, model.system.weight_table(float(q[0]))[model.weight_start:])


def _cost(model: LagrangianModel, u, weights) -> float:
    """``cost`` from the flat (E_b, E_b') values of the terms."""
    u1 = u[0]
    if abs(u1) < U1_MIN:
        raise SingularVelocityError("cost undefined for u_1 near zero")
    value = model.system.i1 * u1**2
    for b, inertia in model.kinetic:
        value += inertia * u[b] ** 2
    values = iter(weights)
    for (b, c), e_val, _ in zip(model.terms, values, values):
        value += c * e_val * u[b] ** 2 / u1
    return 0.5 * value


def pontryagin_hamiltonian(model: LagrangianModel, ps: PhaseState, u) -> float | complex:
    """<p, f(q, u)> - G(q, u) with the normal multiplier set to one.

    Real controls give a float; complex controls give a complex number,
    whose imaginary part ``control_gradient`` reads.  <p, f> stays an
    ``np.dot``: the reported two-route deviations depend to the last bit on
    its order of summation.
    """
    return _control_hamiltonian(model, ps.p, u,
                                model.system.weight_table(ps.r1)[model.weight_start:])


def _control_hamiltonian(model: LagrangianModel, p, u, weights) -> float | complex:
    """``pontryagin_hamiltonian`` from the flat (E_b, E_b') values of the
    terms, read once for both <p, f> and G."""
    qdot = _controlled_rhs(model, u, weights)
    return np.dot(p, qdot).item() - _cost(model, u, weights)


def control_gradient(model: LagrangianModel, ps: PhaseState, u) -> tuple[float, ...]:
    """Gradient of the control Hamiltonian in u, by the complex step: one
    evaluation of ``pontryagin_hamiltonian``'s code per control, at weights
    read once, exact to roundoff."""
    weights = model.system.weight_table(ps.r1)[model.weight_start:]
    grad = []
    for k in range(len(u)):
        shifted = list(u)
        shifted[k] += CS_STEP * 1j
        grad.append(_control_hamiltonian(model, ps.p, shifted, weights).imag / CS_STEP)
    return tuple(grad)


def optimal_controls(model: LagrangianModel, ps: PhaseState) -> tuple[float, ...]:
    """The stationary point of the control Hamiltonian in u."""
    p = ps.p
    u1 = model.momentum_sum(ps.r1, p) / model.system.i1
    if abs(u1) < U1_MIN:
        raise SingularVelocityError("degenerate optimal control: u_1 near zero")
    u = [u1] + [0.0] * (len(p) - 1)
    for b, inertia in model.kinetic:
        u[b] = p[b] / inertia
    for b, c in model.terms:
        u[b] = p[b] * u1 / c
    return tuple(u)


def optimal_hamiltonian_value(model: LagrangianModel, ps: PhaseState, u_star=None) -> float:
    """Control Hamiltonian at the optimal controls ``u_star``, computed if not given.

    Deliberately computed through the <p, f> - G route rather than the
    squared closed form, so agreement with the variational module's
    Hamiltonians is a genuine two-route check.
    """
    if u_star is None:
        u_star = optimal_controls(model, ps)
    return pontryagin_hamiltonian(model, ps, u_star)
