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
models do, so neither cost decides its own layout.  ``MODEL_KINDS`` is the
one map from a cost to its model (g1 to first, g2 to second, with the same
coefficients C_b / a_b): ``lagrangian_model(sys, MODEL_KINDS[cost])``, which
refuses G2's model where the measure density is not constant.  Every
function here takes that model and reads its ``kinetic`` and ``terms``.
Controls are a sequence indexed like the coordinates: u[0] is u_1 and u[b]
the control of coordinate b.

Controls may be complex.  Every operation from the controls to the control
Hamiltonian is analytic in them, so ``control_gradient`` differentiates the
Hamiltonian's own code by the complex step (Squire & Trapp, SIAM Review 40,
1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003):

    dH/du_k = Im H(u + i eps e_k) / eps,    eps = variational.CS_STEP = 1e-30.

No difference of two values is taken, so the step can be far below the
roundoff of H and the gradient is exact to roundoff, at one evaluation per
control.  Stationarity at the optimal controls is then checked to about
1e-15 instead of to a stencil's truncation error.

Every function here is straight-line code generated once per system and
model (``SystemSpec.kernel``, as the trajectory right-hand sides are): the
loops over the layout unrolled, every inertia and coefficient a literal, and
only the model's (E_b, E_b') pairs of the system's ``weight_table`` spliced
in, so the g2 routes evaluate no r2 pair.  ``control_gradient`` is one such
function: the weights evaluated once, then <p, f> - G at each complex step
in turn.  ``pontryagin-check`` and ``certify`` run at each sampled point
``optimal_controls``, ``optimal_hamiltonian_value`` (through
``pontryagin_hamiltonian``) and ``control_gradient``, each one call of its
generated function.  <p, f> is emitted in one form, a sum in coordinate
order, at real controls and at each complex step alike; no numpy call is
made.  A step moves a single rate, so the imaginary part of <p, f> is that
one term, whatever the order of summation.
"""

from __future__ import annotations

from .variational import (CS_STEP, LagrangianModel, PhaseState, _kernel, _literal, _momentum_sum,
                          _names)

__all__ = [
    "controlled_rhs",
    "cost",
    "pontryagin_hamiltonian",
    "control_gradient",
    "optimal_controls",
    "optimal_hamiltonian_value",
]

MODEL_KINDS = {"g1": "first", "g2": "second"}  # the model each cost reproduces
U1_MIN = 1e-6


def controlled_rhs(model: LagrangianModel, q, u) -> list:
    """Position derivative (r1', q_b') of the controlled first-order system.
    Coordinates the model charges kinetically keep their controls
    unweighted."""
    return _kernel(model, "rates", "u", _rates_lines)(float(q[0]), u)


def cost(model: LagrangianModel, q, u) -> float:
    """Instantaneous running cost of the controls at position q."""
    return _kernel(model, "cost", "u", _cost_lines)(float(q[0]), u)


def pontryagin_hamiltonian(model: LagrangianModel, ps: PhaseState, u) -> float | complex:
    """<p, f(q, u)> - G(q, u) with the normal multiplier set to one.

    Real controls give a float; complex controls give a complex number, and
    ``control_gradient`` takes its complex steps of the same expression.
    """
    return _kernel(model, "hamiltonian", "pu", _hamiltonian_lines)(ps.r1, ps.p, u)


def control_gradient(model: LagrangianModel, ps: PhaseState, u) -> tuple[float, ...]:
    """Gradient of the control Hamiltonian in the real controls u, by the
    complex step: one evaluation of ``pontryagin_hamiltonian``'s expression
    per control, at weights evaluated once, exact to roundoff."""
    return _kernel(model, "gradient", "pu", _gradient_lines)(ps.r1, ps.p, u)


def optimal_controls(model: LagrangianModel, ps: PhaseState) -> tuple[float, ...]:
    """The stationary point of the control Hamiltonian in u."""
    return _kernel(model, "controls", "p", _controls_lines)(ps.r1, ps.p)


def optimal_hamiltonian_value(model: LagrangianModel, ps: PhaseState, u_star=None) -> float:
    """Control Hamiltonian at the optimal controls ``u_star``, computed if not given.

    Deliberately computed through the <p, f> - G route rather than the
    squared closed form, so agreement with the variational module's
    Hamiltonians is a genuine two-route check.
    """
    if u_star is None:
        u_star = optimal_controls(model, ps)
    return pontryagin_hamiltonian(model, ps, u_star)


# --- generated code ---------------------------------------------------------------
# Each function is emitted once per system and model (``variational._kernel``),
# over the locals r1, p<b> and u<b> and the model's weight pairs e<b>, s<b>,
# with every inertia and coefficient a literal.  Every sum keeps the order of
# its formula, so each value is the one the loops over the layout gave.

_U1_GUARD = (f"if abs(u0) < {U1_MIN!r}: "
             "raise SingularVelocityError('cost undefined for u_1 near zero')")


def _rates(model: LagrangianModel, u) -> list[str]:
    """Source of each position rate at the controls named ``u``: u_b E_b
    for the weighted coordinates, u_b itself for the others."""
    rates = list(u)
    for b, _ in model.terms:
        rates[b] = f"{u[b]} * e{b}"
    return rates


def _cost(model: LagrangianModel, u) -> str:
    """Source of G at the controls named ``u``."""
    parts = [f"{_literal(model.system.i1)} * {u[0]} ** 2",
             *(f"{_literal(inertia)} * {u[b]} ** 2" for b, inertia in model.kinetic),
             *(f"{_literal(c)} * e{b} * {u[b]} ** 2 / {u[0]}" for b, c in model.terms)]
    return f"0.5 * ({' + '.join(parts)})"


def _control_hamiltonian(model: LagrangianModel, u) -> str:
    """Source of <p, f> - G at the controls named ``u``, <p, f> summed in
    coordinate order."""
    pairing = " + ".join(f"p{b} * ({rate})" for b, rate in enumerate(_rates(model, u)))
    return f"{pairing} - {_cost(model, u)}"


def _rates_lines(model: LagrangianModel) -> list[str]:
    return [f"return [{', '.join(_rates(model, _names('u', model)))}]"]


def _cost_lines(model: LagrangianModel) -> list[str]:
    return [_U1_GUARD, f"return {_cost(model, _names('u', model))}"]


def _hamiltonian_lines(model: LagrangianModel) -> list[str]:
    return [_U1_GUARD, f"return {_control_hamiltonian(model, _names('u', model))}"]


def _controls_lines(model: LagrangianModel) -> list[str]:
    i1 = _literal(model.system.i1)
    controls = ["u0", *(f"p{b} / {_literal(inertia)}" for b, inertia in model.kinetic),
                *(f"p{b} * u0 / {_literal(c)}" for b, c in model.terms)]
    return [f"u0 = ({_momentum_sum(model)}) / {i1}",
            f"if abs(u0) < {U1_MIN!r}: "
            "raise SingularVelocityError('degenerate optimal control: u_1 near zero')",
            f"return ({', '.join(controls)},)"]


def _gradient_lines(model: LagrangianModel) -> list[str]:
    """The complex step of each control in turn, the shifted control a
    local z."""
    u = _names("u", model)
    lines = [_U1_GUARD]
    for k in range(model.system.n):
        shifted = ["z" if b == k else name for b, name in enumerate(u)]
        h = _control_hamiltonian(model, shifted)
        lines += [f"z = u{k} + {CS_STEP!r}j", f"g{k} = ({h}).imag / {CS_STEP!r}"]
    return lines + [f"return ({', '.join(f'g{k}' for k in range(model.system.n))},)"]
