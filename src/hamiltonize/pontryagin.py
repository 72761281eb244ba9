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
in turn.  <p, f> is emitted in one form, a sum in coordinate order, at real
controls and at each complex step alike.  A step moves a single rate, so the
imaginary part of <p, f> is that one term, whatever the order of summation.

``optimal_control_check``, which ``pontryagin-check`` and ``certify`` run,
takes a whole block of sampled points in one call of one more generated
function.  Its source is that of the scalar functions without their guards
(the optimal controls, the control Hamiltonian at them, the closed-form H
and the complex steps), run on numpy arrays, one member per point, with the
weights assigned unchecked.  The guards become a mask: a member whose
weights, controls, Hamiltonians or gradient are not all finite, or whose
``|u_1| < U1_MIN``, runs again alone through the scalar functions, which
count it or raise exactly as they do on their own.  numpy's complex
division, ``tan`` and ``exp`` differ from CPython's in the last bits of some
values, so the maxima may move there against the scalar functions, and a
point within a few units in the last place of ``PONTRYAGIN_U1_MIN`` could
count on the other side of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from . import expr as ex
from .errors import EvaluationError
from .sampling import phase_rows
from .variational import (CS_STEP, LagrangianModel, PhaseState, _hamiltonian_value, _kernel,
                          _literal, _momentum_sum, _names, _require_hamiltonian, _weight_names,
                          hamiltonian_value)

__all__ = [
    "controlled_rhs",
    "cost",
    "pontryagin_hamiltonian",
    "control_gradient",
    "optimal_controls",
    "optimal_hamiltonian_value",
    "OptimalControlReport",
    "optimal_control_check",
]

MODEL_KINDS = {"g1": "first", "g2": "second"}  # the model each cost reproduces
U1_MIN = 1e-6
# optimal-control check: points with |u_1| below the first or controls not all finite
# are skipped; the two routes must agree below the second, the gradient must vanish
# below the third, and a non-finite deviation or gradient is a runtime error
PONTRYAGIN_U1_MIN = 0.05
PONTRYAGIN_DEV_TOL = 1e-10
PONTRYAGIN_GRAD_TOL = 1e-8
POINT_BLOCK = 4096  # phase points per call of the check's array function; bounds its memory


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


@dataclass(frozen=True)
class OptimalControlReport:
    """Outcome of the optimal-control check of one cost over sampled phase
    points.  Every point counts in one of ``evaluated``,
    ``skipped_degenerate`` and ``skipped_near_u1_zero``; the maxima are taken
    over the evaluated points, ``max_relative_deviation`` of
    ``|H1 - H2| / |H2|`` reported beside the bounded absolute deviation."""

    system: str
    kind: str
    seed: int
    samples: int
    evaluated: int
    skipped_degenerate: int
    skipped_near_u1_zero: int
    max_hamiltonian_deviation: float
    max_relative_deviation: float
    deviation_tol: float
    max_stationarity_norm: float
    stationarity_tol: float
    passed: bool


def optimal_control_check(model: LagrangianModel, seed: int, count: int) -> OptimalControlReport:
    """The two-route and stationarity check of ``model``'s cost at the
    ``count`` phase points ``sampling.phase_points`` draws from
    ``random.Random(seed)``, drawn as rows ``POINT_BLOCK`` at a time.

    Each block is one call of the generated array function.  A member it
    flags (a weight, control, Hamiltonian or gradient entry not finite, or
    ``|u_1| < U1_MIN``) runs again alone through the scalar functions, in
    index order, and counts or raises exactly as they do.  A point is
    skipped as degenerate where its optimal controls are undefined or not
    finite, and as near zero where ``|u_1| < PONTRYAGIN_U1_MIN``; a check
    with no evaluated point fails.
    """
    stream = Random(seed)
    blocks = (phase_rows(model.system, min(POINT_BLOCK, count - start), stream)
              for start in range(0, count, POINT_BLOCK))
    results = []
    for rows in blocks:
        try:
            results.append(_check_block(model, rows))
        except (EvaluationError, ArithmeticError):
            for _ in blocks:  # a sampling error comes first, as when all points are drawn first
                pass
            raise
    columns = list(zip(*results))
    used, degenerate, near_zero = map(sum, columns[:3])
    max_dev, max_rel, max_grad = (max(0.0, *maxima) for maxima in columns[3:])
    return OptimalControlReport(
        system=model.system.label, kind={v: k for k, v in MODEL_KINDS.items()}[model.kind],
        seed=seed, samples=count, evaluated=used, skipped_degenerate=degenerate,
        skipped_near_u1_zero=near_zero, max_hamiltonian_deviation=max_dev,
        max_relative_deviation=max_rel, deviation_tol=PONTRYAGIN_DEV_TOL,
        max_stationarity_norm=max_grad, stationarity_tol=PONTRYAGIN_GRAD_TOL,
        passed=bool(used > 0 and max_dev < PONTRYAGIN_DEV_TOL and max_grad < PONTRYAGIN_GRAD_TOL))


def _check_block(model: LagrangianModel, points: np.ndarray) -> tuple:
    """The evaluated, degenerate and near-zero counts and the deviation,
    relative deviation and stationarity maxima of the points, the columns of
    ``points``: one call of the array function, its flagged members
    overwritten by ``_check_point``'s values, then one rule for every
    member."""
    n = model.system.n
    with np.errstate(all="ignore"):
        values = _check_function(model)(points[0], list(points[n:]))
        w = len(values) - 2 * n - 2  # the weight pairs come first
        u1, (h1, h2) = np.array(values[w], dtype=float), values[w + n:w + n + 2]
        dev = np.abs(h1 - h2)
        rel, grad = dev / np.abs(h2), np.max(np.abs(values[w + n + 2:]), axis=0)
    ok = np.abs(u1) >= U1_MIN
    for value in values:
        ok &= np.isfinite(value)
    for i in np.flatnonzero(~ok):
        ps = PhaseState(tuple(points[:n, i]), tuple(points[n:, i]))
        u1[i], dev[i], rel[i], grad[i] = _check_point(model, ps)
    used = np.abs(u1) >= PONTRYAGIN_U1_MIN
    counts = int(used.sum()), int(np.isnan(u1).sum())
    return (*counts, len(u1) - sum(counts),
            *(float(np.max(x, initial=0.0, where=used)) for x in (dev, rel, grad)))


def _check_point(model: LagrangianModel, ps: PhaseState) -> tuple[float, float, float, float]:
    """u_1, the deviation, the relative deviation and the largest gradient
    entry at the point ``ps`` through the scalar functions, raising their
    errors; u_1 is NaN where the optimal controls are undefined or not
    finite, and the rest NaN where u_1 is NaN or ``|u_1| <
    PONTRYAGIN_U1_MIN``."""
    try:
        u_star = optimal_controls(model, ps)
    except EvaluationError:
        u_star = (math.nan,)
    if not all(map(math.isfinite, u_star)):
        return math.nan, math.nan, math.nan, math.nan
    if abs(u_star[0]) < PONTRYAGIN_U1_MIN:
        return u_star[0], math.nan, math.nan, math.nan  # boundary region, reported elsewhere
    h1 = optimal_hamiltonian_value(model, ps, u_star)
    h2 = hamiltonian_value(model, ps)
    dev = abs(h1 - h2)
    grads = [abs(g) for g in control_gradient(model, ps, u_star)]
    if not all(map(math.isfinite, (dev, *grads))):
        raise EvaluationError(f"non-finite optimal-control check at q={list(ps.q)}, "
                              f"p={list(ps.p)}")
    return u_star[0], dev, dev / abs(h2), max(grads)


def _check_function(model: LagrangianModel):
    """The check's generated ``control_check(r1, p)``, once per system and
    model: the source of ``_check_lines`` after the model's weight pairs,
    assigned with no domain check, run on numpy arrays
    (``expr.ARRAY_GLOBALS``), every local one member per point."""
    def build():
        _require_hamiltonian(model)
        weights = ex.assign(model.system.weight_table.exprs[model.weight_start:],
                            _weight_names(model))
        return ex.define("control_check(r1, p)",
                         [f"{', '.join(_names('p', model))}, = p", *weights, *_check_lines(model)],
                         **ex.ARRAY_GLOBALS)

    return model.system.kernel(("control_check", model.kind, model.coefficients), build)


# --- generated code ---------------------------------------------------------------
# Each function is emitted once per system and model (``variational._kernel``,
# or ``_check_function`` for the array check), over the locals r1, p<b> and
# u<b> and the model's weight pairs e<b>, s<b>, with every inertia and
# coefficient a literal.  Every sum keeps the order of
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


def _drive(model: LagrangianModel) -> str:
    """Source of the optimal u_1: the momentum sum over I_1."""
    return f"({_momentum_sum(model)}) / {_literal(model.system.i1)}"


def _controls(model: LagrangianModel) -> list[str]:
    """Source of each optimal control, u_1 read from the local u0."""
    return ["u0", *(f"p{b} / {_literal(inertia)}" for b, inertia in model.kinetic),
            *(f"p{b} * u0 / {_literal(c)}" for b, c in model.terms)]


def _controls_lines(model: LagrangianModel) -> list[str]:
    return [f"u0 = {_drive(model)}",
            f"if abs(u0) < {U1_MIN!r}: "
            "raise SingularVelocityError('degenerate optimal control: u_1 near zero')",
            f"return ({', '.join(_controls(model))},)"]


def _gradient_steps(model: LagrangianModel) -> list[str]:
    """Statements setting g<k> to dH/du_k at the controls u<b>: the complex
    step of each control in turn, the shifted control a local z."""
    u = _names("u", model)
    lines = []
    for k in range(model.system.n):
        shifted = ["z" if b == k else name for b, name in enumerate(u)]
        h = _control_hamiltonian(model, shifted)
        lines += [f"z = u{k} + {CS_STEP!r}j", f"g{k} = ({h}).imag / {CS_STEP!r}"]
    return lines


def _gradient_lines(model: LagrangianModel) -> list[str]:
    n = model.system.n
    return [_U1_GUARD, *_gradient_steps(model),
            f"return ({', '.join(f'g{k}' for k in range(n))},)"]


def _check_lines(model: LagrangianModel) -> list[str]:
    """The whole check at a block of points, the source of the scalar
    functions without their guards: the optimal controls u<b>, the control
    Hamiltonian h1 at them, the closed-form h2 and the gradient g<k>,
    returned after the weight pairs."""
    u = _names("u", model)
    g = [f"g{k}" for k in range(model.system.n)]
    return [f"u0 = {_drive(model)}",
            *(f"{name} = {control}" for name, control in zip(u[1:], _controls(model)[1:])),
            f"h1 = {_control_hamiltonian(model, u)}",
            f"m = {_momentum_sum(model)}",
            f"h2 = {_hamiltonian_value(model)}",
            *_gradient_steps(model),
            f"return [{', '.join([*_weight_names(model), *u, 'h1', 'h2', *g])}]"]
