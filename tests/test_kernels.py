"""The generated right-hand sides and optimal-control functions against the
loops they replaced.

Every formulation's right-hand side is straight-line code generated once per
object (``nonholonomic_ode``, ``SodeSystem.ode``, ``euler_lagrange_ode``,
``hamilton_ode``), and so is every optimal-control function of
``pontryagin.py``, ``hamiltonian_value``, a model's weight read, its
velocity Hessian, its Legendre map, its Lagrangian and its phase
constraints.  The loops below are the implementations they replaced,
kept as the reference: at seeded states the kernels must give the same
floats bit for bit, and where a loop raises, the kernel must raise the
same exception with the same message.
"""

import builtins
import dis
import math
import re
import types
from random import Random

import numpy as np
import pytest

from hamiltonize import expr
from hamiltonize.cli import main
from hamiltonize.pontryagin import (
    CS_STEP,
    MODEL_KINDS,
    U1_MIN,
    control_gradient,
    controlled_rhs,
    cost,
    optimal_controls,
    optimal_hamiltonian_value,
    pontryagin_hamiltonian,
)
from hamiltonize.sampling import generic_jets, phase_points
from hamiltonize.errors import (
    CoefficientSingularityError,
    ConfigError,
    EvaluationError,
    ExprDomainError,
    SingularHessianError,
    SingularVelocityError,
)
from hamiltonize.sode import first_associated, second_associated, third_associated
from hamiltonize.systems import (
    COEFF_EPS,
    BUILTIN_NAMES,
    Jet,
    builtin_system,
    nonholonomic_ode,
    parse_system_file,
    weight_vanishes,
)
from hamiltonize.variational import (
    PhaseState,
    _entries,
    _legendre_lines,
    _require_hamiltonian,
    euler_lagrange_ode,
    euler_lagrange_rhs,
    hamilton_ode,
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

from census_sources import COMMANDS, SPECS

STATES = 200

# --- the reference loops ------------------------------------------------------------


def loop_nonholonomic(sys):
    k = sys.k
    table = sys.nonholonomic_table

    def rhs(t, y):
        *a_vals, slope = table(y[0])
        u1 = y[2 + k]
        u2 = y[3 + k]
        return [u1, u2, *[-a * u2 for a in a_vals], 0.0, slope * u1 * u2]

    return rhs


def loop_sode_f(sode):
    """The accelerations f(q, u) of an associated system of each kind."""
    sys = sode.system
    if sode.kind == "first":
        def f(q, u):
            w = u[0] * u[1]
            return [0.0, *[c * w for c in sode.coeff_table(q[0])]]
    elif sode.kind == "second":
        def f(q, u):
            r1 = q[0]
            u1 = u[0]
            out = [0.0]
            values = iter(sys.weight_table(r1))
            for b, (e_val, ep_val) in enumerate(zip(values, values)):
                if abs(e_val) < COEFF_EPS:
                    raise weight_vanishes(b, r1)
                out.append(ep_val / e_val * u[1 + b] * u1)
            return out
    else:
        k, i1, i_alpha = sys.k, sys.i1, sys.i_alpha

        def f(q, u):
            u1, u2 = u[0], u[1]
            *values, mass, coupling = sode.coeff_table(q[0])
            a_vals, ap_vals = values[:k], values[k:]
            drift = sum(i_alpha[a] * ap_vals[a] * u[2 + a] for a in range(k))
            n2 = 1.0 / mass
            r2ddot = n2 * (-coupling * u1 * u2 + drift * u1)
            return [-drift * u2 / i1, r2ddot,
                    *[-ap * u1 * u2 - a_val * r2ddot for a_val, ap in zip(a_vals, ap_vals)]]
    return f


def loop_sode(sode):
    n = sode.n
    f = loop_sode_f(sode)

    def rhs(t, y):
        u = y[n:]
        return [*u, *f(y[:n], u)]

    return rhs


def loop_arrowhead_solve(hub, diag, arm, rhs):
    schur = diag[hub]
    top = rhs[hub]
    for b, (g_bb, g_hb, rhs_b) in enumerate(zip(diag, arm, rhs)):
        if b != hub:
            if g_bb == 0.0:
                raise SingularHessianError(f"Hessian singular: diagonal entry {b} is 0")
            schur -= g_hb * g_hb / g_bb
            top -= g_hb * rhs_b / g_bb
    if schur == 0.0:
        raise SingularHessianError("Hessian singular: the Schur complement of the hub is 0")
    x_hub = top / schur
    return [x_hub if b == hub else (rhs_b - g_hb * x_hub) / g_bb
            for b, (g_bb, g_hb, rhs_b) in enumerate(zip(diag, arm, rhs))]


def loop_weight_values(model, r1):
    values = iter(model.system.weight_table(r1)[model.weight_start:])
    vals = []
    for (b, c), value, slope in zip(model.terms, values, values):
        if abs(value) < COEFF_EPS:
            raise weight_vanishes(b - 1, r1)
        vals.append((b, c, value, slope))
    return vals


def loop_weight_pairs(model, r1):
    """(value, slope) of each weight of the model at r1: (E_b, E_b') of each
    term under the guard, or (A_a, A_a') of each s_a for the variational kind."""
    sys = model.system
    if model.kind == "variational":
        return [*zip([a_fn(r1) for a_fn in sys.a_fns], sys.a_prime_table(r1))]
    return [(e_val, e_slope) for _, _, e_val, e_slope in loop_weight_values(model, r1)]


def loop_arrowhead(model, u, weights):
    """The velocity Hessian as (hub, diag, arm): g[b, b] = diag[b],
    g[hub, b] = g[b, hub] = arm[b] for b != hub (arm[hub] = 0), every other
    entry zero.

    ``weights`` are the values at r1 of the model's functions of r1: E_b for
    each of the ``terms`` of kinds first and second, whose hub is r1, and
    A_a for each s_a of the variational kind, whose hub is r2.  Plain
    arithmetic, so it runs alike on floats and on arrays of complex steps.
    """
    sys = model.system
    if model.kind == "variational":
        diag = [sys.i1, sys.i2, *[-i_a for i_a in sys.i_alpha]]
        arm = [0.0, 0.0, *[-i_a * a_val for i_a, a_val in zip(sys.i_alpha, weights)]]
        return 1, diag, arm
    u1 = u[0]
    diag = [sys.i1] + [0.0] * (sys.n - 1)
    arm = [0.0] * sys.n
    for b, inertia in model.kinetic:
        diag[b] = inertia
    for (b, c), e_val in zip(model.terms, weights):
        c_over_e = c / e_val
        diag[0] += c_over_e * u[b] ** 2 / u1**3
        arm[b] = -c_over_e * u[b] / u1**2
        diag[b] = c_over_e / u1
    return 0, diag, arm


def loop_jet_weights(model, jet):
    """The weight values at a jet, E_b or A_a, after refusing r1' = 0 where
    terms divide by it."""
    if model.kind != "variational":
        loop_require_moving(jet.r1dot)
    return [value for value, _ in loop_weight_pairs(model, jet.r1)]


def loop_hessian(model, jet):
    hub, diag, arm = loop_arrowhead(model, jet.qdot, loop_jet_weights(model, jet))
    g = np.diag(diag)
    g[hub, :] = g[:, hub] = arm
    g[hub, hub] = diag[hub]
    return g


def loop_hessian_slopes(model, jets, dq, du):
    """The complex steps of ``loop_arrowhead``, velocities and weights moved."""
    step = CS_STEP * 1j
    pairs = [loop_weight_pairs(model, jet.r1) for jet in jets]
    values, primes = np.array(pairs).reshape(len(jets), -1, 2).T
    weights = [value[:, None] + step * dq[..., 0] * prime[:, None]
               for value, prime in zip(values, primes)]
    u = [np.array([jet.qdot[b] for jet in jets])[:, None] + step * du[..., b]
         for b in range(model.system.n)]
    hub, diag, arm = loop_arrowhead(model, u, weights)
    out = np.zeros((*dq.shape[:2], model.system.n, model.system.n))
    for b in range(model.system.n):
        out[..., b, b] = np.imag(diag[b])
        if b != hub:
            out[..., hub, b] = out[..., b, hub] = np.imag(arm[b])
    return out / CS_STEP


def loop_require_moving(r1dot):
    if r1dot == 0.0:
        raise SingularVelocityError("model undefined on r1dot = 0")


def loop_momentum_sum(model, r1, p):
    _require_hamiltonian(model)
    total = p[0]
    values = iter(model.system.weight_table(r1)[model.weight_start:])
    for (b, c), e_val, _ in zip(model.terms, values, values):
        total += 0.5 * e_val * p[b] ** 2 / c
    return total


def loop_euler_lagrange_accel(model, r1, u):
    sys = model.system
    if model.kind == "variational":
        drift = 0.0
        force = [0.0, 0.0]
        for i_a, ap, u_a in zip(sys.i_alpha, sys.a_prime_table(r1), u[2:]):
            drift += i_a * ap * u_a
            force.append(i_a * ap * u[1] * u[0])
        weights = [a_fn(r1) for a_fn in sys.a_fns]
        force[0] = -drift * u[1]
        force[1] = drift * u[0]
    else:
        loop_require_moving(u[0])
        weights = []
        force = [0.0] * sys.n
        total = 0.0
        for b, c, e_val, e_slope in loop_weight_values(model, r1):
            ub = u[b]
            force[b] = c * ub * e_slope / e_val**2
            total += c * ub**2 * e_slope / e_val**2
            weights.append(e_val)
        force[0] = -total / u[0]
    return loop_arrowhead_solve(*loop_arrowhead(model, u, weights), force)


def loop_euler_lagrange(model):
    n = model.system.n

    def rhs(t, y):
        u = y[n:]
        return [*u, *loop_euler_lagrange_accel(model, y[0], u)]

    return rhs


def loop_hamilton_field(model, r1, p):
    _require_hamiltonian(model)
    sys = model.system
    values = iter(sys.weight_table(r1)[model.weight_start:])
    weights = [(b, c, e, e_slope) for (b, c), e, e_slope in zip(model.terms, values, values)]
    total = p[0]
    slope = 0.0
    for b, c, e_val, e_slope in weights:
        total += 0.5 * e_val * p[b] ** 2 / c
        slope += 0.5 * e_slope * p[b] ** 2 / c
    u1 = total / sys.i1
    out = [0.0] * (2 * sys.n)
    out[0] = u1
    for b, inertia in model.kinetic:
        out[b] = p[b] / inertia
    for b, c, e_val, _ in weights:
        out[b] = u1 * e_val * p[b] / c
    out[sys.n] = -u1 * slope
    return out


def loop_hamilton(model):
    n = model.system.n
    return lambda t, y: loop_hamilton_field(model, y[0], y[n:])


# --- every formulation of every built-in ------------------------------------------


def _runs(sys, coefficients=None):
    """(label, generated rhs, reference rhs, state dimension); ``coefficients``
    maps a Lagrangian kind to its model's coefficients where they are not the
    preset's."""
    n = sys.n
    runs = [("nonholonomic", nonholonomic_ode(sys), loop_nonholonomic(sys), n + 2)]
    for build in (first_associated, second_associated, third_associated):
        sode = build(sys)
        runs.append((f"sode-{sode.kind}", sode.ode(), loop_sode(sode), 2 * n))
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    models = {kind: lagrangian_model(sys, kind, (coefficients or {}).get(kind))
              for kind in (*kinds, "variational")}
    for kind, model in models.items():
        runs.append((f"euler-lagrange-{kind}", euler_lagrange_ode(model),
                     loop_euler_lagrange(model), 2 * n))
    for kind in kinds:
        model = models[kind]
        runs.append((f"hamilton-{kind}", hamilton_ode(model), loop_hamilton(model), 2 * n))
    return runs


def outcome(fn, *args):
    """The floats ``fn`` returns, as hex so that -0.0 and 0.0 differ, or the
    type and message of what it raises."""
    try:
        values = fn(*args)
    except (EvaluationError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in values]


def _states(dim, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(0.0, 1.5, size=(STATES, dim))
    states[:, 0] = rng.uniform(-4.0, 4.0, STATES)
    return states.tolist()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernels_match_loops_bit_for_bit(name):
    sys = builtin_system(name)
    labels = []
    for label, kernel, loop, dim in _runs(sys):
        labels.append(label)
        for y in _states(dim, seed=len(labels)):
            expected = outcome(loop, 0.0, y)
            assert isinstance(expected, list), (label, y, expected)
            assert outcome(kernel, 0.0, y) == expected, (label, y)
    assert len(labels) == (9 if name == "vertical_disk" else 7)


def test_kernels_with_constants_other_than_one_match_loops_bit_for_bit():
    """The disk with inertias m, I, J = 2, 3, 0.5 and models of coefficients
    other than 1.0, whose kernels keep every factor: the loops' floats at
    seeded states, and the loops' outcome where velocities or momenta of
    1e52 to 1e160 overflow a power or the product of two."""
    sys = builtin_system("vertical_disk", m=2.0, I=3.0, J=0.5)
    runs = _runs(sys, {"first": (2.0, -0.5, 0.25), "second": (-0.7, 0.5)})
    for seed, (label, kernel, loop, dim) in enumerate(runs, 1):
        states = _states(dim, seed)
        for y, scale in zip(states, (1e52, 1e103, 1e160) * 5):
            states.append(y[:dim // 2] + [v * scale for v in y[dim // 2:]])
        for y in states:
            assert outcome(kernel, 0.0, y) == outcome(loop, 0.0, y), (label, y)
    assert len(runs) == 9


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pointwise_api_evaluates_the_kernels(name):
    """euler_lagrange_rhs, hamilton_rhs and SodeSystem.f give the reference
    floats bit for bit, on the built-in and on the same built-in made with
    numpy-scalar parameters, which the spec coerces to floats (the generated
    code writes each inertia as its repr)."""
    sys = builtin_system(name)
    params = {"knife_edge": "mJ", "vertical_disk": "mRIJ"}.get(name, "")
    typed = builtin_system(name, **{key: np.float64(1.0) for key in params})
    n = sys.n
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    sodes = [(build(sys), build(typed))
             for build in (first_associated, second_associated, third_associated)]
    for y in _states(2 * n, seed=99):
        jet = Jet(tuple(y[:n]), tuple(y[n:]))
        for sode, typed_sode in sodes:
            expected = outcome(loop_sode_f(sode), y[:n], y[n:])
            assert outcome(sode.f, np.array(y[:n]), np.array(y[n:])) == expected
            assert outcome(sode.f, jet.q, jet.qdot) == expected
            assert outcome(typed_sode.f, jet.q, jet.qdot) == expected
        for kind in (*kinds, "variational"):
            expected = outcome(loop_euler_lagrange_accel, lagrangian_model(sys, kind), y[0], y[n:])
            for spec in (sys, typed):
                assert outcome(euler_lagrange_rhs, lagrangian_model(spec, kind), jet) == expected
        for kind in kinds:
            ps = PhaseState(tuple(y[:n]), tuple(y[n:]))
            expected = outcome(loop_hamilton_field, lagrangian_model(sys, kind), y[0], y[n:])
            for spec in (sys, typed):
                model = lagrangian_model(spec, kind)
                assert outcome(lambda: np.concatenate(hamilton_rhs(model, ps))) == expected


# --- the same errors --------------------------------------------------------------


def _assert_same_error(kernel, loop, y, error, message):
    expected = outcome(loop, 0.0, y)
    assert expected[0] is error and message in expected[1], expected
    assert outcome(kernel, 0.0, y) == expected


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_r1dot_zero_raises_as_the_loops(name):
    sys = builtin_system(name)
    n = sys.n
    y = [0.5] * n + [0.0] + [1.0] * (n - 1)
    for label, kernel, loop, dim in _runs(sys):
        if label in ("euler-lagrange-first", "euler-lagrange-second"):
            _assert_same_error(kernel, loop, y, SingularVelocityError,
                               "model undefined on r1dot = 0")


def test_vanishing_disk_weight_raises_as_the_loops(vertical_disk):
    """At r1 = pi/2, cos(r1) ~ 6e-17: the weight N*A_1 of the first
    constrained coordinate falls below COEFF_EPS."""
    y = [math.pi / 2, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    guarded = ("sode-second", "euler-lagrange-first", "euler-lagrange-second")
    for label, kernel, loop, dim in _runs(vertical_disk):
        if label in guarded:
            _assert_same_error(kernel, loop, y, CoefficientSingularityError,
                               "at r1=1.5707963267948966")


def test_zero_schur_complement_raises_as_the_loop(free_particle):
    """r1' = 1e-3 and r2' = 1e4: the spoke term swamps I1 = 1 in the hub's
    diagonal entry and cancels it to exactly 0."""
    model = lagrangian_model(free_particle, "first")
    y = [0.5, 0.0, 0.0, 1e-3, 1e4, 0.0]
    _assert_same_error(euler_lagrange_ode(model), loop_euler_lagrange(model), y,
                       SingularHessianError, "the Schur complement of the hub is 0")


def test_table_domain_error_raises_as_the_loops():
    """ln(r1) at r1 = -1: every table fails, and each kernel raises the error
    of the first failing expression, as its table does."""
    sys = parse_system_file("I1 = 1\nI2 = 2\nI_alpha = 1.5\nA_alpha = ln(r1)\nnames = a, b, c\n")
    y = [-1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    for label, kernel, loop, dim in _runs(sys):
        expected = outcome(loop, 0.0, y[:dim])
        assert expected[0] is ExprDomainError
        assert "math domain error while evaluating" in expected[1]
        assert outcome(kernel, 0.0, y[:dim]) == expected, label


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "ln"])
def test_weight_values_and_momentum_sum_match_loops_bit_for_bit(name):
    """The generated weight read ``_weight_pairs`` and ``momentum_sum`` give
    the loops' floats at seeded states, and raise their errors where a
    weight vanishes (the disk at r1 = pi/2) or the table fails (ln(r1) at
    r1 < 0).  The variational kind reads (A_a, A_a') with no guard."""
    sys = (parse_system_file("I1 = 1\nI2 = 2\nI_alpha = 1.5\nA_alpha = ln(r1)\nnames = a, b, c\n")
           if name == "ln" else builtin_system(name))
    n = sys.n
    states = _states(2 * n, seed=5) + [[math.pi / 2, *[1.0] * (2 * n - 1)]]
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    for kind in (*kinds, "variational"):
        model = lagrangian_model(sys, kind)
        for y in states:
            r1, p = y[0], y[n:]
            assert (outcome(model._weight_pairs, r1)
                    == outcome(lambda: [x for pair in loop_weight_pairs(model, r1) for x in pair])
                    ), (kind, r1)
            if kind in kinds:
                assert (outcome(lambda: [model.momentum_sum(r1, p)])
                        == outcome(lambda: [loop_momentum_sum(model, r1, p)])), (kind, r1)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_hessian_and_slopes_match_the_loop_arrowhead_bit_for_bit(name):
    """``hessian`` and the slopes of ``hessian_field``, which run the
    Euler-Lagrange program's Hessian statements, give the loop arrowhead's
    floats and complex steps at seeded jets and directions, for each kind."""
    sys = builtin_system(name)
    n = sys.n
    jets = [Jet(tuple(y[:n]), tuple(y[n:])) for y in _states(2 * n, seed=13)]
    dq, du = np.random.default_rng(17).normal(size=(2, len(jets), n + 1, n))  # n + 1 per jet
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    for kind in (*kinds, "variational"):
        model = lagrangian_model(sys, kind)
        for jet in jets:
            assert (outcome(lambda: hessian(model, jet).ravel())
                    == outcome(lambda: loop_hessian(model, jet).ravel())), (kind, jet)
        slopes = hessian_field(model).slopes(jets, dq, du)
        assert slopes.tobytes() == loop_hessian_slopes(model, jets, dq, du).tobytes(), kind


@pytest.mark.parametrize("name", ["knife_edge", "vertical_disk"])
def test_hessian_raises_r1dot_zero_before_a_vanishing_weight(name):
    """At r1 = pi/2 a weight of the knife edge and of the disk falls below
    COEFF_EPS; with r1' = 0 too, ``hessian`` raises SingularVelocityError
    first, as the Euler-Lagrange program does, and the weight's own error
    once r1' moves."""
    sys = builtin_system(name)
    n = sys.n
    for r1dot, error in ((0.0, SingularVelocityError),
                         (1.0, ExprDomainError if name == "knife_edge"
                          else CoefficientSingularityError)):
        y = [math.pi / 2, *[0.0] * (n - 1), r1dot, *[1.0] * (n - 1)]
        jet = Jet(tuple(y[:n]), tuple(y[n:]))
        kinds = ("first", "second") if sys.constant_measure else ("first",)
        for kind in kinds:
            model = lagrangian_model(sys, kind)
            expected = outcome(lambda: loop_hessian(model, jet).ravel())
            assert expected[0] is error, (kind, expected)
            assert outcome(lambda: hessian(model, jet).ravel()) == expected, kind
            assert outcome(euler_lagrange_ode(model), 0.0, y) == expected, kind


# --- the Legendre map, the Lagrangian and the phase constraints --------------------


def loop_legendre(model, jet):
    """The momenta p_i = dL/dq'_i of a first/second model at a jet."""
    _require_hamiltonian(model)
    sys = model.system
    weights = loop_jet_weights(model, jet)
    u = jet.qdot
    u1 = u[0]
    p = [0.0] * sys.n
    p[0] = sys.i1 * u1
    for b, inertia in model.kinetic:
        p[b] = inertia * u[b]
    for (b, c), e_val in zip(model.terms, weights):
        p[b] = c * u[b] / (e_val * u1)
        p[0] -= 0.5 * c * u[b] ** 2 / (e_val * u1**2)
    return p


def loop_lagrangian_value(model, jet):
    sys = model.system
    u = jet.qdot
    weights = loop_jet_weights(model, jet)
    if model.kind == "variational":
        value = 0.5 * (sys.i1 * u[0] ** 2 + sys.i2 * u[1] ** 2)
        for a, a_val in enumerate(weights):
            value -= 0.5 * sys.i_alpha[a] * u[2 + a] ** 2
            value -= sys.i_alpha[a] * a_val * u[2 + a] * u[1]
        return value
    value = 0.5 * sys.i1 * u[0] ** 2
    for b, inertia in model.kinetic:
        value += 0.5 * inertia * u[b] ** 2
    for (b, c), e_val in zip(model.terms, weights):
        value += 0.5 * c * u[b] ** 2 / (e_val * u[0])
    return value


def loop_phase_constraints(model, ps):
    """One residual per constrained coordinate; kind first reads no weight."""
    _require_hamiltonian(model)
    sys = model.system
    p = ps.p
    if model.kind == "first":
        c2 = model.coefficients[0]
        return tuple(
            c2 * p[2 + a] + model.coefficients[1 + a] * p[1] for a in range(sys.k)
        )
    u1 = loop_momentum_sum(model, ps.r1, p) / sys.i1
    n_val = sys.measure_fn(ps.r1)
    return tuple(
        sys.i2 * n_val * u1 * p[2 + a] + model.coefficients[a] * p[1]
        for a in range(sys.k)
    )


def _models(sys):
    """Each kind's preset model, and the models of --params C2=2,C3=-0.5 (kind
    first) and a3=-0.7,a4=0.5 (kind second); the variational model last."""
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    models = [lagrangian_model(sys, kind) for kind in kinds]
    models.append(lagrangian_model(sys, "first", (2.0, -0.5, *models[0].coefficients[2:])))
    if sys.constant_measure:
        models.append(lagrangian_model(sys, "second", (-0.7, 0.5)))
    return [*models, lagrangian_model(sys, "variational")]


@pytest.mark.parametrize("name, params", [*((name, {}) for name in BUILTIN_NAMES),
                                          ("vertical_disk", {"m": 2.0, "I": 3.0, "J": 0.7})])
def test_legendre_lagrangian_and_phase_constraints_match_loops_bit_for_bit(name, params):
    """``legendre``, ``lagrangian_value`` and ``phase_constraint_residual``
    give the loops' floats, or raise their errors, on each model of
    ``_models`` of each built-in, and of the disk with inertias other than
    1.0, whose factors round: at seeded jets and phase points, with -0.0 velocities and
    momenta, with velocities and momenta scaled by 1e52 to 1e160 (where a
    power overflows as the loop's does), at r1' = 0 and at the disk's cos
    root, where a weight vanishes.  The variational model serves the
    Lagrangian, and the other two refuse it before reading any weight."""
    sys = builtin_system(name, **params)
    n = sys.n
    states = _states(2 * n, seed=31)
    states += [y[:n] + [-0.0] * n for y in states[:3]]
    states += [y[:n] + [v * scale for v in y[n:]]
               for y, scale in zip(states, (1e52, 1e103, 1e160) * 5)]
    states += [[0.5] * n + [0.0] + [1.0] * (n - 1), [math.pi / 2, *[0.0] * (n - 1), *[1.0] * n]]
    for model in _models(sys):
        for y in states:
            jet = Jet(tuple(y[:n]), tuple(y[n:]))
            ps = PhaseState(jet.q, jet.qdot)
            assert (outcome(lambda: [lagrangian_value(model, jet)])
                    == outcome(lambda: [loop_lagrangian_value(model, jet)])), (model, y)
            if model.kind == "variational":
                for fn, point in ((legendre, jet), (phase_constraint_residual, ps)):
                    with pytest.raises(ConfigError, match="no closed-form Hamiltonian"):
                        fn(model, point)
                continue
            assert outcome(lambda: legendre(model, jet).p) == outcome(loop_legendre, model, jet), y
            assert (outcome(phase_constraint_residual, model, ps)
                    == outcome(loop_phase_constraints, model, ps)), (model, y)


def test_kind_first_phase_constraints_raise_where_a_weight_is_undefined():
    """The one departure from the loop: kind first's residual reads no weight
    there, while the generated one reads them first, as every generated
    function of a model does.  At ln(r1) with r1 = -0.5 the loop returns
    (1.0,), and the residual raises the weight's ExprDomainError, as
    ``hamiltonian_value`` does there."""
    sys = parse_system_file("I1 = 1\nI2 = 2\nI_alpha = 1.5\nA_alpha = ln(r1)\nnames = a, b, c\n")
    model = lagrangian_model(sys, "first")
    ps = PhaseState((-0.5, 0.0, 0.0), (1.0, 0.5, 0.5))
    assert outcome(loop_phase_constraints, model, ps) == [(1.0).hex()]
    expected = outcome(lambda: [hamiltonian_value(model, ps)])
    assert expected[0] is ExprDomainError, expected
    assert outcome(phase_constraint_residual, model, ps) == expected


SCALAR_FUNCTIONS = ("momentum_sum", "hamiltonian_value", "phase_constraint_residual", "rates",
                    "cost", "hamiltonian", "gradient", "controls")


def _scalar_function_sources(model, ps, u, monkeypatch) -> dict:
    """The source of each of ``SCALAR_FUNCTIONS`` of ``model``, generated by
    calling it at ``ps`` and the controls ``u``."""
    sources = {}
    original = expr.define

    def recording_define(signature, lines, **bindings):
        if signature.partition("(")[0] in SCALAR_FUNCTIONS:
            sources[signature.partition("(")[0]] = "\n".join(lines)
        return original(signature, lines, **bindings)

    monkeypatch.setattr(expr, "define", recording_define)
    for call in (lambda: model.momentum_sum(ps.r1, ps.p), lambda: hamiltonian_value(model, ps),
                 lambda: phase_constraint_residual(model, ps), lambda: optimal_controls(model, ps),
                 lambda: controlled_rhs(model, ps.q, u), lambda: cost(model, ps.q, u),
                 lambda: pontryagin_hamiltonian(model, ps, u),
                 lambda: control_gradient(model, ps, u)):
        call()
    monkeypatch.undo()
    return sources


def test_scalar_model_functions_splice_no_weight_slope(monkeypatch):
    """``momentum_sum``, ``hamiltonian_value``, ``phase_constraint_residual``
    and the scalar optimal-control functions splice the weights E_b and none
    of their slopes E_b', which none of them reads: no source holds an
    s<b>, on each built-in and kind.  So where a slope is undefined and
    every weight is defined (A = 1 + r1 sqrt(r1) at r1 = 0, whose A' is
    0 / 0 there) they return values where the joint table raises, and where
    a weight is undefined they still raise the table's error."""
    for name in BUILTIN_NAMES:
        sys = builtin_system(name)
        n = sys.n
        ps, u = PhaseState((0.3,) * n, (1.0, *[0.5] * (n - 1))), (1.0, *[2.0] * (n - 1))
        for kind in ("first", "second") if sys.constant_measure else ("first",):
            sources = _scalar_function_sources(lagrangian_model(sys, kind), ps, u, monkeypatch)
            assert sorted(sources) == sorted(SCALAR_FUNCTIONS), (name, kind)
            for function, source in sources.items():
                assert "e1" in source or "e2" in source, (name, kind, function)
                assert not re.search(r"\bs\d+\b", source), (name, kind, function)
    spec = "I1 = 1\nI2 = 2\nI_alpha = 1.5\nA_alpha = 1 + r1 * sqrt(r1)\nnames = a, b, c\n"
    model = lagrangian_model(parse_system_file(spec), "first")
    with pytest.raises(ExprDomainError, match="division by zero"):
        model.system.weight_table(0.0)
    ps, u = PhaseState((0.0, 0.0, 0.0), (1.0, 0.5, 0.5)), (1.0, 2.0, 3.0)
    assert math.isfinite(hamiltonian_value(model, ps))
    assert all(map(math.isfinite, [model.momentum_sum(0.0, ps.p), *optimal_controls(model, ps),
                                   *phase_constraint_residual(model, ps),
                                   *controlled_rhs(model, ps.q, u), cost(model, ps.q, u),
                                   pontryagin_hamiltonian(model, ps, u),
                                   *control_gradient(model, ps, u)]))
    ps = PhaseState((-0.5, 0.0, 0.0), (1.0, 0.5, 0.5))  # sqrt(r1) undefined: so is every weight
    assert outcome(lambda: [hamiltonian_value(model, ps)]) == outcome(
        lambda: [model.system.weight_table(-0.5)])


def _unbound_globals(fn) -> list[str]:
    """The names that ``fn``'s code, nested code objects included, loads as
    globals and that neither the namespace it runs in nor the builtins bind."""
    codes, unbound = [fn.__code__], []
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        unbound += [ins.argval for ins in dis.get_instructions(code)
                    if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")
                    and ins.argval not in fn.__globals__ and not hasattr(builtins, ins.argval)]
    return unbound


def test_every_generated_name_resolves(monkeypatch, tmp_path):
    """Every global name that a source executed by ``expr.define`` loads is
    bound where it runs, though most such names (a guard's error, a
    fallback's table) are read only at a pole: over the census commands and
    over each built-in's model functions, called at a generic point."""
    functions, original = [], expr.define

    def recording_define(signature, lines, **bindings):
        functions.append(original(signature, lines, **bindings))
        return functions[-1]

    monkeypatch.setattr(expr, "define", recording_define)
    monkeypatch.chdir(tmp_path)
    for name, text in SPECS.items():
        (tmp_path / name).write_text(text)
    for i, command in enumerate(COMMANDS):
        main([*command.split(), "--out", str(tmp_path / str(i))])
    for name in BUILTIN_NAMES:
        sys = builtin_system(name)
        n = sys.n
        jet, u = Jet((0.3,) * n, (1.0, *[0.5] * (n - 1))), (1.0, *[2.0] * (n - 1))
        for model in _models(sys):
            for fn in (hessian, lagrangian_value, euler_lagrange_rhs):
                fn(model, jet)
            if model.kind == "variational":
                continue
            ps = legendre(model, jet)
            legendre_inverse(model, ps)
            hamiltonian_value(model, ps)
            model.momentum_sum(ps.r1, ps.p)
            phase_constraint_residual(model, ps)
            optimal_controls(model, ps)
            pontryagin_hamiltonian(model, ps, u)
            control_gradient(model, ps, u)
            controlled_rhs(model, ps.q, u)
            cost(model, ps.q, u)
    assert len(functions) > 100
    unbound = [(fn.__name__, names) for fn in functions if (names := _unbound_globals(fn))]
    assert unbound == []


def _sixth_order_slope(fn, h):
    """The derivative at 0 of ``fn``, a function of one float, by the
    six-point central difference of step h."""
    return (-fn(-3 * h) + 9 * fn(-2 * h) - 45 * fn(-h)
            + 45 * fn(h) - 9 * fn(2 * h) + fn(3 * h)) / (60 * h)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_legendre_statements_give_its_derivative_by_complex_step(name):
    """The Legendre map's statements, run on complex arrays with the
    velocities at u + i h du and each weight at w + i h dq_1 w' (h =
    ``CS_STEP``), give its derivative along (dq, du) as Im(p) / h: the
    sixth-order central differences of ``legendre`` along the same
    directions, on each kind, at generic jets and random directions."""
    sys = builtin_system(name)
    n, step = sys.n, CS_STEP * 1j
    jets = generic_jets(sys, 20, Random(41))
    dq, du = np.random.default_rng(43).normal(size=(2, len(jets), n))
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    for kind in kinds:
        model = lagrangian_model(sys, kind)
        pairs = np.array([model._weight_pairs(jet.r1) for jet in jets])
        values, primes = pairs.reshape(len(jets), -1, 2).T  # w and w', (weights, jets)
        w = [value + step * dq[:, 0] * prime for value, prime in zip(values, primes)]
        u = [np.array([jet.qdot[b] for jet in jets]) + step * du[:, b] for b in range(n)]
        slopes = np.imag(_entries(model, "legendre", _legendre_lines)(u, w)) / CS_STEP
        for j, jet in enumerate(jets):
            q, qdot = np.array(jet.q), np.array(jet.qdot)

            def along(eps):
                moved = Jet(tuple(q + eps * dq[j]), tuple(qdot + eps * du[j]))
                return np.array(legendre(model, moved).p)

            fd = _sixth_order_slope(along, 1e-3)
            scale = np.max(np.abs(fd)) + np.max(np.abs(along(0.0)))
            assert np.max(np.abs(slopes[:, j] - fd)) <= 1e-10 * scale, (kind, jet)


def test_knife_edge_pole_sode_second_run_exits_2(knife_edge, tmp_path, capsys):
    """At the knife edge's tan pole the second associated system's guard
    raises before the first step, with the reference loop's message."""
    sode = second_associated(knife_edge)
    y = [math.pi / 2, 0.0, 0.0, 1.0, 1.0, 0.0]
    _assert_same_error(sode.ode(), loop_sode(sode), y, ExprDomainError,
                       "velocity weight 0 vanishes at r1=1.5707963267948966")
    code = main(["simulate", "--system", "knife_edge", "--formulation", "sode", "--sode",
                 "second", "--ic", "phi=1.5707963267948966", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ("runtime error: integration aborted at t=0.0: "
                                       "velocity weight 0 vanishes at r1=1.5707963267948966\n")
    assert not list(tmp_path.iterdir())


# --- the optimal-control functions ------------------------------------------------


def loop_weights(model, r1):
    return model.system.weight_table(r1)[model.weight_start:]


def loop_rates(model, u, weights):
    out = list(u)
    values = iter(weights)
    for (b, _), e_val, _ in zip(model.terms, values, values):
        out[b] = u[b] * e_val
    return out


def loop_cost(model, u, weights):
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


def loop_control_hamiltonian(model, p, u, weights):
    rates = loop_rates(model, u, weights)
    pairing = p[0] * rates[0]
    for b in range(1, len(p)):
        pairing += p[b] * rates[b]
    return pairing - loop_cost(model, u, weights)


def loop_gradient(model, p, u, weights):
    grad = []
    for k in range(len(u)):
        shifted = list(u)
        shifted[k] += CS_STEP * 1j
        grad.append(loop_control_hamiltonian(model, p, shifted, weights).imag / CS_STEP)
    return grad


def loop_controls(model, r1, p):
    total = p[0]
    values = iter(loop_weights(model, r1))
    for (b, c), e_val, _ in zip(model.terms, values, values):
        total += 0.5 * e_val * p[b] ** 2 / c
    u1 = total / model.system.i1
    if abs(u1) < U1_MIN:
        raise SingularVelocityError("degenerate optimal control: u_1 near zero")
    u = [u1] + [0.0] * (len(p) - 1)
    for b, inertia in model.kinetic:
        u[b] = p[b] / inertia
    for b, c in model.terms:
        u[b] = p[b] * u1 / c
    return u


def loop_hamiltonian_value(model, ps):
    value = loop_momentum_sum(model, ps.r1, ps.p)**2 / (2.0 * model.system.i1)
    for b, inertia in model.kinetic:
        value += ps.p[b] ** 2 / (2.0 * inertia)
    return value


def exact(fn, *args):
    """``outcome`` for scalars and complex values too: each float as hex,
    a complex one as the hex of both parts."""
    try:
        values = fn(*args)
    except (EvaluationError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if not isinstance(values, (tuple, list)):
        values = [values]
    return [(type(v) is complex, complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _cost_models(sys):
    kinds = ("g1", "g2") if sys.constant_measure else ("g1",)
    return [lagrangian_model(sys, MODEL_KINDS[kind]) for kind in kinds]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_optimal_control_functions_match_loops_bit_for_bit(name):
    """At seeded phase points and controls (the optimal ones, random ones,
    random ones with a complex entry and ones with u_1 near zero) every
    pointwise function gives the loop's values or raises its error."""
    sys = builtin_system(name)
    n = sys.n
    rng = np.random.default_rng(7)
    for model in _cost_models(sys):
        for y in _states(3 * n, seed=len(model.kind)):
            ps = PhaseState(tuple(y[:n]), tuple(y[n:2 * n]))
            assert exact(optimal_controls, model, ps) == exact(loop_controls, model, ps.r1, ps.p)
            assert exact(hamiltonian_value, model, ps) == exact(loop_hamiltonian_value, model, ps)
            weights = loop_weights(model, ps.r1)
            u_rand = y[2 * n:]
            u_complex = list(u_rand)
            u_complex[int(rng.integers(n))] += complex(0.0, rng.normal())
            controls = [u_rand, u_complex, [1e-7, *u_rand[1:]]]
            if abs(loop_controls(model, ps.r1, ps.p)[0]) >= 1e-3:
                controls.append(loop_controls(model, ps.r1, ps.p))
            for u in controls:
                assert (exact(controlled_rhs, model, ps.q, u)
                        == exact(loop_rates, model, u, weights))
                assert exact(cost, model, ps.q, u) == exact(loop_cost, model, u, weights)
                assert (exact(pontryagin_hamiltonian, model, ps, u)
                        == exact(loop_control_hamiltonian, model, ps.p, u, weights))
                if u is not u_complex:
                    assert (exact(control_gradient, model, ps, u)
                            == exact(loop_gradient, model, ps.p, u, weights))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_command_check_matches_loops_on_its_sample(name):
    """On the command's own sample, what ``pontryagin-check`` reads at each
    point (the controls, the control Hamiltonian there and its complex-step
    gradient) is the loops' bit for bit, at the optimal controls and off
    them, where the gradient is O(1)."""
    sys = builtin_system(name)
    stream, rng = Random(3), np.random.default_rng(3)
    for model in _cost_models(sys):
        evaluated = 0
        for ps in phase_points(sys, 200, stream):
            try:
                u_star = optimal_controls(model, ps)
            except SingularVelocityError:
                continue
            assert list(u_star) == loop_controls(model, ps.r1, ps.p)
            if abs(u_star[0]) < 0.05:
                continue
            evaluated += 1
            weights = loop_weights(model, ps.r1)
            off = [v + rng.normal() for v in u_star]
            off[0] = 2.0 * u_star[0]
            for u in (u_star, off):
                assert (exact(optimal_hamiltonian_value, model, ps, u)
                        == exact(loop_control_hamiltonian, model, ps.p, u, weights))
                assert (exact(control_gradient, model, ps, u)
                        == exact(loop_gradient, model, ps.p, u, weights))
        assert evaluated > 150
