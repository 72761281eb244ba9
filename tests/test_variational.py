import math

import numpy as np
import pytest

from hamiltonize import (
    CoefficientSingularityError,
    ConfigError,
    IntegratorConfig,
    Jet,
    PhaseState,
    SingularVelocityError,
    default_coefficients,
    disk_closed_form_state,
    euler_lagrange_rhs,
    hamilton_rhs,
    hamiltonian_value,
    hessian,
    integrate,
    lagrangian_model,
    lagrangian_value,
    legendre,
    legendre_inverse,
    phase_constraint_residual,
    second_associated,
    third_associated,
)
from hamiltonize import pontryagin
from hamiltonize.sampling import constraint_jets, generic_jets, phase_points
from hamiltonize.variational import euler_lagrange_ode, hamilton_ode, phase_columns

from expr_oracle import evaluate

SQRT2 = math.sqrt(2.0)


# --- model validation -------------------------------------------------------


def test_kind_first_requires_nonzero_constants(free_particle):
    with pytest.raises(ConfigError, match="nonzero"):
        lagrangian_model(free_particle, "first", (1.0, 0.0))


def test_kind_second_requires_constant_measure(knife_edge, vertical_disk):
    with pytest.raises(ConfigError, match="constant"):
        lagrangian_model(knife_edge, "second", (1.0,))
    lagrangian_model(vertical_disk, "second")  # fine


def test_presets(knife_edge, vertical_disk, free_particle):
    assert default_coefficients(free_particle, "first") == (1.0, 1.0)
    assert default_coefficients(knife_edge, "first") == (1.0, 1.0)
    assert default_coefficients(vertical_disk, "second") == pytest.approx(
        (-1 / SQRT2, -1 / SQRT2)
    )


# Every function of the Hamiltonian side, called at a jet, the phase point
# over it and unit controls.
HAMILTONIAN_SIDE = {
    "legendre": lambda m, jet, ps, u: legendre(m, jet),
    "legendre_inverse": lambda m, jet, ps, u: legendre_inverse(m, ps),
    "hamiltonian_value": lambda m, jet, ps, u: hamiltonian_value(m, ps),
    "hamilton_ode": lambda m, jet, ps, u: hamilton_ode(m),
    "hamilton_rhs": lambda m, jet, ps, u: hamilton_rhs(m, ps),
    "phase_constraint_residual": lambda m, jet, ps, u: phase_constraint_residual(m, ps),
    "momentum_sum": lambda m, jet, ps, u: m.momentum_sum(ps.r1, ps.p),
    "optimal_controls": lambda m, jet, ps, u: pontryagin.optimal_controls(m, ps),
    "optimal_hamiltonian_value": lambda m, jet, ps, u: pontryagin.optimal_hamiltonian_value(m, ps),
    "pontryagin_hamiltonian": lambda m, jet, ps, u: pontryagin.pontryagin_hamiltonian(m, ps, u),
    "control_gradient": lambda m, jet, ps, u: pontryagin.control_gradient(m, ps, u),
    "controlled_rhs": lambda m, jet, ps, u: pontryagin.controlled_rhs(m, jet.q, u),
    "cost": lambda m, jet, ps, u: pontryagin.cost(m, jet.q, u),
    "optimal_control_check": lambda m, jet, ps, u: pontryagin.optimal_control_check(m, 0, 10),
}


@pytest.mark.parametrize("name", HAMILTONIAN_SIDE)
def test_hamiltonian_side_refuses_the_variational_model(any_system, name):
    model = lagrangian_model(any_system, "variational")
    jet = Jet((0.3,) + (0.0,) * (any_system.n - 1), (1.0,) * any_system.n)
    ps = PhaseState(jet.q, (1.0, 0.5) + (0.25,) * any_system.k)
    with pytest.raises(ConfigError) as refused:
        HAMILTONIAN_SIDE[name](model, jet, ps, (1.0,) * any_system.n)
    assert str(refused.value) == "the variational Lagrangian has no closed-form Hamiltonian"


def test_lagrangian_side_serves_the_variational_model(any_system):
    model = lagrangian_model(any_system, "variational")
    jet = Jet((0.3,) + (0.0,) * (any_system.n - 1), (1.0,) * any_system.n)
    assert math.isfinite(lagrangian_value(model, jet))
    assert np.isfinite(hessian(model, jet)).all()
    assert np.isfinite(euler_lagrange_ode(model)(0.0, list(jet.q + jet.qdot))).all()


# --- Lagrangian values --------------------------------------------------------


def test_lagrangian_undefined_on_zero_r1dot(free_particle):
    model = lagrangian_model(free_particle, "first")
    with pytest.raises(SingularVelocityError):
        lagrangian_value(model, Jet((1.0, 0, 0), (0.0, 1.0, 1.0)))


def test_lagrangian_coefficient_singularity(free_particle):
    model = lagrangian_model(free_particle, "first")
    with pytest.raises(CoefficientSingularityError):
        lagrangian_value(model, Jet((0.0, 0, 0), (1.0, 1.0, 1.0)))


def test_knife_edge_lagrangian_value(knife_edge):
    """At phi=pi/4 with unit velocities the weighted terms are +-sqrt(2)/2.

    With the signed weights and C = (1, 1) the two contributions cancel; the
    per-coordinate display with both signs positive corresponds to C3 = -1.
    """
    jet = Jet((math.pi / 4, 0.0, 0.0), (1.0, 1.0, 1.0))
    strict = lagrangian_model(knife_edge, "first", (1.0, 1.0))
    assert lagrangian_value(strict, jet) == pytest.approx(0.5, abs=1e-14)
    display = lagrangian_model(knife_edge, "first", (1.0, -1.0))
    assert lagrangian_value(display, jet) == pytest.approx(0.5 + SQRT2, abs=1e-14)


def test_disk_variational_lagrangian_matches_coupled_form(vertical_disk, rng):
    """L = -m/2 (x'^2+y'^2) + I/2 th'^2 + J/2 phi'^2
    + m R th' (cos(phi) x' + sin(phi) y')."""
    model = lagrangian_model(vertical_disk, "variational")
    for _ in range(20):
        q = tuple(rng.uniform(-2, 2, 4))
        u = tuple(rng.uniform(-2, 2, 4))
        expected = (
            -0.5 * (u[2] ** 2 + u[3] ** 2)
            + 0.5 * u[1] ** 2
            + 0.5 * u[0] ** 2
            + u[1] * (math.cos(q[0]) * u[2] + math.sin(q[0]) * u[3])
        )
        assert lagrangian_value(model, Jet(q, u)) == pytest.approx(expected, rel=1e-14)


# --- Hessians ---------------------------------------------------------------------


def fd_hessian(model, jet, h=1e-4):
    n = jet.dim
    g = np.empty((n, n))
    u = np.array(jet.qdot)
    for i in range(n):
        for j in range(n):
            upp, upm, ump, umm = (u.copy() for _ in range(4))
            upp[i] += h
            upp[j] += h
            upm[i] += h
            upm[j] -= h
            ump[i] -= h
            ump[j] += h
            umm[i] -= h
            umm[j] -= h
            vals = [lagrangian_value(model, Jet(jet.q, tuple(v))) for v in (upp, upm, ump, umm)]
            g[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
    return g


@pytest.mark.parametrize("kind", ["first", "second", "variational"])
def test_hessian_matches_finite_differences(any_system, kind, stream):
    if kind == "second" and not any_system.measure_is_constant():
        pytest.skip("second kind needs constant measure")
    model = lagrangian_model(any_system, kind)
    for jet in generic_jets(any_system, 10, stream):
        closed = hessian(model, jet)
        approx = fd_hessian(model, jet)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - approx)) / scale < 1e-6
        assert np.allclose(closed, closed.T)


def test_hessian_leading_entry_formula(free_particle, stream):
    """g_11 = I1 + sum_b C_b q_b'^2 / (E_b r1'^3)."""
    model = lagrangian_model(free_particle, "first", (1.3, 0.7))
    for jet in generic_jets(free_particle, 10, stream):
        g = hessian(model, jet)
        expected = 1.0
        for b, c in enumerate(model.coefficients):
            e_b = evaluate(free_particle.exp_xi_exprs[b], jet.r1)
            expected += c * jet.qdot[1 + b] ** 2 / (e_b * jet.r1dot**3)
            assert g[1 + b, 1 + b] == pytest.approx(c / (e_b * jet.r1dot), rel=1e-12)
        assert g[0, 0] == pytest.approx(expected, rel=1e-12)


def test_hessian_regular_on_admissible_jets(any_system, stream):
    model = lagrangian_model(any_system, "first")
    for jet in generic_jets(any_system, 25, stream):
        assert abs(np.linalg.det(hessian(model, jet))) > 1e-9


def hessian_slopes_along(model, jets, dq, du):
    """The field's slopes of the model Hessian at ``jets`` along the
    (jets, directions, n) stacks ``dq`` and ``du``."""
    from hamiltonize import hessian_field

    return hessian_field(model).slopes(jets, np.asarray(dq, float), np.asarray(du, float))


@pytest.mark.parametrize("kind", ["first", "second", "variational"])
def test_hessian_exact_jacobians_match_fd(any_system, kind, stream):
    """The complex-step slopes along each e_q and each e_u direction agree
    with central differences of ``hessian``."""
    if kind == "second" and not any_system.measure_is_constant():
        pytest.skip("second kind needs constant measure")
    model = lagrangian_model(any_system, kind)
    n = any_system.n
    h = 1e-6
    jets = generic_jets(any_system, 5, stream)
    eye, zero = np.eye(n), np.zeros((n, n))
    # directions e_q0..e_q(n-1), then e_u0..e_u(n-1), at every jet
    slopes = hessian_slopes_along(model, jets, [np.vstack((eye, zero))] * len(jets),
                                  [np.vstack((zero, eye))] * len(jets))
    for jet, slope in zip(jets, slopes):
        for kdx in range(n):
            up, um = list(jet.qdot), list(jet.qdot)
            up[kdx] += h
            um[kdx] -= h
            fd = (hessian(model, Jet(jet.q, tuple(up)))
                  - hessian(model, Jet(jet.q, tuple(um)))) / (2 * h)
            assert np.allclose(slope[n + kdx], fd, rtol=1e-5, atol=1e-7)
            qp, qm = list(jet.q), list(jet.q)
            qp[kdx] += h
            qm[kdx] -= h
            fd = (hessian(model, Jet(tuple(qp), jet.qdot))
                  - hessian(model, Jet(tuple(qm), jet.qdot))) / (2 * h)
            assert np.allclose(slope[kdx], fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("kind", ["first", "second", "variational"])
def test_hessian_slopes_are_linear_in_the_direction(any_system, kind, stream):
    """The slope along (u, f) is the u- and f-weighted sum of the slopes
    along the single axes, to 1e-12 of the largest term: the weights move
    with dq_1 and the velocities with du together."""
    if kind == "second" and not any_system.measure_is_constant():
        pytest.skip("second kind needs constant measure")
    model = lagrangian_model(any_system, kind)
    n = any_system.n
    sode = second_associated(any_system)
    jets = generic_jets(any_system, 20, stream)
    eye, zero = np.eye(n), np.zeros((n, n))
    dq, du = [], []
    for jet in jets:
        u = np.array(jet.qdot)
        f = sode.f(np.array(jet.q), u)
        dq.append(np.vstack((eye, zero, u)))
        du.append(np.vstack((zero, eye, f)))
    slopes = hessian_slopes_along(model, jets, dq, du)
    for slope, q_dir, u_dir in zip(slopes, dq, du):
        weights = np.concatenate((q_dir[-1], u_dir[-1]))
        terms = weights[:, None, None] * slope[:-1]
        scale = np.max(np.sum(np.abs(terms), axis=0))
        assert np.max(np.abs(slope[-1] - np.sum(terms, axis=0))) <= 1e-12 * scale


def test_hessian_multiplier_passes_down_to_slow_drive(any_system, stream):
    """The multiplier conditions hold at 1e-8 on jets with |r1dot| >= 0.1,
    for kind first and, where the measure is constant, kind second; exact
    Hessian derivatives keep the residuals at rounding level even where the
    entries are steep."""
    from hamiltonize import helmholtz_residuals, hessian_field

    sode = second_associated(any_system)
    jets = [Jet(jet.q, tuple(0.2 * u for u in jet.qdot))
            for jet in generic_jets(any_system, 100, stream)]
    for kind in ("first", "second") if any_system.measure_is_constant() else ("first",):
        report = helmholtz_residuals(sode, hessian_field(lagrangian_model(any_system, kind)), jets)
        assert report.passed, (kind, report)


# --- Euler-Lagrange dynamics ---------------------------------------------------------


def test_el_equals_decoupled_system(free_particle):
    model = lagrangian_model(free_particle, "first")
    sode = second_associated(free_particle)
    jet = Jet((1.0, 0.0, 0.0), (1.0, 1.0, 0.7))
    assert euler_lagrange_rhs(model, jet) == pytest.approx(sode.f(jet.q, jet.qdot), abs=1e-9)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_el_equals_decoupled_system_random(any_system, kind, stream):
    if kind == "second" and not any_system.measure_is_constant():
        pytest.skip("second kind needs constant measure")
    model = lagrangian_model(any_system, kind)
    sode = second_associated(any_system)
    for jet in generic_jets(any_system, 25, stream):
        assert euler_lagrange_rhs(model, jet) == pytest.approx(
            sode.f(jet.q, jet.qdot), rel=1e-9, abs=1e-11
        )


def test_el_variational_equals_third_kind(vertical_disk, stream):
    model = lagrangian_model(vertical_disk, "variational")
    sode = third_associated(vertical_disk)
    for jet in generic_jets(vertical_disk, 25, stream):
        assert euler_lagrange_rhs(model, jet) == pytest.approx(
            sode.f(jet.q, jet.qdot), rel=1e-9, abs=1e-12
        )


def test_el_quadratic_velocity_scaling(free_particle, stream):
    model = lagrangian_model(free_particle, "first")
    for jet in generic_jets(free_particle, 10, stream):
        lam = 1.7
        scaled = Jet(jet.q, tuple(lam * v for v in jet.qdot))
        assert euler_lagrange_rhs(model, scaled) == pytest.approx(
            lam**2 * euler_lagrange_rhs(model, jet), rel=1e-9
        )


def _el_force(model, jet):
    """dL/dq - (d^2 L / dq' dr1) r1' from the model's closed forms: the
    right-hand side that the velocity Hessian multiplies."""
    sys = model.system
    r1, u = jet.r1, jet.qdot
    force = np.zeros(sys.n)
    if model.kind == "variational":
        drift = 0.0
        for a in range(sys.k):
            slope = sys.i_alpha[a] * evaluate(sys.a_prime[a], r1)
            drift += slope * u[2 + a]
            force[2 + a] = slope * u[1] * u[0]
        force[0], force[1] = -drift * u[1], drift * u[0]
        return force
    for b, c in model.terms:
        e_b = sys.exp_xi_exprs[b - 1]
        e_val, e_slope = evaluate(e_b, r1), evaluate(e_b.diff(), r1)
        force[b] = c * u[b] * e_slope / e_val ** 2
        force[0] -= c * u[b] ** 2 * e_slope / e_val ** 2 / u[0]
    return force


@pytest.mark.parametrize("kind", ["first", "second", "variational"])
def test_el_arrowhead_solve_matches_dense_solve(any_system, kind, stream):
    if kind == "second" and not any_system.constant_measure:
        pytest.skip("second kind needs constant measure")
    model = lagrangian_model(any_system, kind)
    for jet in generic_jets(any_system, 50, stream):
        dense = np.linalg.solve(hessian(model, jet), _el_force(model, jet))
        got = euler_lagrange_rhs(model, jet)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense)), jet


def test_el_errors_unchanged(free_particle, knife_edge, vertical_disk):
    """The Euler-Lagrange routes raise where a velocity or weight vanishes,
    through the jet-level function and through the trajectory right-hand
    side alike."""
    from hamiltonize.errors import ExprDomainError
    from hamiltonize.variational import euler_lagrange_ode

    cases = [
        (free_particle, Jet((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)), SingularVelocityError),
        (free_particle, Jet((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), CoefficientSingularityError),
        (vertical_disk, Jet((math.pi / 2, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
         CoefficientSingularityError),
        (knife_edge, Jet((math.pi / 2, 0.0, 0.0), (1.0, 1.0, 1.0)), ExprDomainError),
    ]
    for sys, jet, error in cases:
        model = lagrangian_model(sys, "first")
        with pytest.raises(error) as direct:
            euler_lagrange_rhs(model, jet)
        with pytest.raises(error) as via_ode:
            euler_lagrange_ode(model)(0.0, list(jet.q + jet.qdot))
        assert str(direct.value) == str(via_ode.value)
    with pytest.raises(ExprDomainError, match="velocity weight 0 vanishes"):
        euler_lagrange_rhs(lagrangian_model(knife_edge, "first"),
                           Jet((math.pi / 2, 0.0, 0.0), (1.0, 1.0, 1.0)))


# --- Legendre transform ----------------------------------------------------------------


def test_legendre_free_particle_point(free_particle):
    model = lagrangian_model(free_particle, "first")
    ps = legendre(model, Jet((1.0, 0, 0), (1.0, 0.0, 0.0)))
    assert ps.p == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def test_legendre_round_trip(any_system, stream):
    model = lagrangian_model(any_system, "first")
    for jet in generic_jets(any_system, 100, stream):
        back = legendre_inverse(model, legendre(model, jet))
        assert back.q == pytest.approx(jet.q, abs=1e-12)
        assert back.qdot == pytest.approx(jet.qdot, rel=1e-12, abs=1e-12)


def test_legendre_round_trip_second_kind(vertical_disk, stream):
    model = lagrangian_model(vertical_disk, "second")
    for jet in generic_jets(vertical_disk, 50, stream):
        back = legendre_inverse(model, legendre(model, jet))
        assert back.qdot == pytest.approx(jet.qdot, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_momenta_map_to_the_canonical_flows_velocities(any_system, kind, stream):
    """The inverse Legendre map is the canonical flow's dq/dt = dH/dp, bit
    for bit, and the optimal-control system driven by the optimal controls
    moves the coordinates at the same rates (the paper's link between the
    two routes), wherever the check uses a point."""
    if kind == "second" and not any_system.measure_is_constant():
        pytest.skip("second kind needs constant measure")
    model = lagrangian_model(any_system, kind)
    for ps in phase_points(any_system, 200, stream):
        qdot = hamilton_rhs(model, ps)[0]
        assert legendre_inverse(model, ps).qdot == tuple(qdot)
        u_star = pontryagin.optimal_controls(model, ps)
        if abs(u_star[0]) >= pontryagin.PONTRYAGIN_U1_MIN:
            assert pontryagin.controlled_rhs(model, ps.q, u_star) == pytest.approx(qdot, rel=1e-14)


def test_legendre_inverse_refuses_a_vanishing_weight(vertical_disk):
    """The weights are guarded before the momentum sum is read, though H is
    smooth where one vanishes."""
    model = lagrangian_model(vertical_disk, "first")
    with pytest.raises(CoefficientSingularityError):
        legendre_inverse(model, PhaseState((math.pi / 2, 0.0, 0.0, 0.0), (0.0,) * 4))


def test_legendre_inverse_refuses_a_zero_momentum_sum(any_system):
    """A phase point whose momentum sum is 0 lies over r1' = 0: no preimage."""
    model = lagrangian_model(any_system, "first")
    b, _ = model.terms[0]
    q = (0.5,) + (0.0,) * (any_system.n - 1)
    p = [0.0] * any_system.n
    p[b] = 1.0
    p[0] = -model.momentum_sum(q[0], p)  # the sum's only other term, so it is exactly 0
    with pytest.raises(SingularVelocityError, match="phase point lies over r1dot = 0"):
        legendre_inverse(model, PhaseState(q, tuple(p)))


def test_legendre_maps_constraints_to_momentum_plane(any_system, stream):
    """On the constraint distribution, C_2 p_a = -C_a p_2."""
    coeffs = tuple(default_coefficients(any_system, "first"))
    model = lagrangian_model(any_system, "first", coeffs)
    for jet in constraint_jets(any_system, 25, stream):
        ps = legendre(model, jet)
        for a in range(any_system.k):
            assert coeffs[0] * ps.p[2 + a] == pytest.approx(
                -coeffs[1 + a] * ps.p[1], rel=1e-12, abs=1e-13
            )


# --- Hamiltonians -----------------------------------------------------------------------


def test_hamiltonian_free_particle_value(free_particle):
    model = lagrangian_model(free_particle, "first", (1.0, 1.0))
    assert hamiltonian_value(model, PhaseState((0.0, 0, 0), (1.0, 0.0, 0.0))) == 0.5


def test_hamiltonian_knife_edge_value(knife_edge):
    model = lagrangian_model(knife_edge, "first")  # C = 1/sqrt(m)
    ps = PhaseState((0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    assert hamiltonian_value(model, ps) == pytest.approx(0.125, abs=1e-15)


def test_hamiltonian_knife_edge_closed_form(knife_edge, stream):
    """H = (1/2J)(p_phi + (cos(phi) p_x^2 - sin(phi) p_y^2)/2)^2."""
    model = lagrangian_model(knife_edge, "first")
    for ps in phase_points(knife_edge, 25, stream):
        phi, p = ps.q[0], ps.p
        expected = 0.5 * (p[0] + 0.5 * (math.cos(phi) * p[1] ** 2 - math.sin(phi) * p[2] ** 2)) ** 2
        assert hamiltonian_value(model, ps) == pytest.approx(expected, rel=1e-13)


def test_hamiltonian_disk_second_kind_closed_form(vertical_disk, stream):
    """H = p_th^2/2 + (p_phi + (p_x^2 cos(phi) + p_y^2 sin(phi))/2)^2 / 2."""
    model = lagrangian_model(vertical_disk, "second")
    for ps in phase_points(vertical_disk, 25, stream):
        phi, p = ps.q[0], ps.p
        expected = 0.5 * p[1] ** 2 + 0.5 * (
            p[0] + 0.5 * (p[2] ** 2 * math.cos(phi) + p[3] ** 2 * math.sin(phi))
        ) ** 2
        assert hamiltonian_value(model, ps) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_legendre_energy_identity(any_system, kind, stream):
    """H(FL(jet)) = <p, qdot> - L(jet)."""
    if kind == "second" and not any_system.measure_is_constant():
        pytest.skip("second kind needs constant measure")
    lmodel = lagrangian_model(any_system, kind)
    hmodel = lagrangian_model(any_system, kind)
    for jet in generic_jets(any_system, 100, stream):
        ps = legendre(lmodel, jet)
        energy = float(np.dot(ps.p, jet.qdot)) - lagrangian_value(lmodel, jet)
        assert abs(hamiltonian_value(hmodel, ps) - energy) < 1e-10


def test_hamilton_rhs_matches_fd_gradients(any_system, stream):
    model = lagrangian_model(any_system, "first")
    h = 1e-6
    for ps in phase_points(any_system, 100, stream):
        qdot, pdot = hamilton_rhs(model, ps)
        q, p = np.array(ps.q), np.array(ps.p)
        for i in range(any_system.n):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            grad = (
                hamiltonian_value(model, PhaseState(ps.q, tuple(pp)))
                - hamiltonian_value(model, PhaseState(ps.q, tuple(pm)))
            ) / (2 * h)
            assert qdot[i] == pytest.approx(grad, rel=1e-6, abs=1e-8)
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            grad = (
                hamiltonian_value(model, PhaseState(tuple(qp), ps.p))
                - hamiltonian_value(model, PhaseState(tuple(qm), ps.p))
            ) / (2 * h)
            assert pdot[i] == pytest.approx(-grad, rel=1e-6, abs=1e-8)


def test_energy_conserved_along_flow(free_particle):
    model = lagrangian_model(free_particle, "first")
    jet0 = free_particle.on_constraint((1.0, 0.0, 0.0), 1.0, 1.0)
    ps0 = legendre(lagrangian_model(free_particle, "first"), jet0)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 10.0))
    traj = integrate(hamilton_ode(model), np.array(ps0.q + ps0.p), cfg,
                     phase_columns(free_particle), "hamiltonian")
    e0 = hamiltonian_value(model, ps0)
    drift = max(
        abs(hamiltonian_value(model, PhaseState(tuple(row[:3]), tuple(row[3:]))) - e0)
        for row in traj.states[::100]
    )
    assert drift / abs(e0) < 1e-8


def test_disk_second_kind_flow_reproduces_circle(vertical_disk):
    lmodel = lagrangian_model(vertical_disk, "second")
    hmodel = lagrangian_model(vertical_disk, "second")
    jet0 = vertical_disk.on_constraint((0.3, 0.0, 0.0, 0.0), 1.0, 1.0)
    ps0 = legendre(lmodel, jet0)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 5.0))
    traj = integrate(hamilton_ode(hmodel), np.array(ps0.q + ps0.p), cfg,
                     phase_columns(vertical_disk), "hamiltonian")
    exact = np.array([disk_closed_form_state(1.0, jet0, t)[:4] for t in traj.times])
    assert np.max(np.abs(traj.states[:, :4] - exact)) < 1e-6


# --- phase-space constraint sets ------------------------------------------------------


def test_knife_edge_constraint_is_momentum_sum(knife_edge, stream):
    model = lagrangian_model(knife_edge, "first")  # C2 = C3 = 1/sqrt(m), m=1
    for ps in phase_points(knife_edge, 10, stream):
        (res,) = phase_constraint_residual(model, ps)
        assert res == pytest.approx(ps.p[1] + ps.p[2], rel=1e-12)


def test_disk_second_kind_constraint_forms(vertical_disk, stream):
    """Residuals vanish exactly when p_x = p_y and r1'(p) p_x = p_theta."""
    model = lagrangian_model(vertical_disk, "second")
    for ps in phase_points(vertical_disk, 20, stream):
        res = phase_constraint_residual(model, ps)
        u1 = model.momentum_sum(ps.r1, ps.p) / vertical_disk.i1
        n_val = 1 / SQRT2
        a = model.coefficients[0]
        expected_x = n_val * u1 * ps.p[2] + a * ps.p[1]
        expected_y = n_val * u1 * ps.p[3] + a * ps.p[1]
        assert res[0] == pytest.approx(expected_x, rel=1e-12)
        assert res[1] == pytest.approx(expected_y, rel=1e-12)
        # the pair (res_x, res_y) is equivalent to (p_x - p_y, u1 p_x - sqrt2*|a| p_th)
        assert res[0] - res[1] == pytest.approx(n_val * u1 * (ps.p[2] - ps.p[3]), rel=1e-10)


def test_legendre_image_lies_on_constraint_set(any_system, stream):
    lmodel = lagrangian_model(any_system, "first")
    hmodel = lagrangian_model(any_system, "first")
    for jet in constraint_jets(any_system, 25, stream):
        ps = legendre(lmodel, jet)
        assert max(abs(r) for r in phase_constraint_residual(hmodel, ps)) < 1e-12


def test_three_formulations_agree_in_one_chart(any_system):
    """Nonholonomic, Euler-Lagrange and canonical flows agree to 1e-6 over
    t in [0, 5] at RK4 h=1e-3.

    The drive velocity is chosen so the window stays inside one coefficient
    chart; traversing coefficient zeros needs the finer aligned grids used
    by the acceptance suite.
    """
    import hamiltonize.sode  # noqa: F401  (chart bounds documented there)
    from hamiltonize import compare
    from hamiltonize.systems import nh_columns, nh_state_from_jet, nonholonomic_ode
    from hamiltonize.variational import euler_lagrange_ode, hamilton_ode, phase_columns

    sys = any_system
    jet0 = sys.on_constraint((0.3,) + (0.0,) * (sys.n - 1), 0.2, 0.5)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 5.0))
    runs = {
        "nonholonomic": integrate(
            nonholonomic_ode(sys), nh_state_from_jet(sys, jet0), cfg,
            nh_columns(sys), "nonholonomic"),
        "euler-lagrange": integrate(
            euler_lagrange_ode(lagrangian_model(sys, "first")),
            np.array(jet0.q + jet0.qdot), cfg,
            sys.names + tuple("d" + n for n in sys.names), "euler-lagrange"),
    }
    ps0 = legendre(lagrangian_model(sys, "first"), jet0)
    runs["hamiltonian"] = integrate(
        hamilton_ode(lagrangian_model(sys, "first")), np.array(ps0.q + ps0.p),
        cfg, phase_columns(sys), "hamiltonian")
    keys = list(runs)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert compare(runs[keys[i]], runs[keys[j]], sys.names).sup < 1e-6


def test_constraint_residual_preserved_by_flow(vertical_disk):
    lmodel = lagrangian_model(vertical_disk, "second")
    hmodel = lagrangian_model(vertical_disk, "second")
    jet0 = vertical_disk.on_constraint((0.4, 0.0, 0.0, 0.0), 1.0, 1.3)
    ps0 = legendre(lmodel, jet0)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 10.0))
    traj = integrate(hamilton_ode(hmodel), np.array(ps0.q + ps0.p), cfg,
                     phase_columns(vertical_disk), "hamiltonian")
    worst = 0.0
    for row in traj.states[::50]:
        ps = PhaseState(tuple(row[:4]), tuple(row[4:]))
        worst = max(worst, max(abs(r) for r in phase_constraint_residual(hmodel, ps)))
    assert worst < 1e-6
