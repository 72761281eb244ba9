import math

import numpy as np
import pytest

from hamiltonize import (
    ConfigError,
    IntegratorConfig,
    PhaseState,
    SingularVelocityError,
    controlled_rhs,
    cost,
    hamiltonian_model,
    hamiltonian_value,
    integrate,
    legendre,
    lagrangian_model,
    optimal_controls,
    optimal_hamiltonian_value,
    pontryagin_hamiltonian,
)
from hamiltonize.errors import EvaluationError
from hamiltonize.pontryagin import controlled_ode, cost_model
from hamiltonize.systems import SystemSpec
from hamiltonize.sampling import phase_points
from hamiltonize.variational import hamilton_ode


# --- controlled first-order system ----------------------------------------------


def test_zero_controls_freeze_the_state(free_particle):
    u = (0.0, 0.0, 0.0)
    out = controlled_rhs(cost_model(free_particle, "g1"), (0.3, 0.1, 0.2), u)
    assert all(v == 0.0 for v in out)


def test_controlled_velocities_follow_weights(free_particle):
    """With u = (1, 1, 0) from x = 0: y'(t) = 1/sqrt(1+t^2), so y(2) = asinh(2)."""
    u = (1.0, 1.0, 0.0)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 2.0))
    traj = integrate(controlled_ode(cost_model(free_particle, "g1"), u), np.zeros(3), cfg,
                     free_particle.names, "controlled")
    assert traj.states[-1, 0] == pytest.approx(2.0, abs=1e-12)
    assert traj.states[-1, 1] == pytest.approx(math.asinh(2.0), abs=1e-9)


def test_constant_controls_solve_decoupled_system(vertical_disk, rng):
    """q_a'(t) = u_a exp(xi_a(r1(t))) along the controlled flow."""
    u = (0.8, 1.0, 0.5, -0.7)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 1.0))
    traj = integrate(controlled_ode(cost_model(vertical_disk, "g1"), u),
                     np.array([0.3, 0, 0, 0]), cfg,
                     vertical_disk.names, "controlled")
    # check the velocity law at the endpoint by finite differences
    r1_end = traj.states[-1, 0]
    from hamiltonize import second_associated

    weights = second_associated(vertical_disk).exp_xi
    back, end = traj.states[-2], traj.states[-1]
    fd = (end - back) / 1e-3
    for a in range(3):
        expected = u[1 + a] * weights[a]((r1_end + back[0]) / 2)
        assert fd[1 + a] == pytest.approx(expected, rel=1e-5)


# --- costs ------------------------------------------------------------------------


def test_cost_free_particle_value(free_particle):
    u = (1.0, 1.0, 0.0)
    assert cost(cost_model(free_particle, "g1", (1.0, 1.0)), (0.0, 0, 0), u) == 1.0


def test_cost_reduces_to_drive_term(any_system):
    u = (0.7,) + (0.0,) * (any_system.n - 1)
    assert cost(cost_model(any_system, "g1"), (0.5,) + (0.0,) * (any_system.n - 1), u) == (
        pytest.approx(0.5 * any_system.i1 * 0.49)
    )


def test_cost_zero_drive_rejected(free_particle):
    with pytest.raises(SingularVelocityError):
        cost(cost_model(free_particle, "g1"), (0.0, 0, 0), (0.0, 1.0, 1.0))


def test_second_cost_needs_constant_measure(knife_edge, vertical_disk):
    with pytest.raises(ConfigError):
        cost_model(knife_edge, "g2")
    u4 = (1.0, 1.0, 1.0, 1.0)
    value = cost(cost_model(vertical_disk, "g2"), (0.3, 0, 0, 0), u4)
    # (1/2)(I1 u1^2 + I2 u2^2 + sum a_a E_a u_a^2 / u1), E = N*A, a = -J*N
    n_val = 1 / math.sqrt(2)
    expected = 0.5 * (
        1.0 + 1.0
        + (-n_val) * (n_val * -math.cos(0.3)) * 1.0
        + (-n_val) * (n_val * -math.sin(0.3)) * 1.0
    )
    assert value == pytest.approx(expected, rel=1e-14)


# --- optimal controls ----------------------------------------------------------------


def test_optimal_controls_free_particle_point(free_particle):
    u = optimal_controls(cost_model(free_particle, "g1"),
                         PhaseState((0.0, 0, 0), (1.0, 0.0, 0.0)))
    assert u[0] == pytest.approx(1.0)
    assert u[1:] == pytest.approx((0.0, 0.0))


def test_optimal_controls_zero_transverse_momenta(any_system, rng):
    p0 = 1.7
    ps = PhaseState((0.4,) + (0.0,) * (any_system.n - 1), (p0,) + (0.0,) * (any_system.n - 1))
    u = optimal_controls(cost_model(any_system, "g1"), ps)
    assert u[0] == pytest.approx(p0 / any_system.i1)
    assert all(v == 0.0 for v in u[1:])


def test_degenerate_control_reported(free_particle):
    ps = PhaseState((0.5, 0, 0), (0.0, 0.0, 0.0))
    with pytest.raises(SingularVelocityError):
        optimal_controls(cost_model(free_particle, "g1"), ps)


@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_stationarity_of_optimal_controls(any_system, kind, rng):
    """FD gradient of the control Hamiltonian vanishes at u*."""
    if kind == "g2" and not any_system.measure_is_constant():
        pytest.skip("second cost needs constant measure")
    h = 1e-4
    model = cost_model(any_system, kind)
    for ps in phase_points(any_system, 30, rng):
        try:
            u_star = optimal_controls(model, ps)
        except SingularVelocityError:
            continue
        if abs(u_star[0]) < 0.05:
            continue  # boundary region u1 -> 0 is out of scope
        base = np.array(u_star)

        def hp(vec):
            return pontryagin_hamiltonian(model, ps, vec)

        for i in range(any_system.n):
            samples = []
            for c in (-2, -1, 1, 2):
                shifted = base.copy()
                shifted[i] += c * h
                samples.append(hp(shifted))
            grad = (samples[0] - 8 * samples[1] + 8 * samples[2] - samples[3]) / (12 * h)
            assert abs(grad) < 1e-8


# --- agreement with the canonical Hamiltonians -------------------------------------------


def test_optimal_hamiltonian_free_particle_value(free_particle):
    ps = PhaseState((0.0, 0, 0), (1.0, 0.0, 0.0))
    model = cost_model(free_particle, "g1", (1.0, 1.0))
    assert optimal_hamiltonian_value(model, ps) == pytest.approx(0.5)


@pytest.mark.parametrize("kind,model_kind", [("g1", "first"), ("g2", "second")])
def test_two_route_hamiltonian_agreement(any_system, kind, model_kind, rng):
    if kind == "g2" and not any_system.measure_is_constant():
        pytest.skip("second cost needs constant measure")
    hmodel = hamiltonian_model(any_system, model_kind)
    cmodel = cost_model(any_system, kind)
    for ps in phase_points(any_system, 200, rng):
        try:
            via_control = optimal_hamiltonian_value(cmodel, ps)
        except SingularVelocityError:
            continue
        assert abs(via_control - hamiltonian_value(hmodel, ps)) < 1e-10


def test_control_trajectory_tracks_canonical_flow(free_particle):
    """Feeding u*(q(t), p(t)) into the controlled system reproduces the
    q-projection of the canonical flow."""
    sys = free_particle
    hmodel = hamiltonian_model(sys, "first")
    jet0 = sys.on_constraint((1.0, 0.0, 0.0), 1.0, 1.0)
    ps0 = legendre(lagrangian_model(sys, "first"), jet0)
    n = sys.n
    ham_rhs = hamilton_ode(hmodel)
    cmodel = cost_model(sys, "g1")

    def augmented(t, y):
        dham = ham_rhs(t, y[: 2 * n])
        ps = PhaseState(tuple(y[:n]), tuple(y[n : 2 * n]))
        u_star = optimal_controls(cmodel, ps)
        dctrl = controlled_rhs(cmodel, y[2 * n :], u_star)
        return np.concatenate((dham, dctrl))

    y0 = np.array(ps0.q + ps0.p + ps0.q)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 5.0))
    traj = integrate(augmented, y0, cfg, tuple(f"c{i}" for i in range(3 * n)), "augmented")
    sup = np.max(np.abs(traj.states[:, :n] - traj.states[:, 2 * n :]))
    assert sup < 1e-6


def test_measure_constancy_sampled_once_per_system(vertical_disk, monkeypatch, rng):
    """Many g2 calls on one system sample the measure slope a single time."""
    calls = []
    original = SystemSpec.measure_is_constant

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SystemSpec, "measure_is_constant", counted)
    evaluated = 0
    for ps in phase_points(vertical_disk, 50, rng):
        try:
            optimal_controls(cost_model(vertical_disk, "g2"), ps)
        except EvaluationError:
            continue
        evaluated += 1
    assert evaluated > 10
    assert len(calls) == 1
