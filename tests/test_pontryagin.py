import dataclasses
import math
from random import Random

import numpy as np
import pytest

from hamiltonize import (
    ConfigError,
    IntegratorConfig,
    PhaseState,
    SingularVelocityError,
    controlled_rhs,
    cost,
    hamiltonian_value,
    integrate,
    legendre,
    lagrangian_model,
    optimal_controls,
    optimal_hamiltonian_value,
    pontryagin_hamiltonian,
)
from hamiltonize import pontryagin
from hamiltonize.cli import RunManifest
from hamiltonize.errors import EvaluationError
from hamiltonize.pontryagin import MODEL_KINDS, control_gradient, optimal_control_check
from hamiltonize.systems import SystemSpec
from hamiltonize.sampling import phase_points, phase_rows
from hamiltonize.variational import hamilton_ode

from expr_oracle import evaluate
from pontryagin_oracle import check as referee


# --- controlled first-order system ----------------------------------------------


def test_zero_controls_freeze_the_state(free_particle):
    u = (0.0, 0.0, 0.0)
    out = controlled_rhs(lagrangian_model(free_particle, MODEL_KINDS["g1"]), (0.3, 0.1, 0.2), u)
    assert all(v == 0.0 for v in out)


def test_controlled_velocities_follow_weights(free_particle):
    """With u = (1, 1, 0) from x = 0: y'(t) = 1/sqrt(1+t^2), so y(2) = asinh(2)."""
    u = (1.0, 1.0, 0.0)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 2.0))
    model = lagrangian_model(free_particle, MODEL_KINDS["g1"])
    traj = integrate(lambda t, y: controlled_rhs(model, y, u), np.zeros(3), cfg,
                     free_particle.names, "controlled")
    assert traj.states[-1, 0] == pytest.approx(2.0, abs=1e-12)
    assert traj.states[-1, 1] == pytest.approx(math.asinh(2.0), abs=1e-9)


def test_constant_controls_solve_decoupled_system(vertical_disk, rng):
    """q_a'(t) = u_a exp(xi_a(r1(t))) along the controlled flow."""
    u = (0.8, 1.0, 0.5, -0.7)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 1.0))
    model = lagrangian_model(vertical_disk, MODEL_KINDS["g1"])
    traj = integrate(lambda t, y: controlled_rhs(model, y, u),
                     np.array([0.3, 0, 0, 0]), cfg,
                     vertical_disk.names, "controlled")
    # check the velocity law at the endpoint by finite differences
    r1_end = traj.states[-1, 0]
    weights = vertical_disk.exp_xi_exprs
    back, end = traj.states[-2], traj.states[-1]
    fd = (end - back) / 1e-3
    for a in range(3):
        expected = u[1 + a] * evaluate(weights[a], (r1_end + back[0]) / 2)
        assert fd[1 + a] == pytest.approx(expected, rel=1e-5)


# --- costs ------------------------------------------------------------------------


def test_cost_free_particle_value(free_particle):
    u = (1.0, 1.0, 0.0)
    model = lagrangian_model(free_particle, MODEL_KINDS["g1"], (1.0, 1.0))
    assert cost(model, (0.0, 0, 0), u) == 1.0


def test_cost_reduces_to_drive_term(any_system):
    u = (0.7,) + (0.0,) * (any_system.n - 1)
    model = lagrangian_model(any_system, MODEL_KINDS["g1"])
    assert cost(model, (0.5,) + (0.0,) * (any_system.n - 1), u) == (
        pytest.approx(0.5 * any_system.i1 * 0.49)
    )


def test_cost_zero_drive_rejected(free_particle):
    with pytest.raises(SingularVelocityError):
        cost(lagrangian_model(free_particle, MODEL_KINDS["g1"]), (0.0, 0, 0), (0.0, 1.0, 1.0))


def test_second_cost_needs_constant_measure(knife_edge, vertical_disk):
    with pytest.raises(ConfigError):
        lagrangian_model(knife_edge, MODEL_KINDS["g2"])
    u4 = (1.0, 1.0, 1.0, 1.0)
    value = cost(lagrangian_model(vertical_disk, MODEL_KINDS["g2"]), (0.3, 0, 0, 0), u4)
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
    u = optimal_controls(lagrangian_model(free_particle, MODEL_KINDS["g1"]),
                         PhaseState((0.0, 0, 0), (1.0, 0.0, 0.0)))
    assert u[0] == pytest.approx(1.0)
    assert u[1:] == pytest.approx((0.0, 0.0))


def test_optimal_controls_zero_transverse_momenta(any_system, rng):
    p0 = 1.7
    ps = PhaseState((0.4,) + (0.0,) * (any_system.n - 1), (p0,) + (0.0,) * (any_system.n - 1))
    u = optimal_controls(lagrangian_model(any_system, MODEL_KINDS["g1"]), ps)
    assert u[0] == pytest.approx(p0 / any_system.i1)
    assert all(v == 0.0 for v in u[1:])


def test_degenerate_control_reported(free_particle):
    ps = PhaseState((0.5, 0, 0), (0.0, 0.0, 0.0))
    with pytest.raises(SingularVelocityError):
        optimal_controls(lagrangian_model(free_particle, MODEL_KINDS["g1"]), ps)


@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_stationarity_of_optimal_controls(any_system, kind, stream):
    """FD gradient of the control Hamiltonian vanishes at u*."""
    if kind == "g2" and not any_system.measure_is_constant():
        pytest.skip("second cost needs constant measure")
    h = 1e-4
    model = lagrangian_model(any_system, MODEL_KINDS[kind])
    for ps in phase_points(any_system, 30, stream):
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


@pytest.mark.parametrize("system,kind", [("free_particle", "g1"), ("knife_edge", "g1"),
                                         ("vertical_disk", "g1"), ("vertical_disk", "g2")])
def test_complex_step_gradient_matches_stencil(system, kind, request, rng, stream):
    """Away from u* the gradient is O(1); there the complex step and the
    4-point central difference of the same Hamiltonian agree.  G2 needs a
    constant measure, which only the disk has."""
    spec = request.getfixturevalue(system)
    h = 1e-4
    model = lagrangian_model(spec, MODEL_KINDS[kind])
    checked = 0
    for ps in phase_points(spec, 80, stream):
        try:
            u_star = optimal_controls(model, ps)
        except SingularVelocityError:
            continue
        if abs(u_star[0]) < 0.05:
            continue
        u = [v + rng.uniform(0.2, 1.0) * rng.choice((-1, 1)) for v in u_star]
        u[0] = u_star[0] * rng.uniform(1.5, 2.5)  # same sign, away from u_1 = 0
        grad = control_gradient(model, ps, u)
        assert max(abs(g) for g in grad) > 1e-3
        for i in range(spec.n):
            samples = []
            for c in (-2, -1, 1, 2):
                shifted = list(u)
                shifted[i] += c * h
                samples.append(pontryagin_hamiltonian(model, ps, shifted))
            fd = (samples[0] - 8 * samples[1] + 8 * samples[2] - samples[3]) / (12 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8, rel=0)
        checked += 1
    assert checked >= 50


def test_complex_controls_keep_the_real_value(vertical_disk, stream):
    """A complex control evaluates the same real part (to roundoff: numpy
    may sum a complex dot product in another order), and the real path
    still returns a float."""
    model = lagrangian_model(vertical_disk, MODEL_KINDS["g2"])
    for ps in phase_points(vertical_disk, 20, stream):
        try:
            u = optimal_controls(model, ps)
        except SingularVelocityError:
            continue
        real = pontryagin_hamiltonian(model, ps, u)
        assert type(real) is float
        shifted = [u[0] + 1e-30j] + list(u[1:])
        value = pontryagin_hamiltonian(model, ps, shifted)
        assert type(value) is complex
        assert value.real == pytest.approx(real, rel=1e-14, abs=1e-14)


# --- agreement with the canonical Hamiltonians -------------------------------------------


def test_optimal_hamiltonian_free_particle_value(free_particle):
    ps = PhaseState((0.0, 0, 0), (1.0, 0.0, 0.0))
    model = lagrangian_model(free_particle, MODEL_KINDS["g1"], (1.0, 1.0))
    assert optimal_hamiltonian_value(model, ps) == pytest.approx(0.5)


@pytest.mark.parametrize("kind,model_kind", [("g1", "first"), ("g2", "second")])
def test_two_route_hamiltonian_agreement(any_system, kind, model_kind, stream):
    if kind == "g2" and not any_system.measure_is_constant():
        pytest.skip("second cost needs constant measure")
    hmodel = lagrangian_model(any_system, model_kind)
    cmodel = lagrangian_model(any_system, MODEL_KINDS[kind])
    for ps in phase_points(any_system, 200, stream):
        try:
            via_control = optimal_hamiltonian_value(cmodel, ps)
        except SingularVelocityError:
            continue
        assert abs(via_control - hamiltonian_value(hmodel, ps)) < 1e-10


def test_control_trajectory_tracks_canonical_flow(free_particle):
    """Feeding u*(q(t), p(t)) into the controlled system reproduces the
    q-projection of the canonical flow."""
    sys = free_particle
    hmodel = lagrangian_model(sys, "first")
    jet0 = sys.on_constraint((1.0, 0.0, 0.0), 1.0, 1.0)
    ps0 = legendre(lagrangian_model(sys, "first"), jet0)
    n = sys.n
    ham_rhs = hamilton_ode(hmodel)
    cmodel = lagrangian_model(sys, MODEL_KINDS["g1"])

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


def test_measure_constancy_sampled_once_per_system(vertical_disk, monkeypatch, stream):
    """Many g2 calls on one system sample the measure slope a single time."""
    calls = []
    original = SystemSpec.measure_is_constant

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SystemSpec, "measure_is_constant", counted)
    evaluated = 0
    for ps in phase_points(vertical_disk, 50, stream):
        try:
            optimal_controls(lagrangian_model(vertical_disk, MODEL_KINDS["g2"]), ps)
        except EvaluationError:
            continue
        evaluated += 1
    assert evaluated > 10
    assert len(calls) == 1


# --- the whole-sample check against the per-point referee ---------------------------

PARITY_MODELS = [("free_particle", "g1"), ("knife_edge", "g1"), ("vertical_disk", "g1"),
                 ("vertical_disk", "g2")]


def cli_model(system, kind, params=()):
    """The model ``pontryagin-check --kind kind`` builds, with ``--params``."""
    manifest = RunManifest(system_source=system, params=dict(params))
    return manifest.model(manifest.load_system(), MODEL_KINDS[kind])


def assert_matches_referee(model, seed, count):
    """Counts and verdict equal to the referee's, each maximum within 1e-14
    of it: the array functions may differ from the scalar ones in the last
    bits."""
    report = dataclasses.asdict(optimal_control_check(model, seed, count))
    for key, expected in referee(model, seed, count).items():
        if key.startswith("max_"):
            assert abs(report[key] - expected) <= 1e-14, key
        else:
            assert report[key] == expected, key
    return report


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("system,kind", PARITY_MODELS)
def test_check_matches_the_per_point_referee(system, kind, seed):
    assert assert_matches_referee(cli_model(system, kind), seed, 1000)["evaluated"] > 950


@pytest.mark.parametrize("system,kind,params", [
    ("vertical_disk", "g2", {"a3": 1e-320}), ("vertical_disk", "g2", {"a3": 1e-300}),
    ("free_particle", "g1", {"C2": 1e-320}), ("free_particle", "g1", {"C2": 1e-300}),
    ("free_particle", "g1", {"C3": 1e-200}), ("vertical_disk", "g1", {"C2": 1e-320})])
def test_degenerate_check_matches_the_per_point_referee(system, kind, params):
    """A tiny model constant overflows every point's optimal controls: the
    array function's outputs flag every member degenerate, as the referee
    counts each point."""
    report = assert_matches_referee(cli_model(system, kind, params), 0, 200)
    assert (report["skipped_degenerate"], report["passed"]) == (200, False)


@pytest.mark.parametrize("system,params", [("knife_edge", {"J": 1e-300}),
                                           ("vertical_disk", {"J": 1e-200})])
def test_failing_check_raises_the_referee_error(system, params):
    """A tiny inertia overflows the squares of the control Hamiltonian at
    the evaluated points.  The referee's ``float ** 2`` raises
    ``OverflowError`` there, where numpy gives inf, so the check raises
    ``EvaluationError`` instead, naming the first point the referee
    evaluates."""
    model = cli_model(system, "g1", params)
    with pytest.raises(ArithmeticError):
        referee(model, 0, 200)
    first = next(ps for ps in phase_points(model.system, 200, Random(0))
                 if abs(optimal_controls(model, ps)[0]) >= pontryagin.PONTRYAGIN_U1_MIN)
    with pytest.raises(EvaluationError) as got:
        optimal_control_check(model, 0, 200)
    assert str(got.value) == (f"non-finite optimal-control check at q={list(first.q)}, "
                              f"p={list(first.p)}")


@pytest.mark.parametrize("system,kind", PARITY_MODELS)
def test_block_boundary_changes_nothing(system, kind, monkeypatch):
    """4,097 points are a block of 4,096 and one of 1; in one block, or in
    blocks of 1,000, the same points give the same report, bit for bit."""
    model = cli_model(system, kind)
    report = optimal_control_check(model, 5, 4097)
    for block in (1000, 4097):
        monkeypatch.setattr(pontryagin, "POINT_BLOCK", block)
        assert optimal_control_check(model, 5, 4097) == report


def test_sampling_error_comes_before_a_check_error(monkeypatch):
    """Every point is drawn before a check error is raised, so a later
    block's sampling error is the one raised, as when all points were drawn
    first."""
    draws = []

    def rows(sys, count, stream):
        draws.append(count)
        if len(draws) > 1:
            raise EvaluationError("could not sample a generic r1 in [-1, 1]")
        return phase_rows(sys, count, stream)

    def fails(*args):
        raise OverflowError("check")

    monkeypatch.setattr(pontryagin, "phase_rows", rows)
    monkeypatch.setattr(pontryagin, "_check_block", fails)
    with pytest.raises(EvaluationError, match="could not sample"):
        optimal_control_check(cli_model("free_particle", "g1"), 0, 3 * pontryagin.POINT_BLOCK)
    assert len(draws) == 2


@pytest.mark.parametrize("c2", [1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_relative_deviation_stays_at_roundoff(c2):
    """|H1 - H2| / |H2| stays at roundoff however the model constant scales
    the Hamiltonian."""
    report = optimal_control_check(cli_model("free_particle", "g1", {"C2": c2}), 0, 1000)
    assert report.evaluated > 950
    assert report.max_relative_deviation <= 1e-13
