import math
import warnings

import pytest

from hamiltonize import (
    ConfigError,
    IntegratorConfig,
    Jet,
    builtin_system,
    disk_closed_form_state,
    integrate,
    measure_pde_residual,
    nonholonomic_ode,
    parse_system_file,
)
from hamiltonize.errors import ExprDomainError
from hamiltonize.sampling import generic_r1
from hamiltonize.systems import nh_columns, nh_state_from_jet

from expr_oracle import evaluate


# --- SystemSpec validation -------------------------------------------------


def test_builtin_class_map(free_particle, knife_edge, vertical_disk):
    assert free_particle.inertias == (1.0, 1.0, 1.0)
    assert evaluate(free_particle.a_alpha[0], 0.7) == 0.7
    assert knife_edge.names == ("phi", "x", "y")
    assert evaluate(knife_edge.a_alpha[0], 0.5) == pytest.approx(-math.tan(0.5))
    assert vertical_disk.k == 2
    assert evaluate(vertical_disk.a_alpha[0], 0.5) == pytest.approx(-math.cos(0.5))
    assert evaluate(vertical_disk.a_alpha[1], 0.5) == pytest.approx(-math.sin(0.5))


def test_builtin_rejects_bad_input():
    with pytest.raises(ConfigError):
        builtin_system("rolling_egg")
    with pytest.raises(ConfigError):
        builtin_system("knife_edge", m=-1.0)
    with pytest.raises(ConfigError):
        builtin_system("vertical_disk", R=0.0)


def test_constant_coefficient_rejected():
    with pytest.raises(ConfigError, match="holonomic"):
        parse_system_file(
            "I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = 2.0\nnames = a, b, c\n"
        )


# --- invariant measure ------------------------------------------------------


def test_measure_free_particle_values(free_particle):
    assert free_particle.measure_fn(0.0) == 1.0
    assert free_particle.measure_fn(1.0) == pytest.approx(
        0.7071067811865475, abs=1e-16
    )


def test_measure_disk_constant(vertical_disk, rng):
    vals = [vertical_disk.measure_fn(r) for r in rng.uniform(-3, 3, size=20)]
    assert vals == pytest.approx([1 / math.sqrt(2)] * 20, abs=1e-15)
    assert vertical_disk.measure_is_constant()


def test_measure_knife_edge_proportional_to_cosine(knife_edge, rng):
    for r in rng.uniform(-1.2, 1.2, size=20):
        assert knife_edge.measure_fn(r) == pytest.approx(math.cos(r), rel=1e-12)
    assert not knife_edge.measure_is_constant()


def test_measure_pde_residuals(free_particle, knife_edge, vertical_disk):
    res = measure_pde_residual(free_particle, 1.0)
    assert abs(res[0]) < 1e-8 and res[1] == 0.0
    res = measure_pde_residual(vertical_disk, 0.3)
    # constant N: first residual is pure rounding of cos^2+sin^2 sums
    assert abs(res[0]) < 1e-10 and res[1] == 0.0
    res = measure_pde_residual(knife_edge, 0.5)
    assert abs(res[0]) < 1e-8 and res[1] == 0.0


def test_measure_pde_residual_random_points(any_system, stream):
    for r1 in generic_r1(any_system, 100, stream):
        res = measure_pde_residual(any_system, r1)
        assert abs(res[0]) < 1e-8
        assert abs(res[1]) < 1e-8


def test_measure_pde_residual_stack_and_domain(any_system, stream):
    """A stack gives each point's residuals, bit for bit its scalar call;
    a point outside N's domain raises its ExprDomainError, stacked or not."""
    points = generic_r1(any_system, 20, stream)
    res1, res2 = measure_pde_residual(any_system, points)
    assert res1.tolist() == [measure_pde_residual(any_system, r1)[0] for r1 in points]
    assert not res2.any()
    spec = parse_system_file("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = ln(r1)\nnames = a, b, c\n")
    for r1 in (-0.5, [0.5, -0.5]):
        with pytest.raises(ExprDomainError, match="r1=-0.5"):
            measure_pde_residual(spec, r1)


# --- nonholonomic dynamics ----------------------------------------------------


def nh_derivative(sys, jet):
    """(r1'', r2'', s') of the nonholonomic right-hand side at a jet."""
    dy = nonholonomic_ode(sys)(0.0, nh_state_from_jet(sys, jet))
    return dy[sys.n], dy[sys.n + 1], dy[2 : sys.n]


def test_free_particle_rhs_matches_reduced_equations(free_particle):
    r1ddot, r2ddot, sdot = nh_derivative(free_particle, Jet((1.0, 0, 0), (1.0, 2.0, 0.0)))
    assert r1ddot == 0.0
    assert r2ddot == pytest.approx(-1.0)  # -x xdot ydot / (1+x^2)
    assert sdot[0] == pytest.approx(-2.0)  # zdot = -x ydot


def test_disk_accelerations_vanish(vertical_disk, rng):
    for _ in range(10):
        jet = Jet(tuple(rng.uniform(-2, 2, 4)), tuple(rng.uniform(-2, 2, 4)))
        r1ddot, r2ddot, _ = nh_derivative(vertical_disk, jet)
        assert r1ddot == 0.0
        assert abs(r2ddot) < 1e-15


def test_knife_edge_acceleration_form(knife_edge, rng):
    # xddot = -tan(phi) phidot xdot
    for _ in range(20):
        phi, u1, u2 = rng.uniform(-1.2, 1.2), rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        _, r2ddot, _ = nh_derivative(knife_edge, Jet((phi, 0, 0), (u1, u2, 0)))
        assert r2ddot == pytest.approx(-math.tan(phi) * u1 * u2, rel=1e-12)


def test_zero_r2dot_freezes_everything(any_system):
    jet = Jet((0.5,) + (0.0,) * (any_system.n - 1), (1.0, 0.0) + (0.0,) * any_system.k)
    _, r2ddot, sdot = nh_derivative(any_system, jet)
    assert r2ddot == 0.0
    assert all(v == 0.0 for v in sdot)


def test_constraint_preserved_along_flow(any_system):
    """The slaved formulation keeps the constraint exactly (not drifting):
    along the flow, each s-rate is -A_a(r1) r2dot to the bit."""
    sys = any_system
    k = sys.k
    jet0 = sys.on_constraint((0.4,) + (0.0,) * (sys.n - 1), 0.3, 0.7)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 2.0))
    rhs = nonholonomic_ode(sys)
    traj = integrate(rhs, nh_state_from_jet(sys, jet0), cfg, nh_columns(sys), "nonholonomic")
    for t, row in zip(traj.times[::200], traj.states[::200]):
        s_rates = rhs(t, row)[2:2 + k]
        assert s_rates == [-sys.a_fns[a](row[0]) * row[3 + k] for a in range(k)]


# --- closed-form disk solution ---------------------------------------------


def test_disk_closed_form_circular_case():
    ics = Jet((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0))
    state = disk_closed_form_state(1.0, ics, math.pi / 2)
    assert state[2] == pytest.approx(1.0)
    assert state[3] == pytest.approx(1.0)


def test_disk_closed_form_straight_line():
    ics = Jet((0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0))
    state = disk_closed_form_state(1.0, ics, 2.0)
    assert state[2] == pytest.approx(2.0)
    assert state[3] == pytest.approx(0.0)


def test_disk_closed_form_initial_conditions_exact(rng):
    q0 = tuple(rng.uniform(-1, 1, 4))
    ics = Jet(q0, (0.7, 1.3, 0.0, 0.0))
    state = disk_closed_form_state(1.0, ics, 0.0)
    assert state[:4] == pytest.approx(q0, abs=1e-15)


def test_disk_closed_form_satisfies_dynamics(rng):
    """FD second differences vanish for (phi, theta); constraints hold."""
    radius = 1.0
    ics = Jet((0.3, 0.1, -0.2, 0.4), (1.1, 0.8, 0.0, 0.0))
    h2 = 1e-3  # second differences: rounding ~ eps*|q|/h^2, exact for linear q
    h = 1e-4
    for t in rng.uniform(0.1, 5.0, size=10):
        sm2, s0, sp2 = (disk_closed_form_state(radius, ics, t + d)
                        for d in (-h2, 0.0, h2))
        for i in (0, 1):  # phi'' = theta'' = 0
            acc = (sm2[i] - 2 * s0[i] + sp2[i]) / h2**2
            assert abs(acc) < 1e-8
        # velocity constraints xdot = R cos(phi) thetadot, ydot = R sin(phi) thetadot
        sm, sp = (disk_closed_form_state(radius, ics, t + d) for d in (-h, h))
        xdot_fd = (sp[2] - sm[2]) / (2 * h)
        ydot_fd = (sp[3] - sm[3]) / (2 * h)
        assert xdot_fd == pytest.approx(radius * math.cos(s0[0]) * s0[5], abs=1e-8)
        assert ydot_fd == pytest.approx(radius * math.sin(s0[0]) * s0[5], abs=1e-8)


# --- declarative system files ---------------------------------------------


DISK_FILE = """
# vertically rolling disk, unit parameters
I1 = 1.0
I2 = 1.0
I_alpha = 1.0, 1.0
A_alpha = -cos(r1), -sin(r1)
names = phi, theta, x, y
"""


def test_parse_system_file_round_trip(vertical_disk):
    sys = parse_system_file(DISK_FILE)
    assert sys.names == ("phi", "theta", "x", "y")
    for r in (0.3, -0.7):
        assert sys.measure_fn(r) == vertical_disk.measure_fn(r)


@pytest.mark.parametrize(
    "text,match",
    [
        ("I1 = 1\nI2 = 1\nI_alpha = 1\nnames = a,b,c\n", "missing"),
        ("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = a,b\n", "names"),
        ("I1 = -1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = a,b,c\n", "positive"),
        ("I1 = 1\nbogus\n", "key"),
        ("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = a,b,c\nZZ = 3\n", "unknown"),
    ],
)
def test_parse_system_file_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_system_file(text)


KNIFE_FILE = """
I1 = 1.0
I2 = 1.0
I_alpha = 1.0
A_alpha = -tan(r1)
names = phi, x, y
weights = cos(r1), -sin(r1)
"""


def test_parse_system_file_weight_overrides(knife_edge):
    sys = parse_system_file(KNIFE_FILE)
    for r in (0.2, 0.9):
        for mine, builtin in zip(sys.exp_xi_exprs, knife_edge.exp_xi_exprs):
            assert evaluate(mine, r) == pytest.approx(evaluate(builtin, r), rel=1e-12)


def test_weight_override_scaled_by_a_constant_accepted(knife_edge):
    """Weights twice the knife edge's share their logarithmic slopes."""
    sys = parse_system_file(KNIFE_FILE.replace("cos(r1), -sin(r1)", "2*cos(r1), -2*sin(r1)"))
    for r in (0.2, 0.9):
        for mine, builtin in zip(sys.exp_xi_exprs, knife_edge.exp_xi_exprs):
            assert evaluate(mine, r) == 2 * evaluate(builtin, r)


def test_weight_override_with_wrong_slope_rejected():
    with pytest.raises(ConfigError, match="logarithmic slope"):
        parse_system_file(KNIFE_FILE.replace("cos(r1), -sin(r1)",
                                             "cos(2*r1), -sin(r1)"))


def test_weight_override_vanishing_at_a_check_point_warns_nothing():
    """The second weight r1/sqrt(1+r1^2) is 0 at r1 = 0, one of the check
    points, where both log slopes are not finite: the spec is accepted,
    and comparing them there raises no numpy warning."""
    text = ("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = x, y, z\n"
            "weights = 1/sqrt(1+r1^2), r1/sqrt(1+r1^2)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = parse_system_file(text)
    assert len(sys.exp_xi_exprs) == 2
