import math

import numpy as np
import pytest

from hamiltonize import (
    CoefficientSingularityError,
    ExprDomainError,
    IntegratorConfig,
    Jet,
    first_associated,
    integrate,
    second_associated,
    third_associated,
)
from hamiltonize.errors import EvaluationError
from hamiltonize.expr import Ln
from hamiltonize.systems import nh_columns, nh_state_from_jet, nonholonomic_ode
from hamiltonize.variational import euler_lagrange_rhs, lagrangian_model


def jet_state(jet):
    return np.array(jet.q + jet.qdot)


# --- first associated system -------------------------------------------------


def test_first_kind_free_particle_coefficients(free_particle):
    sode = first_associated(free_particle)
    gamma2, gamma3 = sode.coeff_exprs
    assert gamma2.eval(1.0) == pytest.approx(-0.5)
    assert gamma3.eval(1.0) == pytest.approx(-0.5)


def test_first_kind_disk_reduces_to_coefficient_derivatives(vertical_disk, rng):
    # Gamma_2 = 0 everywhere; xddot = -R sin(phi) thetadot phidot
    sode = first_associated(vertical_disk)
    for _ in range(10):
        phi = rng.uniform(-3, 3)
        u1, u2 = rng.uniform(0.5, 2, size=2)
        jet = Jet((phi, 0, 0, 0), (u1, u2, 0.3, -0.4))
        acc = sode.rhs(jet)
        assert acc[1] == 0.0
        assert acc[2] == pytest.approx(-math.sin(phi) * u2 * u1, rel=1e-12)
        assert acc[3] == pytest.approx(math.cos(phi) * u2 * u1, rel=1e-12)


def test_first_kind_quiescent_when_r1dot_vanishes(any_system):
    sode = first_associated(any_system)
    jet = Jet((0.5,) + (0.0,) * (any_system.n - 1), (0.0,) + (1.0,) * (any_system.n - 1))
    assert np.all(sode.rhs(jet) == 0.0)


# --- second associated system --------------------------------------------------


def test_second_kind_disk_matches_trigonometric_form(vertical_disk, rng):
    sode = second_associated(vertical_disk)
    for _ in range(10):
        phi = rng.uniform(0.2, 1.2)
        u = rng.uniform(0.5, 2.0, size=4)
        jet = Jet((phi, 0, 0, 0), tuple(u))
        acc = sode.rhs(jet)
        assert acc[1] == 0.0  # Xi_2 = (ln N)' = 0 for the disk
        assert acc[2] == pytest.approx(-math.tan(phi) * u[2] * u[0], rel=1e-10)
        assert acc[3] == pytest.approx((math.cos(phi) / math.sin(phi)) * u[3] * u[0], rel=1e-10)


def test_second_kind_free_particle_rate(free_particle):
    sode = second_associated(free_particle)
    assert sode.coeff_exprs[0].eval(1.0) == pytest.approx(-0.5)


def test_second_kind_equals_first_on_constraint(any_system, rng):
    """Substituting the constraint velocities recovers the first kind."""
    s1 = first_associated(any_system)
    s2 = second_associated(any_system)
    from hamiltonize.sampling import constraint_jets

    for jet in constraint_jets(any_system, 25, rng):
        assert s2.rhs(jet) == pytest.approx(s1.rhs(jet), rel=1e-9, abs=1e-11)


def test_second_kind_velocity_decoupling(vertical_disk, rng):
    """f^a depends on velocities only through r1dot and its own qdot_a."""
    sode = second_associated(vertical_disk)
    q = (0.7, 0.1, 0.2, 0.3)
    u = np.array([1.1, 0.9, 0.8, 0.7])
    base = sode.f(np.array(q), u.copy())
    for b in range(1, 4):
        bumped = u.copy()
        bumped[b] += 0.5
        acc = sode.f(np.array(q), bumped)
        for a in range(1, 4):
            if a != b:
                assert acc[a] == base[a]  # bitwise


def test_second_kind_singularity_reported(vertical_disk):
    sode = second_associated(vertical_disk)
    with pytest.raises(CoefficientSingularityError) as err:
        sode.rhs(Jet((math.pi / 2, 0, 0, 0), (1.0, 1.0, 1.0, 1.0)))
    assert err.value.alpha == 0  # cos branch vanishes at pi/2

    with pytest.raises(CoefficientSingularityError) as err:
        sode.rhs(Jet((0.0, 0, 0, 0), (1.0, 1.0, 1.0, 1.0)))
    assert err.value.alpha == 1  # sin branch vanishes at 0


@pytest.mark.parametrize("name, r1, error", [
    ("knife_edge", math.pi / 2, ExprDomainError),  # r2's weight cos(phi)/sqrt(m)
    ("knife_edge", 0.0, CoefficientSingularityError),  # s's weight -sin(phi)/sqrt(m)
    ("vertical_disk", 0.0, CoefficientSingularityError),  # y's weight -N R sin(phi)
])
def test_second_kind_fails_where_the_first_lagrangian_does(name, r1, error, request):
    """The second associated system is the Euler-Lagrange system of the first
    closed-form Lagrangian: where a velocity weight vanishes both raise the
    same error with the same message."""
    sys = request.getfixturevalue(name)
    jet = Jet((r1,) + (0.0,) * (sys.n - 1), (1.0, 0.5) + (0.25,) * sys.k)
    raised = []
    for route in (lambda: second_associated(sys).f(*jet.arrays()),
                  lambda: euler_lagrange_rhs(lagrangian_model(sys, "first"), jet)):
        with pytest.raises(EvaluationError) as err:
            route()
        raised.append(err.value)
    assert type(raised[0]) is type(raised[1]) is error
    assert str(raised[0]) == str(raised[1])


def test_second_kind_xi_primitives(vertical_disk, free_particle):
    """xi_a = ln(weight); slopes equal the stored rate functions."""
    sode = second_associated(free_particle)
    # weight for r2 is N > 0, so xi_2 = ln N is defined
    weight = free_particle.exp_xi_exprs[0]
    xi = Ln(weight)
    assert xi.eval(0.5) == pytest.approx(math.log(weight.eval(0.5)))
    h = 1e-6
    slope = (xi.eval(0.5 + h) - xi.eval(0.5 - h)) / (2 * h)
    assert slope == pytest.approx(sode.coeff_exprs[0].eval(0.5), rel=1e-8)


def test_gamma2_equals_xi2_everywhere(any_system, rng):
    s1 = first_associated(any_system)
    s2 = second_associated(any_system)
    from hamiltonize.sampling import sample_r1

    for _ in range(50):
        r1 = sample_r1(any_system, rng)
        assert s1.coeff_exprs[0].eval(r1) == pytest.approx(
            s2.coeff_exprs[0].eval(r1), rel=1e-12, abs=1e-15
        )


# --- third associated system ----------------------------------------------------


def test_third_kind_disk_matches_coupled_form(vertical_disk, rng):
    """J phi'' = -m R (sin(phi) x' - cos(phi) y') theta' and friends."""
    sode = third_associated(vertical_disk)
    assert sode.system.constant_measure
    for _ in range(10):
        q = (rng.uniform(-2, 2), 0.0, 0.0, 0.0)
        u = tuple(rng.uniform(-1.5, 1.5, size=4))
        acc = sode.rhs(Jet(q, u))
        phi = q[0]
        slip = math.sin(phi) * u[2] - math.cos(phi) * u[3]
        assert acc[0] == pytest.approx(-slip * u[1], rel=1e-12, abs=1e-14)
        assert acc[1] == pytest.approx(slip * u[0] / 2.0, rel=1e-12, abs=1e-14)
        assert acc[2] == pytest.approx(
            (-2.0 * math.sin(phi) * u[1] * u[0] + math.cos(phi) * slip * u[0]) / 2.0,
            rel=1e-12, abs=1e-14,
        )


def test_third_kind_flag_false_for_nonconstant_measure(free_particle, knife_edge):
    assert not third_associated(free_particle).system.constant_measure
    assert not third_associated(knife_edge).system.constant_measure


def test_third_kind_matches_raw_dynamics_on_constraint(vertical_disk, rng):
    from hamiltonize.sampling import constraint_jets

    sode = third_associated(vertical_disk)
    for jet in constraint_jets(vertical_disk, 20, rng):
        acc = sode.rhs(jet)
        dy = nonholonomic_ode(vertical_disk)(0.0, nh_state_from_jet(vertical_disk, jet))
        assert acc[0] == pytest.approx(dy[4], abs=1e-13)  # the r1 acceleration
        assert acc[1] == pytest.approx(dy[5], abs=1e-13)  # the r2 acceleration


# --- restriction property ---------------------------------------------------------


def window_jet(sys):
    """Constraint jet whose 1 s window stays inside one coefficient chart."""
    q0 = (0.35,) + (0.0,) * (sys.n - 1)
    return sys.on_constraint(q0, 0.6, 0.8)


@pytest.mark.parametrize("kind", ["first", "second", "third"])
def test_restriction_property(any_system, kind, rng):
    """Integrating any associated kind from constraint data tracks the
    nonholonomic flow (third kind only claimed for constant measure).

    Initial windows are chosen so the 1 s run stays inside one coefficient
    chart; the decoupled kind divides by the constraint coefficients and is
    not integrable across their zeros.
    """
    sys = any_system
    build = {"first": first_associated, "second": second_associated, "third": third_associated}
    sode = build[kind](sys)
    if kind == "third" and not sode.system.constant_measure:
        pytest.skip("third kind is only associated when the measure is constant")
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 1.0))
    for _ in range(100):
        r1 = rng.uniform(0.25, 0.45)
        q0 = (r1,) + tuple(rng.uniform(-1, 1, sys.n - 1))
        jet0 = sys.on_constraint(q0, rng.uniform(0.4, 0.7), rng.uniform(0.5, 1.5))
        ref = integrate(nonholonomic_ode(sys), nh_state_from_jet(sys, jet0), cfg,
                        nh_columns(sys), "nonholonomic")
        run = integrate(sode.ode(), jet_state(jet0), cfg, sode.columns(), "sode")
        diff = ref.states[:, : sys.n] - run.states[:, : sys.n]
        assert np.max(np.abs(diff)) < 1e-6
