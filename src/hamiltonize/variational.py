"""Closed-form Lagrangians, the Legendre transform, and Hamiltonians.

Three Lagrangian families are provided for a system of the class.

first       L = (1/2) I1 r1'^2
                + (1/2) * sum_b C_b * q_b'^2 / (E_b(r1) * r1'),

            where b runs over (r2, s_1..s_k), E_2 = N and E_(s_a) = N*A_a
            are the signed weights of the decoupled associated system, and
            every C_b is a nonzero constant.  Regular wherever r1' != 0 and
            no weight vanishes; its Euler-Lagrange equations are the second
            associated system.

second      L = (1/2) I1 r1'^2 + (1/2) I2 r2'^2
                + (1/2) * sum_a a_a * s_a'^2 / (E_(s_a)(r1) * r1'),

            valid only when the measure density N is constant.

variational L = (1/2)(I1 r1'^2 + I2 r2'^2 - sum_a I_a s_a'^2)
                - sum_a I_a A_a(r1) s_a' r2',

            the plain Lagrangian minus the constraint-momentum pairing; its
            Euler-Lagrange equations are the third associated system.

Kinds first and second differ only in their coordinate layout, which a
``LagrangianModel`` decides once: the coordinates past r1 charged
kinetically (``kinetic``: r2 with I2, kind second) and those weighted by a
coefficient and E_b (``terms``).  Each first/second formula below loops over
that layout, reading E_b and E_b' from the system's ``weight_table``, and
guards the weights as the second associated system does.

The kinetic prefixes are fixed to the quadratic convention (rho = I1/2 r1'^2,
sigma = I2/2 r2'^2) so the Legendre transform stays in closed form.  Note the
weights E_b keep the sign of A_a: published per-example forms of the first
family sometimes absorb that sign into the constant C_b, which is immaterial
for regularity and for the induced dynamics.

The Legendre transform of the first family gives

    H = (1/(2 I1)) * (p_1 + (1/2) sum_b E_b(r1) p_b^2 / C_b)^2

with phase-space constraint set C_2 p_(s_a) = -C_(s_a) p_2; the second family
gives

    H = p_2^2/(2 I2) + (1/(2 I1)) * (p_1 + (1/2) sum_a E_a(r1) p_a^2 / a_a)^2

with constraints I2 * N * r1'(p) * p_(s_a) + a_a * p_2 = 0, where r1'(p) is
read off the p_1 partial.  The Legendre image carries exactly the data of the
Lagrangian, so a first/second model is its own Hamiltonian model:
``hamiltonian_model`` returns it and the Hamiltonian functions read the same
layout.  Both Hamiltonians are globally smooth even though the Lagrangians
are not, and their canonical flows restricted to the constraint set
reproduce the nonholonomic motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, SingularHessianError, SingularVelocityError
from .systems import COEFF_EPS, Jet, SystemSpec, weight_vanishes

__all__ = [
    "PhaseState",
    "LagrangianModel",
    "default_coefficients",
    "lagrangian_value",
    "hessian",
    "euler_lagrange_rhs",
    "legendre",
    "legendre_inverse",
    "hamiltonian_value",
    "hamilton_rhs",
    "phase_constraint_residual",
]

LAGRANGIAN_KINDS = ("first", "second", "variational")
HAMILTONIAN_KINDS = ("first", "second")


@dataclass(frozen=True)
class PhaseState:
    """A point (q, p) of phase space; momenta are indexed like coordinates."""

    q: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.q) != len(self.p):
            raise ConfigError("phase state q and p lengths differ")
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))

    @property
    def dim(self) -> int:
        return len(self.q)

    @property
    def r1(self) -> float:
        return self.q[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.q), np.array(self.p)


def default_coefficients(sys: SystemSpec, kind: str) -> tuple[float, ...]:
    """Free-parameter presets reproducing the classical per-example models.

    Kind first defaults to all ones, except the knife edge where
    C = 1/sqrt(m) makes the Hamiltonian's weight factors trigonometric.
    Kind second defaults to all ones, except the disk where
    a = -J * N gives the standard quantization-friendly form.
    """
    if kind == "first":
        if sys.preset == "knife_edge":
            return (1.0 / math.sqrt(sys.i2),) * (sys.n - 1)
        return (1.0,) * (sys.n - 1)
    if kind == "second":
        if sys.preset == "vertical_disk":
            return (-sys.i1 * sys.measure_fn(0.0),) * sys.k
        return (1.0,) * sys.k
    if kind == "variational":
        return ()
    raise ConfigError(f"unknown Lagrangian kind {kind!r}")


@dataclass(frozen=True)
class LagrangianModel:
    """A closed-form Lagrangian of one of the three families.

    ``coefficients`` holds C_b (kind first, one per q_a coordinate in order
    (r2, s_1..s_k)), a_b (kind second, one per s coordinate), or is empty
    (variational).  A first/second model is also the Hamiltonian model of
    its Legendre image.
    """

    system: SystemSpec
    kind: str
    coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        if self.kind not in LAGRANGIAN_KINDS:
            raise ConfigError(f"unknown Lagrangian kind {self.kind!r}")
        if not all(map(math.isfinite, self.coefficients)):
            raise ConfigError(f"model coefficients must be finite, got {self.coefficients}")
        if self.kind == "first":
            if len(self.coefficients) != self.system.n - 1:
                raise ConfigError("kind first needs one C_b per q_a coordinate")
            if any(c == 0.0 for c in self.coefficients):
                raise ConfigError("kind first requires all C_b nonzero")
        elif self.kind == "second":
            if len(self.coefficients) != self.system.k:
                raise ConfigError("kind second needs one coefficient per s coordinate")
            if any(c == 0.0 for c in self.coefficients):
                raise ConfigError("kind second requires all coefficients nonzero")
            if not self.system.constant_measure:
                raise ConfigError(
                    "kind second is only defined for systems with constant "
                    "invariant measure"
                )
        elif self.coefficients:
            raise ConfigError("the variational Lagrangian has no free parameters")

    # The coordinate layout, decided here once for every route.

    @cached_property
    def kinetic(self) -> tuple[tuple[int, float], ...]:
        """(b, I_b) for each coordinate past r1 charged (1/2) I_b q_b'^2:
        r2 for kind second, none otherwise."""
        return ((1, self.system.i2),) if self.kind == "second" else ()

    @cached_property
    def terms(self) -> tuple[tuple[int, float], ...]:
        """(b, coefficient) for each coordinate b charged
        (1/2) coefficient q_b'^2 / (E_b r1'), E_b being the system's
        exp_xi_exprs[b - 1]: b = 1..n-1 for kind first, 2..n-1 for kind
        second, none for variational."""
        return tuple(enumerate(self.coefficients, 1 + len(self.kinetic)))

    @cached_property
    def weight_start(self) -> int:
        """Where the terms' (E_b, E_b') pairs start in the system's
        ``weight_table``: after the pairs of the kinetic coordinates."""
        return 2 * len(self.kinetic)

    def _weight_values(self, r1: float):
        """(b, coefficient, E_b(r1), E_b'(r1)) for each term; raises
        ``weight_vanishes(b - 1)`` where a weight falls below ``COEFF_EPS``."""
        values = iter(self.system.weight_table(r1)[self.weight_start:])
        vals = []
        for (b, c), value, slope in zip(self.terms, values, values):
            if abs(value) < COEFF_EPS:
                raise weight_vanishes(b - 1, r1)
            vals.append((b, c, value, slope))
        return vals

    def momentum_sum(self, r1: float, p) -> float:
        """p_1 + (1/2) sum E_b p_b^2 / coeff_b."""
        _require_hamiltonian(self)
        total = p[0]
        values = iter(self.system.weight_table(r1)[self.weight_start:])
        for (b, c), e_val, _ in zip(self.terms, values, values):
            total += 0.5 * e_val * p[b] ** 2 / c
        return total


def lagrangian_model(sys: SystemSpec, kind: str, coefficients=None) -> LagrangianModel:
    """Build a model; with no coefficients, the preset model of this kind."""
    if coefficients is None:
        coefficients = default_coefficients(sys, kind)
    return LagrangianModel(sys, kind, tuple(coefficients))


def _require_moving(r1dot: float):
    if r1dot == 0.0:
        raise SingularVelocityError("model undefined on r1dot = 0")


def _require_hamiltonian(model: LagrangianModel):
    if model.kind == "variational":
        raise ConfigError("the variational Lagrangian has no closed-form Hamiltonian")


def lagrangian_value(model: LagrangianModel, jet: Jet) -> float:
    sys = model.system
    u = jet.qdot
    if model.kind == "variational":
        value = 0.5 * (sys.i1 * u[0] ** 2 + sys.i2 * u[1] ** 2)
        for a in range(sys.k):
            value -= 0.5 * sys.i_alpha[a] * u[2 + a] ** 2
            value -= sys.i_alpha[a] * sys.a_fns[a](jet.r1) * u[2 + a] * u[1]
        return value
    _require_moving(jet.r1dot)
    weights = model._weight_values(jet.r1)
    value = 0.5 * sys.i1 * u[0] ** 2
    for b, inertia in model.kinetic:
        value += 0.5 * inertia * u[b] ** 2
    for b, c, e_val, _ in weights:
        value += 0.5 * c * u[b] ** 2 / (e_val * u[0])
    return value


def _arrowhead(model: LagrangianModel, r1: float, u, weights):
    """The velocity Hessian as (hub, diag, arm): g[b, b] = diag[b],
    g[hub, b] = g[b, hub] = arm[b] for b != hub (arm[hub] = 0), every other
    entry zero.

    The hub is r1 for kinds first and second, whose ``weights`` come from
    ``_weight_values``, and r2 for the variational kind (``weights`` unused).
    """
    sys = model.system
    if model.kind == "variational":
        diag = [sys.i1, sys.i2, *[-i_a for i_a in sys.i_alpha]]
        arm = [0.0, 0.0, *[-i_a * a_fn(r1) for i_a, a_fn in zip(sys.i_alpha, sys.a_fns)]]
        return 1, diag, arm
    u1 = u[0]
    diag = [sys.i1] + [0.0] * (sys.n - 1)
    arm = [0.0] * sys.n
    for b, inertia in model.kinetic:
        diag[b] = inertia
    for b, c, e_val, _ in weights:
        c_over_e = c / e_val
        diag[0] += c_over_e * u[b] ** 2 / u1**3
        arm[b] = -c_over_e * u[b] / u1**2
        diag[b] = c_over_e / u1
    return 0, diag, arm


def _arrowhead_solve(hub: int, diag, arm, rhs) -> list[float]:
    """Solve g x = rhs for the arrowhead g of ``_arrowhead``: eliminate each
    spoke into the hub's Schur complement g_hh - sum g_hb^2 / g_bb, solve
    for the hub, then back-substitute into the spokes."""
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


def hessian(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Velocity Hessian of the Lagrangian; a multiplier for its dynamics."""
    weights = ()
    if model.kind != "variational":
        _require_moving(jet.r1dot)
        weights = model._weight_values(jet.r1)
    hub, diag, arm = _arrowhead(model, jet.r1, jet.qdot, weights)
    g = np.diag(diag)
    g[hub, :] = g[:, hub] = arm
    g[hub, hub] = diag[hub]
    return g


def hessian_velocity_jacobian(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Exact dg/dq' of the model Hessian; leading axis is the velocity index."""
    sys = model.system
    n = sys.n
    out = np.zeros((n, n, n))
    if model.kind == "variational":
        return out
    _require_moving(jet.r1dot)
    u = jet.qdot
    u1 = u[0]
    for b, c, e_val, _ in model._weight_values(jet.r1):
        w = c / e_val
        ub = u[b]
        out[0][0, 0] += -3.0 * w * ub**2 / u1**4
        out[0][0, b] = out[0][b, 0] = 2.0 * w * ub / u1**3
        out[0][b, b] = -w / u1**2
        out[b][0, 0] = 2.0 * w * ub / u1**3
        out[b][0, b] = out[b][b, 0] = -w / u1**2
    return out


def hessian_coordinate_jacobian(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Exact dg/dq of the model Hessian; only the r1 slot is nonzero."""
    sys = model.system
    n = sys.n
    out = np.zeros((n, n, n))
    if model.kind == "variational":
        a_prime = sys.a_prime_table(jet.r1)
        for a in range(sys.k):
            slope = -sys.i_alpha[a] * a_prime[a]
            out[0][1, 2 + a] = out[0][2 + a, 1] = slope
        return out
    _require_moving(jet.r1dot)
    u = jet.qdot
    u1 = u[0]
    for b, c, e_val, e_slope in model._weight_values(jet.r1):
        w_slope = -c * e_slope / e_val**2
        ub = u[b]
        out[0][0, 0] += w_slope * ub**2 / u1**3
        out[0][0, b] = out[0][b, 0] = -w_slope * ub / u1**2
        out[0][b, b] = w_slope / u1
    return out


def hessian_field(model: LagrangianModel):
    """The model Hessian packaged as a multiplier field with exact
    derivatives, suitable for tight-tolerance condition checks."""
    from .helmholtz import MultiplierField

    return MultiplierField(
        fn=lambda jet: hessian(model, jet),
        provenance="hessian-of-L",
        velocity_jacobian=lambda jet: hessian_velocity_jacobian(model, jet),
        coordinate_jacobian=lambda jet: hessian_coordinate_jacobian(model, jet),
    )


def _euler_lagrange_accel(model: LagrangianModel, r1: float, u) -> list[float]:
    """Accelerations solving g(q, q') qddot = dL/dq - (d^2 L / dq' dr1) r1'
    at coordinate r1 and velocities u, with the closed-form partials of the
    model and an arrowhead solve of its Hessian."""
    sys = model.system
    if model.kind == "variational":
        weights = ()
        drift = 0.0
        force = [0.0, 0.0]
        for i_a, ap, u_a in zip(sys.i_alpha, sys.a_prime_table(r1), u[2:]):
            drift += i_a * ap * u_a
            force.append(i_a * ap * u[1] * u[0])
        force[0] = -drift * u[1]
        force[1] = drift * u[0]
    else:
        _require_moving(u[0])
        weights = model._weight_values(r1)
        force = [0.0] * sys.n
        total = 0.0
        for b, c, e_val, e_slope in weights:
            ub = u[b]
            force[b] = c * ub * e_slope / e_val**2
            total += c * ub**2 * e_slope / e_val**2
        force[0] = -total / u[0]
    return _arrowhead_solve(*_arrowhead(model, r1, u, weights), force)


def euler_lagrange_rhs(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Accelerations solving the Euler-Lagrange equations at a jet."""
    return np.array(_euler_lagrange_accel(model, jet.r1, jet.qdot))


def euler_lagrange_ode(model: LagrangianModel):
    """First-order right-hand side on (q, q') for trajectory runs."""
    n = model.system.n

    def rhs(t: float, y) -> list[float]:
        u = y[n:]
        return [*u, *_euler_lagrange_accel(model, y[0], u)]

    return rhs


# --- Legendre transform -------------------------------------------------------


def legendre(model: LagrangianModel, jet: Jet) -> PhaseState:
    """Velocity-to-momentum map p_i = dL/dq'_i of the model at a jet."""
    sys = model.system
    u = jet.qdot
    p = np.zeros(sys.n)
    if model.kind == "variational":
        p[0] = sys.i1 * u[0]
        p[1] = sys.i2 * u[1]
        for a in range(sys.k):
            a_val = sys.a_fns[a](jet.r1)
            p[1] -= sys.i_alpha[a] * a_val * u[2 + a]
            p[2 + a] = -sys.i_alpha[a] * (u[2 + a] + a_val * u[1])
        return PhaseState(jet.q, tuple(p))
    _require_moving(jet.r1dot)
    weights = model._weight_values(jet.r1)
    u1 = u[0]
    p[0] = sys.i1 * u1
    for b, inertia in model.kinetic:
        p[b] = inertia * u[b]
    for b, c, e_val, _ in weights:
        p[b] = c * u[b] / (e_val * u1)
        p[0] -= 0.5 * c * u[b] ** 2 / (e_val * u1**2)
    return PhaseState(jet.q, tuple(p))


def legendre_inverse(model: LagrangianModel, ps: PhaseState) -> Jet:
    """Recover the jet mapped to ``ps``; exact closed-form inversion.

    For kinds first/second the r1 velocity is read off the momentum
    combination that the Hamiltonian squares, so its sign is determined by
    the phase point; points with that combination zero have no preimage.
    """
    sys = model.system
    p = ps.p
    if model.kind == "variational":
        g = hessian(model, Jet(ps.q, (1.0,) * sys.n))
        try:
            u = np.linalg.solve(g, np.array(p))
        except np.linalg.LinAlgError as exc:
            raise SingularHessianError("variational kinetic matrix singular") from exc
        return Jet(ps.q, tuple(u))
    weights = model._weight_values(ps.r1)
    total = model.momentum_sum(ps.r1, p)
    if total == 0.0:
        raise SingularVelocityError("phase point lies over r1dot = 0")
    u = np.zeros(sys.n)
    u[0] = total / sys.i1
    for b, inertia in model.kinetic:
        u[b] = p[b] / inertia
    for b, c, e_val, _ in weights:
        u[b] = e_val * p[b] * u[0] / c
    return Jet(ps.q, tuple(u))


# --- Hamiltonians -----------------------------------------------------------------


def hamiltonian_model(sys: SystemSpec, kind: str, coefficients=None) -> LagrangianModel:
    """The kind first/second model whose Legendre image the Hamiltonian
    functions evaluate; it carries the same data as the Lagrangian."""
    if kind not in HAMILTONIAN_KINDS:
        raise ConfigError(f"unknown Hamiltonian kind {kind!r}")
    return lagrangian_model(sys, kind, coefficients)


def hamiltonian_value(model: LagrangianModel, ps: PhaseState) -> float:
    sys = model.system
    total = model.momentum_sum(ps.r1, ps.p)
    value = total**2 / (2.0 * sys.i1)
    for b, inertia in model.kinetic:
        value += ps.p[b] ** 2 / (2.0 * inertia)
    return value


def _hamilton_field(model: LagrangianModel, r1: float, p) -> list[float]:
    """Canonical vector field at coordinate r1 and momenta p, as the list
    (dq/dt, dp/dt); closed-form partials, each E_b evaluated once."""
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


def hamilton_rhs(model: LagrangianModel, ps: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Canonical vector field (dq/dt, dp/dt); closed-form partials."""
    field = np.array(_hamilton_field(model, ps.r1, ps.p))
    return field[: ps.dim], field[ps.dim :]


def hamilton_ode(model: LagrangianModel):
    """First-order right-hand side on the stacked phase state (q, p)."""
    n = model.system.n

    def rhs(t: float, y) -> list[float]:
        return _hamilton_field(model, y[0], y[n:])

    return rhs


def phase_columns(sys: SystemSpec) -> tuple[str, ...]:
    return sys.names + tuple("p" + n for n in sys.names)


def phase_constraint_residual(model: LagrangianModel, ps: PhaseState) -> tuple[float, ...]:
    """One residual per constrained coordinate; zero exactly on the image of
    the constraint distribution under the Legendre transform."""
    sys = model.system
    p = ps.p
    if model.kind == "first":
        c2 = model.coefficients[0]
        return tuple(
            c2 * p[2 + a] + model.coefficients[1 + a] * p[1] for a in range(sys.k)
        )
    u1 = model.momentum_sum(ps.r1, p) / sys.i1
    n_val = sys.measure_fn(ps.r1)
    return tuple(
        sys.i2 * n_val * u1 * p[2 + a] + model.coefficients[a] * p[1]
        for a in range(sys.k)
    )
