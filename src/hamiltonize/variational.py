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
coefficient and E_b (``terms``).  Each first/second formula below reads E_b
and E_b' from the system's ``weight_table`` and guards the weights as the
second associated system does.  The other pointwise formulas loop over
``_weight_values``; it, ``momentum_sum``, ``hamiltonian_value`` and the
trajectory right-hand sides are straight-line code generated once per system
and model, with every inertia and coefficient a literal and the model's
weight pairs spliced in from the table (kind second reads no r2 pair).

The slopes of ``hessian_field`` are complex steps of size ``CS_STEP`` (the
step of ``pontryagin``'s control gradient too) of the Hessian's own
arithmetic, ``_arrowhead``, with the velocities and each weight moved.

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
Lagrangian, so a first/second model is its own Hamiltonian model: the
Hamiltonian functions take the ``lagrangian_model``, read the same layout
and refuse a variational one.  Both Hamiltonians are globally smooth even
though the Lagrangians are not, and their canonical flows restricted to the
constraint set reproduce the nonholonomic motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
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
CS_STEP = 1e-30  # complex step: its square vanishes against any real part


@dataclass(frozen=True)
class PhaseState:
    """A point (q, p) of phase space; momenta are indexed like coordinates."""

    q: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.q) != len(self.p):
            raise ConfigError("phase state q and p lengths differ")
        object.__setattr__(self, "q", tuple(map(float, self.q)))
        object.__setattr__(self, "p", tuple(map(float, self.p)))

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
        if self.kind == "second" and not self.system.constant_measure:
            raise ConfigError(
                "kind second is only defined for systems with constant invariant measure")
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
        return _kernel(self, "weight_values", "", _weight_values_lines)(r1)

    def momentum_sum(self, r1: float, p) -> float:
        """p_1 + (1/2) sum E_b p_b^2 / coeff_b."""
        return _kernel(self, "momentum_sum", "p", lambda m: [f"return {_momentum_sum(m)}"])(r1, p)


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


def _arrowhead(model: LagrangianModel, u, weights):
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


def hessian(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Velocity Hessian of the Lagrangian; a multiplier for its dynamics."""
    if model.kind == "variational":
        weights = [a_fn(jet.r1) for a_fn in model.system.a_fns]
    else:
        _require_moving(jet.r1dot)
        weights = [e_val for _, _, e_val, _ in model._weight_values(jet.r1)]
    hub, diag, arm = _arrowhead(model, jet.qdot, weights)
    g = np.diag(diag)
    g[hub, :] = g[:, hub] = arm
    g[hub, hub] = diag[hub]
    return g


def _hessian_slopes(model: LagrangianModel, jets, dq, du) -> np.ndarray:
    """Exact derivatives of the model Hessian at each jet along each of its
    directions (dq[j, k], du[j, k]), a (jets, directions, n, n) stack.

    ``_arrowhead`` runs once on complex arrays of shape (jets, directions):
    the velocities step to u + i h du and each weight, a function of r1
    alone, to w + i h dq_1 w'.  Each slope is Im(entry) / h with h =
    ``CS_STEP``, exact to roundoff.
    """
    sys = model.system
    step = CS_STEP * 1j
    if model.kind == "variational":
        pairs = [[*zip((a_fn(jet.r1) for a_fn in sys.a_fns), sys.a_prime_table(jet.r1))]
                 for jet in jets]
    else:
        pairs = [[(e_val, e_slope) for _, _, e_val, e_slope in model._weight_values(jet.r1)]
                 for jet in jets]
    values, primes = np.array(pairs).reshape(len(jets), -1, 2).T  # w and w', (weights, jets)
    weights = [value[:, None] + step * dq[..., 0] * prime[:, None]
               for value, prime in zip(values, primes)]
    u = [np.array([jet.qdot[b] for jet in jets])[:, None] + step * du[..., b]
         for b in range(sys.n)]
    hub, diag, arm = _arrowhead(model, u, weights)
    out = np.zeros((*dq.shape[:2], sys.n, sys.n))
    for b in range(sys.n):
        out[..., b, b] = np.imag(diag[b])
        if b != hub:
            out[..., hub, b] = out[..., b, hub] = np.imag(arm[b])
    return out / CS_STEP


def hessian_field(model: LagrangianModel):
    """The model Hessian packaged as a multiplier field whose slopes are
    complex steps of its own arithmetic, suitable for tight-tolerance
    condition checks."""
    from .helmholtz import MultiplierField

    return MultiplierField(fn=lambda jet: hessian(model, jet),
                           slopes=lambda jets, dq, du: _hessian_slopes(model, jets, dq, du))


def euler_lagrange_rhs(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Accelerations solving the Euler-Lagrange equations at a jet."""
    return np.array(euler_lagrange_ode(model)(0.0, jet.q + jet.qdot)[model.system.n:])


def euler_lagrange_ode(model: LagrangianModel):
    """First-order right-hand side on (q, q') for trajectory runs: the
    accelerations solving g(q, q') qddot = dL/dq - (d^2 L / dq' dr1) r1'
    with the closed-form partials of the model and an arrowhead solve of its
    Hessian (``_arrowhead``), generated once per system and model."""
    return model.system.kernel(("euler-lagrange", model.kind, model.coefficients),
                               lambda: _euler_lagrange_kernel(model))


def _literal(value: float) -> str:
    return f"({value!r})"


def _state(n: int, momenta: str) -> list[str]:
    """The locals q<b> and u<b> or p<b> that the state y unpacks into."""
    return [*(f"q{b}" for b in range(n)), *(f"{momenta}{b}" for b in range(n))]


def _weight_names(model: LagrangianModel) -> list[str]:
    """The locals e<b>, s<b> of the model's weight pairs, term by term."""
    return [x for b, _ in model.terms for x in (f"e{b}", f"s{b}")]


def _weight_lines(model: LagrangianModel) -> list[str]:
    """Statements setting e<b> and s<b> to E_b(r1) and E_b'(r1) for each term
    b: the model's pairs of the system's ``weight_table``, spliced in."""
    start = model.weight_start
    return ex.splice(model.system.weight_table.exprs[start:], _weight_names(model),
                     f"table(r1)[{start}:]")


def _momentum_sum(model: LagrangianModel) -> str:
    """Source of ``momentum_sum`` over the locals p<b> and e<b>, summed in
    its order."""
    return " + ".join(["p0", *(f"0.5 * e{b} * p{b} ** 2 / {_literal(c)}" for b, c in model.terms)])


def _weight_guards(model: LagrangianModel) -> list[str]:
    """Statements raising ``weight_vanishes`` for the first term b, in order,
    whose e<b> falls below ``COEFF_EPS``."""
    return [f"if abs(e{b}) < {COEFF_EPS!r}: raise weight_vanishes({b - 1}, r1)"
            for b, _ in model.terms]


def _weight_values_lines(model: LagrangianModel) -> list[str]:
    values = ", ".join(f"({b}, {_literal(c)}, e{b}, s{b})" for b, c in model.terms)
    return [*_weight_guards(model), f"return [{values}]"]


def _kernel(model: LagrangianModel, name: str, args: str, body):
    """The generated ``name(r1, *args)`` of a first/second model, once per
    system and model: the sequences named by the letters of ``args`` unpacked
    into locals, the weights spliced in, then the statements ``body(model)``,
    which may raise the guards' errors."""
    def build():
        _require_hamiltonian(model)
        unpack = [f"{', '.join(_names(a, model))}, = {a}" for a in args]
        return ex.define(f"{name}({', '.join(['r1', *args])})",
                         [*unpack, *_weight_lines(model), *body(model)],
                         table=model.system.weight_table, weight_vanishes=weight_vanishes,
                         SingularVelocityError=SingularVelocityError)

    return model.system.kernel((name, model.kind, model.coefficients), build)


def _names(letter: str, model: LagrangianModel) -> list[str]:
    return [f"{letter}{b}" for b in range(model.system.n)]


def _euler_lagrange_kernel(model: LagrangianModel):
    """The loops over the layout unrolled, every inertia and coefficient a
    literal: the force f<b>, the Hessian's entries d<b> = g_bb and h<b> =
    g_hb of ``_arrowhead``, then its solve."""
    sys = model.system
    n = sys.n
    head = ["r1 = q0"]
    if model.kind == "variational":
        alphas = range(sys.k)
        table = ex.splice((*sys.a_prime, *sys.a_alpha),
                          [*(f"p{a}" for a in alphas), *(f"a{a}" for a in alphas)],
                          "(*a_prime_table(r1), *[a_fn(r1) for a_fn in a_fns])")
        lines = ["g = 0.0"]
        for a, i_a in enumerate(sys.i_alpha):
            lines += [f"g = g + {_literal(i_a)} * p{a} * u{2 + a}",
                      f"f{2 + a} = {_literal(i_a)} * p{a} * u1 * u0"]
        lines += ["f0 = -g * u1", "f1 = g * u0", f"d0 = {_literal(sys.i1)}",
                  f"d1 = {_literal(sys.i2)}", "h0 = 0.0"]
        for a, i_a in enumerate(sys.i_alpha):
            lines += [f"h{2 + a} = {_literal(-i_a)} * a{a}", f"d{2 + a} = {_literal(-i_a)}"]
        bindings = {"a_prime_table": sys.a_prime_table, "a_fns": sys.a_fns}
    else:
        head.append("if u0 == 0.0: raise SingularVelocityError('model undefined on r1dot = 0')")
        table = _weight_lines(model)
        lines = [*_weight_guards(model),
                 *(f"d{b} = {_literal(i_b)}; h{b} = f{b} = 0.0" for b, i_b in model.kinetic),
                 "g = 0.0"]
        for b, c in model.terms:
            lines += [f"f{b} = {_literal(c)} * u{b} * s{b} / e{b} ** 2",
                      f"g = g + {_literal(c)} * u{b} ** 2 * s{b} / e{b} ** 2"]
        lines += ["f0 = -g / u0", f"d0 = {_literal(sys.i1)}"]
        for b, c in model.terms:
            lines += [f"w{b} = {_literal(c)} / e{b}", f"d0 = d0 + w{b} * u{b} ** 2 / u0 ** 3",
                      f"h{b} = -w{b} * u{b} / u0 ** 2", f"d{b} = w{b} / u0"]
        bindings = {"table": sys.weight_table, "weight_vanishes": weight_vanishes,
                    "SingularVelocityError": SingularVelocityError}
    # eliminate each spoke into the hub's Schur complement g_hh - sum g_hb^2 / g_bb,
    # solve for the hub, then back-substitute into the spokes
    hub = 1 if model.kind == "variational" else 0
    spokes = [b for b in range(n) if b != hub]
    lines += [*(f"if d{b} == 0.0: raise SingularHessianError("
                f"'Hessian singular: diagonal entry {b} is 0')" for b in spokes),
              f"schur = d{hub}" + "".join(f" - h{b} * h{b} / d{b}" for b in spokes),
              f"top = f{hub}" + "".join(f" - h{b} * f{b} / d{b}" for b in spokes),
              "if schur == 0.0: raise SingularHessianError("
              "'Hessian singular: the Schur complement of the hub is 0')",
              f"x{hub} = top / schur",
              *(f"x{b} = (f{b} - h{b} * x{hub}) / d{b}" for b in spokes)]
    return ex.define_rhs(_state(n, "u"), head, table, lines,
                         [*(f"u{b}" for b in range(n)), *(f"x{b}" for b in range(n))],
                         SingularHessianError=SingularHessianError, **bindings)


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


def hamiltonian_value(model: LagrangianModel, ps: PhaseState) -> float:
    """H = (momentum sum)^2 / 2 I_1 + sum p_b^2 / 2 I_b over the kinetic
    coordinates, generated once per system and model."""
    return _kernel(model, "hamiltonian_value", "p", _hamiltonian_value_lines)(ps.r1, ps.p)


def _hamiltonian_value_lines(model: LagrangianModel) -> list[str]:
    return [f"m = {_momentum_sum(model)}", f"return {_hamiltonian_value(model)}"]


def _hamiltonian_value(model: LagrangianModel) -> str:
    """Source of H over the locals m (the momentum sum) and p<b>."""
    terms = [f"m ** 2 / {_literal(2.0 * model.system.i1)}",
             *(f"p{b} ** 2 / {_literal(2.0 * inertia)}" for b, inertia in model.kinetic)]
    return " + ".join(terms)


def hamilton_rhs(model: LagrangianModel, ps: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Canonical vector field (dq/dt, dp/dt); closed-form partials."""
    field = np.array(hamilton_ode(model)(0.0, ps.q + ps.p))
    return field[: ps.dim], field[ps.dim :]


def hamilton_ode(model: LagrangianModel):
    """First-order right-hand side on the stacked phase state (q, p):
    closed-form partials, each E_b evaluated once, generated once per system
    and model."""
    _require_hamiltonian(model)
    return model.system.kernel(("hamilton", model.kind, model.coefficients),
                               lambda: _hamilton_kernel(model))


def _hamilton_kernel(model: LagrangianModel):
    sys = model.system
    n = sys.n
    lines = [f"m = {_momentum_sum(model)}", "g = 0.0"]
    for b, c in model.terms:
        lines.append(f"g = g + 0.5 * s{b} * p{b} ** 2 / {_literal(c)}")
    lines.append(f"v = m / {_literal(sys.i1)}")
    qdot = ["v"]
    for b, inertia in model.kinetic:
        qdot.append(f"p{b} / {_literal(inertia)}")
    for b, c in model.terms:
        qdot.append(f"v * e{b} * p{b} / {_literal(c)}")
    return ex.define_rhs(_state(n, "p"), ["r1 = q0"], _weight_lines(model), lines,
                         [*qdot, "-v * g", *["0.0"] * (n - 1)], table=sys.weight_table)


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
