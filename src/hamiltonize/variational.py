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
coefficient and E_b (``terms``).  The pointwise formulas read a model's
weights through one generated read, ``_weight_pairs``: E_b and E_b' from the
system's ``weight_table`` under the second associated system's guard (kind
second reads no r2 pair), or A_a and A_a' for the variational kind.  Every
model quantity is straight-line code generated once per system and model,
with every inertia and coefficient a literal, by one of three builders:

- ``_entries``, a function ``entries(u, w)`` of the velocities and the weight
  values (``_weights``): the velocity Hessian (``hessian``, and on complex
  steps the slopes of ``hessian_field``), the Legendre map (``legendre``) and
  ``lagrangian_value``;
- ``_kernel``, a function of r1 and the momenta that splices the weights in:
  ``momentum_sum``, ``hamiltonian_value``, ``phase_constraint_residual`` and
  the optimal-control functions of ``pontryagin``;
- ``expr.define_rhs``, the trajectory right-hand sides ``euler_lagrange_ode``
  and ``hamilton_ode``.

The Legendre inverse reads the canonical flow's dq/dt = dH/dp.  Three rules
spare that code needless work, every bit and error kept:

- a factor or divisor that is a constant equal to 1.0 is left out
  (``expr.times``, ``expr.over``), since a float multiplies and divides by
  1.0 exactly; ``_entries``' statements, which run on complex steps too,
  keep theirs;
- a power or product that a statement list uses again over the same
  operands (``u1 ** 2``, ``u0 ** 3``, ``p1 ** 2``) is bound where it is first
  computed, ``(u1_2 := u1 ** 2)``, and read after (``_once``), so no
  operation that can raise moves ahead of another;
- a right-hand side sets each value of the weights alone (``e1 ** 2``,
  ``(c) / e1``, ``0.5 * e1``) in its table block, after the guards (only the
  overflow of a square can then come ahead of another's, the same error),
  and each momentum's square as ``fixed`` (``expr.RhsParts``).

The Hessian's entries are one set of statements, ``_hessian_lines``, which the
Euler-Lagrange program solves and ``hessian`` runs; the slopes of
``hessian_field`` run them on complex steps of size ``CS_STEP`` (the step of
``pontryagin``'s control gradient too), the velocities and weights moved, and
the Legendre map's statements give its derivative the same way.

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
read off the p_1 partial.  The Legendre transform serves kinds first and
second: its image carries exactly the data of the Lagrangian, so a
first/second model is its own Hamiltonian model, and the Legendre and
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
from .errors import ConfigError, SingularVelocityError
from .systems import Jet, SystemSpec, weight_lines

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

    @property
    def hub(self) -> int:
        """The velocity Hessian's hub row and column: r2 for the variational kind, else r1."""
        return 1 if self.kind == "variational" else 0

    def _weight_pairs(self, r1: float) -> tuple[float, ...]:
        """The values at r1 of ``_weight_names``, flat: (E_b, E_b') for each
        term, guarded by ``weight_lines``, or (A_a, A_a') for each s_a of the
        variational kind.  Generated once per system and kind."""
        return self.system.kernel(("weights", self.kind), lambda: ex.define(
            "weights(r1)", [*_weight_lines(self), f"return ({', '.join(_weight_names(self))},)"],
            system=self.system))(r1)

    def momentum_sum(self, r1: float, p) -> float:
        """p_1 + (1/2) sum E_b p_b^2 / coeff_b."""
        return _kernel(self, "momentum_sum", "p", lambda m: [f"return {_momentum_sum(m)}"])(r1, p)


def lagrangian_model(sys: SystemSpec, kind: str, coefficients=None) -> LagrangianModel:
    """Build a model; with no coefficients, the preset model of this kind."""
    if coefficients is None:
        coefficients = default_coefficients(sys, kind)
    return LagrangianModel(sys, kind, tuple(coefficients))


def _require_hamiltonian(model: LagrangianModel):
    if model.kind == "variational":
        raise ConfigError("the variational Lagrangian has no closed-form Hamiltonian")


def _weights(model: LagrangianModel, jet: Jet) -> tuple[float, ...]:
    """The weight values at the jet, E_b or A_a, after refusing r1' = 0 where terms divide by it."""
    if model.terms and jet.r1dot == 0.0:
        raise SingularVelocityError("model undefined on r1dot = 0")
    return model._weight_pairs(jet.r1)[::2]


def lagrangian_value(model: LagrangianModel, jet: Jet) -> float:
    """L at a jet: ``_entries`` of ``_lagrangian_lines`` at its velocities and weights."""
    return _entries(model, "lagrangian", _lagrangian_lines)(jet.qdot, _weights(model, jet))


def _lagrangian_lines(model: LagrangianModel) -> list[str]:
    """L over the locals u<b> and the weight values, summed term by term."""
    sys = model.system
    if model.kind == "variational":
        lines = [f"v = 0.5 * ({_literal(sys.i1)} * u0 ** 2 + {_literal(sys.i2)} * u1 ** 2)"]
        for a, i_a in enumerate(sys.i_alpha):
            lines += [f"v = v - 0.5 * {_literal(i_a)} * u{2 + a} ** 2",
                      f"v = v - {_literal(i_a)} * a{a} * u{2 + a} * u1"]
        return [*lines, "return v"]
    lines = [f"v = 0.5 * {_literal(sys.i1)} * u0 ** 2",
             *(f"v = v + 0.5 * {_literal(i_b)} * u{b} ** 2" for b, i_b in model.kinetic),
             *(f"v = v + 0.5 * {_literal(c)} * u{b} ** 2 / (e{b} * u0)" for b, c in model.terms)]
    return [*lines, "return v"]


def hessian(model: LagrangianModel, jet: Jet) -> np.ndarray:
    """Velocity Hessian of the Lagrangian, a multiplier for its dynamics:
    the ``_entries`` of ``_hessian_entry_lines`` at the jet's velocities and weights."""
    diag, arm = _entries(model, "hessian", _hessian_entry_lines)(jet.qdot, _weights(model, jet))
    hub = model.hub
    g = np.diag(diag)
    g[hub, :] = g[:, hub] = arm
    g[hub, hub] = diag[hub]
    return g


def _hessian_slopes(model: LagrangianModel, jets, dq, du) -> np.ndarray:
    """Exact derivatives of the model Hessian at each jet along each of its
    directions (dq[j, k], du[j, k]), a (jets, directions, n, n) stack.

    The ``_entries`` of ``_hessian_entry_lines`` run once on complex arrays
    of shape (jets, directions): the velocities step to u + i h du and each
    weight, a function of r1 alone, to w + i h dq_1 w'.  Each slope is
    Im(entry) / h with h = ``CS_STEP``, exact to roundoff.
    """
    n, hub, step = model.system.n, model.hub, CS_STEP * 1j
    pairs = np.array([model._weight_pairs(jet.r1) for jet in jets])
    values, primes = pairs.reshape(len(jets), -1, 2).T  # w and w', (weights, jets)
    weights = [value[:, None] + step * dq[..., 0] * prime[:, None]
               for value, prime in zip(values, primes)]
    u = [np.array([jet.qdot[b] for jet in jets])[:, None] + step * du[..., b] for b in range(n)]
    diag, arm = _entries(model, "hessian", _hessian_entry_lines)(u, weights)
    out = np.zeros((*dq.shape[:2], n, n))
    for b in range(n):
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
    Hessian, whose entries are the statements of ``_hessian_lines`` that
    ``hessian`` runs too, generated once per system and model."""
    return model.system.kernel(("euler-lagrange", model.kind, model.coefficients),
                               lambda: _euler_lagrange_kernel(model))


def _literal(value: float) -> str:
    return f"({value!r})"


def _weight_names(model: LagrangianModel) -> list[str]:
    """The locals of the model's weight pairs, flat: e<b>, s<b> for each term,
    or a<a>, p<a> (A_a, A_a') for each s_a of the variational kind."""
    if model.kind == "variational":
        return [x for a in range(model.system.k) for x in (f"a{a}", f"p{a}")]
    return [x for b, _ in model.terms for x in (f"e{b}", f"s{b}")]


def _weight_lines(model: LagrangianModel, guard: bool = True) -> list[str]:
    """Statements setting the locals of ``_weight_names``: the system's
    ``weight_lines`` from the model's first term on, or for the variational
    kind A_a' and A_a spliced in, with no guard."""
    sys = model.system
    if model.kind != "variational":
        return weight_lines(sys, model.weight_start, guard)
    names = _weight_names(model)
    return ex.splice((*sys.a_prime, *sys.a_alpha), [*names[1::2], *names[::2]],
                     "(*system.a_prime_table(r1), *[fn(r1) for fn in system.a_fns])")


def _once(bound: set | None, name: str, text: str) -> str:
    """Source of the value of ``text``, a name or a pure expression over
    locals that a stage does not reassign: at its first use in a stage
    ``(name := text)``, after that ``name``, the names bound so far being
    ``bound``; ``text`` itself where it is a name or ``bound`` is None."""
    if bound is None or text.isidentifier():
        return text
    if name in bound:
        return name
    bound.add(name)
    return f"({name} := {text})"


def _momentum_sum(model: LagrangianModel, bound: set | None = None) -> str:
    """Source of ``momentum_sum`` over the locals p<b> and e<b>, summed in
    its order; each 0.5 * e<b> and p<b> ** 2 read as ``_once`` gives it."""
    return " + ".join(["p0", *(ex.over(f"{_once(bound, f'e{b}_h', f'0.5 * e{b}')}"
                                       f" * {_once(bound, f'p{b}_2', f'p{b} ** 2')}", c)
                               for b, c in model.terms)])


def _kernel(model: LagrangianModel, name: str, args: str, body, arrays: bool = False):
    """The generated ``name(r1, *args)`` of a first/second model, once per
    system and model: the sequences named by the letters of ``args`` unpacked
    into locals, the weights E_b spliced in (not their slopes, which none
    reads) with the joint table as the fallback, then the statements
    ``body(model)``, which may raise the guards' errors.  With ``arrays``,
    the weight pairs are assigned with no domain check and the function runs
    on numpy arrays (``expr.ARRAY_GLOBALS``), every local one member per point."""
    def build():
        _require_hamiltonian(model)
        signature = f"{name}({', '.join(['r1', *args])})"
        unpack = [f"{', '.join(_names(a, model))}, = {a}" for a in args]
        if arrays:
            weights = ex.assign(model.system.weight_table.exprs[model.weight_start:],
                                _weight_names(model))
            return ex.define(signature, [*unpack, *weights, *body(model)], **ex.ARRAY_GLOBALS)
        start = model.weight_start
        weights = ex.splice(model.system.weight_table.exprs[start::2], _weight_names(model)[::2],
                            f"system.weight_table(r1)[{start}::2]")
        return ex.define(signature, [*unpack, *weights, *body(model)], system=model.system)

    return model.system.kernel((name, model.kind, model.coefficients), build)


def _names(letter: str, model: LagrangianModel) -> list[str]:
    return [f"{letter}{b}" for b in range(model.system.n)]


def _hessian_lines(model: LagrangianModel, bound: set, table: list) -> list[str]:
    """Statements setting d<b> = g_bb and, for b off the hub, h<b> = g_hb
    of the velocity Hessian, an arrowhead, over the locals u<b> and the
    weight values: the one copy of its arithmetic, its powers of the
    velocities read as ``_once`` gives them.  It runs on complex steps too,
    so no unit factor is dropped.  Each w<b> = c / e<b>, a value of the
    weights alone, goes to the list ``table``, not among the lines returned."""
    sys = model.system
    if model.kind == "variational":
        return [f"d0 = {_literal(sys.i1)}", f"d1 = {_literal(sys.i2)}", "h0 = 0.0",
                *(f"h{2 + a} = {_literal(-i_a)} * a{a}; d{2 + a} = {_literal(-i_a)}"
                  for a, i_a in enumerate(sys.i_alpha))]
    lines = [*(f"d{b} = {_literal(i_b)}; h{b} = 0.0" for b, i_b in model.kinetic),
             f"d0 = {_literal(sys.i1)}"]
    for b, c in model.terms:
        table.append(f"w{b} = {_literal(c)} / e{b}")
        lines += [f"d0 = d0 + w{b} * {_once(bound, f'u{b}_2', f'u{b} ** 2')}"
                  f" / {_once(bound, 'u0_3', 'u0 ** 3')}",
                  f"h{b} = -w{b} * u{b} / {_once(bound, 'u0_2', 'u0 ** 2')}", f"d{b} = w{b} / u0"]
    return lines


def _entries(model: LagrangianModel, name: str, body):
    """The generated ``entries(u, w)`` of ``name``, once per system and model:
    the velocities ``u`` and the weight values ``w`` (``_weights``) unpacked
    into the locals u<b> and e<b> or a<a>, then the statements
    ``body(model)``, plain arithmetic that runs alike on floats and on arrays
    of complex steps, so no unit factor is dropped."""
    return model.system.kernel((name, model.kind, model.coefficients), lambda: ex.define(
        "entries(u, w)", [f"{', '.join(_names('u', model))}, = u",
                          f"{', '.join(_weight_names(model)[::2])}, = w", *body(model)]))


def _hessian_entry_lines(model: LagrangianModel) -> list[str]:
    """The values of the weights alone, then the rest of ``_hessian_lines``, then
    the Hessian's diagonal and its hub's row (0 at the hub)."""
    arm = ", ".join("0.0" if b == model.hub else f"h{b}" for b in range(model.system.n))
    table = []
    lines = _hessian_lines(model, set(), table)
    return [*table, *lines, f"return [{', '.join(_names('d', model))}], [{arm}]"]


def _euler_lagrange_kernel(model: LagrangianModel):
    """The loops over the layout unrolled, every inertia and coefficient a
    literal: the force f<b>, the Hessian's entries, then its solve, each
    repeated value computed once (``_once``).  A kinetic coordinate has no
    force and no arm, so its acceleration is the literal 0.0, out of the solve."""
    sys = model.system
    n, hub, bound = sys.n, model.hub, set()
    guard = "if u0 == 0.0: raise SingularVelocityError('model undefined on r1dot = 0')"
    head = [guard] if model.terms else []
    lines, table = ["g = 0.0"], _weight_lines(model)
    if model.kind == "variational":
        for a, i_a in enumerate(sys.i_alpha):
            table.append(f"ip{a} = {ex.times(i_a, f'p{a}')}")
            lines += [f"g = g + ip{a} * u{2 + a}", f"f{2 + a} = ip{a} * u1 * u0"]
        lines += ["f0 = -g * u1", "f1 = g * u0"]
    else:
        for b, c in model.terms:
            table.append(f"e{b}_2 = e{b} ** 2")
            square = _once(bound, f"u{b}_2", f"u{b} ** 2")
            lines += [f"f{b} = {ex.times(c, f'u{b} * s{b}')} / e{b}_2",
                      f"g = g + {ex.times(c, square)} * s{b} / e{b}_2"]
        lines.append("f0 = -g / u0")
    # eliminate each spoke into the hub's Schur complement g_hh - sum g_hb^2 / g_bb,
    # solve for the hub, then back-substitute into the spokes
    spokes = [b for b in range(n) if b != hub and b not in dict(model.kinetic)]
    solve = [*(f"if d{b} == 0.0: raise SingularHessianError("
               f"'Hessian singular: diagonal entry {b} is 0')" for b in spokes),
             f"schur = d{hub}" + "".join(f" - h{b} * h{b} / d{b}" for b in spokes),
             "if schur == 0.0: raise SingularHessianError("
             "'Hessian singular: the Schur complement of the hub is 0')"]
    # the variational Hessian and Schur complement are values of r1 alone
    (table if model.kind == "variational" else lines).extend(
        [*_hessian_lines(model, bound, table), *solve])
    lines += [f"top = f{hub}" + "".join(f" - h{b} * f{b} / d{b}" for b in spokes),
              f"x{hub} = top / schur", *(f"x{b} = (f{b} - h{b} * x{hub}) / d{b}" for b in spokes)]
    accelerations = (f"x{b}" if b in (hub, *spokes) else "0.0" for b in range(n))
    return ex.define_rhs(ex.state_names(n, n), head, table, lines,
                         [*_names("u", model), *accelerations], system=sys)


# --- Legendre transform -------------------------------------------------------


def legendre(model: LagrangianModel, jet: Jet) -> PhaseState:
    """Velocity-to-momentum map p_i = dL/dq'_i of a first/second model at a
    jet: ``_entries`` of ``_legendre_lines`` at its velocities and weights."""
    _require_hamiltonian(model)
    momenta = _entries(model, "legendre", _legendre_lines)
    return PhaseState(jet.q, momenta(jet.qdot, _weights(model, jet)))


def _legendre_lines(model: LagrangianModel) -> list[str]:
    """p<b> over the locals u<b> and e<b>: p0 less each term's share in turn,
    its powers of the velocities read as ``_once`` gives them."""
    bound = set()
    lines = [f"p0 = {_literal(model.system.i1)} * u0",
             *(f"p{b} = {_literal(i_b)} * u{b}" for b, i_b in model.kinetic)]
    for b, c in model.terms:
        lines += [f"p{b} = {_literal(c)} * u{b} / (e{b} * u0)",
                  f"p0 = p0 - 0.5 * {_literal(c)} * {_once(bound, f'u{b}_2', f'u{b} ** 2')}"
                  f" / (e{b} * {_once(bound, 'u0_2', 'u0 ** 2')})"]
    return [*lines, f"return ({', '.join(_names('p', model))},)"]


def legendre_inverse(model: LagrangianModel, ps: PhaseState) -> Jet:
    """The jet over ``ps.q`` that a first/second model maps to ``ps``: the
    canonical flow's dq/dt there, r1' being the momentum sum over I1.  The
    weights are guarded first, as the Lagrangian's are, though H is smooth
    where one vanishes."""
    _require_hamiltonian(model)
    model._weight_pairs(ps.r1)
    qdot = hamilton_rhs(model, ps)[0]
    if qdot[0] == 0.0:
        raise SingularVelocityError("phase point lies over r1dot = 0")
    return Jet(ps.q, tuple(qdot))


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
    halves = {f"{w}{b}_h": f"0.5 * {w}{b}" for b, _ in model.terms for w in "es"}
    squares = {f"p{b}_2": f"p{b} ** 2" for b, _ in model.terms}
    lines = [f"m = {_momentum_sum(model, {*halves, *squares})}", "g = 0.0"]
    for b, c in model.terms:
        lines.append(f"g = g + {ex.over(f's{b}_h * p{b}_2', c)}")
    lines.append(f"v = {ex.over('m', sys.i1)}")
    qdot = ["v"]
    for b, inertia in model.kinetic:
        qdot.append(ex.over(f"p{b}", inertia))
    for b, c in model.terms:
        qdot.append(ex.over(f"v * e{b} * p{b}", c))
    table = [*_weight_lines(model, guard=False), *(f"{x} = {v}" for x, v in halves.items())]
    return ex.define_rhs(ex.state_names(sys.n, sys.n, "p"), [], table, lines,
                         [*qdot, "-v * g", *["0.0"] * (sys.n - 1)],
                         [f"{x} = {v}" for x, v in squares.items()], system=sys)


def phase_columns(sys: SystemSpec) -> tuple[str, ...]:
    return sys.names + tuple("p" + n for n in sys.names)


def phase_constraint_residual(model: LagrangianModel, ps: PhaseState) -> tuple[float, ...]:
    """One residual per constrained coordinate; zero exactly on the image of
    the constraint distribution under the Legendre transform.  Generated once
    per system and model; it reads the weights first, as every such function
    does, so it raises where one is undefined."""
    return _kernel(model, "phase_constraint_residual", "p", _phase_constraint_lines)(ps.r1, ps.p)


def _phase_constraint_lines(model: LagrangianModel) -> list[str]:
    """C_2 p_(s_a) + C_(s_a) p_2 for kind first; I2 N r1'(p) p_(s_a) + a_a p_2
    for kind second, r1'(p) the momentum sum over I1 and N spliced in after it."""
    sys = model.system
    if model.kind == "first":
        lines, scale, factors = [], model.coefficients[0], ""
    else:
        lines = [f"u0 = {ex.over(f'({_momentum_sum(model)})', sys.i1)}",
                 *ex.splice((sys.measure_expr,), ["n"], "(system.measure_fn(r1),)")]
        scale, factors = sys.i2, "n * u0 * "
    residuals = (f"{ex.times(scale, f'{factors}p{b}')} + {ex.times(c, 'p1')}, "
                 for b, c in model.terms if b > 1)
    return [*lines, f"return ({''.join(residuals)})"]
