"""System class, built-in examples, invariant measure and raw dynamics.

The systems handled by this package live on a configuration space with
coordinates ``(r1, r2, s_1 .. s_k)``, kinetic-energy Lagrangian

    L = (1/2) * (I1*r1dot^2 + I2*r2dot^2 + sum_a I_a*sdot_a^2),

and one linear velocity constraint per ``s`` coordinate,

    sdot_a = -A_a(r1) * r2dot,

with every coefficient ``A_a`` a non-constant function of ``r1`` alone.
The classical nonholonomic free particle, the knife edge on a plane and the
vertically rolling disk all fit this form and ship as built-ins.

Eliminating the reaction forces gives equations of motion in which ``r1``
moves freely, ``r2`` feels a quadratic velocity coupling weighted by the
invariant-measure density

    N(r1) = 1 / sqrt(I2 + sum_a I_a*A_a(r1)^2),

and the ``s`` velocities stay slaved to the constraint.  Integrating that
first-order system on ``(r1, r2, s, r1dot, r2dot)`` keeps the constraint
satisfied exactly, by construction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import ConfigError, EvaluationError, weight_vanishes  # noqa: F401 (read from here too)

# N counts as constant when |dN/dr1| < MEASURE_SLOPE_TOL at MEASURE_SAMPLES
# points spread over [-1, 1]; the measure check passes when every residual of
# the volume-preservation PDE is below MEASURE_RESIDUAL_TOL in size.
MEASURE_SLOPE_TOL = 1e-12
MEASURE_SAMPLES = 32
MEASURE_RESIDUAL_TOL = 1e-8

# Every reader of ``SystemSpec.weight_table`` that divides by a weight E_b runs
# the guard of ``weight_lines``: ``weight_vanishes`` where |E_b(r1)| < COEFF_EPS.
# Trigonometric weights never evaluate to an exact zero at their roots (cos(pi/2)
# ~ 6e-17), and the guard is far below any value sampling or a grid reaches.
COEFF_EPS = 1e-12
# Levels of nesting a spec's expression may have.  Only the parser recurses
# per level, so this bounds the size of what a spec asks every command to
# differentiate and generate code for, not the depth of the stack.  That
# cost is what it guards: unbounded, `certify --spec` took 0.47 s and 49 MB
# on a sum of 500 sin(r1), 0.87 s and 99 MB on 2,000, and 5.4 s and 681 MB
# on a sum of 20,000 r1 (peak RSS of one process each, 2-vCPU VM).
MAX_EXPR_DEPTH = 500


def weight_lines(sys: SystemSpec, start: int = 0, guard: bool = True) -> list[str]:
    """Statements setting e<b>, s<b> to E_b(r1), E_b'(r1), spliced in from
    ``system.weight_table``, for each coordinate b whose pair sits at ``start`` or later;
    with ``guard``, the first e<b> below ``COEFF_EPS`` then raises ``weight_vanishes``."""
    coords = range(1 + start // 2, sys.n)
    lines = ex.splice(sys.weight_table.exprs[start:], [x for b in coords for x in (f"e{b}", f"s{b}")],
                      f"system.weight_table(r1)[{start}:]")
    return lines + [f"if abs(e{b}) < {COEFF_EPS!r}: raise weight_vanishes({b - 1}, r1)"
                    for b in coords if guard]


__all__ = [
    "Jet",
    "SystemSpec",
    "builtin_system",
    "measure_pde_residual",
    "nonholonomic_ode",
    "nh_state_from_jet",
    "disk_closed_form_state",
    "parse_system_file",
    "load_system_file",
]


@dataclass(frozen=True)
class Jet:
    """A point (q, qdot) of the velocity phase space.

    Coordinate order is ``(r1, r2, s_1 .. s_k)`` throughout the package.
    """

    q: tuple[float, ...]
    qdot: tuple[float, ...]

    def __post_init__(self):
        if len(self.q) != len(self.qdot):
            raise ConfigError("jet q and qdot lengths differ")
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        object.__setattr__(self, "qdot", tuple(float(v) for v in self.qdot))

    @property
    def dim(self) -> int:
        return len(self.q)

    @property
    def r1(self) -> float:
        return self.q[0]

    @property
    def r1dot(self) -> float:
        return self.qdot[0]

    @property
    def r2dot(self) -> float:
        return self.qdot[1]

    @property
    def sdot(self) -> tuple[float, ...]:
        return self.qdot[2:]


@dataclass(frozen=True)
class SystemSpec:
    """Inertias and constraint coefficients of one system of the class.

    ``i_alpha`` and ``a_alpha`` are aligned: entry ``a`` is the inertia and
    coefficient of the constrained coordinate ``s_a``.  ``names`` labels the
    coordinates ``(r1, r2, s_1 .. s_k)`` for reporting and CSV headers, so
    no name may be ``t`` or another name with ``d`` or ``p`` in front: the
    time, velocity and momentum columns.
    """

    i1: float
    i2: float
    i_alpha: tuple[float, ...]
    a_alpha: tuple[ex.Expr, ...]
    names: tuple[str, ...]
    label: str = "custom"
    weight_exprs: tuple[ex.Expr, ...] | None = None

    def __post_init__(self):
        for inertia in ("i1", "i2"):  # floats: generated code writes each one as its repr
            object.__setattr__(self, inertia, float(getattr(self, inertia)))
        object.__setattr__(self, "i_alpha", tuple(float(v) for v in self.i_alpha))
        object.__setattr__(self, "a_alpha", tuple(self.a_alpha))
        object.__setattr__(self, "names", tuple(self.names))
        if not all(0 < i < math.inf for i in (self.i1, self.i2, *self.i_alpha)):
            raise ConfigError("all inertias must be finite and strictly positive")
        if len(self.i_alpha) != len(self.a_alpha):
            raise ConfigError("I_alpha and A_alpha lengths differ")
        if not self.i_alpha:
            raise ConfigError("at least one constrained coordinate is required")
        if len(self.names) != 2 + len(self.i_alpha):
            raise ConfigError("names must label (r1, r2, s_1..s_k)")
        for name in self.names:
            if not name:
                raise ConfigError("names must not be empty")
            if self.names.count(name) > 1:
                raise ConfigError(f"name {name!r} labels more than one coordinate")
            if name == "t":
                raise ConfigError("name 't' is the time column")
            if name[:1] == "d" and name[1:] in self.names:
                raise ConfigError(f"name {name!r} is the velocity key of {name[1:]!r}")
            if name[:1] == "p" and name[1:] in self.names:
                raise ConfigError(f"name {name!r} is the momentum column of {name[1:]!r}")
        for a, coeff in enumerate(self.a_alpha):
            if coeff.is_constant():
                raise ConfigError(
                    f"A_alpha[{a}] is constant; the constraint would be holonomic"
                )
        if self.weight_exprs is not None:
            object.__setattr__(self, "weight_exprs", tuple(self.weight_exprs))
            if len(self.weight_exprs) != 1 + len(self.i_alpha):
                raise ConfigError("weight overrides must cover (r2, s_1..s_k)")
            self._validate_weight_overrides()

    # dimensions ---------------------------------------------------------

    @cached_property
    def k(self) -> int:
        """Number of constrained coordinates."""
        return len(self.i_alpha)

    @cached_property
    def n(self) -> int:
        """Configuration-space dimension."""
        return 2 + self.k

    @property
    def inertias(self) -> tuple[float, ...]:
        """(I1, I2, I_1..I_k) in coordinate order."""
        return (self.i1, self.i2) + self.i_alpha

    # derived coefficient expressions -------------------------------------

    @cached_property
    def a_prime(self) -> tuple[ex.Expr, ...]:
        return tuple(a.diff() for a in self.a_alpha)

    @cached_property
    def mass_sum_expr(self) -> ex.Expr:
        """I2 + sum_a I_a A_a^2, the quantity under the measure square root."""
        total = ex.const(self.i2)
        for i_a, a in zip(self.i_alpha, self.a_alpha):
            total = total + ex.const(i_a) * a**2
        return total

    @cached_property
    def measure_expr(self) -> ex.Expr:
        """Invariant-measure density N(r1)."""
        return ex.const(1.0) / ex.Sqrt(self.mass_sum_expr)

    @cached_property
    def coupling_sum_expr(self) -> ex.Expr:
        """sum_a I_a A_a A_a', the drift weight in the r2 equation."""
        total = ex.const(0.0)
        for i_a, a, ap in zip(self.i_alpha, self.a_alpha, self.a_prime):
            total = total + ex.const(i_a) * a * ap
        return total

    @cached_property
    def log_measure_slope_expr(self) -> ex.Expr:
        """(ln N)' = -sum I_a A_a A_a' / (I2 + sum I_a A_a^2)."""
        return -(self.coupling_sum_expr / self.mass_sum_expr)

    @cached_property
    def exp_xi_exprs(self) -> tuple[ex.Expr, ...]:
        """The velocity weights exp(xi_b) of the decoupled form, entry 0 for
        r2 and entry 1+a for s_a.

        By default these are (N, N*A_1, .., N*A_k): the exponentials of the
        log-primitives whose slopes drive the decoupled associated system,
        kept in signed product form so coordinates with negative A_a stay
        inside the domain.  ``weight_exprs`` may override them with any
        smooth functions sharing the same logarithmic slopes; that matters
        when a coefficient A_a has poles, where the positive-root measure
        density picks up absolute-value corners that the closed-form
        Hamiltonians must not inherit (the knife edge's cos(r1)/sqrt(m) in
        place of |cos(r1)|/sqrt(m)).
        """
        if self.weight_exprs is not None:
            return self.weight_exprs
        return (self.measure_expr,) + tuple(self.measure_expr * a for a in self.a_alpha)

    def _validate_weight_overrides(self):
        """Overridden weights must solve the same log-slope equations as the
        (N, N*A) construction, checked at sampled points: those where every
        weight and slope is defined and every weight is above 1e-9 of its
        largest finite magnitude over the points.  Values and slopes are one
        order-1 Taylor series of defaults and overrides."""
        defaults = (self.measure_expr,) + tuple(self.measure_expr * a for a in self.a_alpha)
        points = np.linspace(-1.3, 1.3, 17)
        value, slope = ex.series_table((*defaults, *self.weight_exprs))(points, 1)
        size = np.abs(value)
        scale = np.where(np.isfinite(size), size, 0.0).max(axis=1, keepdims=True)
        checked = (np.isfinite(value) & np.isfinite(slope) & (size > 1e-9 * scale)).all(axis=0)
        if not checked.any():
            raise ConfigError("weight overrides could not be validated on [-1.3, 1.3]")
        with np.errstate(all="ignore"):
            default, override = np.split(slope / value, 2)
            wrong = checked & (np.abs(default - override)
                               > 1e-9 * (1 + np.abs(default))).any(axis=0)
        if wrong.any():
            raise ConfigError("weight override has a different logarithmic slope "
                              f"than the measure construction at r1={float(points[wrong][0])}")

    # compiled fast paths --------------------------------------------------

    @cached_property
    def a_fns(self):
        return tuple(a.compile() for a in self.a_alpha)

    @cached_property
    def measure_fn(self):
        return self.measure_expr.compile()

    @cached_property
    def nonholonomic_table(self):  # what the constrained equations read
        return ex.compile_table((*self.a_alpha, self.log_measure_slope_expr))

    @cached_property
    def weight_table(self):
        """r1 -> (E_b, E_b') of each entry of ``exp_xi_exprs`` in turn, flat:
        the one compiled form of the weights, read by the second associated
        system and by every closed-form model."""
        return ex.compile_table(x for e in self.exp_xi_exprs for x in (e, e.diff()))

    @cached_property
    def a_prime_table(self):
        return ex.compile_table(self.a_prime)

    @cached_property
    def measure_series(self):
        """(r1, order) -> the Taylor coefficients of N and (ln N)' at r1, as
        ``expr.series_table`` gives them."""
        return ex.series_table((self.measure_expr, self.log_measure_slope_expr))

    @cached_property
    def _kernels(self) -> dict:
        return {}

    def kernel(self, key: tuple, build):
        """The generated function of ``key`` (a formulation or a model's
        function, then what else decides its code) over this system:
        ``build()``'s, on first use."""
        fn = self._kernels.get(key)
        if fn is None:
            fn = self._kernels[key] = build()
        return fn

    @cached_property
    def constant_measure(self) -> bool:
        """Whether N is constant, decided once per system."""
        return self.measure_is_constant()

    def measure_is_constant(self) -> bool:
        """Numerically decide whether N is constant.

        Checks |dN/dr1|, one ``measure_series`` call, below
        ``MEASURE_SLOPE_TOL`` at ``MEASURE_SAMPLES`` points spread over [-1,
        1], skipping points where it is not finite.  Callers read the cached
        ``constant_measure``.
        """
        slope = self.measure_series(np.linspace(-1.0, 1.0, MEASURE_SAMPLES), 1)[1, 0]
        slope = slope[np.isfinite(slope)]
        if not slope.size:
            raise EvaluationError("measure slope could not be sampled on [-1, 1]")
        return bool(np.all(np.abs(slope) < MEASURE_SLOPE_TOL))

    @property
    def preset(self) -> str | None:
        """Name of the built-in this spec was made as, None for any other spec."""
        return None

    def on_constraint(self, q: tuple[float, ...], r1dot: float, r2dot: float) -> Jet:
        """Build the jet over ``q`` with the s-velocities slaved to the constraint."""
        sdot = tuple(-self.a_fns[a](q[0]) * r2dot for a in range(self.k))
        return Jet(tuple(q), (r1dot, r2dot) + sdot)


# --- built-in example systems ----------------------------------------------


class _BuiltinSpec(SystemSpec):
    """A spec made by ``builtin_system``.  Presets (closed-form trajectory,
    default model coefficients and initial jets) key on this type, never on
    the label, which a spec file named after a built-in also carries."""

    @property
    def preset(self) -> str:
        return self.label


# The parameters of each built-in, with their defaults.
BUILTIN_PARAMS = {
    "free_particle": {},
    "knife_edge": {"m": 1.0, "J": 1.0},
    "vertical_disk": {"m": 1.0, "R": 1.0, "I": 1.0, "J": 1.0},
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


def builtin_system(name: str, **params: float) -> SystemSpec:
    """Construct one of the built-in example systems.

    free_particle            -- unit mass point in R^3, constraint zdot + x*ydot = 0
    knife_edge(m, J)         -- planar blade, xdot*sin(phi) - ydot*cos(phi) = 0
    vertical_disk(m, R, I, J) -- rolling disk, xdot = R*cos(phi)*thetadot,
                                 ydot = R*sin(phi)*thetadot
    """
    for key, value in params.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"parameter {key} must be finite and positive, got {value}")
    if name not in BUILTIN_PARAMS:
        raise ConfigError(f"unknown built-in system {name!r}")
    unknown = set(params) - set(BUILTIN_PARAMS[name])
    if unknown:
        raise ConfigError(f"unknown {name} parameters {sorted(unknown)}")
    p = {**BUILTIN_PARAMS[name], **params}
    r1 = ex.var()
    if name == "free_particle":
        return _BuiltinSpec(1.0, 1.0, (1.0,), (r1,), ("x", "y", "z"), label=name)
    if name == "knife_edge":
        # smooth weights: the default 1/sqrt(m + m*tan^2) is |cos|/sqrt(m),
        # whose corners sit exactly at the tan poles; the signed forms below
        # share its log-slopes and continue analytically through them.
        root_m = math.sqrt(p["m"])
        weights = (ex.Cos(r1) / root_m, -(ex.Sin(r1) / root_m))
        return _BuiltinSpec(p["J"], p["m"], (p["m"],), (-ex.Tan(r1),), ("phi", "x", "y"),
                            label=name, weight_exprs=weights)
    radius = ex.const(p["R"])
    return _BuiltinSpec(p["J"], p["I"], (p["m"], p["m"]),
                        (-(radius * ex.Cos(r1)), -(radius * ex.Sin(r1))),
                        ("phi", "theta", "x", "y"), label=name)


# --- invariant measure ------------------------------------------------------


def measure_pde_residual(sys: SystemSpec, r1):
    """Residuals of the two volume-preservation equations at ``r1``, a float
    or a stack of points (then two arrays of its shape).

    The first is (1/N) dN/dr1 - (ln N)', with (ln N)' in closed form
    (``log_measure_slope_expr``) and dN/dr1 read from N's first-order Taylor
    series (``SystemSpec.measure_series``, one call for the whole stack):
    exact to roundoff, and independent of the closed form.  The second is (1/N)
    dN/dr2, which vanishes identically because N depends on r1 only.  At
    the first point where the first is not finite, N or (ln N)' raises its
    own ``ExprDomainError``, or else an ``EvaluationError`` is raised.
    """
    c = sys.measure_series(r1, 1)
    res1 = c[1, 0] / c[0, 0] - c[0, 1]
    bad = np.flatnonzero(~np.isfinite(res1))
    if bad.size:
        at = float(np.ravel(r1)[bad[0]])
        ex.compile_table((sys.measure_expr, sys.log_measure_slope_expr))(at)
        raise EvaluationError(f"non-finite invariant-measure residual at r1={at!r}")
    return res1, 0.0 * res1


# --- nonholonomic equations of motion ---------------------------------------


def nonholonomic_ode(sys: SystemSpec):
    """The constrained equations of motion, r1'' = 0, r2'' = (ln N)' r1' r2'
    and s_a' = -A_a(r1) r2', as a first-order right-hand side on the state
    (r1, r2, s_1..s_k, r1dot, r2dot): straight-line code generated once per
    system, with ``nonholonomic_table`` spliced in."""
    return sys.kernel(("nonholonomic",), lambda: _nonholonomic_kernel(sys))


def _nonholonomic_kernel(sys: SystemSpec):
    k = sys.k
    return ex.define_rhs(ex.state_names(sys.n, 2), [],
                         ex.splice(sys.nonholonomic_table.exprs, [*(f"a{a}" for a in range(k)), "g"],
                                   "system.nonholonomic_table(r1)"),
                         [], ["u0", "u1", *(f"-a{a} * u1" for a in range(k)), "0.0", "g * u0 * u1"],
                         system=sys)


def nh_state_from_jet(sys: SystemSpec, jet: Jet) -> np.ndarray:
    """Pack a jet into the reduced nonholonomic state (drops s velocities)."""
    return np.array(list(jet.q) + [jet.r1dot, jet.r2dot])


def nh_columns(sys: SystemSpec) -> tuple[str, ...]:
    return sys.names + tuple("d" + n for n in (sys.names[0], sys.names[1]))


# --- closed-form disk solution ----------------------------------------------


def disk_closed_form_state(radius: float, ics: Jet, t):
    """Exact state (phi, theta, x, y, their velocities) of the rolling disk
    at time ``t``: one flat tuple for a time, a (times, 8) array, one row per
    time, for an array of times.

    ``ics`` holds (phi, theta, x, y) and their velocities at t = 0; the
    contact-point velocities are determined by (u_phi, u_theta) alone.  For
    u_phi != 0 the disk traces a circle; for u_phi = 0 it rolls along a
    straight line.  Every time takes the same operations, in numpy's IEEE
    arithmetic, and sin and cos are libm's (``math``), so a row of the array
    is the tuple of its time bit for bit.
    """
    phi0, theta0, x0, y0 = ics.q
    u_phi, u_theta = ics.qdot[0], ics.qdot[1]
    times = np.asarray(t, dtype=float)
    t = times.reshape(-1)
    phi = phi0 + u_phi * t
    theta = theta0 + u_theta * t
    sin, cos = (np.fromiter(map(fn, phi.tolist()), float, len(t)) for fn in (math.sin, math.cos))
    if u_phi != 0.0:
        ratio = (u_theta / u_phi) * radius
        x = ratio * sin + (x0 - ratio * math.sin(phi0))
        y = -ratio * cos + (y0 + ratio * math.cos(phi0))
    else:
        x = radius * math.cos(phi0) * u_theta * t + x0
        y = radius * math.sin(phi0) * u_theta * t + y0
    xdot = radius * cos * u_theta
    ydot = radius * sin * u_theta
    states = np.column_stack((phi, theta, x, y, np.full(len(t), u_phi), np.full(len(t), u_theta),
                              xdot, ydot))
    return tuple(states[0].tolist()) if times.ndim == 0 else states


# --- declarative system files ------------------------------------------------


def parse_system_file(text: str, label: str = "custom") -> SystemSpec:
    """Parse the key/value system format.

    Recognised keys: I1, I2, I_alpha (comma-separated list), A_alpha
    (comma-separated expression strings), names (comma-separated labels),
    and optionally weights (comma-separated smooth replacements for the
    velocity weights (N, N*A_1, ..), validated against the construction
    where each is above 1e-9 of its largest size).
    Lines starting with '#' are comments.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()

    required = {"I1", "I2", "I_alpha", "A_alpha", "names"}
    missing = required - set(fields)
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    extra = set(fields) - required - {"weights"}
    if extra:
        raise ConfigError(f"unknown keys: {sorted(extra)}")

    def scalar(key: str) -> float:
        try:
            return ex.read_float(fields[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {fields[key]!r}") from None

    try:
        i_alpha = tuple(map(ex.read_float, fields["I_alpha"].split(",")))
    except ValueError:
        raise ConfigError("I_alpha must be a comma-separated list of numbers") from None
    names = tuple(part.strip() for part in fields["names"].split(","))
    try:  # the parser recurses once per parenthesis, function call or minus
        a_alpha = tuple(ex.parse_expr(part) for part in fields["A_alpha"].split(","))
        weights = None
        if "weights" in fields:
            weights = tuple(ex.parse_expr(part) for part in fields["weights"].split(","))
        if max(map(ex.depth, (*a_alpha, *(weights or ())))) <= MAX_EXPR_DEPTH:
            return SystemSpec(scalar("I1"), scalar("I2"), i_alpha, a_alpha, names,
                              label=label, weight_exprs=weights)
    except RecursionError:
        pass
    raise ConfigError("an A_alpha or weights expression is nested too deeply")


def load_system_file(path: str) -> SystemSpec:
    label = os.path.splitext(os.path.basename(path))[0] or "custom"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc}") from None
    return parse_system_file(text, label=label)
