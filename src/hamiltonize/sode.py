"""The three associated second-order systems.

A second-order system q'' = f(q, q') is *associated* to a constrained system
when its solutions, restricted to initial data satisfying the constraints,
reproduce the constrained motion.  Three constructions are provided.

first   -- differentiate the constraints in time and eliminate r2'':
           r1'' = 0,  r2'' = G2(r1) r1' r2',  s_a'' = G_a(r1) r1' r2',
           with G2 = (ln N)' and G_a = -(A_a' + A_a G2).

second  -- additionally use the constraints to trade r2' for s_a'/A_a, after
           which every equation decouples from the others except through r1:
           q_a'' = X_a(r1) q_a' r1' with X_2 = (ln N)' and X_a = (ln N*A_a)'.
           The weights exp(xi_a) = (N, N*A_a) are stored in signed product
           form; the rates X_a are their logarithmic slopes, singular where
           a weight vanishes, guarded as in the closed-form models.

third   -- the Euler-Lagrange equations, in normal form, of the Lagrangian
           obtained by subtracting the constraint-momentum pairing from L.
           This is an associated system only when N is constant, which
           the system's ``constant_measure`` decides numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .systems import COEFF_EPS, Jet, SystemSpec, weight_vanishes

__all__ = [
    "SodeSystem",
    "first_associated",
    "second_associated",
    "third_associated",
    "free_sode",
]


@dataclass(frozen=True)
class SodeSystem:
    """A second-order system q'' = f(q, q') in normal form.

    ``coeff_exprs`` holds the r1-dependent coefficient functions, compiled
    jointly as ``coeff_table``: of the q_a equations for kind first
    (acceleration = coeff * r1' * r2') and kind second (coeff * q_a' * r1',
    the logarithmic slope of the weight ``system.exp_xi_exprs``), and
    (A_a, A_a', mass sum, coupling sum) for kind third.  Kind ``"generic"``
    is a bare system with no underlying ``system``, for tensor evaluation.

    The right-hand side is straight-line code generated once per object, on
    first use, with its table spliced in: kind second reads the system's
    ``weight_table`` under the closed-form models' guard, the other kinds
    ``coeff_table``.  ``ode`` returns it; ``f`` and ``rhs`` evaluate it.
    """

    system: SystemSpec | None
    kind: str
    n: int
    coeff_exprs: tuple[ex.Expr, ...] = ()

    def f(self, q, u) -> np.ndarray:
        """Accelerations at coordinates q, velocities u."""
        return np.array(self._kernel(0.0, [float(v) for v in (*q, *u)])[self.n:])

    def rhs(self, jet: Jet) -> np.ndarray:
        return self.f(jet.q, jet.qdot)

    def ode(self):
        """First-order right-hand side on the stacked state (q, q')."""
        return self._kernel

    @cached_property
    def _kernel(self):
        n = self.n
        velocities = ", ".join(f"u{i}" for i in range(n))
        lines = ["".join(f"q{i}, " for i in range(n)) + f"{velocities}, = y; r1 = q0"]
        table = (self.system.weight_table if self.kind == "second"
                 else self.coeff_table if self.coeff_exprs else None)
        if self.kind == "first":
            names = [f"c{a}" for a in range(n - 1)]
            lines += ["w = u0 * u1", *ex.splice(table.exprs, names, "table(r1)")]
            accel = ["0.0", *(f"{c} * w" for c in names)]
        elif self.kind == "second":
            entries = range(n - 1)
            lines += [*ex.splice(table.exprs, [x for b in entries for x in (f"e{b}", f"s{b}")],
                                 "table(r1)"),
                      *(f"if abs(e{b}) < {COEFF_EPS!r}: raise weight_vanishes({b}, r1)"
                        for b in entries)]
            accel = ["0.0", *(f"s{b} / e{b} * u{1 + b} * u0" for b in entries)]
        elif self.kind == "third":
            sys, alphas = self.system, range(n - 2)
            lines += [*ex.splice(table.exprs, [*(f"a{a}" for a in alphas),
                                               *(f"p{a}" for a in alphas), "m", "c"], "table(r1)"),
                      "g = 0.0" + "".join(f" + {i_a!r} * p{a} * u{2 + a}"
                                          for a, i_a in enumerate(sys.i_alpha)),
                      "n2 = 1.0 / m",
                      "r = n2 * (-c * u0 * u1 + g * u0)"]
            accel = [f"-g * u1 / {sys.i1!r}", "r", *(f"-p{a} * u0 * u1 - a{a} * r" for a in alphas)]
        else:
            accel = ["0.0"] * n
        return ex.define("rhs(t, y)", [*lines, f"return [{velocities}, {', '.join(accel)}]"],
                         table=table, weight_vanishes=weight_vanishes)

    @cached_property
    def coeff_table(self):
        """r1 -> the values of ``coeff_exprs``, in the same order."""
        return ex.compile_table(self.coeff_exprs)

    def phi_tower(self, depth: int):
        """Compiled table r1 -> the coefficients of tiers 0 .. depth-1, tier
        by tier: entry order * (n-1) + a is c[a] with (nabla^order Phi)^a_1 =
        c[a] * u1^(order+1) * u2 (kind first) or * u_a (kind second).

        Each tier is built from the one before and shares its nodes, so one
        table computes each distinct node of the tower once; it is compiled
        once per system and depth.
        """
        tower = self._towers.get(depth)
        if tower is None:
            levels = itertools.islice(self._phi_levels(), depth)
            tower = self._towers[depth] = ex.compile_table(c for level in levels for c in level)
        return tower

    @cached_property
    def _towers(self) -> dict:
        return {}

    def _phi_levels(self):
        """Coefficient expressions of Phi, nabla Phi, nabla^2 Phi, ...

        Kind first follows c_{m+1,a} = c'_{m,a} + (1/2) G2 c_{m,a} -
        (1/2) c_{m,2} G_a, the covariant derivative of the banded Phi shape;
        for kind second the corrections cancel and each tier is the plain
        derivative of the previous one.
        """
        coeffs = self.coeff_exprs
        if self.kind == "first":
            g2 = coeffs[0]
            level = [ex.const(0.5) * g2 * g - g.diff() for g in coeffs]
            while True:
                yield level
                c2 = level[0]
                level = [
                    c.diff() + ex.const(0.5) * g2 * c - ex.const(0.5) * c2 * g
                    for c, g in zip(level, coeffs)
                ]
        elif self.kind == "second":
            level = [ex.const(0.5) * x**2 - x.diff() for x in coeffs]
            while True:
                yield level
                level = [s.diff() for s in level]
        else:
            raise ValueError(f"no closed-form Phi tower for kind {self.kind!r}")

    def columns(self) -> tuple[str, ...]:
        names = self.system.names
        return names + tuple("d" + n for n in names)


def free_sode(n: int) -> SodeSystem:
    """The trivial system q'' = 0 in dimension n."""
    return SodeSystem(None, "generic", n)


def first_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system obtained by differentiating the constraints."""
    gamma2 = sys.log_measure_slope_expr
    gammas = (gamma2,) + tuple(
        -(ap + a * gamma2) for a, ap in zip(sys.a_alpha, sys.a_prime)
    )
    return SodeSystem(sys, "first", sys.n, coeff_exprs=gammas)


def second_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system with all q_a equations decoupled except through r1:
    the first closed-form Lagrangian's Euler-Lagrange system, on its weights."""
    return SodeSystem(sys, "second", sys.n,
                      coeff_exprs=tuple(e.diff() / e for e in sys.exp_xi_exprs))


def third_associated(sys: SystemSpec) -> SodeSystem:
    """Normal form of the variational-coupling equations.

    Associated to the constrained dynamics only when the measure density N
    is constant; construction always succeeds and consumers must check the
    system's ``constant_measure`` before treating it as an associated system.
    """
    return SodeSystem(sys, "third", sys.n,
                      coeff_exprs=(*sys.a_alpha, *sys.a_prime, sys.mass_sum_expr,
                                   sys.coupling_sum_expr))
