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
           form; the rates X_a are their logarithmic slopes, which divide by
           A_a and are therefore singular where a coefficient vanishes.

third   -- the Euler-Lagrange equations, in normal form, of the Lagrangian
           obtained by subtracting the constraint-momentum pairing from L.
           This is an associated system only when N is constant, which
           the system's ``constant_measure`` decides numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import CoefficientSingularityError, ExprDomainError
from .systems import Jet, SystemSpec

__all__ = [
    "SodeSystem",
    "first_associated",
    "second_associated",
    "third_associated",
    "free_sode",
    "COEFF_EPS",
]

# |A_a(r1)| below this is treated as a vanishing coefficient.  Trigonometric
# coefficients never evaluate to an exact float zero at their roots
# (cos(pi/2) ~ 6e-17), so an absolute guard is needed; it is far below any
# value reached by generic sampling or by integration grids near a crossing.
COEFF_EPS = 1e-12


@dataclass(frozen=True)
class SodeSystem:
    """A second-order system q'' = f(q, q') in normal form.

    ``coeff_exprs`` holds the r1-dependent coefficient functions of the
    q_a equations (kind first: acceleration = coeff * r1' * r2'; kind
    second: acceleration = coeff * q_a' * r1', the coeff being the
    logarithmic slope of the weight ``system.exp_xi_exprs``), compiled
    jointly as ``coeff_table``.  Kind ``"generic"`` is a bare system with
    no underlying ``system``, for tensor evaluation and tests.

    ``_f`` maps coordinates q and velocities u, any float sequences, to the
    list of accelerations; ``f`` and ``ode`` both call it.  It reads what
    depends on r1, ``table_exprs``, in one call of ``table``.
    """

    system: SystemSpec | None
    kind: str
    n: int
    _f: Callable[[Sequence[float], Sequence[float]], list[float]]
    coeff_exprs: tuple[ex.Expr, ...] = ()
    table_exprs: tuple[ex.Expr, ...] = ()

    def f(self, q: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Accelerations at coordinates q, velocities u."""
        return np.array(self._f(q, u))

    def rhs(self, jet: Jet) -> np.ndarray:
        q, u = jet.arrays()
        return self.f(q, u)

    def ode(self):
        """First-order right-hand side on the stacked state (q, q')."""
        n = self.n
        f = self._f

        def rhs(t: float, y) -> list[float]:
            u = y[n:]
            return [*u, *f(y[:n], u)]

        return rhs

    @cached_property
    def coeff_table(self):
        """r1 -> the values of ``coeff_exprs``, in the same order."""
        return ex.compile_table(self.coeff_exprs)

    @cached_property
    def table(self):
        return ex.compile_table(self.table_exprs)

    def phi_tower(self, order: int):
        """Compiled table r1 -> (c[0], .., c[n-2]) with (nabla^order Phi)^a_1 =
        c[a] * u1^(order+1) * u2 (kind first) or * u_a (kind second).

        The tower grows tier by tier up to the deepest order asked for, so
        each tier is built and compiled once per system, as one table.
        """
        built, levels = self._phi_tiers
        while len(built) <= order:
            built.append(ex.compile_table(next(levels)))
        return built[order]

    @cached_property
    def _phi_tiers(self):
        return [], self._phi_levels()

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
    return SodeSystem(None, "generic", n, lambda q, u: [0.0] * n)


def first_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system obtained by differentiating the constraints."""
    gamma2 = sys.log_measure_slope_expr
    gammas = (gamma2,) + tuple(
        -(ap + a * gamma2) for a, ap in zip(sys.a_alpha, sys.a_prime)
    )

    def f(q, u) -> list[float]:
        w = u[0] * u[1]
        return [0.0, *[c * w for c in sode.table(q[0])]]

    sode = SodeSystem(sys, "first", sys.n, f, coeff_exprs=gammas, table_exprs=gammas)
    return sode


def second_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system with all q_a equations decoupled except through r1."""
    e_exprs = sys.exp_xi_exprs

    def f(q, u) -> list[float]:
        r1 = q[0]
        u1 = u[0]
        out = [0.0]
        values = iter(sode.table(r1))
        for b, (a_val, e_val, ep_val) in enumerate(zip(values, values, values)):
            if abs(a_val) < COEFF_EPS:
                raise CoefficientSingularityError(b - 1, r1)
            if e_val == 0.0:
                raise ExprDomainError(f"velocity weight {b} vanishes at r1={r1!r}")
            out.append(ep_val / e_val * u[1 + b] * u1)
        return out

    guards = (ex.const(1.0), *sys.a_alpha)  # the A whose zero makes a rate singular
    table = tuple(x for a, e in zip(guards, e_exprs) for x in (a, e, e.diff()))
    sode = SodeSystem(sys, "second", sys.n, f, coeff_exprs=tuple(e.diff() / e for e in e_exprs),
                      table_exprs=table)
    return sode


def third_associated(sys: SystemSpec) -> SodeSystem:
    """Normal form of the variational-coupling equations.

    Associated to the constrained dynamics only when the measure density N
    is constant; construction always succeeds and consumers must check the
    system's ``constant_measure`` before treating it as an associated system.
    """
    k = sys.k
    i1 = sys.i1
    i_alpha = sys.i_alpha

    def f(q, u) -> list[float]:
        u1, u2 = u[0], u[1]
        *values, mass, coupling = sode.table(q[0])
        a_vals, ap_vals = values[:k], values[k:]
        drift = sum(i_alpha[a] * ap_vals[a] * u[2 + a] for a in range(k))
        n2 = 1.0 / mass
        r2ddot = n2 * (-coupling * u1 * u2 + drift * u1)
        return [-drift * u2 / i1, r2ddot,
                *[-ap * u1 * u2 - a_val * r2ddot for a_val, ap in zip(a_vals, ap_vals)]]

    sode = SodeSystem(sys, "third", sys.n, f,
                      table_exprs=(*sys.a_alpha, *sys.a_prime, sys.mass_sum_expr,
                                   sys.coupling_sum_expr))
    return sode
