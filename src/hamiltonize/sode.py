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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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

    ``_f`` maps coordinates q and velocities u, any float sequences, to the
    list of accelerations; ``f`` and ``ode`` both call it.  Kind second reads
    the system's ``weight_table`` under the closed-form models' guard, the
    other kinds ``coeff_table``.
    """

    system: SystemSpec | None
    kind: str
    n: int
    _f: Callable[[Sequence[float], Sequence[float]], list[float]]
    coeff_exprs: tuple[ex.Expr, ...] = ()

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
        return [0.0, *[c * w for c in sode.coeff_table(q[0])]]

    sode = SodeSystem(sys, "first", sys.n, f, coeff_exprs=gammas)
    return sode


def second_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system with all q_a equations decoupled except through r1:
    the first closed-form Lagrangian's Euler-Lagrange system, on its weights."""

    def f(q, u) -> list[float]:
        r1 = q[0]
        u1 = u[0]
        out = [0.0]
        values = iter(sys.weight_table(r1))
        for b, (e_val, ep_val) in enumerate(zip(values, values)):
            if abs(e_val) < COEFF_EPS:
                raise weight_vanishes(b, r1)
            out.append(ep_val / e_val * u[1 + b] * u1)
        return out

    return SodeSystem(sys, "second", sys.n, f,
                      coeff_exprs=tuple(e.diff() / e for e in sys.exp_xi_exprs))


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
        *values, mass, coupling = sode.coeff_table(q[0])
        a_vals, ap_vals = values[:k], values[k:]
        drift = sum(i_alpha[a] * ap_vals[a] * u[2 + a] for a in range(k))
        n2 = 1.0 / mass
        r2ddot = n2 * (-coupling * u1 * u2 + drift * u1)
        return [-drift * u2 / i1, r2ddot,
                *[-ap * u1 * u2 - a_val * r2ddot for a_val, ap in zip(a_vals, ap_vals)]]

    sode = SodeSystem(sys, "third", sys.n, f,
                      coeff_exprs=(*sys.a_alpha, *sys.a_prime, sys.mass_sum_expr,
                                   sys.coupling_sum_expr))
    return sode
