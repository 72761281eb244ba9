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

The first and second kinds carry the Jacobi endomorphism Phi and its
covariant derivatives in closed form: each tier nabla^m Phi is a scalar
coefficient per q_a row times powers of the velocities, and the
coefficients are a derivative recurrence on ``coeff_exprs``.
``SodeSystem.phi_tiers`` runs that recurrence on truncated Taylor series of
the coefficients (``expr.series_table``), for a whole stack of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import ExprDomainError
from .systems import SystemSpec, weight_lines, weight_vanishes

__all__ = [
    "SodeSystem",
    "first_associated",
    "second_associated",
    "third_associated",
]


@dataclass(frozen=True)
class SodeSystem:
    """A second-order system q'' = f(q, q') in normal form.

    ``coeff_exprs`` holds the r1-dependent coefficient functions, compiled
    jointly as ``coeff_table``: of the q_a equations for kind first
    (acceleration = coeff * r1' * r2') and kind second (coeff * q_a' * r1',
    the logarithmic slope of the weight ``system.exp_xi_exprs``), and
    (A_a, A_a', mass sum, coupling sum) for kind third.

    The right-hand side is straight-line code generated once per object, on
    first use, with its table spliced in: kind second reads the system's
    ``weight_table`` under the closed-form models' guard (``weight_lines``)
    and takes its rates E_b'/E_b there, the other kinds ``coeff_table``.
    ``ode`` returns it; ``f`` evaluates it.
    """

    system: SystemSpec
    kind: str
    coeff_exprs: tuple[ex.Expr, ...] = ()

    @property
    def n(self) -> int:  # the system's, never set apart from it
        return self.system.n

    def f(self, q, u) -> np.ndarray:
        """Accelerations at coordinates q, velocities u."""
        return np.array(self._kernel(0.0, [float(v) for v in (*q, *u)])[self.n:])

    def ode(self):
        """First-order right-hand side on the stacked state (q, q')."""
        return self._kernel

    @cached_property
    def _kernel(self):
        n = self.n
        velocities = [f"u{i}" for i in range(n)]
        head, values, body = ["r1 = q0"], [], []
        table = self.system.weight_table if self.kind == "second" else self.coeff_table
        if self.kind == "first":
            names = [f"c{a}" for a in range(n - 1)]
            head.append("w = u0 * u1")
            accel = ["0.0", *(f"{c} * w" for c in names)]
        elif self.kind == "second":
            values = [f"x{b} = s{b} / e{b}" for b in range(1, n)]
            accel = ["0.0", *(f"x{b} * u{b} * u0" for b in range(1, n))]
        else:
            sys, alphas = self.system, range(n - 2)
            names = [*(f"a{a}" for a in alphas), *(f"p{a}" for a in alphas), "m", "c"]
            values = ["n2 = 1.0 / m", *(f"ip{a} = {ex.times(i_a, f'p{a}')}"
                                         for a, i_a in enumerate(sys.i_alpha))]
            body = ["g = 0.0" + "".join(f" + ip{a} * u{2 + a}" for a in alphas),
                    "r = n2 * (-c * u0 * u1 + g * u0)"]
            accel = [ex.over("-g * u1", sys.i1), "r",
                     *(f"-p{a} * u0 * u1 - a{a} * r" for a in alphas)]
        spliced = (weight_lines(self.system) if self.kind == "second"
                   else ex.splice(table.exprs, names, "table(r1)"))
        return ex.define_rhs([*(f"q{i}" for i in range(n)), *velocities], head,
                             [*spliced, *values], body, [*velocities, *accel],
                             table=table, weight_vanishes=weight_vanishes)

    @cached_property
    def coeff_table(self):
        """r1 -> the values of ``coeff_exprs``, in the same order."""
        return ex.compile_table(self.coeff_exprs)

    @cached_property
    def _series(self):
        return ex.series_table(self.coeff_exprs)

    def phi_tiers(self, r1, depth: int) -> np.ndarray:
        """The coefficients of Phi, nabla Phi, .., nabla^(depth-1) Phi at each
        point of the stack ``r1``, a (depth, n-1, points) array: entry
        [order, a] is c[a] with (nabla^order Phi)^a_1 = c[a] * u1^(order+1)
        * u2 (kind first) or * u_a (kind second).

        Every tier is a recurrence of derivatives on ``coeff_exprs``, so one
        truncated Taylor series of order ``depth`` per point gives them all.
        Kind first follows c_{m+1,a} = c'_{m,a} + (1/2) G2 c_{m,a} -
        (1/2) c_{m,2} G_a, the covariant derivative of the banded Phi shape;
        for kind second the corrections cancel and each tier is the plain
        derivative of the previous one.  Where a point's tiers are not all
        finite, the lowest such point raises ``ExprDomainError``: the first
        failing coefficient's own error, or one naming the tower.
        """
        if self.kind not in ("first", "second"):
            raise ValueError(f"no closed-form Phi tower for kind {self.kind!r}")
        r1 = np.asarray(r1, dtype=float)
        coeffs = ex.Series(self._series(r1, depth))
        with np.errstate(all="ignore"):
            if self.kind == "first":
                g2 = ex.Series(coeffs.c[:, :1])
                levels = [0.5 * g2 * coeffs - coeffs.diff()]
                for _ in range(1, depth):
                    c = levels[-1]
                    c2 = ex.Series(c.c[:, :1])
                    levels.append(c.diff() + 0.5 * g2 * c - 0.5 * c2 * coeffs)
            else:
                levels = [0.5 * coeffs ** 2 - coeffs.diff()]
                for _ in range(1, depth):
                    levels.append(levels[-1].diff())
        tiers = np.array([level.c[0] for level in levels])
        failing = ~np.isfinite(tiers).all(axis=(0, 1))
        if failing.any():
            at = float(r1[np.argmax(failing)])
            self.coeff_table(at)  # raises the first failing coefficient's error
            raise ExprDomainError(f"non-finite Phi tower coefficient at r1={at!r}")
        return tiers

    def columns(self) -> tuple[str, ...]:
        names = self.system.names
        return names + tuple("d" + n for n in names)


def first_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system obtained by differentiating the constraints."""
    gamma2 = sys.log_measure_slope_expr
    gammas = (gamma2,) + tuple(
        -(ap + a * gamma2) for a, ap in zip(sys.a_alpha, sys.a_prime)
    )
    return SodeSystem(sys, "first", coeff_exprs=gammas)


def second_associated(sys: SystemSpec) -> SodeSystem:
    """Associated system with all q_a equations decoupled except through r1:
    the first closed-form Lagrangian's Euler-Lagrange system, on its weights."""
    return SodeSystem(sys, "second", coeff_exprs=tuple(e.diff() / e for e in sys.exp_xi_exprs))


def third_associated(sys: SystemSpec) -> SodeSystem:
    """Normal form of the variational-coupling equations.

    Associated to the constrained dynamics only when the measure density N
    is constant; construction always succeeds and consumers must check the
    system's ``constant_measure`` before treating it as an associated system.
    """
    return SodeSystem(sys, "third", coeff_exprs=(*sys.a_alpha, *sys.a_prime, sys.mass_sum_expr,
                                                 sys.coupling_sum_expr))
