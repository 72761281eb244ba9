"""The per-point optimal-control check: the referee of
``hamiltonize.pontryagin.optimal_control_check``.

``check(model, seed, count)`` draws the same points through
``sampling.phase_points`` and runs each through the scalar functions
(``optimal_controls``, ``optimal_hamiltonian_value``, ``hamiltonian_value``
and ``control_gradient``), one point at a time, with no array evaluated.
It counts and raises as the check does: a point whose optimal controls are
undefined or not finite is degenerate, one with ``|u_1| <
PONTRYAGIN_U1_MIN`` is skipped as near zero, and a non-finite deviation or
gradient at an evaluated point raises ``EvaluationError``.  Where an
evaluated point's values overflow, the scalar functions raise Python's
``OverflowError`` first, as a float ``**`` overflows where numpy gives inf;
the check raises ``EvaluationError`` there.
"""

import math
from random import Random

from hamiltonize.errors import EvaluationError
from hamiltonize.pontryagin import (PONTRYAGIN_DEV_TOL, PONTRYAGIN_GRAD_TOL, PONTRYAGIN_U1_MIN,
                                    control_gradient, optimal_controls,
                                    optimal_hamiltonian_value)
from hamiltonize.sampling import phase_points
from hamiltonize.variational import hamiltonian_value


def check(model, seed: int, count: int) -> dict:
    """The report fields of the check of ``model``'s cost at the ``count``
    phase points drawn from ``random.Random(seed)``."""
    max_dev = max_rel = max_grad = 0.0
    used = degenerate = near_zero = 0
    for ps in phase_points(model.system, count, Random(seed)):
        try:
            u_star = optimal_controls(model, ps)
            finite = all(map(math.isfinite, u_star))
        except EvaluationError:
            finite = False
        if not finite:
            degenerate += 1
            continue
        if abs(u_star[0]) < PONTRYAGIN_U1_MIN:
            near_zero += 1
            continue
        used += 1
        h1 = optimal_hamiltonian_value(model, ps, u_star)
        h2 = hamiltonian_value(model, ps)
        dev = abs(h1 - h2)
        grads = [abs(g) for g in control_gradient(model, ps, u_star)]
        if not all(map(math.isfinite, (dev, *grads))):
            raise EvaluationError(f"non-finite optimal-control check at q={list(ps.q)}, "
                                  f"p={list(ps.p)}")
        max_dev = max(max_dev, dev)
        max_rel = max(max_rel, dev / abs(h2))
        max_grad = max(max_grad, *grads)
    return {
        "evaluated": used,
        "skipped_degenerate": degenerate,
        "skipped_near_u1_zero": near_zero,
        "max_hamiltonian_deviation": max_dev,
        "max_relative_deviation": max_rel,
        "max_stationarity_norm": max_grad,
        "passed": bool(used > 0 and max_dev < PONTRYAGIN_DEV_TOL
                       and max_grad < PONTRYAGIN_GRAD_TOL),
    }
