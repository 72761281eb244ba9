"""The Phi tower built symbolically, tier by tier: the oracle of the series
tower ``SodeSystem.phi_tiers``.

Each tier is an ``Expr`` derived from the one before, so a tier's
coefficients can be compiled and compared with the series, and their DAG
inspected.  Tier ``order`` of ``phi_levels(sode)`` holds the n-1
coefficients that ``phi_tiers`` gives at row ``order``.
"""

import functools

from hamiltonize import expr


def phi_levels(sode):
    """Coefficient expressions of Phi, nabla Phi, nabla^2 Phi, ...

    Kind first follows c_{m+1,a} = c'_{m,a} + (1/2) G2 c_{m,a} -
    (1/2) c_{m,2} G_a, the covariant derivative of the banded Phi shape;
    for kind second the corrections cancel and each tier is the plain
    derivative of the previous one.
    """
    coeffs = sode.coeff_exprs
    if sode.kind == "first":
        g2 = coeffs[0]
        level = [expr.const(0.5) * g2 * g - g.diff() for g in coeffs]
        while True:
            yield level
            c2 = level[0]
            level = [c.diff() + expr.const(0.5) * g2 * c - expr.const(0.5) * c2 * g
                     for c, g in zip(level, coeffs)]
    elif sode.kind == "second":
        level = [expr.const(0.5) * x**2 - x.diff() for x in coeffs]
        while True:
            yield level
            level = [s.diff() for s in level]
    else:
        raise ValueError(f"no closed-form Phi tower for kind {sode.kind!r}")


@functools.cache
def _built(sode):
    return [], [], phi_levels(sode)


def tier_exprs(sode, order):
    """The coefficient expressions of tier ``order``."""
    exprs, _, levels = _built(sode)
    while len(exprs) <= order:
        exprs.append(next(levels))
    return exprs[order]


def tier_table(sode, order):
    """Tier ``order`` compiled as a table of its own, once per system."""
    _, tables, _ = _built(sode)
    while len(tables) <= order:
        tables.append(expr.compile_table(tier_exprs(sode, len(tables))))
    return tables[order]
