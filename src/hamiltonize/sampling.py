"""Deterministic jet and phase-point sampling.

Rank arguments and residual checks need generic evaluation points:
coordinates in [-1, 1] kept away from zeros of the constraint coefficients,
velocities (or momenta) with magnitudes in [0.5, 2] and random signs.
All samplers take a seeded generator so reports are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError
from .systems import Jet, SystemSpec
from .variational import PhaseState

__all__ = ["sample_r1", "generic_jets", "constraint_jets", "phase_points"]

MIN_COEFF = 0.15  # smallest tolerated |A_a(r1)| at sampled coordinates


def sample_r1(sys: SystemSpec, rng: np.random.Generator, min_coeff: float = MIN_COEFF) -> float:
    """Draw r1 uniform in [-1, 1], rejecting coefficient near-zeros."""
    for _ in range(1000):
        r1 = -1.0 + 2.0 * rng.random()  # rng.uniform(-1.0, 1.0), bit for bit (see _draw)
        try:
            if all(abs(fn(r1)) >= min_coeff for fn in sys.a_fns):
                sys.measure_fn(r1)
                return r1
        except EvaluationError:
            continue
    raise EvaluationError("could not sample a generic r1 in [-1, 1]")


def _draw(rng: np.random.Generator, coords: int, count: int, lo: float, hi: float):
    """``coords`` values uniform in [-1, 1], then ``count`` magnitudes uniform
    in [lo, hi] with random signs, as lists of floats.

    These are bit for bit the draws ``rng.uniform(-1.0, 1.0, coords)``,
    ``rng.uniform(lo, hi, count)`` and ``rng.choice((-1.0, 1.0), count)``
    in turn, which leave the generator in the same state, so every sampled
    point stays where those calls put it.  ``uniform`` takes one double per
    value, lo + (hi - lo) * U[0, 1), so both are one ``rng.random`` call;
    ``choice`` draws its indices with ``rng.integers(0, 2)``.  This skips
    the argument handling of ``uniform`` and ``choice``, which costs more
    than the draws.
    """
    values = rng.random(coords + count).tolist()
    positive = rng.integers(0, 2, size=count).tolist()  # indices into (-1.0, 1.0)
    span = hi - lo
    mags = [lo + span * x for x in values[coords:]]
    return ([-1.0 + 2.0 * x for x in values[:coords]],
            [m if up else -m for m, up in zip(mags, positive)])


def _sample(sys: SystemSpec, count: int, rng: np.random.Generator, speeds: int,
            span: tuple[float, float], point) -> list:
    """``count`` points ``point(q, v)``: q at a generic r1 (``sample_r1``) with
    the other coordinates uniform in [-1, 1], then ``speeds`` velocities or
    momenta with magnitudes uniform in ``span`` and random signs."""
    out = []
    for _ in range(count):
        r1 = sample_r1(sys, rng)
        rest, v = _draw(rng, sys.n - 1, speeds, *span)
        out.append(point((r1, *rest), tuple(v)))
    return out


def generic_jets(
    sys: SystemSpec,
    count: int,
    rng: np.random.Generator,
    vel_range: tuple[float, float] = (0.5, 2.0),
) -> list[Jet]:
    """Jets with independent velocities (not constraint-restricted)."""
    return _sample(sys, count, rng, sys.n, vel_range, Jet)


def constraint_jets(
    sys: SystemSpec,
    count: int,
    rng: np.random.Generator,
    vel_range: tuple[float, float] = (0.5, 2.0),
) -> list[Jet]:
    """Jets whose s velocities satisfy the constraints."""
    return _sample(sys, count, rng, 2, vel_range, lambda q, u: sys.on_constraint(q, *u))


def phase_points(
    sys: SystemSpec,
    count: int,
    rng: np.random.Generator,
    p_range: tuple[float, float] = (0.5, 2.0),
) -> list[PhaseState]:
    """Phase points over generic coordinates with momenta in +-[lo, hi]."""
    return _sample(sys, count, rng, sys.n, p_range, PhaseState)
