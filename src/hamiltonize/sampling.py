"""Deterministic jet and phase-point sampling.

Rank arguments and residual checks need generic evaluation points:
coordinates in [-1, 1] kept away from zeros of the constraint coefficients,
velocities (or momenta) with magnitudes in [0.5, 2] and random signs.
All samplers take a seeded ``random.Random`` and read it only through
``random()``, whose sequence for an int seed Python keeps the same in every
version, so reports are reproducible.  The draw order:

- each try of ``sample_r1`` is ``-1 + 2*random()``;
- the other n - 1 coordinates follow, drawn the same way;
- each velocity or momentum draws a magnitude ``lo + (hi - lo)*random()``,
  then a sign, negative when one more ``random()`` is below 0.5.

``helmholtz.singularity_certificate`` draws its combination coefficients as
``-1 + 2*random()`` too.  No other method of the generator is called
(``uniform``, ``choice``, ``getrandbits``): Python guarantees only
``random()``'s sequence across versions.
"""

from __future__ import annotations

from random import Random

from .errors import EvaluationError
from .systems import Jet, SystemSpec
from .variational import PhaseState

__all__ = ["sample_r1", "generic_jets", "constraint_jets", "phase_points", "phase_rows"]

MIN_COEFF = 0.15  # smallest tolerated |A_a(r1)| at sampled coordinates
SPEEDS = (0.5, 2.0)  # the range of the magnitudes of sampled velocities and momenta


def sample_r1(sys: SystemSpec, stream: Random) -> float:
    """Draw r1 uniform in [-1, 1), rejecting |A_a(r1)| < ``MIN_COEFF`` and
    points where N is undefined."""
    for _ in range(1000):
        r1 = -1.0 + 2.0 * stream.random()
        try:
            if all(abs(fn(r1)) >= MIN_COEFF for fn in sys.a_fns):
                sys.measure_fn(r1)
                return r1
        except EvaluationError:
            continue
    raise EvaluationError("could not sample a generic r1 in [-1, 1]")


def _draw(stream: Random, coords: int, count: int, lo: float, hi: float):
    """``coords`` values uniform in [-1, 1), then ``count`` magnitudes uniform
    in [lo, hi) each followed by its sign, as two lists of floats."""
    draw = stream.random
    rest = [-1.0 + 2.0 * draw() for _ in range(coords)]
    span = hi - lo
    signed = []
    for _ in range(count):
        mag = lo + span * draw()
        signed.append(-mag if draw() < 0.5 else mag)
    return rest, signed


def _sample(sys: SystemSpec, count: int, stream: Random, speeds: int,
            span: tuple[float, float], point) -> list:
    """``count`` points ``point(q, v)``: q at a generic r1 (``sample_r1``) with
    the other coordinates uniform in [-1, 1), then ``speeds`` velocities or
    momenta with magnitudes uniform in ``span`` and random signs."""
    out = []
    for _ in range(count):
        r1 = sample_r1(sys, stream)
        rest, v = _draw(stream, sys.n - 1, speeds, *span)
        out.append(point((r1, *rest), tuple(v)))
    return out


def generic_jets(sys: SystemSpec, count: int, stream: Random,
                 vel_range: tuple[float, float] = SPEEDS) -> list[Jet]:
    """Jets with independent velocities (not constraint-restricted)."""
    return _sample(sys, count, stream, sys.n, vel_range, Jet)


def constraint_jets(sys: SystemSpec, count: int, stream: Random) -> list[Jet]:
    """Jets whose s velocities satisfy the constraints."""
    return _sample(sys, count, stream, 2, SPEEDS, lambda q, u: sys.on_constraint(q, *u))


def phase_points(sys: SystemSpec, count: int, stream: Random) -> list[PhaseState]:
    """Phase points over generic coordinates, momentum magnitudes in ``SPEEDS``."""
    return _sample(sys, count, stream, sys.n, SPEEDS, PhaseState)


def phase_rows(sys: SystemSpec, count: int, stream: Random) -> list[tuple[float, ...]]:
    """The points of ``phase_points`` as flat rows (q, p), with no
    ``PhaseState`` built."""
    return _sample(sys, count, stream, sys.n, SPEEDS, lambda q, p: q + p)
