"""Deterministic jet and phase-point sampling.

Rank arguments and residual checks need generic evaluation points:
coordinates in [-1, 1] kept away from zeros of the constraint coefficients,
velocities (or momenta) with magnitudes in [0.5, 2] and random signs.
All samplers take a seeded ``random.Random`` and read it only through
``random()``, whose sequence for an int seed Python keeps the same in every
version, so reports are reproducible.  The draw order is that of a loop over
the points: each try of r1 is ``-1 + 2*random()`` until one is generic, the
other n - 1 coordinates follow, drawn the same way, and each velocity or
momentum draws a magnitude ``lo + (hi - lo)*random()``, then a sign,
negative when one more ``random()`` is below 0.5.

The draws come as one block, the fewest the sample can need, and every draw
is tested at once as a try of r1 by the code of the coefficients and N on
numpy arrays: a try is generic where every |A_a| is at least ``MIN_COEFF``
and every node of that code is finite.  A block that runs short is topped up
by the fewest draws the remaining points need, so the generator ends where
the loop leaves it, after an error too.
"""

from __future__ import annotations

from itertools import repeat
from random import Random

import numpy as np

from . import expr as ex
from .errors import EvaluationError
from .systems import Jet, SystemSpec
from .variational import PhaseState

__all__ = ["generic_r1", "generic_jets", "constraint_jets", "phase_points", "phase_rows"]

MIN_COEFF = 0.15  # smallest tolerated |A_a(r1)| at sampled coordinates
SPEEDS = (0.5, 2.0)  # the range of the magnitudes of sampled velocities and momenta
MAX_MISSES = 1000  # consecutive rejected tries of r1 before sampling gives up
TRY_BLOCK = 4096  # tries per call of the generated test; bounds the memory of its nodes


def generic_r1(sys: SystemSpec, count: int, stream: Random) -> list[float]:
    """``count`` r1 uniform in [-1, 1), none with |A_a| < ``MIN_COEFF`` or N undefined."""
    return _rows(sys, count, stream, 1, 0)[0].tolist()


def generic_jets(sys: SystemSpec, count: int, stream: Random) -> list[Jet]:
    """Jets with independent velocities (not constraint-restricted)."""
    return _points(_rows(sys, count, stream, sys.n, sys.n), sys.n, Jet)


def constraint_jets(sys: SystemSpec, count: int, stream: Random) -> list[Jet]:
    """Jets whose s velocities satisfy the constraints."""
    return _points(_rows(sys, count, stream, sys.n, 2), sys.n,
                   lambda q, u: sys.on_constraint(q, *u))


def phase_points(sys: SystemSpec, count: int, stream: Random) -> list[PhaseState]:
    """Phase points over generic coordinates, momentum magnitudes in ``SPEEDS``."""
    return _points(phase_rows(sys, count, stream), sys.n, PhaseState)


def phase_rows(sys: SystemSpec, count: int, stream: Random) -> np.ndarray:
    """The points of ``phase_points`` as the columns (q, p) of a (2n, count) array."""
    return _rows(sys, count, stream, sys.n, sys.n)


def _points(rows: np.ndarray, n: int, point) -> list:
    return [point(tuple(col[:n]), tuple(col[n:])) for col in rows.T.tolist()]


def _rows(sys: SystemSpec, count: int, stream: Random, coords: int, speeds: int) -> np.ndarray:
    """``count`` points as the columns of a (coords + speeds, count) array:
    ``coords`` coordinates, the first at a generic r1 and the others uniform
    in [-1, 1), then ``speeds`` velocities or momenta with magnitudes uniform
    in ``SPEEDS`` and random signs."""
    width = coords + 2 * speeds  # a point's draws, from its accepted try on
    state, draws, generic, tries = stream.getstate(), np.empty(0), np.empty(0, bool), []
    first, need = 0, count * width  # the next point's first try; the draws to add
    while need:
        new = np.fromiter(map(Random.random, repeat(stream, need)), float, need)
        draws = np.concatenate((draws, new))
        generic = np.concatenate((generic, *(_generic(sys, -1.0 + 2.0 * new[i:i + TRY_BLOCK])
                                             for i in range(0, need, TRY_BLOCK))))
        size, need, accepted = len(draws), 0, memoryview(generic)
        while len(tries) < count:
            found = first
            while found < size and not accepted[found]:  # a run of rejected tries
                found += 1
            if found - first >= MAX_MISSES:
                stream.setstate(state)  # and draw as far as the point-by-point loop did
                np.fromiter(map(Random.random, repeat(stream, first + MAX_MISSES)), float)
                raise EvaluationError("could not sample a generic r1 in [-1, 1]")
            if found + width > size:
                need = found + (count - len(tries)) * width - size
                break
            tries.append(found)
            first = found + width
    picked = draws[np.add.outer(np.arange(width), np.array(tries, dtype=np.intp))]
    magnitudes = SPEEDS[0] + (SPEEDS[1] - SPEEDS[0]) * picked[coords::2]
    return np.concatenate((-1.0 + 2.0 * picked[:coords],
                           np.where(picked[coords + 1::2] < 0.5, -magnitudes, magnitudes)))


def _generic(sys: SystemSpec, r1: np.ndarray) -> np.ndarray:
    """Whether each try ``r1`` is generic: every |A_a| at least ``MIN_COEFF``
    and every node of the coefficients' and N's array code finite."""
    def build():  # the coefficients' values, and those of every node of their code and N's
        names = [f"a{a}" for a in range(sys.k)]
        lines = ex.assign((*sys.a_alpha, sys.measure_expr), [*names, "n"], inline=False)
        nodes = ", ".join(line.partition(" = ")[0] for line in lines)
        return ex.define("generic(r1)", [*lines, f"return [{', '.join(names)}], [{nodes}]"],
                         **ex.ARRAY_GLOBALS)

    with np.errstate(all="ignore"):
        coeffs, nodes = sys.kernel(("generic",), build)(r1)
    generic = (np.abs(coeffs) >= MIN_COEFF).all(axis=0)
    for node in nodes:
        generic &= np.isfinite(node)
    return generic
