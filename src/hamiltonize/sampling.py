"""Deterministic jet and phase-point sampling.

Rank arguments and residual checks need generic evaluation points:
coordinates in [-1, 1] kept away from zeros of the constraint coefficients,
velocities (or momenta) with magnitudes in [0.5, 2] and random signs.
All samplers take a seeded ``Stream`` so reports are reproducible.

``Stream(seed)`` draws exactly what ``numpy.random.default_rng(seed)`` draws
for the calls the samplers stand for: numpy's PCG64 generator (O'Neill 2014)
seeded through its ``SeedSequence``, computed on Python ints.  No command
imports ``numpy.random``, and no sampled point costs a numpy call.
"""

from __future__ import annotations

from .errors import EvaluationError
from .systems import Jet, SystemSpec
from .variational import PhaseState

__all__ = ["Stream", "sample_r1", "generic_jets", "constraint_jets", "phase_points"]

MIN_COEFF = 0.15  # smallest tolerated |A_a(r1)| at sampled coordinates
SPEEDS = (0.5, 2.0)  # the range of the magnitudes of sampled velocities and momenta

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_ROT = (1 << 64) + 1


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, numpy.uint64)``: the
    seed's 32-bit words hashed into a pool of four, then expanded to eight
    32-bit words read as four little-endian 64-bit words."""
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The draws of ``numpy.random.default_rng(seed)`` for a seed >= 0, bit
    for bit: ``random(count)`` is ``Generator.random(count)``, and each of
    ``halves(count)`` is a 32-bit draw that ``Generator.integers(0, 2)``
    scales by Lemire's method, so the draw is the half's top bit.
    ``state``, ``inc`` and ``pending`` are the ``bit_generator.state``
    fields ``state``, ``inc`` and, where ``has_uint32`` is set, ``uinteger``;
    ``pending`` is None otherwise."""

    __slots__ = ("state", "inc", "pending")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"a seed must be >= 0, got {seed}")
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _M128
        self.pending = None

    def _words(self, count: int) -> list[int]:
        """``count`` 64-bit draws: per draw one LCG step, then the XSL-RR
        output of the new state (its halves xor-ed, rotated right by the
        state's top six bits; ``* _ROT`` doubles the word for the rotation)."""
        state, inc, out = self.state, self.inc, []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _M128
            out.append(((state >> 64 ^ state) & _M64) * _ROT >> (state >> 122) & _M64)
        self.state = state
        return out

    def random(self, count: int) -> list[float]:
        """``count`` doubles uniform in [0, 1): the top 53 bits of a word
        each, times 2**-53."""
        return [(word >> 11) * 2.0 ** -53 for word in self._words(count)]

    def halves(self, count: int) -> list[int]:
        """``count`` 32-bit draws: the pending high half of the last split
        word first, then the low and the high half of each new word; an odd
        one out leaves its high half pending."""
        out = [] if self.pending is None else [self.pending]
        self.pending = None
        for word in self._words((count - len(out) + 1) // 2):
            out += (word & _M32, word >> 32)
        if len(out) > count:
            self.pending = out.pop()
        return out


def sample_r1(sys: SystemSpec, stream: Stream) -> float:
    """Draw r1 uniform in [-1, 1], rejecting |A_a(r1)| < ``MIN_COEFF``: each
    try is ``rng.uniform(-1.0, 1.0)`` of the generator the stream equals."""
    for _ in range(1000):
        r1 = -1.0 + 2.0 * stream.random(1)[0]
        try:
            if all(abs(fn(r1)) >= MIN_COEFF for fn in sys.a_fns):
                sys.measure_fn(r1)
                return r1
        except EvaluationError:
            continue
    raise EvaluationError("could not sample a generic r1 in [-1, 1]")


def _draw(stream: Stream, coords: int, count: int, lo: float, hi: float):
    """``coords`` values uniform in [-1, 1], then ``count`` magnitudes uniform
    in [lo, hi] with random signs, as lists of floats.

    These are bit for bit the draws ``rng.uniform(-1.0, 1.0, coords)``,
    ``rng.uniform(lo, hi, count)`` and ``rng.choice((-1.0, 1.0), count)``
    in turn of the generator the stream equals, which leave it in the
    stream's state.  ``uniform`` takes one double per value,
    lo + (hi - lo) * U[0, 1); ``choice`` draws each index with
    ``integers(0, 2)``, the top bit of a half.
    """
    values = stream.random(coords + count)
    span = hi - lo
    mags = [lo + span * x for x in values[coords:]]
    return ([-1.0 + 2.0 * x for x in values[:coords]],
            [m if half >> 31 else -m for m, half in zip(mags, stream.halves(count))])


def _sample(sys: SystemSpec, count: int, stream: Stream, speeds: int,
            span: tuple[float, float], point) -> list:
    """``count`` points ``point(q, v)``: q at a generic r1 (``sample_r1``) with
    the other coordinates uniform in [-1, 1], then ``speeds`` velocities or
    momenta with magnitudes uniform in ``span`` and random signs."""
    out = []
    for _ in range(count):
        r1 = sample_r1(sys, stream)
        rest, v = _draw(stream, sys.n - 1, speeds, *span)
        out.append(point((r1, *rest), tuple(v)))
    return out


def generic_jets(sys: SystemSpec, count: int, stream: Stream,
                 vel_range: tuple[float, float] = SPEEDS) -> list[Jet]:
    """Jets with independent velocities (not constraint-restricted)."""
    return _sample(sys, count, stream, sys.n, vel_range, Jet)


def constraint_jets(sys: SystemSpec, count: int, stream: Stream) -> list[Jet]:
    """Jets whose s velocities satisfy the constraints."""
    return _sample(sys, count, stream, 2, SPEEDS, lambda q, u: sys.on_constraint(q, *u))


def phase_points(sys: SystemSpec, count: int, stream: Stream) -> list[PhaseState]:
    """Phase points over generic coordinates, momentum magnitudes in ``SPEEDS``."""
    return _sample(sys, count, stream, sys.n, SPEEDS, PhaseState)
