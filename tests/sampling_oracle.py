"""The point-by-point samplers: the referee of ``hamiltonize.sampling``.

Each sampler here draws its points one at a time from ``random.Random``,
in the order the package documents: tries of r1 until one is generic (every
|A_a| at least ``MIN_COEFF`` and N defined, through the compiled scalar
functions), then the other coordinates, then each speed's magnitude and
sign.  ``sample_r1`` raises the package's error after 1,000 consecutive
rejected tries.  Given a list ``tries``, each sampler appends every try
with its verdict, so a test can hold the package's array verdicts to it.
"""

from random import Random

from hamiltonize.errors import EvaluationError
from hamiltonize.sampling import MIN_COEFF, SPEEDS
from hamiltonize.systems import Jet, SystemSpec
from hamiltonize.variational import PhaseState


def is_generic(sys: SystemSpec, r1: float) -> bool:
    """Whether r1 is generic, by the compiled scalar functions."""
    try:
        if all(abs(fn(r1)) >= MIN_COEFF for fn in sys.a_fns):
            sys.measure_fn(r1)
            return True
    except EvaluationError:
        pass
    return False


def sample_r1(sys: SystemSpec, stream: Random, tries: list | None = None) -> float:
    """Draw r1 uniform in [-1, 1) until it is generic."""
    for _ in range(1000):
        r1 = -1.0 + 2.0 * stream.random()
        generic = is_generic(sys, r1)
        if tries is not None:
            tries.append((r1, generic))
        if generic:
            return r1
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


def _sample(sys: SystemSpec, count: int, stream: Random, speeds: int, point,
            tries: list | None = None) -> list:
    out = []
    for _ in range(count):
        r1 = sample_r1(sys, stream, tries)
        rest, v = _draw(stream, sys.n - 1, speeds, *SPEEDS)
        out.append(point((r1, *rest), tuple(v)))
    return out


def generic_r1(sys: SystemSpec, count: int, stream: Random, tries: list | None = None) -> list:
    return [sample_r1(sys, stream, tries) for _ in range(count)]


def generic_jets(sys: SystemSpec, count: int, stream: Random,
                 tries: list | None = None) -> list[Jet]:
    return _sample(sys, count, stream, sys.n, Jet, tries)


def constraint_jets(sys: SystemSpec, count: int, stream: Random,
                    tries: list | None = None) -> list[Jet]:
    return _sample(sys, count, stream, 2, lambda q, u: sys.on_constraint(q, *u), tries)


def phase_points(sys: SystemSpec, count: int, stream: Random,
                 tries: list | None = None) -> list[PhaseState]:
    return _sample(sys, count, stream, sys.n, PhaseState, tries)


def phase_rows(sys: SystemSpec, count: int, stream: Random,
               tries: list | None = None) -> list[tuple[float, ...]]:
    """The points of ``phase_points`` as flat rows (q, p)."""
    return _sample(sys, count, stream, sys.n, lambda q, p: q + p, tries)
