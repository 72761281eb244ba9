"""Fixed-step integration and trajectory comparison.

Only the classical fourth-order Runge-Kutta scheme is provided, on purpose:
formulation-equivalence checks need identical time grids, which adaptive
steppers do not give.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import ConfigError, EvaluationError, GridMismatchError, IntegrationAborted

__all__ = ["IntegratorConfig", "Trajectory", "integrate", "compare", "CompareMetrics"]

CSV_CHUNK_ROWS = 256
MAX_STEPS = np.iinfo(np.intp).max // 8 - 1  # the steps + 1 float stamps must fit one array


# --- "%.17g" in numpy ---------------------------------------------------------
#
# A finite nonzero x prints as D * 10**(E - 16), D the integer in
# [10**16, 10**17) nearest |x| * 10**(16 - E).  E starts as floor(log10|x|),
# and the product is taken in double-double: Dekker's exact two-product of
# |x| and hi, plus |x| * lo, where hi + lo is 10**(16 - E) to 2**-106.  The
# leading double p of the product is then an integer (it is at least 2**53),
# so the fraction to round is that of the small remainder t, known to within
# 2**-47.  The value is decided where that fraction is clear of a half by
# _TIE and p + t lies in [10**16, 10**17) (so E was right); any other value,
# and one that is non-finite or outside (1e-30, 1e30), is formatted on its
# own.  Zero has its own text.
#
# Each value is laid out in _WIDTH bytes, the bytes it does not use zero:
# 0 separator, 1 sign, 2-6 a "0.000" prefix (-4 <= E < 0), the digits from
# 6 on with the point after the first ``lead`` of them, and 24-27 an
# exponent "e+XX".  Digit j sits at byte 7 + j in ``digits`` and at 6 + j in
# ``left``, the same bytes one to the left, so the digits before the point
# come from ``left`` and those after it from ``digits``, each through a mask
# picked by (lead, digits kept).  Dropping the zero bytes joins the text.

_EXPONENTS = range(-31, 31)  # floor(log10|x|) for 1e-30 < |x| < 1e30
_ZERO = len(_EXPONENTS)  # the class of 0.0 and -0.0, after the exponents'
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_TIE = 0.5 - 2.0**-30  # a fraction within 2**-30 of a half is left undecided
_WIDTH = 28


def _split(v):
    big = _SPLIT * v
    hi = big - (big - v)
    return hi, v - hi


def _powers_of_ten():
    """hi, its two halves and lo of 10**(16 - E) for each E, from Python
    ints, whose true division rounds correctly."""
    rows = []
    for e in _EXPONENTS:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        m, b = hi.as_integer_ratio()
        rows.append((hi, *_split(hi), (num * b - m * den) / (den * b)))
    return np.array(rows).T.copy()


def _layout():
    """The digit groups 0000-9999 as four ASCII bytes each, their trailing
    zeros, and per class the digits before the point and the masks and
    constant bytes of the layout, as rows of 32-bit words.  Built from
    Python bytes, so that importing runs no numpy loop."""
    quads, trailing = bytearray(40_000), bytearray(10_000)
    for place in range(4):  # thousands, hundreds, tens, units
        run = 10 ** (3 - place)
        quads[place::4] = b"".join(bytes([48 + d]) * run for d in range(10)) * (1000 // run)
    for k in range(1, 5):  # a multiple of 10**k ends in k zeros; 0 counts as four
        trailing[::10**k] = bytes([k]) * (10_000 // 10**k)
    lead = [e + 1 if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in _EXPONENTS] + [0]
    before = [(b"\0" * 6 + b"\xff" * n).ljust(_WIDTH, b"\0") for n in range(18)]
    after = [(b"\0" * (7 + n) + b"\xff" * (kept - n)).ljust(_WIDTH, b"\0")
             for n in range(18) for kept in range(18)]  # [lead, kept]
    text = []  # [class, point, sign]
    for c, n in enumerate(lead):
        e = _EXPONENTS[c] if c < _ZERO else 0
        for point in (0, 1):
            for sign in (0, 1):
                row = bytearray(_WIDTH)
                row[0], row[1] = ord(","), ord("-") * sign
                if c == _ZERO:
                    row[6] = ord("0")
                elif -4 <= e < 0:
                    row[6 + e:7] = b"0." + b"0" * (-e - 1)
                elif not 0 <= e < 17:
                    row[24:] = b"e%+03d" % e
                if point and n:
                    row[6 + n] = ord(".")
                text.append(bytes(row))
    words = [np.frombuffer(b"".join(rows), np.uint32).reshape(-1, _WIDTH // 4)
             for rows in (before, after, text)]
    return (np.frombuffer(quads, np.uint32), np.frombuffer(trailing, np.uint8),
            np.array(lead), *words)


_HI, _HI_HI, _HI_LO, _LO = _powers_of_ten()
_QUADS, _TRAILING, _LEAD, _BEFORE, _AFTER, _TEXT = _layout()


def _decimal(x: np.ndarray):
    """The class (E's index, or _ZERO) and 17-digit D of each value, and
    whether the two are decided; D is 10**16 where they are not."""
    a = np.abs(x)
    ok = (a > 1e-30) & (a < 1e30)
    a[~ok] = 1.0
    c = np.floor(np.log10(a)).astype(np.intp) - _EXPONENTS[0]
    p = a * _HI.take(c)
    a_hi, a_lo = _split(a)
    hi_hi, hi_lo = _HI_HI.take(c), _HI_LO.take(c)
    t = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * _LO.take(c)
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    ok &= (p > 1e16) | ((p == 1e16) & (t >= 0))
    ok &= (d < 10**17) & (np.abs(t - r) < _TIE)
    d[~ok] = 10**16
    c[x == 0] = _ZERO
    return c, d, ok


def _csv_rows(block: np.ndarray) -> bytes:
    """Each row of ``block`` as a newline and then its values, joined by
    commas, each exactly as ``"%.17g" % value``."""
    x = block.ravel()
    c, d, ok = _decimal(x)
    top = d // 10**8
    first = top // 10**8
    groups = [first]  # D's first digit, then four groups of four
    for g in (top - first * 10**8, d - top * 10**8):
        high = g // 10**4
        groups += [high, g - high * 10**4]
    digits = np.empty((len(x), _WIDTH // 4), np.uint32)
    for k, g in enumerate(groups, 1):
        _QUADS.take(g, out=digits[:, k])
    zeros = _TRAILING.take(groups[4])
    for g, full in zip(groups[3:0:-1], (4, 8, 12)):
        zeros += (zeros == full) * _TRAILING.take(g)
    lead, zero = _LEAD.take(c), c == _ZERO
    kept = np.maximum(17 - zeros, lead)
    kept[zero] = 0
    left = np.empty_like(digits)  # its buffer then takes the mask and text rows in turn
    left.view(np.uint8).ravel()[:-1] = digits.view(np.uint8).ravel()[1:]
    out = _BEFORE.take(lead, axis=0)
    out &= left
    digits &= _AFTER.take(lead * 18 + kept, axis=0, out=left, mode="clip")
    out |= digits
    out |= _TEXT.take((c * 2 + (kept > lead)) * 2 + np.signbit(x), axis=0, out=left, mode="clip")
    text = out.view(np.uint8)
    text[::block.shape[1], 0] = ord("\n")
    for i in np.flatnonzero(~ok & ~zero):
        value = b"%.17g" % x[i]
        text[i, 1:] = 0
        text[i, 1:1 + len(value)] = np.frombuffer(value, np.uint8)
    return text.tobytes().translate(None, b"\0")


def _names(lines) -> tuple[set, set]:
    """The locals that the statements ``lines`` store, and every name they
    hold, read off the code object they compile to (nothing runs)."""
    source = "def block():\n" + "".join(f"    {line}\n" for line in [*lines, "pass"])
    code = next(c for c in compile(source, "<rhs>", "exec").co_consts if hasattr(c, "co_names"))
    return set(code.co_varnames), {*code.co_varnames, *code.co_names}


def _program(parts: ex.RhsParts):
    """The whole RK4 loop over a right-hand side's parts, the four stages
    inlined in the order of operations of an array-state loop, so the states
    match one bit for bit.  A step does only the work whose inputs change:

    - A stage sets only the state locals and the time that it names.  A
      component whose slope is the literal 0.0 has no slope local: its stage
      value and its update are y + 0.0, which is y + h * 0.0 for the finite
      positive h of ``IntegratorConfig``, a -0.0 turned to +0.0 included;
      the ``fixed`` statements over such components run at the first stage.
    - Unless another statement stores to a local that the table block sets,
      the block (with the values of r1 alone that its emitter puts after the
      guards) is skipped where r1 equals the r1 it last ran at, except at
      r1 == 0.0, whose two signed zeros compare equal.  Where r1'' = 0 that
      is the third stage and every step's first but the first: 20,001 of
      40,000 stages over 10,000 steps, against (almost) every stage of a
      Hamiltonian.  The reuse took the knife edge's nonholonomic run from
      270k-430k to 330k-540k steps/s (in process, shared 2-vCPU VM).
    - The step ends with one C-level store, ``_buf.fromlist`` of a list, where
      ``extend`` of a tuple appends it item by item."""
    sets, held = _names(parts.table)
    stores, named = _names([*parts.head, *parts.fixed, *parts.body,
                            f"[{', '.join(parts.outputs)}]"])
    reads, table = held | named, list(parts.table)
    if sets and not sets & (stores | {*parts.state}):
        table = ["if r1 != _r or r1 == 0.0:", *(f"    {line}" for line in table), "    _r = r1"]
    clock = "t" in reads
    zero = {i for i, out in enumerate(parts.outputs) if out == "0.0"}  # h * 0.0 is +0.0
    step = ["_t = _t0 + _h * _k"] if clock else []  # times[k] bit for bit
    for dt, slope, prev in ((None, "a", ""), ("_half", "b", "a"), ("_half", "c", "b"),
                            ("_h", "e", "c")):
        step += [f"t = _t + {dt}" if dt else "t = _t"] if clock else []
        step += [f"{name} = _y{i}" + ("" if not dt else " + 0.0" if i in zero
                                      else f" + {dt} * _{prev}{i}")
                 for i, name in enumerate(parts.state) if name in reads]
        step += [*parts.head, *table, *(() if dt else parts.fixed), *parts.body,
                 *(f"_{slope}{i} = {out}" for i, out in enumerate(parts.outputs) if i not in zero)]
    ys = "".join(f"_y{i}, " for i in range(len(parts.state)))
    step += [*(f"_y{i} = _y{i} + 0.0" if i in zero
               else f"_y{i} = _y{i} + _sixth * (_a{i} + 2.0 * _b{i} + 2.0 * _c{i} + _e{i})"
               for i in range(len(parts.state))), f"_store([{ys}])"]
    return ex.define("program(rhs, _buf, _t0, _h, _half, _sixth, _steps, _y)",
                     [f"{ys}= _y", "_r = None", "_store = _buf.fromlist",
                      "for _k in range(_steps):", *(f"    {line}" for line in step)],
                     **parts.bindings)


@functools.cache
def _call_program(dim: int):
    """The program of any other ``rhs(t, y)`` of ``dim`` components: each
    stage is one call.  Pure, so sharing it is unobservable."""
    y, k = [f"y{i}" for i in range(dim)], [f"k{i}" for i in range(dim)]
    call = f"{', '.join(k)}, = rhs(t, [{', '.join(y)}])"
    return _program(ex.RhsParts(y, (), (), [call], k, (), {}))


@dataclass(frozen=True)
class IntegratorConfig:
    h: float = 1e-3
    t_span: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not np.isfinite((self.h, *self.t_span)).all():
            raise ConfigError(f"grid must be finite, got h={self.h!r}, t_span={self.t_span!r}")
        if self.h <= 0:
            raise ConfigError("step size must be positive")
        if self.t_span[1] <= self.t_span[0]:
            raise ConfigError("t_span must be increasing")
        span = self.t_span[1] - self.t_span[0]
        if not span / self.h <= MAX_STEPS:  # an infinite ratio included
            raise ConfigError(f"a span of {span!r} in steps of h={self.h!r} takes more "
                              f"than {MAX_STEPS} steps, more than one array can hold")
        if self.steps * self.h < span - 1e-9 * span:
            raise ConfigError(
                f"{self.steps} steps of h={self.h!r} stop short of the span {span!r}"
            )

    @property
    def steps(self) -> int:
        return max(1, int(round((self.t_span[1] - self.t_span[0]) / self.h)))

    @property
    def times(self) -> np.ndarray:
        """The time stamps t0 + h k of the grid, for k = 0..steps."""
        return self.t_span[0] + self.h * np.arange(self.steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """A time-stamped state series with provenance.

    ``states`` has one row per time stamp; ``columns`` names the state
    components; ``provenance`` records which formulation produced the run
    (nonholonomic / sode / euler-lagrange / hamiltonian / closed-form).
    """

    times: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]
    provenance: str

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) < 1:
            raise ConfigError("times and states must have equal length >= 1")
        if self.states.ndim != 2 or self.states.shape[1] != len(self.columns):
            raise ConfigError("states shape does not match columns")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        try:
            return self.states[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.columns}") from None

    def projection(self, names: tuple[str, ...]) -> np.ndarray:
        return np.stack([self.column(n) for n in names], axis=1)

    def write_csv(self, path: str) -> None:
        """Write t plus all state columns at full double precision, each value
        as ``%.17g``.  The text is computed in numpy (``_csv_rows``), a chunk
        of rows at a time so that memory does not grow with the run; a value
        whose rounding that cannot decide (within 2**-30 of a tie, at the
        edge of a decade, non-finite or outside 1e-30 < |x| < 1e30) is
        formatted on its own."""
        with open(path, "wb") as fh:
            fh.write(("t," + ",".join(self.columns)).encode())
            for start in range(0, len(self.times), CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                fh.write(_csv_rows(np.column_stack((self.times[start:stop], self.states[start:stop]))))
            fh.write(b"\n")


def integrate(rhs, y0, cfg: IntegratorConfig, columns, provenance: str) -> Trajectory:
    """Integrate y' = rhs(t, y) with classical RK4 on a fixed grid.

    A run is one generated program (``_program``): the whole time loop, with
    the four stages inlined.  A generated right-hand side carries its parts
    (``expr.RhsParts``), so its body is inlined, and its program is cached
    with it.  Its table block is skipped where r1 equals the r1 it last ran
    at (never at r1 == 0.0), its ``fixed`` statements run at each step's
    first stage only, and each step is stored by one call, all of which
    gives the same bits.  Any other callable,
    a traced one included, takes the generic stage ``k = rhs(t, [y])``: it
    receives the state as a list of floats and may return any sequence of
    floats, numpy arrays included, of the state's length.

    On an evaluation error mid-run, or when a step produced a non-finite
    state, raises IntegrationAborted carrying the partial trajectory up to
    the last finite state.
    """
    y = np.array(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y)):
        raise ConfigError(f"initial state {y} is not finite")
    parts = getattr(rhs, "parts", None)
    if parts is not None and "program" not in vars(rhs):
        rhs.program = _program(parts)
    program = _call_program(len(y)) if parts is None else rhs.program
    h = cfg.h
    times = cfg.times
    buf = array("d", y)
    cause = None
    # Non-finite states are found once, after the loop, so numpy's warnings
    # on the way there (from an rhs returning arrays) are noise.
    with np.errstate(all="ignore"):
        try:
            program(rhs, buf, cfg.t_span[0], h, 0.5 * h, h / 6.0, cfg.steps, y)
        except EvaluationError as exc:
            cause = exc
        except ArithmeticError as exc:  # float operations that numpy would turn into inf
            cause = EvaluationError(f"{type(exc).__name__}: {exc}")
    out = np.frombuffer(buf).reshape(-1, len(y))
    rows = len(out)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        rows = int(np.argmin(finite))
        cause = EvaluationError(f"the step to t={float(times[rows])!r} gave a non-finite state")
    if cause is not None:
        partial = Trajectory(times[:rows], out[:rows].copy(), tuple(columns), provenance)
        raise IntegrationAborted(float(times[rows - 1]), partial, cause) from cause
    return Trajectory(times, out, tuple(columns), provenance)


@dataclass(frozen=True)
class CompareMetrics:
    sup: float
    rms: float
    per_column: dict[str, dict[str, float]] = field(default_factory=dict)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite metric fails the report
def compare(a: Trajectory, b: Trajectory, names: tuple[str, ...]) -> CompareMetrics:
    """Sup-norm and RMS of the difference of two runs on shared coordinates.

    The trajectories must have been produced on the same time grid;
    resampling is out of scope.
    """
    if len(a.times) != len(b.times) or not np.array_equal(a.times, b.times):
        raise GridMismatchError("trajectories do not share a time grid")
    diff = a.projection(names) - b.projection(names)
    per = {
        name: {
            "sup": float(np.max(np.abs(diff[:, i]))),
            "rms": float(np.sqrt(np.mean(diff[:, i] ** 2))),
        }
        for i, name in enumerate(names)
    }
    return CompareMetrics(
        sup=float(np.max(np.abs(diff))),
        rms=float(np.sqrt(np.mean(diff**2))),
        per_column=per,
    )
