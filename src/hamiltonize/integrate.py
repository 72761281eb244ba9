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


def _names(lines) -> tuple[set, set]:
    """The locals that the statements ``lines`` store, and every name they
    hold, read off the code object they compile to (nothing runs)."""
    source = "def block():\n" + "".join(f"    {line}\n" for line in [*lines, "pass"])
    code = next(c for c in compile(source, "<rhs>", "exec").co_consts if hasattr(c, "co_names"))
    return set(code.co_varnames), {*code.co_varnames, *code.co_names}


def _program(parts: ex.RhsParts):
    """The whole RK4 loop over a right-hand side's parts, the four stages
    inlined in the order of operations of an array-state loop, so the states
    match one bit for bit.  A stage sets only the state locals and the time
    that it names.  Unless another statement stores to a local that the
    table block sets, the block is skipped where r1 equals the r1 it last
    ran at, except at r1 == 0.0, whose two signed zeros compare equal.

    Where r1'' = 0 that is the third stage and every step's first but the
    first: over 10,000 steps on each built-in, the nonholonomic, first and
    second associated and first Lagrangian programs run the block at 20,001
    of 40,000 stages, the Hamiltonian ones at (almost) every stage.  The
    knife edge's nonholonomic run took 430k-530k steps/s with the reuse
    and 250k-310k without (best of 7, on a shared 2-vCPU VM)."""
    _, reads = _names([*parts.head, *parts.table, *parts.body, f"[{', '.join(parts.outputs)}]"])
    sets, table = _names(parts.table)[0], list(parts.table)
    if sets and not sets & (_names([*parts.head, *parts.body])[0] | {*parts.state}):
        table = ["if r1 != _r or r1 == 0.0:", *(f"    {line}" for line in table), "    _r = r1"]
    clock = "t" in reads
    step = ["_t = _t0 + _h * _k"] if clock else []  # times[k] bit for bit
    for dt, slope, prev in ((None, "a", ""), ("_half", "b", "a"), ("_half", "c", "b"),
                            ("_h", "e", "c")):
        step += [f"t = _t + {dt}" if dt else "t = _t"] if clock else []
        step += [f"{name} = _y{i}" + (f" + {dt} * _{prev}{i}" if dt else "")
                 for i, name in enumerate(parts.state) if name in reads]
        step += [*parts.head, *table, *parts.body,
                 *(f"_{slope}{i} = {out}" for i, out in enumerate(parts.outputs))]
    ys = "".join(f"_y{i}, " for i in range(len(parts.state)))
    step += [*(f"_y{i} = _y{i} + _sixth * (_a{i} + 2.0 * _b{i} + 2.0 * _c{i} + _e{i})"
               for i in range(len(parts.state))), f"_buf.extend(({ys}))"]
    return ex.define("program(rhs, _buf, _t0, _h, _half, _sixth, _steps, _y)",
                     [f"{ys}= _y", "_r = None", "for _k in range(_steps):",
                      *(f"    {line}" for line in step)], **parts.bindings)


@functools.cache
def _call_program(dim: int):
    """The program of any other ``rhs(t, y)`` of ``dim`` components: each
    stage is one call.  Pure, so sharing it is unobservable."""
    y, k = [f"y{i}" for i in range(dim)], [f"k{i}" for i in range(dim)]
    return _program(ex.RhsParts(y, (), (), [f"{', '.join(k)}, = rhs(t, [{', '.join(y)}])"], k, {}))


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
        as ``%.17g``.  A column that holds one value bit for bit throughout a
        chunk (a constant velocity or momentum) is formatted once per chunk."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(self.columns) + "\n")
            # a chunk at a time, so the table never exists as Python floats
            for start in range(0, len(self.times), CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                block = np.column_stack((self.times[start:stop], self.states[start:stop]))
                bits = block.view(np.int64)
                fixed = (bits == bits[0]).all(axis=0)
                row = ",".join("%.17g" % v if same else "%.17g"
                               for v, same in zip(block[0].tolist(), fixed.tolist())) + "\n"
                fh.write(row * len(block) % tuple(block[:, ~fixed].ravel().tolist()))


def integrate(rhs, y0, cfg: IntegratorConfig, columns, provenance: str) -> Trajectory:
    """Integrate y' = rhs(t, y) with classical RK4 on a fixed grid.

    A run is one generated program (``_program``): the whole time loop, with
    the four stages inlined.  A generated right-hand side carries its parts
    (``expr.RhsParts``), so its body is inlined, and its program is cached
    with it.  Its table block is skipped where r1 equals the r1 it last ran
    at (never at r1 == 0.0), which gives the same bits.  Any other callable,
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
