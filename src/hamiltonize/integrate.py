"""Fixed-step integration and trajectory comparison.

Only the classical fourth-order Runge-Kutta scheme is provided, on purpose:
formulation-equivalence checks need identical time grids, which adaptive
steppers do not give.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EvaluationError, GridMismatchError, IntegrationAborted

__all__ = ["IntegratorConfig", "Trajectory", "integrate", "compare", "CompareMetrics"]

CSV_CHUNK_ROWS = 256
MAX_STEPS = np.iinfo(np.intp).max // 8 - 1  # the steps + 1 float stamps must fit one array
_STEPPERS: dict = {}  # state dimension -> its RK4 step; pure, so sharing is unobservable


def _rk4_step(dim: int):
    """RK4 step for ``dim`` components, generated on first use: one local per
    component and numpy's elementwise operation order, so the states match an
    array-valued loop bit for bit."""
    if dim not in _STEPPERS:
        def row(fmt):
            return ", ".join(fmt.format(i) for i in range(dim))
        source = ("def step(rhs, t, y, h, half, sixth):\n"
                  f"    {row('y{0}')}, = y\n"
                  f"    {row('a{0}')}, = rhs(t, y)\n"
                  f"    {row('b{0}')}, = rhs(t + half, [{row('y{0} + half * a{0}')}])\n"
                  f"    {row('c{0}')}, = rhs(t + half, [{row('y{0} + half * b{0}')}])\n"
                  f"    {row('e{0}')}, = rhs(t + h, [{row('y{0} + h * c{0}')}])\n"
                  f"    return [{row('y{0} + sixth * (a{0} + 2.0 * b{0} + 2.0 * c{0} + e{0})')}]")
        namespace: dict = {}
        exec(source, namespace)
        _STEPPERS[dim] = namespace["step"]
    return _STEPPERS[dim]


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
        """Write t plus all state columns at full double precision."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(self.columns) + "\n")
            row = ",".join(["%.17g"] * (1 + len(self.columns))) + "\n"
            # a chunk at a time, so the table never exists as Python floats
            for start in range(0, len(self.times), CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                block = np.column_stack((self.times[start:stop], self.states[start:stop]))
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


def integrate(rhs, y0, cfg: IntegratorConfig, columns, provenance: str) -> Trajectory:
    """Integrate y' = rhs(t, y) with classical RK4 on a fixed grid.

    The state is held as a list of floats and ``rhs`` receives it as one;
    ``rhs`` may return any sequence of floats, numpy arrays included, of the
    state's length.  Each step is ``_rk4_step``'s straight-line code, and
    every formulation's ``rhs`` is generated straight-line code as well, so
    a step runs no Python loop.

    On an evaluation error mid-run, or when a step produced a non-finite
    state, raises IntegrationAborted carrying the partial trajectory up to
    the last finite state.
    """
    y = np.array(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y)):
        raise ConfigError(f"initial state {y} is not finite")
    t0, _ = cfg.t_span
    h = cfg.h
    half = 0.5 * h
    sixth = h / 6.0
    steps = cfg.steps
    times = cfg.times
    step = _rk4_step(len(y))
    buf = array("d", y)
    cause = None
    # Non-finite states are found once, after the loop, so numpy's warnings
    # on the way there (from an rhs returning arrays) are noise.
    with np.errstate(all="ignore"):
        for k in range(steps):
            t = t0 + h * k  # times[k] bit for bit; a list of all stamps costs memory
            try:
                y = step(rhs, t, y, h, half, sixth)
            except EvaluationError as exc:
                cause = exc
                break
            except ArithmeticError as exc:  # float operations that numpy would turn into inf
                cause = EvaluationError(f"{type(exc).__name__}: {exc}")
                break
            buf.extend(y)
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
