import ast
import importlib
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hamiltonize import (
    ConfigError,
    GridMismatchError,
    IntegrationAborted,
    IntegratorConfig,
    Jet,
    Trajectory,
    builtin_system,
    compare,
    disk_closed_form_state,
    first_associated,
    integrate,
    second_associated,
    third_associated,
)
from hamiltonize import expr
from hamiltonize.cli import default_initial_jet
from hamiltonize.errors import EvaluationError
from hamiltonize.integrate import CSV_CHUNK_ROWS
from hamiltonize.systems import (nh_columns, nh_state_from_jet, nonholonomic_ode,
                                 parse_system_file)
from hamiltonize.variational import euler_lagrange_ode, hamilton_ode, lagrangian_model, legendre


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(h=0.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(t_span=(1.0, 1.0))
    with pytest.raises(ConfigError):  # 3 steps of 0.3 stop at t = 0.9
        IntegratorConfig(h=0.3, t_span=(0.0, 1.0))
    # 1e298 steps, and a step count that overflows to inf, before any allocation
    for h, t in ((1e-300, 0.01), (0.3, 1e308)):
        with pytest.raises(ConfigError, match="more than one array can hold"):
            IntegratorConfig(h=h, t_span=(0.0, t))


def test_config_times_are_the_grid():
    cfg = IntegratorConfig(h=0.1, t_span=(0.5, 1.5))
    assert cfg.times.tobytes() == (0.5 + 0.1 * np.arange(11)).tobytes()


def test_rk4_exact_on_free_motion():
    """q'' = 0 from (q, q') = (0, 1) lands on q = t exactly."""
    rhs = lambda t, y: np.array([y[1], 0.0])
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 1.0))
    traj = integrate(rhs, [0.0, 1.0], cfg, ("q", "dq"), "test")
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-14)


def test_disk_flow_matches_closed_form():
    sys = builtin_system("vertical_disk")
    ics = Jet((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0))
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 10.0))
    traj = integrate(nonholonomic_ode(sys), nh_state_from_jet(sys, ics), cfg,
                     nh_columns(sys), "nonholonomic")
    exact = np.array([disk_closed_form_state(1.0, ics, t)[:4] for t in traj.times])
    assert np.max(np.abs(traj.states[:, :4] - exact)) < 1e-6


def test_step_halving_reduces_error_16x():
    """Fourth-order convergence on the free particle system.

    Steps are chosen large enough that truncation, not rounding, dominates.
    """
    sys = builtin_system("free_particle")
    jet0 = sys.on_constraint((0.5, 0.0, 0.0), 1.0, 2.0)
    y0 = nh_state_from_jet(sys, jet0)
    runs = {}
    for h in (0.2, 0.1, 0.05):
        cfg = IntegratorConfig(h=h, t_span=(0.0, 2.0))
        runs[h] = integrate(nonholonomic_ode(sys), y0, cfg, nh_columns(sys), "nh")
    e1 = np.max(np.abs(runs[0.2].states[-1] - runs[0.1].states[-1]))
    e2 = np.max(np.abs(runs[0.1].states[-1] - runs[0.05].states[-1]))
    order = math.log2(e1 / e2)
    assert order >= 3.9


def test_abort_carries_partial_trajectory():
    class Boom(EvaluationError):
        pass

    def rhs(t, y):
        if t > 0.5:
            raise Boom("wall")
        return np.array([1.0])

    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 1.0))
    with pytest.raises(IntegrationAborted) as err:
        integrate(rhs, [0.0], cfg, ("q",), "test")
    assert 0.4 < err.value.time < 0.6
    assert len(err.value.trajectory.times) > 10


def test_non_finite_state_aborts_with_finite_partial_trajectory():
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else np.inf])

    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 1.0))
    with pytest.raises(IntegrationAborted) as err:
        integrate(rhs, [0.0], cfg, ("q",), "test")
    partial = err.value.trajectory
    assert 0.4 < err.value.time < 0.6
    assert partial.times[-1] == err.value.time
    assert np.isfinite(partial.states).all() and len(partial.times) > 40
    with pytest.raises(ConfigError):
        integrate(rhs, [np.nan], cfg, ("q",), "test")


def test_compare_identical_and_symmetry(rng):
    sys = builtin_system("free_particle")
    jet0 = sys.on_constraint((1.0, 0.0, 0.0), 1.0, 1.0)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 1.0))
    a = integrate(nonholonomic_ode(sys), nh_state_from_jet(sys, jet0), cfg,
                  nh_columns(sys), "nh")
    metrics = compare(a, a, sys.names)
    assert metrics.sup == 0.0 and metrics.rms == 0.0

    jet1 = Jet(jet0.q, (1.0, 1.0, jet0.sdot[0] + 0.1))  # constraint violated
    b = integrate(nonholonomic_ode(sys), nh_state_from_jet(sys, jet1), cfg,
                  nh_columns(sys), "nh")
    # velocities differ only in the slaved component, so positions coincide
    # until ydot feeds back; compare against a run with perturbed r2dot instead
    jet2 = sys.on_constraint(jet0.q, 1.0, 1.1)
    c = integrate(nonholonomic_ode(sys), nh_state_from_jet(sys, jet2), cfg,
                  nh_columns(sys), "nh")
    m_ac = compare(a, c, sys.names)
    m_ca = compare(c, a, sys.names)
    assert m_ac.sup == m_ca.sup > 0
    # no silent clamping: the deviation grows with t
    diff = np.abs(a.projection(sys.names) - c.projection(sys.names)).max(axis=1)
    assert diff[-1] > diff[len(diff) // 2] > diff[len(diff) // 4]


def test_compare_grid_mismatch():
    t1 = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), ("q",), "a")
    t2 = Trajectory(np.array([0.0, 0.5, 1.0]), np.zeros((3, 1)), ("q",), "b")
    with pytest.raises(GridMismatchError):
        compare(t1, t2, ("q",))


def test_csv_round_trip(tmp_path):
    sys = builtin_system("free_particle")
    jet0 = sys.on_constraint((1.0, 0.0, 0.0), 1.0, 1.0)
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 0.1))
    traj = integrate(nonholonomic_ode(sys), nh_state_from_jet(sys, jet0), cfg,
                     nh_columns(sys), "nh")
    path = tmp_path / "run.csv"
    traj.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,z,dx,dy"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    # full double precision round trip
    assert np.array_equal(data[:, 1:], traj.states)
    assert np.array_equal(data[:, 0], traj.times)


# --- the float-state loop against an array-state reference -----------------


def numpy_rk4(rhs, y0, cfg, columns):
    """Reference RK4 on numpy arrays: the array-state loop, kept to pin the
    float-state one to it bit for bit."""
    y = np.array(y0, dtype=float)
    h = cfg.h
    times = cfg.t_span[0] + h * np.arange(cfg.steps + 1)
    out = np.empty((cfg.steps + 1, y.size))
    out[0] = y
    rows, cause = cfg.steps + 1, None
    with np.errstate(all="ignore"):
        for k in range(cfg.steps):
            t = times[k]
            try:
                k1 = np.asarray(rhs(t, y), dtype=float)
                k2 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k1), dtype=float)
                k3 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k2), dtype=float)
                k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
            except EvaluationError as exc:
                rows, cause = k + 1, exc
                break
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1] = y
    finite = np.isfinite(out[:rows]).all(axis=1)
    if not finite.all():
        rows = int(np.argmin(finite))
        cause = EvaluationError("non-finite state")
    if cause is not None:
        partial = Trajectory(times[:rows], out[:rows].copy(), tuple(columns), "reference")
        raise IntegrationAborted(float(times[rows - 1]), partial, cause)
    return Trajectory(times, out, tuple(columns), "reference")


def _hex_rows(states):
    return [[float(v).hex() for v in row] for row in states]


def _formulation_runs(name, sys=None, coefficients=None):
    """(label, rhs, y0) for each formulation of one built-in, from the CLI's
    default initial jet; ``sys`` is that built-in, made afresh if not given,
    and ``coefficients`` maps a Lagrangian kind to its model's coefficients
    where they are not the preset's."""
    sys = builtin_system(name) if sys is None else sys
    jet0 = default_initial_jet(sys)
    runs = [("nonholonomic", nonholonomic_ode(sys), nh_state_from_jet(sys, jet0))]
    for build in (first_associated, second_associated, third_associated):
        sode = build(sys)
        if sode.kind == "third" and not sode.system.constant_measure:
            continue  # associated only where the measure is constant
        runs.append((f"sode-{sode.kind}", sode.ode(), np.array(jet0.q + jet0.qdot)))
    kinds = ("first", "second") if sys.constant_measure else ("first",)
    models = {kind: lagrangian_model(sys, kind, (coefficients or {}).get(kind))
              for kind in (*kinds, "variational")}
    for kind, model in models.items():
        runs.append((f"lagrangian-{kind}", euler_lagrange_ode(model), np.array(jet0.q + jet0.qdot)))
    for kind in kinds:
        model = models[kind]
        ps0 = legendre(model, jet0)
        runs.append((f"hamiltonian-{kind}", hamilton_ode(model), np.array(ps0.q + ps0.p)))
    return runs


def _same_run(rhs, y0, cfg, label, aborts=False):
    """``integrate`` gives the referee's time stamps and states bit for bit
    or, where ``aborts`` allows the referee to abort, aborts where it does:
    same time, same partial rows and, where the right-hand side raised, the
    same error.  Returns what ``integrate`` gave: the run, or the partial run
    of its abort."""
    columns = tuple(f"c{i}" for i in range(len(y0)))
    try:
        ref = numpy_rk4(rhs, y0, cfg, columns)
    except IntegrationAborted as exc:
        assert aborts, f"{label}: {exc}"
        with pytest.raises(IntegrationAborted) as aborted:
            integrate(rhs, y0, cfg, columns, label)
        assert aborted.value.time == exc.time, label
        if str(exc.cause) != "non-finite state":  # the referee's own message
            assert type(aborted.value.cause) is type(exc.cause), label
            # the referee's right-hand side reads numpy scalars, so its
            # messages print a value v as np.float64(v)
            assert str(aborted.value) == re.sub(r"np\.float64\((.*?)\)", r"\1", str(exc)), label
        ref, got = exc.trajectory, aborted.value.trajectory
    else:
        got = integrate(rhs, y0, cfg, columns, label)
    assert np.array_equal(got.times, ref.times), label
    assert _hex_rows(got.states) == _hex_rows(ref.states), label
    return got


@pytest.mark.parametrize("name", ["free_particle", "knife_edge", "vertical_disk"])
def test_float_loop_matches_numpy_rk4_bit_for_bit(name):
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 0.5))
    for label, rhs, y0 in _formulation_runs(name):
        _same_run(rhs, y0, cfg, label)


@pytest.mark.parametrize("name", ["free_particle", "knife_edge", "vertical_disk"])
def test_pole_crossing_spans_match_numpy_rk4_bit_for_bit(name):
    """To t=10 from the default jet, r1 crosses the knife edge's tan poles
    and the disk's E_b zeros; every formulation keeps the referee's bits."""
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 10.0))
    for label, rhs, y0 in _formulation_runs(name):
        _same_run(rhs, y0, cfg, label, aborts=True)


def test_aborts_inside_generated_kernels_match_numpy_rk4():
    """A guard of a generated kernel raising at the first stage and part-way
    through a run (toward the disk's sin root and the knife edge's tan pole,
    in models with unit and other constants): the same abort time, partial
    rows and message."""
    disk, knife = builtin_system("vertical_disk"), builtin_system("knife_edge")
    on_pole = disk.on_constraint((1.5707963267948966, 0.0, 0.0, 0.0), 1.0, 2.0)
    before_zero = disk.on_constraint((-0.5, 0.0, 0.0, 0.0), 1.0, 2.0)  # sin(phi) = 0 ahead
    resting = knife.on_constraint((0.25, 0.0, 0.0), 0.0, 1.0)
    before_pole = knife.on_constraint((1.0707963267948966, 0.0, 0.0), 1.0, 1.0)  # pi/2 - 0.5
    runs = [(second_associated(disk).ode(), on_pole, 1e-3, 1, "vanishes"),
            (second_associated(disk).ode(), before_zero, 0.1, 5, "vanishes"),
            (euler_lagrange_ode(lagrangian_model(disk, "first")), before_zero, 0.1, 5, "vanishes"),
            (euler_lagrange_ode(lagrangian_model(knife, "first")), resting, 1e-3, 1, "r1dot = 0"),
            *((rhs, before_pole, 0.1, 5, "t=0.4: velocity weight 0 vanishes")
              for rhs in (second_associated(knife).ode(),
                          euler_lagrange_ode(lagrangian_model(knife, "first")),
                          euler_lagrange_ode(lagrangian_model(knife, "first", (2.0, -0.5)))))]
    for rhs, jet0, h, rows, message in runs:
        cfg = IntegratorConfig(h=h, t_span=(0.0, 2.0))
        y0 = np.array(jet0.q + jet0.qdot)
        with pytest.raises(IntegrationAborted, match=message) as ref:
            numpy_rk4(rhs, y0, cfg, tuple(f"c{i}" for i in range(len(y0))))
        assert len(ref.value.trajectory.times) == rows
        _same_run(rhs, y0, cfg, str(ref.value), aborts=True)


def test_signed_zero_in_a_zero_slope_slot_matches_numpy_rk4():
    """A -0.0 start in a slot whose slope is the literal 0.0 (r1' of the
    nonholonomic and first and second associated runs, a momentum p_b of a
    Hamiltonian run) becomes +0.0 after the first step, as the referee's
    y + (h / 6) * 0.0 makes it."""
    disk = builtin_system("vertical_disk")
    jet0 = disk.on_constraint((0.2, 0.0, 0.0, 0.0), -0.0, 2.0)
    model = lagrangian_model(disk, "first")
    ps0 = legendre(model, disk.on_constraint((0.2, 0.0, 0.0, 0.0), 1.0, 2.0))
    runs = [(nonholonomic_ode(disk), nh_state_from_jet(disk, jet0), 4),
            (first_associated(disk).ode(), np.array(jet0.q + jet0.qdot), 4),
            (second_associated(disk).ode(), np.array(jet0.q + jet0.qdot), 4),
            (hamilton_ode(model), np.array(ps0.q + (ps0.p[0], -0.0, -0.0, -0.0)), 5)]
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 0.1))
    for rhs, y0, slot in runs:
        states = _same_run(rhs, y0, cfg, f"slot {slot}").states
        assert math.copysign(1.0, states[0, slot]) == -1.0
        assert (states[1:, slot] == 0.0).all() and not np.signbit(states[1:, slot]).any()


# --- what the generated programs compute ----------------------------------------

# the disk with inertias and model coefficients other than 1.0, every factor kept
CONSTANTS = {"first": (2.0, -0.5, 0.25), "second": (-0.7, 0.5)}
ZERO_SLOPES = {"nonholonomic": 1, "sode-first": 1, "sode-second": 1, "lagrangian-second": 1}
PURE_CALLS = {"sin", "cos", "tan", "exp", "log", "sqrt"}


def _program_source(rhs, monkeypatch) -> str:
    """The source of the RK4 program that ``integrate`` generates for ``rhs``."""
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(expr, "exec", recording_exec, raising=False)
    importlib.import_module("hamiltonize.integrate")._program(rhs.parts)
    monkeypatch.undo()
    return sources[-1]


def _stores(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _reads(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _pure(node) -> bool:
    """A product, quotient, power or call of a math function: a value that
    the same operands give again."""
    return ((isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div, ast.Pow)))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in PURE_CALLS))


def _flat(statements):
    """The simple statements of ``statements`` in order, compound ones
    (the table block's if and try) opened."""
    for statement in statements:
        bodies = [getattr(statement, field, []) for field in ("body", "orelse", "finalbody")]
        bodies += [handler.body for handler in getattr(statement, "handlers", [])]
        if any(bodies):
            if isinstance(statement, ast.If):
                yield ast.Expr(statement.test)
            yield from _flat([s for body in bodies for s in body])
        else:
            yield statement


def _stages(loop: ast.For) -> list[list[ast.stmt]]:
    """The loop body's statements cut after each run of slope assignments
    (_a<i>, _b<i>, _c<i>, _e<i>): four stages, then the update."""
    stages, current, slopes = [], [], False
    for statement in loop.body:
        slope = (isinstance(statement, ast.Assign)
                 and re.fullmatch(r"_[abce]\d+", getattr(statement.targets[0], "id", "")))
        if slopes and not slope:
            stages.append(current)
            current = []
        current.append(statement)
        slopes = bool(slope)
    return [*stages, current]


def _repeats(stage) -> list[str]:
    """Each pure subexpression that the stage evaluates again over operands
    it has not stored to since (value numbering, in order of execution)."""
    seen, again = {}, []
    for statement in _flat(stage):
        nodes = [n for n in ast.walk(statement) if _pure(n)]
        for node in sorted(nodes, key=lambda n: (n.end_lineno, n.end_col_offset)):
            key = ast.dump(node)
            if key in seen:
                again.append(ast.unparse(node))
            seen[key] = _reads(node)
        stored = _stores(statement)
        seen = {key: reads for key, reads in seen.items() if not reads & stored}
    return again


def _unit_factors(tree) -> list[str]:
    """Each product with a literal 1.0 factor and quotient with a literal 1.0 divisor."""
    def one(node):
        return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1.0

    return [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.BinOp)
            and ((isinstance(n.op, ast.Mult) and (one(n.left) or one(n.right)))
                 or (isinstance(n.op, ast.Div) and one(n.right)))]


def _all_runs():
    for name in ("free_particle", "knife_edge", "vertical_disk"):
        for label, rhs, y0 in _formulation_runs(name):
            yield name, label, rhs, y0
    disk = builtin_system("vertical_disk", m=2.0, I=3.0, J=0.5)
    for label, rhs, y0 in _formulation_runs("vertical_disk", disk, CONSTANTS):
        yield "vertical_disk m=2,I=3,J=0.5", label, rhs, y0


def test_generated_programs_compute_each_value_once(monkeypatch):
    """On every built-in, formulation and kind, and on the disk with other
    constants: no stage of the RK4 program evaluates a product, quotient,
    power or math function twice over operands it has not reassigned; no
    product or quotient has a literal 1.0 factor or divisor, ``(c) / x``
    aside; and a slot whose slope is the literal 0.0 takes no arithmetic but
    ``_y<i> + 0.0``, the referee's y + h * 0.0, and has no slope local."""
    checked = 0
    for name, label, rhs, y0 in _all_runs():
        tree = ast.parse(_program_source(rhs, monkeypatch))
        loop = next(n for n in ast.walk(tree) if isinstance(n, ast.For))
        stages = _stages(loop)
        assert len(stages) == 5, (name, label)
        for stage in stages:
            assert _repeats(stage) == [], (name, label)
        assert _unit_factors(tree) == [], (name, label)
        zero = [i for i, out in enumerate(rhs.parts.outputs) if out == "0.0"]
        expected = (len(rhs.parts.state) // 2 - 1 if label.startswith("hamiltonian")
                    else ZERO_SLOPES.get(label, 0))
        assert len(zero) == expected, (name, label)
        names = _reads(tree) | _stores(tree)
        for i in zero:
            assert not names & {f"_{slope}{i}" for slope in "abce"}, (name, label, i)
            uses = [ast.unparse(s) for s in ast.walk(loop) if isinstance(s, ast.Assign)
                    and f"_y{i}" in _reads(s.value)]
            local = rhs.parts.state[i]
            assert set(uses) <= {f"{local} = _y{i}", f"{local} = _y{i} + 0.0",
                                 f"_y{i} = _y{i} + 0.0"}, (name, label, uses)
            assert f"_y{i} = _y{i} + 0.0" in uses, (name, label)
        checked += 1
    assert checked == 21 + 9


def _literal(node) -> bool:
    return isinstance(node, ast.Constant) or (isinstance(node, ast.UnaryOp)
                                              and _literal(node.operand))


def _loop(rhs, monkeypatch) -> ast.For:
    tree = ast.parse(_program_source(rhs, monkeypatch))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.For))


def test_each_step_stores_its_state_in_one_call(monkeypatch):
    """On every built-in, formulation and kind: a step's one store is the
    call ``_store([_y0, .., _y<n-1>])``, ``_store`` being ``_buf.fromlist``
    bound before the loop, one C-level call on a list, and the loop names
    ``_buf`` nowhere."""
    for name, label, rhs, y0 in _all_runs():
        tree = ast.parse(_program_source(rhs, monkeypatch))
        function = tree.body[0]
        loop = next(n for n in function.body if isinstance(n, ast.For))
        assert "_store = _buf.fromlist" in map(ast.unparse, function.body), (name, label)
        calls = [n for n in ast.walk(loop) if isinstance(n, ast.Call)
                 and ast.unparse(n.func) == "_store"]
        state = [f"_y{i}" for i in range(len(rhs.parts.state))]
        assert [ast.unparse(c) for c in calls] == [f"_store([{', '.join(state)}])"], (name, label)
        assert loop.body[-1].value is calls[0], (name, label)
        assert "_buf" not in _reads(loop), (name, label)


def test_powers_of_zero_slope_locals_are_computed_once_per_step(monkeypatch):
    """On every built-in, formulation and kind, no power of a state local
    whose slope is the literal 0.0 is computed twice in a step: a
    Hamiltonian program squares each momentum p_b (b >= 1) that its sum
    reads at the first stage only, as ``(y + 0.0) ** 2 == y ** 2``."""
    for name, label, rhs, y0 in _all_runs():
        zero = {local for local, out in zip(rhs.parts.state, rhs.parts.outputs) if out == "0.0"}
        powers = [ast.unparse(n) for n in ast.walk(_loop(rhs, monkeypatch))
                  if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                  and isinstance(n.left, ast.Name) and n.left.id in zero]
        assert len(powers) == len(set(powers)), (name, label, sorted(powers))
        if label.startswith("hamiltonian"):
            terms = len(rhs.parts.state) // 2 - (2 if label == "hamiltonian-second" else 1)
            assert len(powers) == terms, (name, label, powers)


def test_values_of_the_table_alone_are_computed_in_its_block(monkeypatch):
    """On every built-in, formulation and kind, each stage's table block is
    the one ``if r1 != _r`` statement, and outside it no product, quotient
    or power has operands that are only locals the block sets and literals
    (the Euler-Lagrange ``(c) / e<b>`` and ``e<b> ** 2``, the third
    associated system's ``1.0 / m``): such a value runs at the stages where
    r1 moves, not at all four."""
    for name, label, rhs, y0 in _all_runs():
        loop = _loop(rhs, monkeypatch)
        blocks = [s for s in loop.body
                  if isinstance(s, ast.If) and ast.unparse(s.test) == "r1 != _r or r1 == 0.0"]
        assert len(blocks) == 4, (name, label)
        table = set().union(*map(_stores, blocks)) - {"_r"}
        outside = [n for s in loop.body if s not in blocks for n in ast.walk(s)
                   if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Div, ast.Pow))]
        alone = [ast.unparse(n) for n in outside
                 if all(_literal(x) or (isinstance(x, ast.Name) and x.id in table)
                        for x in (n.left, n.right))]
        assert alone == [], (name, label, alone)


def test_programs_with_constants_other_than_one_match_numpy_rk4_bit_for_bit():
    disk = builtin_system("vertical_disk", m=2.0, I=3.0, J=0.5)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 0.5))
    for label, rhs, y0 in _formulation_runs("vertical_disk", disk, CONSTANTS):
        _same_run(rhs, y0, cfg, label)


# the distinct tables the runs of one built-in read: the nonholonomic one, the
# first associated system's, the weights (second associated system,
# Hamiltonians and first Lagrangian), the third associated system's where the
# measure is constant (it runs only there), and A' (variational Lagrangian)
RUN_TABLES = {"free_particle": 4, "knife_edge": 4, "vertical_disk": 5}


@pytest.mark.parametrize("name", ["free_particle", "knife_edge", "vertical_disk"])
def test_each_coefficient_table_is_compiled_once(name, monkeypatch):
    """Every formulation's right-hand side reads a jointly compiled table,
    and no expression tuple is compiled twice: runs of 20 steps of every
    formulation over one system compile ``RUN_TABLES`` tables, a second
    pass compiles none, and neither does a second right-hand side built
    over the same system."""
    compiled = []
    original = expr.compile_table

    def counted(exprs):
        exprs = tuple(exprs)
        compiled.append(exprs)
        return original(exprs)

    monkeypatch.setattr(expr, "compile_table", counted)
    system = builtin_system(name)
    jet0 = default_initial_jet(system)
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 0.02))

    def run_all(runs):
        for label, rhs, y0 in runs:
            integrate(rhs, y0, cfg, tuple(f"c{i}" for i in range(len(y0))), label)

    runs = _formulation_runs(name, system)
    run_all(runs)
    assert len(compiled) == RUN_TABLES[name]
    assert len(set(compiled)) == len(compiled)
    run_all(runs)
    run_all([("nonholonomic", nonholonomic_ode(system), nh_state_from_jet(system, jet0))])
    run_all([("nonholonomic", nonholonomic_ode(system), nh_state_from_jet(system, jet0))])
    run_all([("variational", euler_lagrange_ode(lagrangian_model(system, "variational")),
              jet0.q + jet0.qdot)])
    assert len(compiled) == RUN_TABLES[name]


@pytest.mark.parametrize("name", ["free_particle", "knife_edge", "vertical_disk"])
def test_table_block_is_reused_where_r1_repeats(name):
    """Where r1'' = 0 the third stage's r1 is the second's, and each step's
    first r1 is the last step's fourth: the nonholonomic, first and second
    associated and first Lagrangian programs evaluate their table at most
    2 steps + 1 times, with the states of a program that counts each
    evaluation bit for bit."""
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 10.0))
    for label, rhs, y0 in _formulation_runs(name):
        if label not in ("nonholonomic", "sode-first", "sode-second", "lagrangian-first"):
            continue
        parts, evaluations = rhs.parts, []
        counted = expr.define_rhs(parts.state, parts.head, [*parts.table, "_count(r1)"],
                                  parts.body, parts.outputs, **parts.bindings,
                                  _count=evaluations.append)
        columns = tuple(f"c{i}" for i in range(len(y0)))
        states = integrate(rhs, y0, cfg, columns, label).states
        assert integrate(counted, y0, cfg, columns, label).states.tobytes() == states.tobytes()
        assert 0 < len(evaluations) <= 2 * cfg.steps + 1, label


def test_float_loop_aborts_where_numpy_rk4_does():
    """A step that turns the state non-finite: same finite prefix, same time."""
    sys = builtin_system("free_particle")
    inner = nonholonomic_ode(sys)

    def rhs(t, y):
        dy = inner(t, y)
        return [v * (math.inf if t > 0.25 else 1.0) for v in dy]

    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 1.0))
    y0 = nh_state_from_jet(sys, sys.on_constraint((0.5, 0.0, 0.0), 1.0, 2.0))
    columns = nh_columns(sys)
    with pytest.raises(IntegrationAborted) as ref:
        numpy_rk4(rhs, y0, cfg, columns)
    with pytest.raises(IntegrationAborted) as got:
        integrate(rhs, y0, cfg, columns, "nh")
    assert got.value.time == ref.value.time
    assert np.array_equal(got.value.trajectory.times, ref.value.trajectory.times)
    assert (_hex_rows(got.value.trajectory.states)
            == _hex_rows(ref.value.trajectory.states))


# --- the generated RK4 step --------------------------------------------------


def _coupled(dim, as_array=False):
    """A nonlinear right-hand side that couples every component, so a step
    that mixed up components or stages would show."""
    def rhs(t, y):
        dy = [math.sin(y[(i + 1) % dim]) * (1.0 + t) - 0.3 * y[i] * y[i - 1]
              for i in range(dim)]
        return np.array(dy) if as_array else dy
    return rhs


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("as_array", [False, True])
def test_generated_step_matches_numpy_rk4_bit_for_bit(dim, as_array):
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 1.0))
    y0 = [0.1 * (i + 1) * (-1) ** i for i in range(dim)]
    columns = tuple(f"c{i}" for i in range(dim))
    ref = numpy_rk4(_coupled(dim, as_array), y0, cfg, columns)
    got = integrate(_coupled(dim, as_array), y0, cfg, columns, "test")
    assert np.array_equal(got.times, ref.times)
    assert _hex_rows(got.states) == _hex_rows(ref.states)


@pytest.mark.parametrize("dim", [1, 4, 7])
def test_generated_step_aborts_where_numpy_rk4_does(dim):
    """An evaluation error in a stage part-way through the run: same finite
    prefix, same abort time."""
    inner = _coupled(dim)

    def rhs(t, y):
        if t > 0.305:
            raise EvaluationError("stage past t=0.305")
        return inner(t, y)

    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 1.0))
    y0 = [0.2] * dim
    columns = tuple(f"c{i}" for i in range(dim))
    with pytest.raises(IntegrationAborted) as ref:
        numpy_rk4(rhs, y0, cfg, columns)
    with pytest.raises(IntegrationAborted) as got:
        integrate(rhs, y0, cfg, columns, "test")
    assert got.value.time == ref.value.time
    assert len(got.value.trajectory.times) == 31
    assert (_hex_rows(got.value.trajectory.states)
            == _hex_rows(ref.value.trajectory.states))


def test_generated_step_is_made_on_first_use_once_per_dimension():
    """No program exists after a fresh import.  An opaque right-hand side's
    program is generated by the first run of its dimension and shared
    after; a generated kernel's is generated by its first run and cached
    with the kernel."""
    module = importlib.import_module("hamiltonize.integrate")
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys, hamiltonize; "
         "print(sys.modules['hamiltonize.integrate']._call_program.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(module.__file__))),
        capture_output=True, text=True, timeout=60)
    assert fresh.stdout.strip() == "0", fresh.stderr
    assert module._call_program(5) is module._call_program(5)
    system = builtin_system("free_particle")
    rhs = nonholonomic_ode(system)
    assert "program" not in vars(rhs)
    y0 = nh_state_from_jet(system, default_initial_jet(system))
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 0.1))
    integrate(rhs, y0, cfg, nh_columns(system), "nh")
    program = rhs.program
    integrate(rhs, y0, cfg, nh_columns(system), "nh")
    assert rhs.program is program and nonholonomic_ode(system) is rhs


# --- the reuse of r1 tables between stages -------------------------------------


def _signed_zero_spec():
    return parse_system_file("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = sin(r1)\nnames = a, b, s\n")


def test_table_reuse_at_signed_zero_matches_numpy_rk4():
    """From r1 = -0.0 at rest (r1dot = 0) the stages read r1 = -0.0, +0.0,
    +0.0, +0.0: a table is never reused across the two zeros, and every
    generated kernel gives the referee's bits or aborts where it does."""
    system = _signed_zero_spec()
    jet0 = system.on_constraint((-0.0, 0.0, -0.0), 0.0, 1.0)
    runs = [("nonholonomic", nonholonomic_ode(system), nh_state_from_jet(system, jet0))]
    runs += [(f"sode-{sode.kind}", sode.ode(), np.array(jet0.q + jet0.qdot))
             for sode in (first_associated(system), second_associated(system),
                          third_associated(system))]
    runs += [(f"lagrangian-{kind}", euler_lagrange_ode(lagrangian_model(system, kind)),
              np.array(jet0.q + jet0.qdot)) for kind in ("first", "variational")]
    cfg = IntegratorConfig(h=1e-2, t_span=(0.0, 0.1))
    for label, rhs, y0 in runs:
        _same_run(rhs, y0, cfg, label, aborts=True)


def test_table_reuse_tells_the_two_zeros_apart():
    """A table whose value is the sign of r1: the first step's stages sit at
    -0.0 then +0.0, so reusing the -0.0 table at stage 2 would move s by
    2h/6 where the referee moves it by 4h/6."""
    rhs = expr.define_rhs(["q0", "u0", "s"], ["r1 = q0"], ["sign = copysign(1.0, r1)"], [],
                          ["u0", "0.0", "sign"], copysign=math.copysign)
    cfg = IntegratorConfig(h=0.25, t_span=(0.0, 0.5))
    _same_run(rhs, [-0.0, 0.0, 0.0], cfg, "sign")
    assert integrate(rhs, [-0.0, 0.0, 0.0], cfg, ("q", "u", "s"), "sign").states[1, 2] > 0.1


def test_table_is_not_reused_where_the_body_stores_to_its_locals():
    """A body that updates a table's local: the table runs at every stage,
    even where r1 does not move."""
    rhs = expr.define_rhs(["q0", "u0", "s"], ["r1 = q0"], ["a = 2.0 * r1"], ["a = a + 1.0"],
                          ["u0", "0.0", "a"])
    cfg = IntegratorConfig(h=0.1, t_span=(0.0, 1.0))
    _same_run(rhs, [1.0, 0.0, 0.0], cfg, "stored")
    assert integrate(rhs, [1.0, 0.0, 0.0], cfg, ("q", "u", "s"), "stored").states[-1, 2] == pytest.approx(3.0)


# --- the chunked CSV writer --------------------------------------------------


def _per_value_csv(traj):
    return ("t," + ",".join(traj.columns) + "\n" + "".join(
        ",".join("%.17g" % v for v in (t, *row)) + "\n" for t, row in zip(traj.times, traj.states)
    )).encode()


def csv_families(rng, size):
    """About ``size`` float64 values that probe the CSV writer's rounding:
    drawn bit patterns (with +-0, subnormals, nan and +-inf), the neighbours
    of 10**k for k in -35..35, values at the edges of a decade (where
    |x| 10**(16 - E) is at 1e16 or rounds up to 1e17) and of the writer's
    range 1e-30 < |x| < 1e30, exact and nearest half-way values (m + 0.5)
    10**e, integers above 2**53, and normal draws over 70 decades."""
    part = max(size // 8, 1)
    bits = rng.integers(-2**63, 2**63 - 1, part, dtype=np.int64, endpoint=True).view(np.float64)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308])
    subnormal = rng.integers(1, 2**52, part // 8, dtype=np.int64).view(np.float64)
    powers = np.repeat(10.0 ** np.arange(-35, 36), 2)
    steps = rng.integers(-64, 65, (max(part // len(powers), 1), len(powers)))
    around = powers * (1.0 + steps * 2.0**-53)  # on both sides of each 10**k, a few ulps out
    decade = np.concatenate([[1e-30, 1e30], np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
                             np.nextafter(np.nextafter([1e-30, 1e30], 0), 0), around.ravel()])
    # exact ties: j 2**-(s+1) with j odd is D + 1/2 after scaling by 10**s
    s = rng.integers(1, 25, part)
    low = np.ceil(2e16 / 5.0**s)
    j = low + rng.random(part) * (np.minimum(2e17 / 5.0**s, 2.0**53) - low)
    ties = np.ldexp(np.floor(j / 2) * 2 + 1, -(s + 1))
    m = rng.integers(10**16, 10**17, part)
    near = np.array([float(f"{v}5e{e}") for v, e in zip(m.tolist(), rng.integers(-40, 25, part).tolist())])
    big = np.ldexp(rng.integers(2**52, 2**53, part).astype(float), rng.integers(1, 40, part))
    normal = rng.standard_normal(part) * 10.0 ** rng.uniform(-35, 35, part)
    values = np.concatenate([bits, special, subnormal, decade, ties, -ties, near, big, -big, normal])
    return values[rng.permutation(len(values))]


def test_csv_writer_matches_per_value_format(tmp_path):
    """More rows than two chunks, with signed zeros, extreme exponents and
    17-digit values, then the rounding probes of ``csv_families``; the file
    equals a per-value "%.17g" join."""
    rng = np.random.default_rng(7)
    rows = 2 * 1024 + 77
    states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
    states[5] = (-0.0, 1e-300, 1e300)
    states[1024] = (0.1, -1.2345678901234567, 2.0 / 3.0)
    states[2047] = (-1e300, -1e-300, 0.0)
    values = csv_families(rng, 60_000)
    probes = values[: len(values) // 4 * 4].reshape(-1, 4)
    for traj in (Trajectory(np.arange(rows) * 1e-3, states, ("a", "b", "c"), "test"),
                 Trajectory(np.arange(len(probes)) * 0.5, probes, ("a", "b", "c", "d"), "test")):
        path = tmp_path / "run.csv"
        traj.write_csv(str(path))
        assert path.read_bytes() == _per_value_csv(traj)


def test_csv_writer_formats_unchanging_columns_as_each_value(tmp_path):
    """Columns that hold one value through a chunk: one that changes only
    after the first chunk, one that starts changing near the end of the
    second, a constant -0.0, a constant nan, and zeros of alternating sign
    (equal values, different bits); and a one-row trajectory."""
    rows = 2 * CSV_CHUNK_ROWS + 10
    states = np.zeros((rows, 6))
    states[:, 0] = np.where(np.arange(rows) < CSV_CHUNK_ROWS, 1.5, np.arange(rows) * 0.1)
    states[:, 1] = 1.0 / 3.0
    states[2 * CSV_CHUNK_ROWS - 12:, 1] = -2.0
    states[:, 2] = -0.0
    states[:, 3] = np.nan
    states[::2, 4] = -0.0
    states[:, 5] = 1e-300
    runs = [Trajectory(np.arange(rows) * 0.01, states, tuple("abcdef"), "test"),
            Trajectory(np.array([0.0]), np.array([[-0.0, 2.0 / 3.0]]), ("a", "b"), "test")]
    for traj in runs:
        path = tmp_path / "run.csv"
        traj.write_csv(str(path))
        assert path.read_bytes() == _per_value_csv(traj)


def test_csv_writer_memory_is_bounded_by_the_chunk(tmp_path):
    """The writer's peak allocation on 100,000 rows of 8 columns is within
    1.25x of its peak on 10,000: it holds a chunk at a time, never the run."""
    rng = np.random.default_rng(3)
    peaks = []
    for rows in (10_000, 100_000):
        traj = Trajectory(np.arange(rows) * 1e-3, rng.standard_normal((rows, 8)),
                          tuple("abcdefgh"), "test")
        tracemalloc.start()
        try:
            traj.write_csv(str(tmp_path / "run.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
