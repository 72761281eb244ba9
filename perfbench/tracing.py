"""Per-layer spans and counts for one CLI command, installed from outside.

``install()`` wraps the public functions of each ``hamiltonize`` module
wherever a module binds them (``from .x import name`` copies a binding, so
every copy is replaced), and returns the ``Tracer`` that records:

* spans at coarse boundaries (the command, a certificate, a tower compile,
  an integration), kept in memory with their self time: duration minus the
  time covered by child spans and by timed calls made directly inside;
* counts with accumulated time at fine boundaries (right-hand sides,
  compiled expressions, hashes), where a span per call would cost more than
  the call.

Nothing under ``src/`` changes and no private name of the package is used.
"""

from __future__ import annotations

import builtins
import importlib
import json
import sys
import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.amounts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, child_time]
        self._fine_depth = 0

    # recording ---------------------------------------------------------------

    def _charge(self, seconds: float) -> None:
        """Subtract time spent in a timed call from the enclosing span."""
        if self._fine_depth == 0 and self._stack:
            self._stack[-1][1] += seconds

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args)``
        may add amounts once the span has closed."""

        def wrapper(*args, **kwargs):
            record = [name, 0.0]
            outer_depth = self._fine_depth
            self._fine_depth = 0
            self._stack.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._fine_depth = outer_depth
                parent = self._stack[-1][0] if self._stack else None
                self._charge(end - start)
                self.spans.append((name, start, end, parent, end - start - record[1]))
            if after is not None:
                t0 = perf_counter()
                result = after(result, args, kwargs)
                self._charge(perf_counter() - t0)
            return result

        return wrapper

    def fine(self, name: str, fn):
        """Wrap ``fn`` so each call adds to a count and a time total."""
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            self._fine_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._fine_depth -= 1
                counts[name] += 1
                times[name] += elapsed
                self._charge(elapsed)

        return wrapper

    def outermost(self, name: str, fn, guard: list):
        """Like ``fine`` for a recursive method: only the outermost call of a
        recursion is timed, inner calls go straight through."""
        timed = self.fine(name, fn)

        def wrapper(*args, **kwargs):
            if guard[0]:
                return fn(*args, **kwargs)
            guard[0] = True
            try:
                return timed(*args, **kwargs)
            finally:
                guard[0] = False

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "times": self.times,
                       "amounts": self.amounts}, fh)


def rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in the package."""
    for name, module in list(sys.modules.items()):
        if not (name == "hamiltonize" or name.startswith("hamiltonize.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def tree_census(root) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) of an expression tree.

    Subtrees shared by reference are visited once; the node count is the
    size of the fully expanded tree that ``compile`` turns into code.
    """
    size: dict[int, int] = {}
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        ident = id(node)
        if ident in size:
            continue
        children = [v for v in vars(node).values() if hasattr(v, "diff")]
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in children if id(c) not in size)
            continue
        leaves = tuple(v for v in vars(node).values() if not hasattr(v, "diff"))
        key = (type(node).__name__, leaves, tuple(key_of[id(c)] for c in children))
        key_of[ident] = interned.setdefault(key, len(interned))
        size[ident] = 1 + sum(size[id(c)] for c in children)
    return size[id(root)], len(interned)


class _TimedFile:
    """A file whose writes and close count as report time."""

    def __init__(self, handle, timer):
        self._handle = handle
        self._timer = timer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._timer(self._handle.close)()

    def write(self, text):
        return self._timer(self._handle.write)(text)


def install() -> Tracer:
    # import_module, because the package re-exports a function named
    # ``integrate`` that shadows the submodule as a package attribute
    (cli, expr, helmholtz, integrate, pontryagin, sampling, sode, systems, variational) = (
        importlib.import_module(f"hamiltonize.{name}")
        for name in ("cli", "expr", "helmholtz", "integrate", "pontryagin", "sampling",
                     "sode", "systems", "variational"))

    tr = Tracer()

    # systems
    spec = systems.SystemSpec
    spec.measure_is_constant = tr.fine("systems.measure_is_constant", spec.measure_is_constant)
    spec.__hash__ = tr.fine("systems.spec_hash", spec.__hash__)
    nh_ode = systems.nonholonomic_ode
    rebind(nh_ode, lambda s: tr.fine("systems.nonholonomic_rhs", nh_ode(s)))

    # sode: accelerations through f() and through the ode() right-hand side
    sode_cls = sode.SodeSystem
    sode_cls.f = tr.fine("sode.f", sode_cls.f)
    sode_ode = sode_cls.ode
    sode_cls.ode = lambda self: tr.fine("sode.f", sode_ode(self))

    # expr: compile spans with a census of the tree, compiled-call counts,
    # and outermost diff calls
    def after_compile(fn, args, kwargs):
        nodes, unique = tree_census(args[0])
        tr.amounts["expr.compiled_nodes"] += nodes
        tr.amounts["expr.unique_nodes"] += unique
        return tr.fine("expr.compiled", fn)

    expr.Expr.compile = tr.span("expr.compile", expr.Expr.compile, after_compile)
    guard = [False]
    pending = list(expr.Expr.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "diff" in vars(cls):
            cls.diff = tr.outermost("expr.diff", cls.diff, guard)

    # helmholtz
    def count_jets(key, position):
        def after(result, args, kwargs):
            tr.amounts[key] += len(args[position])
            return result
        return after

    rebind(helmholtz.singularity_certificate,
           tr.span("helmholtz.certificate", helmholtz.singularity_certificate,
                   count_jets("helmholtz.certificate_jets", 1)))
    rebind(helmholtz.helmholtz_residuals,
           tr.span("helmholtz.residuals", helmholtz.helmholtz_residuals,
                   count_jets("helmholtz.residual_jets", 2)))
    rebind(helmholtz.algebraic_system,
           tr.span("helmholtz.algebraic_system", helmholtz.algebraic_system))
    rebind(helmholtz.nullspace, tr.span("helmholtz.nullspace", helmholtz.nullspace))

    # pontryagin
    for name in ("optimal_controls", "pontryagin_hamiltonian", "optimal_hamiltonian_value"):
        original = getattr(pontryagin, name)
        rebind(original, tr.fine(f"pontryagin.{name}", original))

    # variational
    for name in ("hamilton_rhs", "euler_lagrange_rhs", "hessian", "hamiltonian_value"):
        original = getattr(variational, name)
        rebind(original, tr.fine(f"variational.{name}", original))

    # integrate: the span covers the RK4 loop, the right-hand side is timed
    original_integrate = integrate.integrate

    def count_steps(result, args, kwargs):
        tr.amounts["integrate.steps"] += len(result.times) - 1
        return result

    traced_integrate = tr.span("integrate.integrate", original_integrate, count_steps)
    rebind(original_integrate,
           lambda rhs, *rest, **kw: traced_integrate(tr.fine("integrate.rhs", rhs), *rest, **kw))
    traj = integrate.Trajectory
    traj.write_csv = tr.span("integrate.write_csv", traj.write_csv)

    # sampling
    for name, key in (("generic_jets", "sampling.jets"), ("phase_points", "sampling.points")):
        def count_items(result, args, kwargs, key=key):
            tr.amounts[key] += len(result)
            return result
        original = getattr(sampling, name)
        rebind(original, tr.span(key, original, count_items))

    # cli: the command span, and the report (serialise, print, write)
    cli.main = tr.span("cli.main", cli.main)
    report_timer = lambda fn: tr.span("cli.report", fn)  # noqa: E731
    cli.json = types.SimpleNamespace(dumps=report_timer(json.dumps))
    cli.print = report_timer(builtins.print)
    cli.open = lambda *a, **kw: _TimedFile(builtins.open(*a, **kw), report_timer)
    return tr
