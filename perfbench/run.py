"""End-to-end and per-layer benchmark of the ``hamiltonize`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady RUNS --workload NAME [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a source checkout: the program is imported from
``src/``.  One operation is one CLI command, run in a fresh interpreter from
this single driving process, one at a time.  A run repeats whole passes over
the workload's commands while another pass fits in ``--seconds`` (at least
one), checks every output with ``checks.py`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (from
``tracing.py``) with ``--trace 1``.  End-to-end times other than
``setup_s`` are reference seconds: measured seconds scaled by the machine
speed that child.py samples around and during each command; the measured
values go to standard error.  See README.md for the workloads, the metrics
and the reference figures.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
from checks import BUILTINS, CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
WORKLOADS = ("certify", "deep-tower", "trajectories")
SYSTEMS = ("free_particle", "knife_edge", "vertical_disk")
H = 1e-3  # the CLI's default grid
OP_TIMEOUT_S = 150.0
COVERAGE_REPEATS = 4
# The nominal time of one of child.py's reference bursts.  A command's
# reference time is main_s * REF_NOMINAL_S / (the mean of its bursts): the
# time it would take while a burst runs in exactly 1.5 ms, which is about
# this host's median.  See README.md, "How an operation is timed".
REF_NOMINAL_S = 0.0015

FAULT = ("fixed-step RK4 stages land near the poles of tan(r1) (knife edge) or of "
         "E_b'/E_b (disk) as r1 crosses multiples of pi/2")


@dataclass
class Op:
    """One CLI command and what the benchmark knows about it."""

    cls: str  # metric class: certify g1 g2 helmholtz nonholonomic sode lagrangian hamiltonian closed-form compare
    argv: list[str]
    system: str
    own: bool = True  # False: a coverage command (see README)
    units: float = 0.0  # steps, phase points or jets the command processes
    detail: dict = field(default_factory=dict)
    known_fault: str | None = None


# --- workloads --------------------------------------------------------------------


def simulate(system: str, formulation: str, t_final: float, kind: str | None = None,
             own: bool = True) -> Op:
    argv = ["simulate", "--system", system, "--formulation", formulation,
            "--t", repr(t_final), "--ic", BUILTINS[system].ic_flag()]
    cls = formulation
    if formulation == "sode":
        argv += ["--sode", kind]
    elif formulation == "hamiltonian" and kind is not None:
        argv += ["--ham-kind", kind]
    name = formulation + (f"-{kind}" if kind else "")
    return Op(cls, argv, system, own, units=round(t_final / H),
              detail={"formulation": formulation, "name": name, "t": t_final})


def compare(system: str, formulations: tuple[str, ...], t_final: float | None = None,
            own: bool = True) -> Op:
    argv = ["compare", "--system", system, "--formulation", ",".join(formulations),
            "--tol", "1e-5"]
    if t_final is not None:
        argv += ["--t", repr(t_final)]
    return Op("compare", argv, system, own,
              detail={"formulations": formulations, "t": t_final or 5.0})


def certify(system: str, own: bool = True) -> Op:
    return Op("certify", ["certify", "--system", system, "--check", "all"], system, own,
              detail={"depth": 3})


def pontryagin(system: str, kind: str, samples: int = 1000, own: bool = True) -> Op:
    argv = ["pontryagin-check", "--system", system, "--kind", kind, "--samples", str(samples)]
    return Op(kind, argv, system, own, units=samples, detail={"samples": samples})


def helmholtz(system: str, depth: int, own: bool = True) -> Op:
    argv = ["helmholtz-check", "--system", system, "--depth", str(depth)]
    # 50 jets for the multiplier residuals plus 50 for the certificate
    return Op("helmholtz", argv, system, own, units=100, detail={"depth": depth, "jets": 50})


AGREEING = ("nonholonomic", "hamiltonian", "closed-form")
README_COMPARE = ("nonholonomic", "lagrangian", "hamiltonian", "closed-form")
KNOWN_FAULTS = {
    ("knife_edge", "nonholonomic"), ("knife_edge", "sode-first"),
    ("knife_edge", "sode-second"), ("knife_edge", "lagrangian"),
    ("vertical_disk", "sode-second"), ("vertical_disk", "lagrangian"),
}


def coverage(classes: set[str]) -> list[Op]:
    """A command of 0.3 to 0.8 s for each end-to-end metric class a workload's
    own commands lack, so every metric is measured on every workload.  These
    commands feed only their class metric; wall_s, peak_rss_mb and the
    per-layer metrics cover the workload's own commands.  Each runs
    COVERAGE_REPEATS times per pass, at shuffled positions."""
    out = []
    if "certify" not in classes:
        out.append(certify("free_particle", own=False))
    if "g1" not in classes:
        out.append(pontryagin("free_particle", "g1", own=False))
    if "g2" not in classes:
        out.append(pontryagin("vertical_disk", "g2", samples=200, own=False))
    if "helmholtz" not in classes:
        out.append(helmholtz("knife_edge", 4, own=False))
    for formulation, kind, t_final in (("nonholonomic", None, 10.0), ("sode", "first", 5.0),
                                       ("lagrangian", None, 2.0), ("hamiltonian", None, 3.0)):
        if formulation not in classes:
            out.append(simulate("free_particle", formulation, t_final, kind, own=False))
    if "compare" not in classes:
        out.append(compare("vertical_disk", AGREEING, 2.0, own=False))
    return [copy.deepcopy(op) for op in out for _ in range(COVERAGE_REPEATS)]


def workload_ops(workload: str) -> list[Op]:
    ops: list[Op] = []
    if workload == "certify":
        for system in SYSTEMS:
            ops += [certify(system), pontryagin(system, "g1"), helmholtz(system, 3)]
        ops.append(pontryagin("vertical_disk", "g2"))
    elif workload == "deep-tower":
        for system in ("knife_edge", "vertical_disk"):
            ops += [helmholtz(system, 4), helmholtz(system, 5)]
    elif workload == "trajectories":
        for system in SYSTEMS:
            disk = system == "vertical_disk"
            ops.append(simulate(system, "nonholonomic", 10.0))
            for kind in ("first", "second", "third") if disk else ("first", "second"):
                ops.append(simulate(system, "sode", 10.0, kind))
            ops.append(simulate(system, "lagrangian", 10.0))
            for kind in ("first", "second") if disk else ("first",):
                ops.append(simulate(system, "hamiltonian", 10.0, kind))
            if disk:
                ops.append(simulate(system, "closed-form", 10.0))
        for op in ops:
            if (op.system, op.detail["name"]) in KNOWN_FAULTS:
                op.known_fault = FAULT
        readme = compare("vertical_disk", README_COMPARE)
        readme.known_fault = FAULT
        ops += [readme, compare("vertical_disk", AGREEING)]
    else:
        raise SystemExit(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    return ops + coverage({op.cls for op in ops})


def seeded_pass(workload: str, seed: int) -> list[Op]:
    """The workload's commands with program seeds drawn from ``seed``.

    Every command of one system shares a program seed, so the depth-4 and
    depth-5 certificates sample the same jets.  The order is shuffled too.
    """
    rng = random.Random(f"{workload}:{seed}")
    system_seed = {s: rng.randrange(1, 2**31) for s in SYSTEMS}
    ops = workload_ops(workload)
    for op in ops:
        op.argv += ["--seed", str(system_seed[op.system])]
        op.detail["seed"] = system_seed[op.system]
    rng.shuffle(ops)
    return ops


# --- running commands ---------------------------------------------------------------


@dataclass
class Record:
    out: str
    op: Op | None = None
    import_s: float = 0.0
    main_s: float = 0.0
    ref_loop_s: float = 0.0  # mean of the reference bursts around and in main
    rss_mb: float = 0.0
    exit: int = -1
    trace: dict | None = None
    error: str | None = None

    @property
    def ref_s(self) -> float:
        """main_s at the nominal machine speed."""
        return self.main_s * REF_NOMINAL_S / self.ref_loop_s



def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one core per command: the machine has two and commands run one at a time
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: str, out: str, argv: list[str], trace: bool) -> Record:
    """Run child.py in a fresh interpreter; returns timings and peak RSS."""
    os.makedirs(out, exist_ok=True)
    result = os.path.join(out, "_timing.json")
    trace_path = os.path.join(out, "_trace.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result]
    if trace:
        cmd += ["--trace", trace_path]
    if argv:
        cmd += ["--", *argv, "--out", out]
    rec = Record(out)
    with open(os.path.join(out, "_stderr.txt"), "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(root), cwd=root)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = rec.exit = os.waitstatus_to_exitcode(status)
    rec.rss_mb = usage.ru_maxrss / 1024.0
    try:
        with open(result, encoding="utf-8") as fh:
            timing = json.load(fh)
    except (OSError, ValueError):
        rec.error = f"command died (exit {rec.exit}): {tail(out)}"
        return rec
    if not timing["module"].startswith(os.path.join(root, "src")):
        raise SystemExit(f"hamiltonize imported from {timing['module']}, not from src/")
    rec.import_s, rec.main_s = timing["import_s"], timing["main_s"]
    if timing["ref_s"]:
        rec.ref_loop_s = statistics.fmean(timing["ref_s"])
    if timing["exit"] != rec.exit:
        rec.error = f"main returned {timing['exit']} but the process exited {rec.exit}"
    if trace:
        with open(trace_path, encoding="utf-8") as fh:
            rec.trace = json.load(fh)
    return rec


def tail(out: str) -> str:
    try:
        with open(os.path.join(out, "_stderr.txt"), encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


# --- checking outputs ---------------------------------------------------------------


def stem(system: str, formulation: str) -> str:
    return f"{system}_{formulation.replace('-', '_')}"


def check_record(rec: Record) -> float | int | None:
    """Check one command's outputs; raises CheckError."""
    op, out = rec.op, rec.out
    if rec.error:
        raise CheckError(rec.error)
    system = BUILTINS[op.system]
    cmd = op.argv[0]
    if cmd == "simulate":
        name = stem(op.system, op.detail["formulation"])
        report = checks.load_report(os.path.join(out, name + ".json"))
        csv = checks.load_csv(os.path.join(out, name + ".csv"))
        return checks.check_simulate(report, csv, system, op.detail["formulation"],
                                     op.detail["t"], H, rec.exit)
    if cmd == "compare":
        report = checks.load_report(os.path.join(out, f"{op.system}_compare.json"))
        csvs = {f: checks.load_csv(os.path.join(out, stem(op.system, f) + ".csv"))
                for f in op.detail["formulations"]}
        return checks.check_compare(report, csvs, system, op.detail["t"], H, rec.exit)
    if cmd == "certify":
        report = checks.load_report(os.path.join(out, f"{op.system}_certify.json"))
        return checks.check_certify(report, system, op.detail["depth"], rec.exit)
    if cmd == "pontryagin-check":
        report = checks.load_report(os.path.join(out, f"{op.system}_pontryagin.json"))
        return checks.check_pontryagin(report, op.cls, op.detail["samples"], rec.exit)
    if cmd == "helmholtz-check":
        report = checks.load_report(os.path.join(out, f"{op.system}_helmholtz.json"))
        return checks.check_helmholtz(report, op.detail["depth"], op.detail["jets"], rec.exit)
    raise CheckError(f"no checker for {cmd}")


def check_pass(records: list[Record]) -> dict[int, str]:
    """Failure reason per record index; also checks the tower across depths."""
    failures: dict[int, str] = {}
    dims: dict[tuple[str, int], dict[int, tuple[int, int]]] = {}
    for i, rec in enumerate(records):
        try:
            value = check_record(rec)
        except CheckError as exc:
            failures[i] = str(exc)
            continue
        if rec.op.cls == "helmholtz":
            key = (rec.op.system, rec.op.detail["seed"])
            dims.setdefault(key, {})[rec.op.detail["depth"]] = (value, i)
    for by_depth in dims.values():
        try:
            checks.check_tower_monotone({d: v for d, (v, _) in by_depth.items()})
        except CheckError as exc:
            failures[max(by_depth.values())[1]] = str(exc)
    return failures


# --- metrics ------------------------------------------------------------------------


# ref_s: seconds at the nominal machine speed (REF_NOMINAL_S)
END_TO_END = {
    "setup_s": "s", "wall_s": "ref_s", "peak_rss_mb": "MB", "certify_s": "ref_s",
    "pontryagin_g1_points_per_s": "points/ref_s", "pontryagin_g2_points_per_s": "points/ref_s",
    "certificate_jets_per_s": "jets/ref_s", "nonholonomic_steps_per_s": "steps/ref_s",
    "sode_steps_per_s": "steps/ref_s", "lagrangian_steps_per_s": "steps/ref_s",
    "hamiltonian_steps_per_s": "steps/ref_s", "compare_s": "ref_s",
}
RATE_CLASS = {
    "pontryagin_g1_points_per_s": "g1", "pontryagin_g2_points_per_s": "g2",
    "certificate_jets_per_s": "helmholtz", "nonholonomic_steps_per_s": "nonholonomic",
    "sode_steps_per_s": "sode", "lagrangian_steps_per_s": "lagrangian",
    "hamiltonian_steps_per_s": "hamiltonian",
}


def end_to_end(passes: list[list[Record]], raw: bool = False) -> dict[str, float]:
    """Times are reference times (Record.ref_s), or measured ones with ``raw``.

    wall_s and peak_rss_mb: median over passes of the workload's own
    commands.  Class metrics: each distinct command counts once, at the
    median of its times over its repetitions in the run (passes, coverage
    repeats), so that a single short command is not the whole sample.
    setup_s is measured time in every case."""
    def took(r: Record) -> float:
        return r.main_s if raw else r.ref_s

    own = [[r for r in records if r.op.own] for records in passes]
    times: dict[tuple[str, ...], list[float]] = {}
    ops: dict[tuple[str, ...], Op] = {}
    for records in passes:
        for r in records:
            if not r.error:
                times.setdefault(tuple(r.op.argv), []).append(took(r))
                ops[tuple(r.op.argv)] = r.op
    chosen = [(ops[key], statistics.median(ts)) for key, ts in times.items()]
    out = {
        "setup_s": statistics.median(r.import_s for records in passes for r in records
                                     if not r.error),
        "wall_s": statistics.median(sum(took(r) for r in rs if not r.error) for rs in own),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rs) for rs in own),
        "certify_s": sum(t for op, t in chosen if op.cls == "certify"),
        "compare_s": sum(t for op, t in chosen if op.cls == "compare"),
    }
    for name, cls in RATE_CLASS.items():
        picked = [(op, t) for op, t in chosen if op.cls == cls]
        out[name] = ratio(sum(op.units for op, _ in picked), sum(t for _, t in picked))
    return out


PER_LAYER = {
    "systems.measure_is_constant_calls": "count", "systems.measure_is_constant_s": "s",
    "systems.spec_hash_calls": "count", "systems.spec_hash_s": "s",
    "systems.nonholonomic_rhs_us": "us",
    "sode.f_us": "us", "sode.f_calls": "count",
    "expr.compile_calls": "count", "expr.compiled_nodes": "count",
    "expr.unique_node_share": "ratio", "expr.compile_s": "s", "expr.diff_s": "s",
    "expr.compiled_calls": "count", "expr.compiled_eval_us": "us",
    "helmholtz.certificate_ms_per_jet": "ms", "helmholtz.residuals_ms_per_jet": "ms",
    "helmholtz.algebraic_system_s": "s", "helmholtz.nullspace_s": "s",
    "helmholtz.self_s": "s",
    "pontryagin.optimal_controls_us": "us", "pontryagin.hamiltonian_us": "us",
    "pontryagin.calls": "count", "pontryagin.useful_ratio": "ratio",
    "variational.hamilton_rhs_us": "us", "variational.euler_lagrange_rhs_us": "us",
    "variational.hessian_us": "us", "variational.hamiltonian_value_us": "us",
    "integrate.rhs_calls": "count", "integrate.self_s": "s",
    "integrate.steps_per_s": "steps/s", "integrate.write_csv_s": "s",
    "sampling.jets_us": "us", "sampling.points_us": "us",
    "cli.self_s": "s", "cli.report_s": "s",
}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(traces: list[dict], passes: int) -> dict[str, float]:
    """Per-layer metrics of the workload's own commands, per pass."""
    counts: dict[str, float] = {}
    times: dict[str, float] = {}
    amounts: dict[str, float] = {}
    span_s: dict[str, float] = {}
    span_n: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for tr in traces:
        for src, dst in ((tr["counts"], counts), (tr["times"], times), (tr["amounts"], amounts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0.0) + value
        for name, start, end, _parent, own_s in tr["spans"]:
            span_s[name] = span_s.get(name, 0.0) + (end - start)
            span_n[name] = span_n.get(name, 0.0) + 1
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + own_s
    c, t, a = counts.get, times.get, amounts.get

    def us(key):
        return 1e6 * ratio(t(key, 0.0), c(key, 0.0))

    pont = ("pontryagin.optimal_controls", "pontryagin.pontryagin_hamiltonian",
            "pontryagin.optimal_hamiltonian_value")
    per_pass = {
        "systems.measure_is_constant_calls": c("systems.measure_is_constant", 0.0),
        "systems.measure_is_constant_s": t("systems.measure_is_constant", 0.0),
        "systems.spec_hash_calls": c("systems.spec_hash", 0.0),
        "systems.spec_hash_s": t("systems.spec_hash", 0.0),
        "sode.f_calls": c("sode.f", 0.0),
        "expr.compile_calls": span_n.get("expr.compile", 0.0),
        "expr.compiled_nodes": a("expr.compiled_nodes", 0.0),
        "expr.compile_s": span_s.get("expr.compile", 0.0),
        "expr.diff_s": t("expr.diff", 0.0),
        "expr.compiled_calls": c("expr.compiled", 0.0),
        "helmholtz.algebraic_system_s": span_s.get("helmholtz.algebraic_system", 0.0),
        "helmholtz.nullspace_s": span_s.get("helmholtz.nullspace", 0.0),
        "helmholtz.self_s": self_s.get("helmholtz", 0.0),
        "pontryagin.calls": sum(c(k, 0.0) for k in pont),
        "integrate.rhs_calls": c("integrate.rhs", 0.0),
        "integrate.self_s": self_s.get("integrate", 0.0) - span_s.get("integrate.write_csv", 0.0),
        "integrate.write_csv_s": span_s.get("integrate.write_csv", 0.0),
        "cli.self_s": self_s.get("cli", 0.0) - span_s.get("cli.report", 0.0),
        "cli.report_s": span_s.get("cli.report", 0.0),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out.update({
        "systems.nonholonomic_rhs_us": us("systems.nonholonomic_rhs"),
        "sode.f_us": us("sode.f"),
        "expr.unique_node_share": ratio(a("expr.unique_nodes", 0.0), a("expr.compiled_nodes", 0.0)),
        "expr.compiled_eval_us": us("expr.compiled"),
        "helmholtz.certificate_ms_per_jet": 1e3 * ratio(span_s.get("helmholtz.certificate", 0.0),
                                                        a("helmholtz.certificate_jets", 0.0)),
        "helmholtz.residuals_ms_per_jet": 1e3 * ratio(span_s.get("helmholtz.residuals", 0.0),
                                                      a("helmholtz.residual_jets", 0.0)),
        "pontryagin.optimal_controls_us": us("pontryagin.optimal_controls"),
        "pontryagin.hamiltonian_us": us("pontryagin.pontryagin_hamiltonian"),
        "pontryagin.useful_ratio": ratio(c("pontryagin.optimal_hamiltonian_value", 0.0),
                                         a("sampling.points", 0.0)),
        "variational.hamilton_rhs_us": us("variational.hamilton_rhs"),
        "variational.euler_lagrange_rhs_us": us("variational.euler_lagrange_rhs"),
        "variational.hessian_us": us("variational.hessian"),
        "variational.hamiltonian_value_us": us("variational.hamiltonian_value"),
        "integrate.steps_per_s": ratio(a("integrate.steps", 0.0),
                                       span_s.get("integrate.integrate", 0.0)),
        "sampling.jets_us": 1e6 * ratio(span_s.get("sampling.jets", 0.0), a("sampling.jets", 0.0)),
        "sampling.points_us": 1e6 * ratio(span_s.get("sampling.points", 0.0),
                                          a("sampling.points", 0.0)),
    })
    return out


# --- one benchmark run --------------------------------------------------------------


def checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hamiltonize", "cli.py")):
        print("error: run from the root of a hamiltonize checkout (src/hamiltonize/cli.py "
              "not found)", file=sys.stderr)
        raise SystemExit(2)
    return root


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = checkout_root()
    work = os.path.join(root, WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    # an untimed import first, so byte-code caches exist before set-up is timed
    warm = run_child(root, os.path.join(work, "warmup"), [], False)
    if warm.error:
        print(f"error: cannot import hamiltonize.cli: {warm.error}", file=sys.stderr)
        raise SystemExit(2)

    attempted = failed = 0
    correct = True
    passes: list[list[Record]] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        pass_dir = os.path.join(work, f"pass{len(passes)}")
        records = []
        for i, op in enumerate(seeded_pass(workload, seed)):
            rec = run_child(root, os.path.join(pass_dir, f"op{i:02d}"), op.argv,
                            trace and op.own)
            rec.op = op
            records.append(rec)
        failures = check_pass(records)
        for i, reason in failures.items():
            op = records[i].op
            known = op.known_fault is not None
            correct = correct and known
            print(f"{'known fault' if known else 'FAILED'}: {' '.join(op.argv)}: {reason}",
                  file=sys.stderr)
        attempted += len(records)
        failed += len(failures)
        passes.append(records)
        shutil.rmtree(pass_dir, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)

    values = end_to_end(passes)
    measured = end_to_end(passes, raw=True)
    print(f"passes {len(passes)}; measured " + json.dumps(measured), file=sys.stderr)
    if trace:
        print(f"traced wall_s {values['wall_s']:.4f} ref_s, {measured['wall_s']:.4f} s",
              file=sys.stderr)
        traces = [r.trace for records in passes for r in records if r.trace is not None]
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in layer_metrics(traces, len(passes)).items()}
    else:
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# --- steadiness and self-test ---------------------------------------------------------


def steady(workload: str, runs: int, seconds: float, trace: int) -> None:
    """Run one workload ``runs`` times with seeds 1..runs; print the median,
    quartiles and quartile spread (as a share of the median) of every metric."""
    results, measured = [], []
    for seed in range(1, runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        measured += [json.loads(line.split("; measured ", 1)[1])
                     for line in proc.stderr.splitlines() if "; measured " in line]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    columns = {name: [r["metrics"][name]["value"] for r in results]
               for name in results[0]["metrics"]}
    columns.update({f"measured {name}": [m[name] for m in measured] for name in END_TO_END})
    print(f"{'metric':38s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}  runs")
    for name, values in columns.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        runs_text = " ".join(f"{v:.4g}" for v in values)
        print(f"{name:38s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.4f}  {runs_text}")


def self_test() -> None:
    """Each checker accepts a real output and rejects a corrupted copy."""
    import selftest

    root = checkout_root()
    work = os.path.join(root, WORK, "self-test")
    shutil.rmtree(work, ignore_errors=True)
    try:
        ok = selftest.run_all(lambda out, argv: run_child(root, out, argv, False), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raise SystemExit(0 if ok else 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        steady(args.workload, args.steady, args.seconds, args.trace)
        return
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
