"""Command-line front end.

Subcommands:

* ``simulate``          -- integrate one formulation, write CSV + JSON sidecar
* ``compare``           -- run several formulations from a shared initial
                           condition and report pairwise deviations
* ``certify``           -- aggregate measure / singularity / multiplier /
                           optimal-control checks into one verdict
* ``helmholtz-check``   -- multiplier-condition residuals and the
                           no-regular-multiplier certificate
* ``pontryagin-check``  -- two-route Hamiltonian agreement and stationarity,
                           the control gradient taken by complex step
* ``measure-check``     -- invariant-measure PDE residuals

Exit codes: 0 success/pass, 1 configuration error, 2 runtime evaluation
error or internal error, 3 certification failure.  Reports embed the seed
and tool version so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from random import Random

import numpy as np

from . import __version__, expr as ex
from .errors import ConfigError, EvaluationError
from .integrate import IntegratorConfig, Trajectory, compare, integrate
from .helmholtz import helmholtz_residuals, singularity_certificate
from .pontryagin import MODEL_KINDS, optimal_control_check
from .sampling import generic_jets, generic_r1
from .sode import first_associated, second_associated, third_associated
from .systems import (
    BUILTIN_NAMES,
    BUILTIN_PARAMS,
    MEASURE_RESIDUAL_TOL,
    Jet,
    SystemSpec,
    builtin_system,
    disk_closed_form_state,
    load_system_file,
    measure_pde_residual,
    nh_columns,
    nh_state_from_jet,
    nonholonomic_ode,
)
from .variational import (
    LagrangianModel,
    PhaseState,
    default_coefficients,
    euler_lagrange_ode,
    hamilton_ode,
    hamiltonian_value,
    hessian_field,
    lagrangian_model,
    legendre,
    phase_columns,
    phase_constraint_residual,
)

FORMULATIONS = ("nonholonomic", "lagrangian", "hamiltonian", "closed-form", "sode")
CHECKS = ("all", "measure", "singularity", "helmholtz", "pontryagin", "g2")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CERTIFICATION = 3

MAX_DEPTH = 64  # the certificate's memory grows faster than linearly with --depth


@dataclass
class RunManifest:
    """Everything one command needs; built from flags, validated once.  The
    defaults here are the flags' defaults: an absent flag keeps its field's."""

    system_source: str = "free_particle"
    spec_file: str | None = None
    formulations: tuple[str, ...] = ("nonholonomic",)
    sode_kind: str = "first"
    ham_kind: str = "first"
    lag_kind: str = "first"
    t_final: float = 5.0
    h: float = 1e-3
    seed: int = 0
    tol: float = 1e-5
    out_dir: str = "."
    ic: dict[str, float] = field(default_factory=dict)
    ic_on_constraint: bool = False
    params: dict[str, float] = field(default_factory=dict)
    check: str = "all"
    samples: int = 0
    depth: int = 3
    cost_kind: str = "g1"

    def __post_init__(self):
        if self.samples < 0:
            raise ConfigError("--samples must be >= 0 (0 selects the command's default)")
        if self.depth < 1:
            raise ConfigError("--depth must be >= 1")
        if self.depth > MAX_DEPTH:
            raise ConfigError(f"--depth must be <= {MAX_DEPTH}, got {self.depth}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.tol < np.inf:
            raise ConfigError(f"--tol must be finite and >= 0, got {self.tol!r}")
        if not self.out_dir:
            raise ConfigError("--out must name a directory, got an empty path")
        # the deepest existing path must be a directory this process may create
        # files in; the path is walked up as given, since normalising
        # "afile/.." would skip the file
        head = os.path.join(os.getcwd(), self.out_dir)
        while not os.path.isdir(head):
            if os.path.lexists(head):
                raise ConfigError(f"--out must name a directory, but {head} is a file")
            head = os.path.dirname(head)
        if not os.access(head, os.W_OK | os.X_OK):
            raise ConfigError(f"--out must name a writable directory, but {head} is not")

    def load_system(self) -> SystemSpec:
        """The system of --system or --spec.  Every --params key that is no
        model constant (``_is_model_constant``) must be a parameter of the
        built-in; a spec file takes none.  A model constant must index a
        coordinate some preset model weights: C<j> for 2 <= j <= n, a<j> for
        3 <= j <= n."""
        system_params = {k: v for k, v in self.params.items() if not _is_model_constant(k)}
        if self.spec_file is not None:
            if system_params:
                raise ConfigError(f"unknown --params keys {sorted(system_params)}: "
                                  "a spec file takes no system parameters")
            if not os.path.exists(self.spec_file):
                raise ConfigError(f"spec file not found: {self.spec_file}")
            sys_ = load_system_file(self.spec_file)
        elif self.system_source not in BUILTIN_NAMES:
            raise ConfigError(
                f"unknown system {self.system_source!r}; choose one of "
                f"{BUILTIN_NAMES} or pass --spec FILE"
            )
        else:
            sys_ = builtin_system(self.system_source, **system_params)
        for key in self.params:
            if _is_model_constant(key) and not _FIRST_INDEX[key[0]] <= int(key[1:]) <= sys_.n:
                raise ConfigError(f"coefficient {key} out of range for this system")
        return sys_

    def model(self, sys_: SystemSpec, kind: str) -> LagrangianModel:
        """The closed-form model of ``kind``: ``default_coefficients`` with
        the --params constants of its kind set, C2=2.0 or a3=-0.7.  A key's
        number less its ``_FIRST_INDEX`` is its slot, as ``load_system``
        checked: C2 belongs to r2, C3/a3 to the first constrained coordinate."""
        prefix = {"first": "C", "second": "a"}.get(kind)
        coeffs = list(default_coefficients(sys_, kind))
        for key, value in self.params.items():
            if key[:1] == prefix and _is_model_constant(key):
                coeffs[int(key[1:]) - _FIRST_INDEX[prefix]] = value
        return lagrangian_model(sys_, kind, coeffs)


# The number of the first coordinate a model constant can weight: C2 is r2's
# (kind first), a3 the first s coordinate's (kind second).
_FIRST_INDEX = {"C": 2, "a": 3}


def _is_model_constant(key: str) -> bool:
    """C<n> or a<n>, n in ASCII digits: a model constant of the first or
    second closed-form model."""
    return key[:1] in _FIRST_INDEX and key[1:].isascii() and key[1:].isdecimal()


def default_initial_jet(sys_: SystemSpec) -> Jet:
    r1_0 = {"free_particle": 1.0, "knife_edge": 0.25, "vertical_disk": 0.2}.get(
        sys_.preset, 0.5
    )
    r2dot = 2.0 if sys_.preset == "vertical_disk" else 1.0
    q = (r1_0,) + (0.0,) * (sys_.n - 1)
    return sys_.on_constraint(q, 1.0, r2dot)


def build_initial_jet(sys_: SystemSpec, manifest: RunManifest) -> Jet:
    """The preset jet with the --ic values set, each finite.  Its s
    velocities are slaved to the constraint unless --ic sets one and
    --ic-on-constraint is off."""
    jet = default_initial_jet(sys_)
    q, qdot = list(jet.q), list(jet.qdot)
    explicit_sdot = False
    for key, value in manifest.ic.items():
        if not np.isfinite(value):
            raise ConfigError(f"initial condition {key} must be finite, got {value!r}")
        if key in sys_.names:
            q[sys_.names.index(key)] = value
        elif key[:1] == "d" and key[1:] in sys_.names:
            qdot[sys_.names.index(key[1:])] = value
            explicit_sdot |= key[1:] in sys_.names[2:]
        else:
            raise ConfigError(f"unknown initial-condition key {key!r}")
    if explicit_sdot and not manifest.ic_on_constraint:
        return Jet(tuple(q), tuple(qdot))
    return sys_.on_constraint(tuple(q), qdot[0], qdot[1])


def run_formulation(sys_: SystemSpec, formulation: str, jet0: Jet,
                    manifest: RunManifest) -> tuple[Trajectory, dict]:
    """The trajectory of one formulation, with the drift metrics of the
    Hamiltonian model it ran (empty for every other formulation)."""
    cfg = IntegratorConfig(h=manifest.h, t_span=(0.0, manifest.t_final))
    if formulation == "nonholonomic":
        return integrate(nonholonomic_ode(sys_), nh_state_from_jet(sys_, jet0), cfg,
                         nh_columns(sys_), "nonholonomic"), {}
    y0 = np.array(jet0.q + jet0.qdot)  # the (q, q') state and its columns
    columns = sys_.names + tuple("d" + n for n in sys_.names)
    if formulation == "sode":
        build = {"first": first_associated, "second": second_associated,
                 "third": third_associated}[manifest.sode_kind]
        return integrate(build(sys_).ode(), y0, cfg, columns, f"sode-{manifest.sode_kind}"), {}
    if formulation == "lagrangian":
        if jet0.r1dot == 0.0 and manifest.lag_kind != "variational":
            raise ConfigError("singular velocity: the model needs r1dot != 0 initially")
        model = manifest.model(sys_, manifest.lag_kind)
        return integrate(euler_lagrange_ode(model), y0, cfg, columns, "euler-lagrange"), {}
    if formulation == "hamiltonian":
        if jet0.r1dot == 0.0:
            raise ConfigError("singular velocity: the model needs r1dot != 0 initially")
        model = manifest.model(sys_, manifest.ham_kind)
        try:
            ps0 = legendre(model, jet0)
            finite = np.isfinite(ps0.p).all()
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"the Legendre image of the initial jet q={list(jet0.q)}, "
                              f"qdot={list(jet0.qdot)} is not finite")
        traj = integrate(hamilton_ode(model), np.array(ps0.q + ps0.p), cfg,
                         phase_columns(sys_), "hamiltonian")
        return traj, hamiltonian_drift_metrics(model, traj)
    if formulation == "closed-form":
        if sys_.preset != "vertical_disk":
            raise ConfigError("closed-form trajectories exist only for the built-in vertical_disk")
        radius = manifest.params.get("R", BUILTIN_PARAMS["vertical_disk"]["R"])
        return Trajectory(cfg.times, disk_closed_form_state(radius, jet0, cfg.times), columns,
                          "closed-form"), {}
    raise ConfigError(f"unknown formulation {formulation!r}")


def hamiltonian_drift_metrics(model: LagrangianModel, traj: Trajectory) -> dict:
    """Energy and phase-constraint drift of a run of ``model``'s Hamiltonian."""
    n = model.system.n
    stride = max(1, len(traj.times) // 200)
    energies = []
    constraint = 0.0
    for row in traj.states[::stride].tolist():
        ps = PhaseState(tuple(row[:n]), tuple(row[n:]))
        energies.append(hamiltonian_value(model, ps))
        constraint = max(constraint, max(abs(r) for r in phase_constraint_residual(model, ps)))
    e0 = energies[0]
    scale = abs(e0) if e0 != 0.0 else 1.0
    return {
        "energy_drift": max(abs(e - e0) for e in energies) / scale,
        "constraint_drift": constraint,
    }


def _report(payload: dict, manifest: RunManifest, name: str) -> int:
    """Write ``payload`` to ``name``, then print it; the exit code of its
    verdict, a certification failure where it says ``"passed": false``.  A
    reader that closed stdout gets nothing, and the verdict keeps its code:
    stdout then points at the null device, so no later flush fails."""
    payload = {"tool": "hamiltonize", "version": __version__, **payload}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise EvaluationError(f"report {name} holds a non-finite value") from None
    os.makedirs(manifest.out_dir, exist_ok=True)
    with open(os.path.join(manifest.out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if payload.get("passed", True) else EXIT_CERTIFICATION


def cmd_simulate(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    jet0 = build_initial_jet(sys_, manifest)
    formulation = manifest.formulations[0]
    traj, drift = run_formulation(sys_, formulation, jet0, manifest)
    os.makedirs(manifest.out_dir, exist_ok=True)
    stem = f"{sys_.label}_{formulation.replace('-', '_')}"
    csv_path = os.path.join(manifest.out_dir, stem + ".csv")
    traj.write_csv(csv_path)
    sidecar = {
        "system": sys_.label,
        "formulation": formulation,
        "t_final": manifest.t_final,
        "h": manifest.h,
        "seed": manifest.seed,
        "csv": csv_path,
        "provenance": traj.provenance,
    }
    sidecar.update(drift)
    if formulation == "nonholonomic":
        sidecar["constraint_drift"] = 0.0  # slaved by construction
    return _report(sidecar, manifest, stem + ".json")


def cmd_compare(manifest: RunManifest) -> int:
    if len(manifest.formulations) < 2:
        raise ConfigError("compare needs at least two --formulation entries")
    for formulation in manifest.formulations:
        if manifest.formulations.count(formulation) > 1:
            raise ConfigError(f"compare got formulation {formulation!r} more than once")
    sys_ = manifest.load_system()
    jet0 = build_initial_jet(sys_, manifest)
    runs: dict[str, Trajectory] = {}
    drift = {}
    for formulation in manifest.formulations:
        runs[formulation], metrics = run_formulation(sys_, formulation, jet0, manifest)
        drift.update(metrics)
    pairs = {}
    worst = 0.0
    for a, b in itertools.combinations(runs, 2):
        metrics = compare(runs[a], runs[b], sys_.names)
        pairs[f"{a} vs {b}"] = _fields(metrics)
        worst = max(worst, metrics.sup)
    os.makedirs(manifest.out_dir, exist_ok=True)
    for formulation, traj in runs.items():
        traj.write_csv(os.path.join(
            manifest.out_dir, f"{sys_.label}_{formulation.replace('-', '_')}.csv"))
    payload = {
        "system": sys_.label,
        "initial_jet": {"q": list(jet0.q), "qdot": list(jet0.qdot)},
        "t_final": manifest.t_final,
        "h": manifest.h,
        "tol": manifest.tol,
        "seed": manifest.seed,
        "max_sup": worst,
        "pairs": pairs,
        "passed": bool(worst <= manifest.tol),
        **drift,
    }
    return _report(payload, manifest, f"{sys_.label}_compare.json")


def _fields(report) -> dict:
    """A report dataclass as JSON: its fields in order, those left None omitted."""
    return {k: v for k, v in asdict(report).items() if v is not None}


def _jets(sys_: SystemSpec, manifest: RunManifest) -> tuple[list[Jet], list[Jet]]:
    """The multiplier conditions' jets and the certificate's jets: the first
    and the second draw from a ``random.Random`` seeded with --seed."""
    stream = Random(manifest.seed)
    count = manifest.samples or 50
    return generic_jets(sys_, count, stream), generic_jets(sys_, count, stream)


def _multiplier_conditions(sode2, model: LagrangianModel, jets: list[Jet]) -> dict:
    """Multiplier-condition residuals of the second associated system ``sode2``
    for the Hessian of ``model`` at ``jets``."""
    return _fields(helmholtz_residuals(sode2, hessian_field(model), jets))


def _certificate(sys_: SystemSpec, manifest: RunManifest, jets: list[Jet]) -> dict:
    """The first associated system's singularity certificate at ``jets``."""
    return _fields(singularity_certificate(first_associated(sys_), jets, depth=manifest.depth))


def cmd_helmholtz_check(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    cond_jets, cert_jets = _jets(sys_, manifest)
    payload = {
        "system": sys_.label,
        "seed": manifest.seed,
        "jets": len(cond_jets),
        "multiplier_conditions": _multiplier_conditions(
            second_associated(sys_), manifest.model(sys_, "first"), cond_jets),
        "certificate": _certificate(sys_, manifest, cert_jets),
    }
    _report(payload, manifest, f"{sys_.label}_helmholtz.json")
    ok = payload["multiplier_conditions"]["passed"] and payload["certificate"]["passed"]
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _pontryagin_payload(model: LagrangianModel, manifest: RunManifest) -> dict:
    """The optimal-control check of the cost whose model is ``model``."""
    return _fields(optimal_control_check(model, manifest.seed, manifest.samples or 1000))


def cmd_pontryagin_check(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    if manifest.cost_kind == "g2" and not sys_.constant_measure:
        payload = {
            "system": sys_.label,
            "kind": "g2",
            "status": "skipped",
            "reason": "non-constant invariant measure",
        }
        return _report(payload, manifest, f"{sys_.label}_pontryagin.json")
    model = manifest.model(sys_, MODEL_KINDS[manifest.cost_kind])
    return _report(_pontryagin_payload(model, manifest), manifest,
                   f"{sys_.label}_pontryagin.json")


def _measure_payload(sys_: SystemSpec, manifest: RunManifest) -> dict:
    stream = Random(manifest.seed)
    count = manifest.samples or 100
    points = generic_r1(sys_, count, stream)
    worst = float(np.max(np.abs(measure_pde_residual(sys_, points))))
    return {
        "system": sys_.label,
        "seed": manifest.seed,
        "samples": count,
        "max_residual": worst,
        "constant": sys_.constant_measure,
        "passed": bool(worst < MEASURE_RESIDUAL_TOL),
    }


def cmd_measure_check(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    return _report(_measure_payload(sys_, manifest), manifest, f"{sys_.label}_measure.json")


def cmd_certify(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    checks = []

    def want(name: str) -> bool:
        return manifest.check in ("all", name)

    def verdict(name: str, details: dict, passed: bool) -> None:
        checks.append({"name": name, "status": "pass" if passed else "fail", "details": details})

    if want("measure"):
        payload = _measure_payload(sys_, manifest)
        verdict("invariant-measure", payload, payload["passed"])
    # each object is built once, when a check first reads it
    model = functools.cache(lambda kind: manifest.model(sys_, kind))
    sode2 = functools.cache(lambda: second_associated(sys_))
    jets = functools.cache(lambda: _jets(sys_, manifest))
    if want("singularity"):
        cert = _certificate(sys_, manifest, jets()[1])
        verdict("first-kind-singularity-certificate", cert, cert["passed"])
    if want("helmholtz"):
        cond = _multiplier_conditions(sode2(), model("first"), jets()[0])
        verdict("multiplier-conditions", cond, cond["passed"])
    if want("pontryagin"):
        payload = _pontryagin_payload(model("first"), manifest)
        verdict("optimal-control-g1", payload, payload["passed"])
    if want("g2"):
        if not sys_.constant_measure:
            checks.append({"name": "second-kind-suite", "status": "skipped",
                           "reason": "non-constant invariant measure"})
        else:
            cond = _multiplier_conditions(sode2(), model("second"), jets()[0])
            pont = _pontryagin_payload(model("second"), manifest)
            verdict("second-kind-suite", {"multiplier_conditions": cond, "optimal_control_g2": pont},
                    cond["passed"] and pont["passed"])
    payload = {"system": sys_.label, "seed": manifest.seed, "checks": checks}
    _report(payload, manifest, f"{sys_.label}_certify.json")
    failed = any(c["status"] == "fail" for c in checks)
    return EXIT_CERTIFICATION if failed else EXIT_OK


# --- argument parsing -------------------------------------------------------------


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for piece in filter(None, (x.strip() for chunk in pairs for x in chunk.split(","))):
        if "=" not in piece:
            raise ConfigError(f"expected key=value, got {piece!r}")
        key, _, value = piece.partition("=")
        try:
            out[key.strip()] = ex.read_float(value)
        except ValueError:
            raise ConfigError(f"bad value in {piece!r}") from None
    return out


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one line and exit 1, like
    every other bad input, where argparse would print its usage block and
    exit 2.  Subparsers are built from the same class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """Each flag stores into the ``RunManifest`` field it sets; an absent
    flag stores nothing, so the field keeps its default.  Where ``only``
    names a command, that is the one subcommand built: its help, usage and
    errors are the full parser's."""
    parser = _Parser(
        prog="hamiltonize",
        description="Hamiltonization toolkit for a class of nonholonomic systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = {only} if only in COMMANDS else COMMANDS

    def command(name, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--system", dest="system_source", metavar="SYSTEM",
                       help=f"built-in system name {BUILTIN_NAMES}")
        p.add_argument("--spec", dest="spec_file", metavar="SPEC", help="system specification file")
        p.add_argument("--seed", type=ex.read_int)
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
        p.add_argument("--params", action="append",
                       help="system/model parameters, e.g. m=2,C2=1.5")
        return p

    def trajectory(name, summary):
        """A command that integrates: models, grid, initial data."""
        p = command(name, summary)
        p.add_argument("--sode", dest="sode_kind", choices=("first", "second", "third"))
        p.add_argument("--ham-kind", choices=("first", "second"))
        p.add_argument("--lag-kind", choices=("first", "second", "variational"))
        p.add_argument("--t", dest="t_final", metavar="T", type=ex.read_float)
        p.add_argument("--h", type=ex.read_float)
        p.add_argument("--ic", action="append", help="initial conditions, e.g. phi=0.3,dphi=1")
        p.add_argument("--ic-on-constraint", action="store_true",
                       help="slave the s velocities to the constraint")
        return p

    if "simulate" in wanted:
        trajectory("simulate", "integrate one formulation").add_argument(
            "--formulation", dest="formulations", choices=FORMULATIONS)
    if "compare" in wanted:
        cmp_ = trajectory("compare", "compare formulations pairwise")
        cmp_.add_argument("--formulation", dest="formulations", metavar="FORMULATION",
                          action="append", help="repeat for each formulation (or comma separate)")
        cmp_.add_argument("--tol", type=ex.read_float)
    if "certify" in wanted:
        cert = command("certify", "run the certification suite")
        cert.add_argument("--check", choices=CHECKS)
        cert.add_argument("--samples", type=ex.read_int)
        cert.add_argument("--depth", type=ex.read_int)
    if "helmholtz-check" in wanted:
        hc = command("helmholtz-check", "multiplier conditions + certificate")
        hc.add_argument("--samples", type=ex.read_int, help="jets per check")
        hc.add_argument("--depth", type=ex.read_int)
    if "pontryagin-check" in wanted:
        pc = command("pontryagin-check", "optimal-control consistency")
        pc.add_argument("--kind", dest="cost_kind", choices=("g1", "g2"))
        pc.add_argument("--samples", type=ex.read_int)
    if "measure-check" in wanted:
        command("measure-check", "invariant-measure residuals").add_argument(
            "--samples", type=ex.read_int)

    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    fields = dict(vars(args))
    del fields["command"]
    if "system_source" in fields and "spec_file" in fields:
        raise ConfigError("--system and --spec exclude each other: give one")
    if "formulations" in fields:
        raw = fields.pop("formulations")
        flat = [x.strip() for chunk in ([raw] if isinstance(raw, str) else raw)
                for x in chunk.split(",") if x.strip()]
        for f in flat:
            if f not in FORMULATIONS:
                raise ConfigError(f"unknown formulation {f!r}")
        if flat:
            fields["formulations"] = tuple(flat)
    for key in ("ic", "params"):
        if key in fields:
            fields[key] = _parse_kv(fields[key])
    return RunManifest(**fields)


COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "certify": cmd_certify,
    "helmholtz-check": cmd_helmholtz_check,
    "pontryagin-check": cmd_pontryagin_check,
    "measure-check": cmd_measure_check,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        manifest = manifest_from_args(args)
        return COMMANDS[args.command](manifest)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, ArithmeticError) as exc:  # IntegrationAborted is an EvaluationError
        name = "" if isinstance(exc, EvaluationError) else f"{type(exc).__name__}: "
        print(f"runtime error: {name}{exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"runtime error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # a fault of the program: one line, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
