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
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, EvaluationError, IntegrationAborted
from .integrate import IntegratorConfig, Trajectory, compare, integrate
from .helmholtz import helmholtz_residuals, singularity_certificate
from .pontryagin import MODEL_KINDS, control_gradient, optimal_controls, optimal_hamiltonian_value
from .sampling import generic_jets, phase_points, sample_r1
from .sode import first_associated, second_associated, third_associated
from .systems import (
    BUILTIN_NAMES,
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

# optimal-control check: points with |u_1| below the first are skipped; the
# two routes must agree below the second, the gradient must vanish below the third
PONTRYAGIN_U1_MIN = 0.05
PONTRYAGIN_DEV_TOL = 1e-10
PONTRYAGIN_GRAD_TOL = 1e-8


@dataclass
class RunManifest:
    """Everything one command needs; built from flags, validated once."""

    system_source: str
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
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.tol < np.inf:
            raise ConfigError(f"--tol must be finite and >= 0, got {self.tol!r}")

    def load_system(self) -> SystemSpec:
        """The system of --system or --spec.  Every --params key that is no
        model constant (``_is_model_constant``) must be a parameter of the
        built-in; a spec file takes none."""
        system_params = {k: v for k, v in self.params.items() if not _is_model_constant(k)}
        if self.spec_file is not None:
            if system_params:
                raise ConfigError(f"unknown --params keys {sorted(system_params)}: "
                                  "a spec file takes no system parameters")
            if not os.path.exists(self.spec_file):
                raise ConfigError(f"spec file not found: {self.spec_file}")
            return load_system_file(self.spec_file)
        if self.system_source not in BUILTIN_NAMES:
            raise ConfigError(
                f"unknown system {self.system_source!r}; choose one of "
                f"{BUILTIN_NAMES} or pass --spec FILE"
            )
        return builtin_system(self.system_source, **system_params)

    def model(self, sys_: SystemSpec, kind: str) -> LagrangianModel:
        """The closed-form model of ``kind`` with the --params constants."""
        return lagrangian_model(sys_, kind, self.model_coefficients(sys_, kind))

    def model_coefficients(self, sys_: SystemSpec, kind: str):
        """C_b / a_b overrides like C2=2.0 or a3=-0.7 from --params.

        Indices follow coordinate numbering: C2 belongs to r2, C3/a3 to the
        first constrained coordinate, and so on; the key's number minus one
        is the index of a coordinate the preset model weights.
        """
        if kind == "variational":
            return None
        prefix = "C" if kind == "first" else "a"
        picked = {k: v for k, v in self.params.items()
                  if k.startswith(prefix) and _is_model_constant(k)}
        if not picked:
            return None
        preset = lagrangian_model(sys_, kind)
        slot = {b: i for i, (b, _) in enumerate(preset.terms)}
        coeffs = list(preset.coefficients)
        for key, value in picked.items():
            idx = slot.get(int(key[1:]) - 1)
            if idx is None:
                raise ConfigError(f"coefficient {key} out of range for this system")
            coeffs[idx] = value
        return tuple(coeffs)


def _is_model_constant(key: str) -> bool:
    """C<n> or a<n>: a model constant of the first or second closed-form
    model.  isdecimal, not isdigit: int() rejects superscripts such as C²."""
    return key[:1] in ("C", "a") and key[1:].isdecimal()


def default_initial_jet(sys_: SystemSpec) -> Jet:
    r1_0 = {"free_particle": 1.0, "knife_edge": 0.25, "vertical_disk": 0.2}.get(
        sys_.preset, 0.5
    )
    r2dot = 2.0 if sys_.preset == "vertical_disk" else 1.0
    q = (r1_0,) + (0.0,) * (sys_.n - 1)
    return sys_.on_constraint(q, 1.0, r2dot)


def build_initial_jet(sys_: SystemSpec, manifest: RunManifest) -> Jet:
    jet = default_initial_jet(sys_)
    if manifest.ic:
        q = list(jet.q)
        qdot = list(jet.qdot)
        for key, value in manifest.ic.items():
            if key in sys_.names:
                q[sys_.names.index(key)] = value
            elif key[:1] == "d" and key[1:] in sys_.names:
                qdot[sys_.names.index(key[1:])] = value
            else:
                raise ConfigError(f"unknown initial-condition key {key!r}")
        jet = Jet(tuple(q), tuple(qdot))
        explicit_sdot = any(k.startswith("d") and k[1:] in sys_.names[2:]
                            for k in manifest.ic)
        if not explicit_sdot:
            # s velocities were not explicitly set: keep them on the constraint
            jet = sys_.on_constraint(jet.q, jet.qdot[0], jet.qdot[1])
    if manifest.ic_on_constraint:
        jet = sys_.on_constraint(jet.q, jet.qdot[0], jet.qdot[1])
    return jet


def run_formulation(sys_: SystemSpec, formulation: str, jet0: Jet,
                    manifest: RunManifest) -> tuple[Trajectory, dict]:
    """The trajectory of one formulation, with the drift metrics of the
    Hamiltonian model it ran (empty for every other formulation)."""
    cfg = IntegratorConfig(h=manifest.h, t_span=(0.0, manifest.t_final))
    if formulation == "nonholonomic":
        return integrate(nonholonomic_ode(sys_), nh_state_from_jet(sys_, jet0), cfg,
                         nh_columns(sys_), "nonholonomic"), {}
    if formulation == "sode":
        build = {"first": first_associated, "second": second_associated,
                 "third": third_associated}[manifest.sode_kind]
        sode = build(sys_)
        y0 = np.array(jet0.q + jet0.qdot)
        return integrate(sode.ode(), y0, cfg, sode.columns(), f"sode-{manifest.sode_kind}"), {}
    if formulation == "lagrangian":
        if jet0.r1dot == 0.0 and manifest.lag_kind != "variational":
            raise ConfigError("singular velocity: the model needs r1dot != 0 initially")
        model = manifest.model(sys_, manifest.lag_kind)
        y0 = np.array(jet0.q + jet0.qdot)
        return integrate(euler_lagrange_ode(model), y0, cfg,
                         sys_.names + tuple("d" + n for n in sys_.names), "euler-lagrange"), {}
    if formulation == "hamiltonian":
        if jet0.r1dot == 0.0:
            raise ConfigError("singular velocity: the model needs r1dot != 0 initially")
        model = manifest.model(sys_, manifest.ham_kind)
        ps0 = legendre(model, jet0)
        if not np.isfinite(ps0.p).all():
            raise ConfigError(f"the Legendre image of the initial jet q={list(jet0.q)}, "
                              f"qdot={list(jet0.qdot)} is not finite")
        traj = integrate(hamilton_ode(model), np.array(ps0.q + ps0.p), cfg,
                         phase_columns(sys_), "hamiltonian")
        return traj, hamiltonian_drift_metrics(model, traj)
    if formulation == "closed-form":
        if sys_.preset != "vertical_disk":
            raise ConfigError("closed-form trajectories exist only for the built-in vertical_disk")
        radius = manifest.params.get("R", 1.0)
        times = cfg.h * np.arange(cfg.steps + 1)
        states = np.array([disk_closed_form_state(radius, jet0, float(t)) for t in times])
        return Trajectory(times, states, sys_.names + tuple("d" + n for n in sys_.names),
                          "closed-form"), {}
    raise ConfigError(f"unknown formulation {formulation!r}")


def hamiltonian_drift_metrics(model: LagrangianModel, traj: Trajectory) -> dict:
    """Energy and phase-constraint drift of a run of ``model``'s Hamiltonian."""
    n = model.system.n
    stride = max(1, len(traj.times) // 200)
    energies = []
    constraint = 0.0
    for row in traj.states[::stride]:
        ps = PhaseState(tuple(row[:n]), tuple(row[n:]))
        energies.append(hamiltonian_value(model, ps))
        constraint = max(constraint, max(abs(r) for r in phase_constraint_residual(model, ps)))
    e0 = energies[0]
    scale = abs(e0) if e0 != 0.0 else 1.0
    return {
        "energy_drift": max(abs(e - e0) for e in energies) / scale,
        "constraint_drift": constraint,
    }


def _report(payload: dict, manifest: RunManifest, name: str) -> None:
    payload = {"tool": "hamiltonize", "version": __version__, **payload}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise EvaluationError(f"report {name} holds a non-finite value") from None
    print(text)
    if manifest.out_dir:
        os.makedirs(manifest.out_dir, exist_ok=True)
        with open(os.path.join(manifest.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


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
    _report(sidecar, manifest, stem + ".json")
    return EXIT_OK


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
    names = sys_.names
    pairs = {}
    worst = 0.0
    keys = list(runs)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            metrics = compare(runs[keys[i]], runs[keys[j]], names)
            pairs[f"{keys[i]} vs {keys[j]}"] = metrics.to_dict()
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
    _report(payload, manifest, f"{sys_.label}_compare.json")
    return EXIT_OK if worst <= manifest.tol else EXIT_CERTIFICATION


def _multiplier_conditions(sode2, model: LagrangianModel, manifest: RunManifest,
                           rng: np.random.Generator) -> dict:
    """Multiplier-condition residuals of the second associated system ``sode2``
    for the Hessian of ``model``, at the first draw of jets from ``rng``."""
    jets = generic_jets(model.system, manifest.samples or 50, rng)
    return helmholtz_residuals(sode2, hessian_field(model), jets).to_dict()


def _certificate(sys_: SystemSpec, manifest: RunManifest, rng: np.random.Generator) -> dict:
    """The first associated system's singularity certificate, at the second
    draw of jets from ``rng`` (the first feeds the multiplier conditions)."""
    jets = generic_jets(sys_, manifest.samples or 50, rng)
    return singularity_certificate(first_associated(sys_), jets, depth=manifest.depth,
                                   seed=manifest.seed).to_dict()


def cmd_helmholtz_check(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    rng = np.random.default_rng(manifest.seed)
    payload = {
        "system": sys_.label,
        "seed": manifest.seed,
        "jets": manifest.samples or 50,
        "multiplier_conditions": _multiplier_conditions(
            second_associated(sys_), manifest.model(sys_, "first"), manifest, rng),
        "certificate": _certificate(sys_, manifest, rng),
    }
    _report(payload, manifest, f"{sys_.label}_helmholtz.json")
    ok = payload["multiplier_conditions"]["passed"] and payload["certificate"]["passed"]
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _pontryagin_payload(model: LagrangianModel, manifest: RunManifest, kind: str) -> dict:
    """The optimal-control check of cost ``kind`` on its model ``model``."""
    rng = np.random.default_rng(manifest.seed)
    count = manifest.samples or 1000
    max_dev = 0.0
    max_grad = 0.0
    used = degenerate = near_zero = 0
    for ps in phase_points(model.system, count, rng):
        try:
            u_star = optimal_controls(model, ps)
        except EvaluationError:
            degenerate += 1
            continue
        if abs(u_star[0]) < PONTRYAGIN_U1_MIN:
            near_zero += 1
            continue  # boundary region, reported elsewhere
        used += 1
        dev = abs(optimal_hamiltonian_value(model, ps, u_star) - hamiltonian_value(model, ps))
        max_dev = max(max_dev, dev)
        grad = max(abs(g) for g in control_gradient(model, ps, u_star))
        max_grad = max(max_grad, grad)
    return {
        "system": model.system.label,
        "kind": kind,
        "seed": manifest.seed,
        "samples": count,
        "evaluated": used,
        "skipped_degenerate": degenerate,
        "skipped_near_u1_zero": near_zero,
        "max_hamiltonian_deviation": max_dev,
        "deviation_tol": PONTRYAGIN_DEV_TOL,
        "max_stationarity_norm": max_grad,
        "stationarity_tol": PONTRYAGIN_GRAD_TOL,
        "passed": bool(used > 0 and max_dev < PONTRYAGIN_DEV_TOL
                       and max_grad < PONTRYAGIN_GRAD_TOL),
    }


def cmd_pontryagin_check(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    if manifest.cost_kind == "g2" and not sys_.constant_measure:
        payload = {
            "system": sys_.label,
            "kind": "g2",
            "status": "skipped",
            "reason": "non-constant invariant measure",
        }
        _report(payload, manifest, f"{sys_.label}_pontryagin.json")
        return EXIT_OK
    kind = manifest.cost_kind
    model = manifest.model(sys_, MODEL_KINDS[kind])
    payload = _pontryagin_payload(model, manifest, kind)
    _report(payload, manifest, f"{sys_.label}_pontryagin.json")
    return EXIT_OK if payload["passed"] else EXIT_CERTIFICATION


def _measure_payload(sys_: SystemSpec, manifest: RunManifest) -> dict:
    rng = np.random.default_rng(manifest.seed)
    count = manifest.samples or 100
    worst = 0.0
    for _ in range(count):
        res = measure_pde_residual(sys_, sample_r1(sys_, rng))
        worst = max(worst, abs(res[0]), abs(res[1]))
    return {
        "system": sys_.label,
        "seed": manifest.seed,
        "samples": count,
        "max_residual": worst,
        "constant": sys_.constant_measure,
        "passed": bool(worst < 1e-8),
    }


def cmd_measure_check(manifest: RunManifest) -> int:
    sys_ = manifest.load_system()
    payload = _measure_payload(sys_, manifest)
    _report(payload, manifest, f"{sys_.label}_measure.json")
    return EXIT_OK if payload["passed"] else EXIT_CERTIFICATION


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
    if want("singularity") or want("helmholtz"):
        rng = np.random.default_rng(manifest.seed)
        if want("helmholtz"):
            cond = _multiplier_conditions(sode2(), model("first"), manifest, rng)
        else:
            generic_jets(sys_, manifest.samples or 50, rng)  # skip the conditions' draw
        if want("singularity"):
            cert = _certificate(sys_, manifest, rng)
            verdict("first-kind-singularity-certificate", cert, cert["passed"])
        if want("helmholtz"):
            verdict("multiplier-conditions", cond, cond["passed"])
    if want("pontryagin"):
        payload = _pontryagin_payload(model("first"), manifest, "g1")
        verdict("optimal-control-g1", payload, payload["passed"])
    if want("g2"):
        if not sys_.constant_measure:
            checks.append({"name": "second-kind-suite", "status": "skipped",
                           "reason": "non-constant invariant measure"})
        else:
            cond = _multiplier_conditions(sode2(), model("second"), manifest,
                                          np.random.default_rng(manifest.seed))
            pont = _pontryagin_payload(model("second"), manifest, "g2")
            verdict("second-kind-suite", {"multiplier_conditions": cond, "optimal_control_g2": pont},
                    cond["passed"] and pont["passed"])
    payload = {"system": sys_.label, "seed": manifest.seed, "checks": checks}
    _report(payload, manifest, f"{sys_.label}_certify.json")
    failed = any(c["status"] == "fail" for c in checks)
    return EXIT_CERTIFICATION if failed else EXIT_OK


# --- argument parsing -------------------------------------------------------------


def _parse_kv(pairs: list[str], cast=float) -> dict:
    out = {}
    for chunk in pairs:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ConfigError(f"expected key=value, got {piece!r}")
            key, _, value = piece.partition("=")
            try:
                out[key.strip()] = cast(value)
            except ValueError:
                raise ConfigError(f"bad value in {piece!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamiltonize",
        description="Hamiltonization toolkit for a class of nonholonomic systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", default="free_particle",
                       help=f"built-in system name {BUILTIN_NAMES}")
        p.add_argument("--spec", default=None, help="system specification file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--params", action="append", default=[],
                       help="system/model parameters, e.g. m=2,C2=1.5")

    def trajectory(p):
        """Flags of the commands that integrate: models, grid, initial data."""
        p.add_argument("--sode", default="first", choices=("first", "second", "third"))
        p.add_argument("--ham-kind", default="first", choices=("first", "second"))
        p.add_argument("--lag-kind", default="first",
                       choices=("first", "second", "variational"))
        p.add_argument("--t", type=float, default=5.0)
        p.add_argument("--h", type=float, default=1e-3)
        p.add_argument("--ic", action="append", default=[],
                       help="initial conditions, e.g. phi=0.3,dphi=1")
        p.add_argument("--ic-on-constraint", action="store_true",
                       help="slave the s velocities to the constraint")

    sim = sub.add_parser("simulate", help="integrate one formulation")
    common(sim)
    trajectory(sim)
    sim.add_argument("--formulation", default="nonholonomic", choices=FORMULATIONS)

    cmp_ = sub.add_parser("compare", help="compare formulations pairwise")
    common(cmp_)
    trajectory(cmp_)
    cmp_.add_argument("--formulation", action="append", default=[],
                      help="repeat for each formulation (or comma separate)")
    cmp_.add_argument("--tol", type=float, default=1e-5)

    cert = sub.add_parser("certify", help="run the certification suite")
    common(cert)
    cert.add_argument("--check", default="all", choices=CHECKS)
    cert.add_argument("--samples", type=int, default=0)
    cert.add_argument("--depth", type=int, default=3)

    hc = sub.add_parser("helmholtz-check", help="multiplier conditions + certificate")
    common(hc)
    hc.add_argument("--samples", type=int, default=0, help="jets per check")
    hc.add_argument("--depth", type=int, default=3)

    pc = sub.add_parser("pontryagin-check", help="optimal-control consistency")
    common(pc)
    pc.add_argument("--kind", default="g1", choices=("g1", "g2"))
    pc.add_argument("--samples", type=int, default=1000)

    mc = sub.add_parser("measure-check", help="invariant-measure residuals")
    common(mc)
    mc.add_argument("--samples", type=int, default=100)

    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    formulations: tuple[str, ...] = ()
    if hasattr(args, "formulation"):
        raw = args.formulation if isinstance(args.formulation, list) else [args.formulation]
        flat: list[str] = []
        for chunk in raw:
            flat.extend(x.strip() for x in chunk.split(",") if x.strip())
        for f in flat:
            if f not in FORMULATIONS:
                raise ConfigError(f"unknown formulation {f!r}")
        formulations = tuple(flat) or ("nonholonomic",)
    return RunManifest(
        system_source=args.system,
        spec_file=args.spec,
        formulations=formulations,
        sode_kind=getattr(args, "sode", "first"),
        ham_kind=getattr(args, "ham_kind", "first"),
        lag_kind=getattr(args, "lag_kind", "first"),
        t_final=getattr(args, "t", 5.0),
        h=getattr(args, "h", 1e-3),
        seed=args.seed,
        tol=getattr(args, "tol", 1e-5),
        out_dir=args.out,
        ic=_parse_kv(getattr(args, "ic", [])),
        ic_on_constraint=getattr(args, "ic_on_constraint", False),
        params=_parse_kv(args.params),
        check=getattr(args, "check", "all"),
        samples=getattr(args, "samples", 0),
        depth=getattr(args, "depth", 3),
        cost_kind=getattr(args, "kind", "g1"),
    )


COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "certify": cmd_certify,
    "helmholtz-check": cmd_helmholtz_check,
    "pontryagin-check": cmd_pontryagin_check,
    "measure-check": cmd_measure_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = manifest_from_args(args)
        return COMMANDS[args.command](manifest)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationAborted as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except EvaluationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
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
