"""Output checkers that share no code with the program under test.

Every checker takes the files a CLI command wrote (CSV trajectories, JSON
reports) plus what the benchmark itself knows about the command, and raises
``CheckError`` with a one-line reason when the output is wrong.  The
reference values come from closed forms written out here, never from
``hamiltonize``:

* built-in systems as data: inertias, constraint coefficients A_a(r1) and
  their invariant-measure densities N(r1) = 1/sqrt(I2 + sum I_a A_a^2);
* closed-form constrained motion, where r1 is affine in t and
    - vertical disk: (x, y) runs on a circle, x' = R cos(phi) theta',
      y' = R sin(phi) theta';
    - knife edge: the blade speed v = x'/cos(phi) is conserved, so
      x' = v cos(phi), y' = v sin(phi);
    - free particle: c = y' sqrt(1 + x^2) is conserved and z' = -x y', so
      y = y0 + (c/u)(asinh x - asinh x0), z = z0 - (c/u)(sqrt(1+x^2) - sqrt(1+x0^2));
* conserved kinetic energy (1/2) sum I_i q_i'^2 and the constraint residual
  s_a' + A_a(r1) r2', both recomputed from the CSV columns;
* method properties: grid length and end point, strict JSON, exit codes
  that agree with verdicts, certificates that have one nullspace dimension
  and no regular multiplier, and checks that evaluated at least one point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The README's own trajectory tolerance.
TOL = 1e-5
CERT_DET_TOL = 1e-10
MULTIPLIER_TOL = 1e-8
PONTRYAGIN_DEV_TOL = 1e-10
PONTRYAGIN_GRAD_TOL = 1e-8
MEASURE_RESIDUAL_TOL = 1e-8


class CheckError(Exception):
    """An output disagrees with the benchmark's independent computation."""


# --- the built-in systems, written out ---------------------------------------


@dataclass(frozen=True)
class Builtin:
    names: tuple[str, ...]
    inertias: tuple[float, ...]  # (I1, I2, I_1..I_k)
    coeffs: tuple[Callable[[np.ndarray], np.ndarray], ...]  # A_a(r1)
    default_ic: dict[str, float]  # the CLI's default initial condition

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def density(self, r1: np.ndarray) -> np.ndarray:
        i2 = self.inertias[1]
        total = i2 + sum(i_a * a(r1) ** 2 for i_a, a in zip(self.inertias[2:], self.coeffs))
        return 1.0 / np.sqrt(total)

    def measure_is_constant(self) -> bool:
        values = self.density(np.linspace(-1.0, 1.0, 41))
        return float(np.max(values) - np.min(values)) < 1e-12

    def ic_flag(self) -> str:
        return ",".join(f"{key}={value!r}" for key, value in self.default_ic.items())

    def closed_form(self, t: np.ndarray, q0, r1dot: float, r2dot: float):
        """Positions and velocities (each shaped (len(t), n)) of the
        constrained motion from q0 with s velocities on the constraint."""
        raise NotImplementedError


class Disk(Builtin):
    def closed_form(self, t, q0, r1dot, r2dot):
        phi0, theta0, x0, y0 = q0
        phi = phi0 + r1dot * t
        theta = theta0 + r2dot * t
        ratio = r2dot / r1dot  # R = 1
        x = x0 + ratio * (np.sin(phi) - math.sin(phi0))
        y = y0 - ratio * (np.cos(phi) - math.cos(phi0))
        pos = np.stack([phi, theta, x, y], axis=1)
        vel = np.stack([np.full_like(t, r1dot), np.full_like(t, r2dot),
                        np.cos(phi) * r2dot, np.sin(phi) * r2dot], axis=1)
        return pos, vel


class Knife(Builtin):
    def closed_form(self, t, q0, r1dot, r2dot):
        phi0, x0, y0 = q0
        phi = phi0 + r1dot * t
        speed = r2dot / math.cos(phi0)
        x = x0 + (speed / r1dot) * (np.sin(phi) - math.sin(phi0))
        y = y0 - (speed / r1dot) * (np.cos(phi) - math.cos(phi0))
        pos = np.stack([phi, x, y], axis=1)
        vel = np.stack([np.full_like(t, r1dot), speed * np.cos(phi), speed * np.sin(phi)],
                       axis=1)
        return pos, vel


class Particle(Builtin):
    def closed_form(self, t, q0, r1dot, r2dot):
        x0, y0, z0 = q0
        x = x0 + r1dot * t
        c = r2dot * math.sqrt(1.0 + x0 * x0)
        y = y0 + (c / r1dot) * (np.arcsinh(x) - math.asinh(x0))
        z = z0 - (c / r1dot) * (np.sqrt(1.0 + x * x) - math.sqrt(1.0 + x0 * x0))
        ydot = c / np.sqrt(1.0 + x * x)
        pos = np.stack([x, y, z], axis=1)
        vel = np.stack([np.full_like(t, r1dot), ydot, -x * ydot], axis=1)
        return pos, vel


BUILTINS: dict[str, Builtin] = {
    "free_particle": Particle(("x", "y", "z"), (1.0, 1.0, 1.0), (lambda r: r,),
                              {"x": 1.0, "dx": 1.0, "dy": 1.0}),
    "knife_edge": Knife(("phi", "x", "y"), (1.0, 1.0, 1.0), (lambda r: -np.tan(r),),
                        {"phi": 0.25, "dphi": 1.0, "dx": 1.0}),
    "vertical_disk": Disk(("phi", "theta", "x", "y"), (1.0, 1.0, 1.0, 1.0),
                          (lambda r: -np.cos(r), lambda r: -np.sin(r)),
                          {"phi": 0.2, "dphi": 1.0, "dtheta": 2.0}),
}


# --- strict file readers -----------------------------------------------------------


def _reject_constant(token: str):
    raise CheckError(f"report contains non-standard JSON constant {token}")


def load_report(path: str) -> dict:
    """Parse a JSON report, rejecting NaN and Infinity."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckError(f"report missing: {exc}") from None
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckError("report is not a JSON object")
    return payload


@dataclass
class Csv:
    columns: tuple[str, ...]
    data: np.ndarray  # rows x (1 + len(columns)); column 0 is t

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    def col(self, name: str) -> np.ndarray:
        try:
            return self.data[:, 1 + self.columns.index(name)]
        except ValueError:
            raise CheckError(f"CSV has no column {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self.columns


def load_csv(path: str) -> Csv:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"unreadable CSV {path}: {exc}") from None
    if header[0] != "t" or data.shape[1] != len(header):
        raise CheckError(f"malformed CSV header {header}")
    if not np.all(np.isfinite(data)):
        raise CheckError("CSV holds non-finite values")
    return Csv(tuple(header[1:]), data)


# --- trajectory checks --------------------------------------------------------------


def check_grid(csv: Csv, t_final: float, h: float) -> None:
    """t/h + 1 rows, uniform spacing h, first time 0 and last exactly t."""
    expected = int(round(t_final / h)) + 1
    if len(csv.t) != expected:
        raise CheckError(f"{len(csv.t)} rows, expected t/h + 1 = {expected}")
    if csv.t[0] != 0.0 or csv.t[-1] != t_final:
        raise CheckError(f"grid runs {csv.t[0]!r}..{csv.t[-1]!r}, expected 0..{t_final!r}")
    if np.max(np.abs(np.diff(csv.t) - h)) > 1e-9 * h:
        raise CheckError("grid spacing differs from h")


def velocities(csv: Csv, system: Builtin) -> np.ndarray:
    """Velocity of every coordinate: the CSV's own column when it has one,
    otherwise central differences of the position column (interior rows
    only, so the result has two rows fewer)."""
    h = csv.t[1] - csv.t[0]
    out = []
    for name in system.names:
        if csv.has("d" + name):
            out.append(csv.col("d" + name)[1:-1])
        else:
            pos = csv.col(name)
            out.append((pos[2:] - pos[:-2]) / (2.0 * h))
    return np.stack(out, axis=1)


def check_energy_and_constraint(csv: Csv, system: Builtin, tol: float = TOL) -> dict:
    """Kinetic energy conserved and s_a' + A_a(r1) r2' = 0 along the run."""
    vel = velocities(csv, system)
    r1 = csv.col(system.names[0])[1:-1]
    inertia = np.array(system.inertias)
    energy = 0.5 * np.sum(inertia * vel**2, axis=1)
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    residual = max(
        float(np.max(np.abs(vel[:, 2 + a] + system.coeffs[a](r1) * vel[:, 1])))
        for a in range(system.k)
    )
    if drift > tol:
        raise CheckError(f"kinetic energy drifts by {drift:.3g} (relative), tolerance {tol}")
    if residual > tol:
        raise CheckError(f"constraint residual reaches {residual:.3g}, tolerance {tol}")
    return {"energy_drift": drift, "constraint_residual": residual}


def closed_form_error(csv: Csv, system: Builtin, q0, r1dot: float, r2dot: float) -> float:
    """Sup error of positions, and of velocity columns present, against the
    closed-form motion."""
    pos, vel = system.closed_form(csv.t, q0, r1dot, r2dot)
    worst = 0.0
    for i, name in enumerate(system.names):
        worst = max(worst, float(np.max(np.abs(csv.col(name) - pos[:, i]))))
        if csv.has("d" + name):
            worst = max(worst, float(np.max(np.abs(csv.col("d" + name) - vel[:, i]))))
    return worst


def check_closed_form(csv: Csv, system: Builtin, q0, r1dot, r2dot, tol: float = TOL) -> float:
    if not np.allclose(csv.data[0, 1:1 + len(q0)], q0, rtol=0.0, atol=1e-15):
        raise CheckError("first row does not hold the initial positions")
    err = closed_form_error(csv, system, q0, r1dot, r2dot)
    if not err <= tol:
        raise CheckError(f"sup error {err:.3g} against the closed form, tolerance {tol}")
    return err


def ic_from_flag(system: Builtin) -> tuple[tuple[float, ...], float, float]:
    """Initial positions and (r1', r2') the benchmark passes with --ic."""
    ic = system.default_ic
    q0 = tuple(ic.get(name, 0.0) for name in system.names)
    return q0, ic["d" + system.names[0]], ic["d" + system.names[1]]


def check_simulate(report: dict, csv: Csv, system: Builtin, formulation: str,
                   t_final: float, h: float, exit_code: int) -> float:
    if exit_code != 0:
        raise CheckError(f"simulate exited {exit_code}")
    if report.get("formulation") != formulation or report.get("t_final") != t_final:
        raise CheckError("report does not describe the command that ran")
    check_grid(csv, t_final, h)
    q0, r1dot, r2dot = ic_from_flag(system)
    err = check_closed_form(csv, system, q0, r1dot, r2dot)
    check_energy_and_constraint(csv, system)
    return err


def check_compare(report: dict, csvs: dict[str, Csv], system: Builtin, t_final: float,
                  h: float, exit_code: int) -> float:
    """Pairwise sups recomputed from the CSVs, the verdict and exit code, and
    every trajectory against the closed form."""
    tol = report.get("tol")
    if not isinstance(tol, float) or report.get("t_final") != t_final:
        raise CheckError("compare report lacks tol or t_final")
    names = system.names
    keys = list(csvs)
    worst = 0.0
    pairs = report.get("pairs", {})
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            a, b = csvs[keys[i]], csvs[keys[j]]
            sup = max(float(np.max(np.abs(a.col(n) - b.col(n)))) for n in names)
            claimed = pairs.get(f"{keys[i]} vs {keys[j]}", {}).get("sup")
            if claimed is None or abs(claimed - sup) > 1e-12 * max(1.0, sup):
                raise CheckError(f"{keys[i]} vs {keys[j]}: report sup {claimed}, CSVs give {sup}")
            worst = max(worst, sup)
    if report.get("max_sup") != worst:
        raise CheckError(f"max_sup {report.get('max_sup')} differs from the pairwise maximum {worst}")
    passed = worst <= tol
    if report.get("passed") is not passed or exit_code != (0 if passed else 3):
        raise CheckError(f"verdict {report.get('passed')} / exit {exit_code} for max_sup {worst:.3g}")
    jet = report.get("initial_jet", {})
    q0, qdot0 = tuple(jet.get("q", ())), tuple(jet.get("qdot", ()))
    if len(q0) != len(names) or len(qdot0) != len(names):
        raise CheckError("compare report lacks the initial jet")
    err = 0.0
    for csv in csvs.values():
        check_grid(csv, t_final, h)
        err = max(err, check_closed_form(csv, system, q0, qdot0[0], qdot0[1]))
    if not passed:
        raise CheckError(f"formulations disagree: max_sup {worst:.3g} > tol {tol}")
    return err


# --- report checks ------------------------------------------------------------------


def check_certificate(cert: dict, depth: int, jets: int) -> int:
    """Passed, no regular multiplier, one nullspace dimension; returns it."""
    dims = cert.get("nullspace_dims")
    if cert.get("depth") != depth or not isinstance(dims, list) or len(dims) != jets:
        raise CheckError(f"certificate covers {dims!r} at depth {cert.get('depth')}, "
                         f"expected {jets} jets at depth {depth}")
    det = cert.get("max_normalized_det")
    if cert.get("passed") is not True or not isinstance(det, float) or not det < CERT_DET_TOL:
        raise CheckError(f"certificate failed: max_normalized_det {det}")
    if len(set(dims)) != 1:
        raise CheckError(f"nullspace dimension varies across jets: {sorted(set(dims))}")
    return dims[0]


def check_multipliers(cond: dict, jets: int) -> None:
    worst = max(cond.get(k, math.inf) for k in ("gdot_symmetry", "nabla_condition", "phi_condition"))
    if cond.get("n_jets") != jets or cond.get("passed") is not True or not worst < MULTIPLIER_TOL:
        raise CheckError(f"multiplier conditions fail: worst residual {worst}")
    det = cond.get("min_abs_det")
    if not isinstance(det, float) or not det > 0.0:
        raise CheckError(f"closed-form multiplier is not regular: min |det| {det}")


def check_helmholtz(report: dict, depth: int, jets: int, exit_code: int) -> int:
    if report.get("jets") != jets:
        raise CheckError(f"report covers {report.get('jets')} jets, expected {jets}")
    check_multipliers(report.get("multiplier_conditions", {}), jets)
    dim = check_certificate(report.get("certificate", {}), depth, jets)
    if exit_code != 0:
        raise CheckError(f"helmholtz-check passed but exited {exit_code}")
    return dim


def check_tower_monotone(dims: dict[int, int]) -> None:
    """More algebraic conditions can only shrink the nullspace."""
    depths = sorted(dims)
    for lo, hi in zip(depths, depths[1:]):
        if dims[hi] > dims[lo]:
            raise CheckError(f"nullspace dimension grows from {dims[lo]} at depth {lo} "
                             f"to {dims[hi]} at depth {hi}")


def check_pontryagin(report: dict, kind: str, samples: int, exit_code: int | None) -> int:
    """Two-route agreement on at least one evaluated point; returns samples."""
    if report.get("status") == "skipped":
        raise CheckError("pontryagin check skipped on a constant-measure system")
    used = report.get("evaluated")
    if report.get("kind") != kind or report.get("samples") != samples:
        raise CheckError("pontryagin report does not describe the command that ran")
    if not isinstance(used, int) or not 1 <= used <= samples:
        raise CheckError(f"pontryagin check evaluated {used} of {samples} points")
    dev = report.get("max_hamiltonian_deviation")
    grad = report.get("max_stationarity_norm")
    if not (isinstance(dev, float) and dev < PONTRYAGIN_DEV_TOL
            and isinstance(grad, float) and grad < PONTRYAGIN_GRAD_TOL):
        raise CheckError(f"routes disagree: deviation {dev}, stationarity {grad}")
    if report.get("passed") is not True or exit_code not in (0, None):
        raise CheckError(f"verdict {report.get('passed')} / exit {exit_code}")
    return samples


def check_certify(report: dict, system: Builtin, depth: int, exit_code: int) -> None:
    """Every sub-check of ``certify --check all`` against the closed forms."""
    checks = {c.get("name"): c for c in report.get("checks", [])}
    constant = system.measure_is_constant()
    measure = checks.get("invariant-measure", {}).get("details", {})
    if measure.get("constant") is not constant:
        raise CheckError(f"measure constancy {measure.get('constant')}, closed form says {constant}")
    if not measure.get("max_residual", math.inf) < MEASURE_RESIDUAL_TOL:
        raise CheckError(f"measure PDE residual {measure.get('max_residual')}")
    cert = checks.get("first-kind-singularity-certificate", {}).get("details", {})
    jets = len(cert.get("nullspace_dims", ()))
    check_certificate(cert, depth, jets)
    check_multipliers(checks.get("multiplier-conditions", {}).get("details", {}), jets)
    g1 = checks.get("optimal-control-g1", {}).get("details", {})
    check_pontryagin(g1, "g1", g1.get("samples", -1), None)
    suite = checks.get("second-kind-suite", {})
    if not constant:
        if suite.get("status") != "skipped":
            raise CheckError("second-kind suite ran on a non-constant measure")
    else:
        details = suite.get("details", {})
        check_multipliers(details.get("multiplier_conditions", {}),
                          details.get("multiplier_conditions", {}).get("n_jets", -1))
        g2 = details.get("optimal_control_g2", {})
        check_pontryagin(g2, "g2", g2.get("samples", -1), None)
    statuses = [c.get("status") for c in checks.values()]
    if any(s == "fail" for s in statuses) or exit_code != 0:
        raise CheckError(f"certify statuses {statuses}, exit {exit_code}")
