"""Self-test of the output checkers.

Runs a few short real commands, then hands every checker the real output,
which it must accept, and one corrupted copy, which it must reject.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

import checks
from checks import BUILTINS, CheckError


def _csv(out: str, name: str) -> checks.Csv:
    return checks.load_csv(os.path.join(out, name + ".csv"))


def _report(out: str, name: str) -> dict:
    return checks.load_report(os.path.join(out, name + ".json"))


def _modified(csv: checks.Csv, edit) -> checks.Csv:
    data = csv.data.copy()
    edit(data, csv.columns)
    return checks.Csv(csv.columns, data)


def _scale_velocities(data, columns):
    row = len(data) // 2
    for i, name in enumerate(columns):
        if name.startswith("d"):
            data[row, 1 + i] *= 1.0 + 1e-3


def _rotate_contact_velocity(data, columns):
    """Turns (x', y') by 1 mrad: same kinetic energy, constraint broken."""
    row = len(data) // 2
    ix, iy = 1 + columns.index("dx"), 1 + columns.index("dy")
    c, s = np.cos(1e-3), np.sin(1e-3)
    vx, vy = data[row, ix], data[row, iy]
    data[row, ix], data[row, iy] = c * vx - s * vy, s * vx + c * vy


def _perturb(column: str, delta: float):
    def edit(data, columns):
        data[len(data) // 2, 1 + columns.index(column)] += delta
    return edit


def _with_constant(text: str, constant: str) -> str:
    payload = json.loads(text)
    payload["multiplier_conditions"]["min_abs_det"] = "@@"
    return json.dumps(payload).replace('"@@"', constant)


def run_all(run_command, work: str) -> bool:
    """``run_command(out_dir, argv)`` runs one CLI command into ``out_dir``."""
    disk = BUILTINS["vertical_disk"]
    particle = BUILTINS["free_particle"]
    outs = {}
    commands = {
        "simulate": ["simulate", "--system", "vertical_disk", "--formulation", "sode",
                     "--t", "1.0", "--ic", disk.ic_flag()],
        "compare": ["compare", "--system", "vertical_disk", "--t", "1.0",
                    "--formulation", "nonholonomic,closed-form"],
        "certify": ["certify", "--system", "free_particle", "--samples", "5"],
        "helmholtz3": ["helmholtz-check", "--system", "free_particle", "--samples", "5",
                       "--depth", "3"],
        "helmholtz4": ["helmholtz-check", "--system", "free_particle", "--samples", "5",
                       "--depth", "4"],
        "pontryagin": ["pontryagin-check", "--system", "free_particle", "--samples", "50"],
    }
    for name, argv in commands.items():
        outs[name] = os.path.join(work, name)
        rec = run_command(outs[name], argv)
        if rec.error or rec.exit != 0:
            print(f"self-test: {' '.join(argv)} did not run: {rec.error or rec.exit}")
            return False

    sim = _csv(outs["simulate"], "vertical_disk_sode")
    sim_report = _report(outs["simulate"], "vertical_disk_sode")
    q0, r1dot, r2dot = checks.ic_from_flag(disk)
    cmp_report = _report(outs["compare"], "vertical_disk_compare")
    cmp_csvs = {f: _csv(outs["compare"], f"vertical_disk_{f.replace('-', '_')}")
                for f in ("nonholonomic", "closed-form")}
    cert_report = _report(outs["certify"], "free_particle_certify")
    helm_path = os.path.join(outs["helmholtz3"], "free_particle_helmholtz.json")
    with open(helm_path, encoding="utf-8") as fh:
        helm_text = fh.read()
    helm3 = json.loads(helm_text)
    helm4 = _report(outs["helmholtz4"], "free_particle_helmholtz")
    pont = _report(outs["pontryagin"], "free_particle_pontryagin")

    def corrupt_report(report, path, value):
        bad = copy.deepcopy(report)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return bad

    def certify_flipped():
        bad = copy.deepcopy(cert_report)
        for check in bad["checks"]:
            if check["name"] == "invariant-measure":
                check["details"]["constant"] = True
        return bad

    def strict(constant):
        path = os.path.join(work, f"report_{constant}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_with_constant(helm_text, constant))
        return lambda: checks.load_report(path)

    dims3 = checks.check_helmholtz(helm3, 3, 5, 0)
    dims4 = checks.check_helmholtz(helm4, 4, 5, 0)
    cases = [
        ("closed form: perturbed position",
         lambda c: checks.check_closed_form(c, disk, q0, r1dot, r2dot),
         sim, _modified(sim, _perturb("x", 1e-3))),
        ("kinetic energy: scaled velocities",
         lambda c: checks.check_energy_and_constraint(c, disk),
         sim, _modified(sim, _scale_velocities)),
        ("constraint residual: rotated contact velocity",
         lambda c: checks.check_energy_and_constraint(c, disk),
         sim, _modified(sim, _rotate_contact_velocity)),
        ("grid: last row dropped", lambda c: checks.check_grid(c, 1.0, 1e-3),
         sim, checks.Csv(sim.columns, sim.data[:-1])),
        ("simulate: exit code", lambda code: checks.check_simulate(
            sim_report, sim, disk, "sode", 1.0, 1e-3, code), 0, 2),
        ("compare: perturbed CSV value",
         lambda c: checks.check_compare(cmp_report, c, disk, 1.0, 1e-3, 0),
         cmp_csvs, {**cmp_csvs, "closed-form": _modified(cmp_csvs["closed-form"],
                                                         _perturb("y", 1e-4))}),
        ("compare: exit code disagrees with verdict",
         lambda code: checks.check_compare(cmp_report, cmp_csvs, disk, 1.0, 1e-3, code), 0, 3),
        ("strict JSON: Infinity", lambda load: load(), lambda: None, strict("Infinity")),
        ("strict JSON: NaN", lambda load: load(), lambda: None, strict("NaN")),
        ("measure constancy: flipped", lambda r: checks.check_certify(r, particle, 3, 0),
         cert_report, certify_flipped()),
        ("certificate: two nullspace dimensions",
         lambda r: checks.check_helmholtz(r, 3, 5, 0), helm3,
         corrupt_report(helm3, ("certificate", "nullspace_dims", 0), dims3 + 1)),
        ("certificate: regular multiplier",
         lambda r: checks.check_helmholtz(r, 3, 5, 0), helm3,
         corrupt_report(helm3, ("certificate", "max_normalized_det"), 1e-9)),
        ("tower: nullspace grows with depth", checks.check_tower_monotone,
         {3: dims3, 4: dims4}, {3: dims3, 4: dims3 + 1}),
        ("pontryagin: zero points evaluated",
         lambda r: checks.check_pontryagin(r, "g1", 50, 0), pont,
         corrupt_report(pont, ("evaluated",), 0)),
        ("pontryagin: exit code disagrees with verdict",
         lambda code: checks.check_pontryagin(pont, "g1", 50, code), 0, 3),
    ]
    ok = True
    for name, checker, clean, corrupted in cases:
        try:
            checker(clean)
        except CheckError as exc:
            print(f"self-test FAIL {name}: rejected the real output ({exc})")
            ok = False
            continue
        try:
            checker(corrupted)
        except CheckError as exc:
            print(f"self-test ok   {name}: {exc}")
        else:
            print(f"self-test FAIL {name}: accepted the corrupted output")
            ok = False
    return ok
