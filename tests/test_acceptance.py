"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is fixed here, not computed.  Random sampling is seeded and
the integration grids are deterministic, so the suite is reproducible
bit-for-bit on IEEE-754 doubles.
"""

import math
import time
from random import Random

import numpy as np

from hamiltonize import (
    IntegratorConfig,
    Jet,
    MultiplierField,
    PhaseState,
    builtin_system,
    compare,
    disk_closed_form_state,
    first_associated,
    hamiltonian_value,
    helmholtz_residuals,
    hessian,
    integrate,
    lagrangian_model,
    legendre,
    measure_pde_residual,
    optimal_controls,
    optimal_hamiltonian_value,
    phase_constraint_residual,
    second_associated,
    singularity_certificate,
)
from hamiltonize.errors import SingularVelocityError
from hamiltonize.pontryagin import MODEL_KINDS
from hamiltonize.sampling import generic_jets, generic_r1, phase_points
from hamiltonize.systems import nh_columns, nh_state_from_jet, nonholonomic_ode
from hamiltonize.variational import euler_lagrange_ode, hamilton_ode, phase_columns

SYSTEMS = ("free_particle", "knife_edge", "vertical_disk")
SEED = 20250810

# Step for the formulation-equivalence runs.  The decoupled coefficients of
# the knife edge and disk have removable poles every pi/2 in r1; a step that
# divides pi/2 keeps every crossing at the same position within its step, and
# the start angle below centres them between stage points, which keeps the
# local integration error at the crossings three decades under tolerance.
EQ_STEP = math.pi / 8192.0


def aligned_start(target: float) -> float:
    half = EQ_STEP / 2.0
    steps_to_crossing = round((math.pi / 2.0 - target) / half - 0.5)
    return math.pi / 2.0 - (steps_to_crossing + 0.5) * half


def verdict(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} [{detail}]")
    assert passed, f"criterion {num}: {detail}"


# --- 1: disk closed-form oracle ------------------------------------------------


def test_criterion_1_disk_closed_form_oracle():
    sys_ = builtin_system("vertical_disk")  # m = R = I = J = 1
    ics = sys_.on_constraint((0.0, 0.0, 0.0, 0.0), 1.0, 2.0)  # u_phi=1, u_theta=2
    cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 10.0))
    t0 = time.perf_counter()
    traj = integrate(nonholonomic_ode(sys_), nh_state_from_jet(sys_, ics), cfg,
                     nh_columns(sys_), "nonholonomic")
    runtime = time.perf_counter() - t0
    exact = np.array([disk_closed_form_state(1.0, ics, float(t))[:4] for t in traj.times])
    sup = float(np.max(np.abs(traj.states[:, :4] - exact)))
    print(f"criterion 1 runtime={runtime:.2f}s")  # wall clock: outside the ACCEPTANCE line
    verdict(1, "disk closed-form oracle", sup < 1e-6 and runtime < 1.0, f"sup={sup:.2e}")


# --- 2: Hamiltonization equivalence ----------------------------------------------


def formulation_runs(sys_, jet0, h, ham_kind):
    cfg = IntegratorConfig(h=h, t_span=(0.0, 5.0))
    names = sys_.names
    runs = {}
    runs["nonholonomic"] = integrate(
        nonholonomic_ode(sys_), nh_state_from_jet(sys_, jet0), cfg, nh_columns(sys_),
        "nonholonomic")
    lmodel = lagrangian_model(sys_, "first")
    runs["euler-lagrange"] = integrate(
        euler_lagrange_ode(lmodel), np.array(jet0.q + jet0.qdot), cfg,
        names + tuple("d" + n for n in names), "euler-lagrange")
    hmodel = lagrangian_model(sys_, ham_kind)
    ps0 = legendre(lagrangian_model(sys_, ham_kind), jet0)
    runs["hamiltonian"] = integrate(
        hamilton_ode(hmodel), np.array(ps0.q + ps0.p), cfg, phase_columns(sys_),
        "hamiltonian")
    return runs


def pairwise_sup(runs, names):
    keys = list(runs)
    worst = 0.0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            worst = max(worst, compare(runs[keys[i]], runs[keys[j]], names).sup)
    return worst


def test_criterion_2_hamiltonization_equivalence():
    cases = [
        ("free_particle", Jet((1.0, 0.0, 0.0), (1.0, 1.0, -1.0)), 1e-3, "first"),
        ("knife_edge", None, EQ_STEP, "first"),
        ("vertical_disk", None, EQ_STEP, "first"),
        ("vertical_disk", None, EQ_STEP, "second"),
    ]
    details = []
    worst_overall = 0.0
    for name, jet0, h, ham_kind in cases:
        sys_ = builtin_system(name)
        if jet0 is None:
            start = aligned_start(0.25 if name == "knife_edge" else 0.2)
            jet0 = sys_.on_constraint((start,) + (0.0,) * (sys_.n - 1), 1.0, 0.5)
        assert abs(jet0.r1dot) == 1.0
        worst = pairwise_sup(formulation_runs(sys_, jet0, h, ham_kind), sys_.names)
        worst_overall = max(worst_overall, worst)
        details.append(f"{name}/{ham_kind}={worst:.2e}")
    verdict(2, "Hamiltonization equivalence", worst_overall < 1e-6, ", ".join(details))


# --- 3: negative result certified --------------------------------------------------


def test_criterion_3_singularity_certificates():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in SYSTEMS:
        sys_ = builtin_system(name)
        report = singularity_certificate(
            first_associated(sys_), generic_jets(sys_, 50, Random(SEED)), depth=3)
        ok = ok and report.passed and report.max_normalized_det < 1e-10
        details.append(f"{name}: dims={set(report.nullspace_dims)} "
                       f"max|det|={report.max_normalized_det:.1e}")
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 10.0
    print(f"criterion 3 runtime={runtime:.2f}s")  # wall clock: outside the ACCEPTANCE line
    verdict(3, "no regular multiplier for the first kind", ok, "; ".join(details))


# --- 4: Helmholtz positive suite ------------------------------------------------------


def test_criterion_4_helmholtz_positive_suite():
    cases = [
        ("free_particle", "first", (1.0, 1.0)),
        ("knife_edge", "first", None),       # C = 1/sqrt(m)
        ("vertical_disk", "first", None),    # C = 1
        ("vertical_disk", "second", None),   # a = -J/sqrt(I + m R^2)
    ]
    ok = True
    details = []
    for name, kind, coeffs in cases:
        sys_ = builtin_system(name)
        sode = second_associated(sys_)
        model = lagrangian_model(sys_, kind, coeffs)
        jets = generic_jets(sys_, 100, Random(SEED))
        report = helmholtz_residuals(
            sode, MultiplierField(lambda j, m=model: hessian(m, j)), jets)
        worst = max(report.gdot_symmetry, report.nabla_condition, report.phi_condition)
        ok = ok and report.passed and report.min_abs_det > 1e-6  # regularity
        details.append(f"{name}/{kind}: max={worst:.1e} |det|min={report.min_abs_det:.1e}")
    verdict(4, "multiplier conditions for the closed-form Lagrangians", ok,
            "; ".join(details))


# --- 5: optimal-control consistency ------------------------------------------------------


def consistent_phase_points(sys_, count, stream):
    """Seeded phase points admitting non-degenerate optimal controls.

    Points whose optimal drive falls in the excluded boundary region
    |u1| < 0.05 are resampled; behaviour near u1 = 0 is out of scope.
    """
    out = []
    model = lagrangian_model(sys_, MODEL_KINDS["g1"])
    while len(out) < count:
        (ps,) = phase_points(sys_, 1, stream)
        try:
            u_star = optimal_controls(model, ps)
        except SingularVelocityError:
            continue
        if abs(u_star[0]) >= 0.05:
            out.append(ps)
    return out


def test_criterion_5_pontryagin_consistency():
    ok = True
    details = []
    for name in SYSTEMS:
        sys_ = builtin_system(name)
        model = lagrangian_model(sys_, "first")
        cmodel = lagrangian_model(sys_, MODEL_KINDS["g1"])
        worst = 0.0
        for ps in consistent_phase_points(sys_, 1000, Random(SEED)):
            dev = abs(optimal_hamiltonian_value(cmodel, ps)
                      - hamiltonian_value(model, ps))
            worst = max(worst, dev)
        ok = ok and worst < 1e-10
        details.append(f"{name}/g1={worst:.1e}")
    disk = builtin_system("vertical_disk")
    model2 = lagrangian_model(disk, "second")
    cmodel2 = lagrangian_model(disk, MODEL_KINDS["g2"])
    worst = 0.0
    for ps in consistent_phase_points(disk, 1000, Random(SEED)):
        dev = abs(optimal_hamiltonian_value(cmodel2, ps)
                  - hamiltonian_value(model2, ps))
        worst = max(worst, dev)
    ok = ok and worst < 1e-10
    details.append(f"vertical_disk/g2={worst:.1e}")
    verdict(5, "optimal Hamiltonians equal canonical ones", ok, ", ".join(details))


# --- 6: invariant-measure checks ------------------------------------------------------------


def test_criterion_6_invariant_measure():
    ok = True
    details = []
    for name in SYSTEMS:
        sys_ = builtin_system(name)
        stream = Random(SEED)
        worst = 0.0
        for r1 in generic_r1(sys_, 100, stream):
            res = measure_pde_residual(sys_, r1)
            worst = max(worst, abs(res[0]), abs(res[1]))
        ok = ok and worst < 1e-8
        details.append(f"{name}: pde={worst:.1e}")
    # closed forms: ~ 1/sqrt(1+x^2), ~ cos(phi), constant
    fp, ke, vd = (builtin_system(n) for n in SYSTEMS)
    for x in (-0.8, 0.3, 1.4):
        ok = ok and abs(fp.measure_fn(x) * math.sqrt(1 + x * x) - 1.0) < 1e-12
    for phi in (-0.9, 0.2, 1.1):
        ok = ok and abs(ke.measure_fn(phi) / math.cos(phi) - 1.0) < 1e-12
    for phi in (-2.0, 0.5, 4.0):
        ok = ok and abs(vd.measure_fn(phi) - 1 / math.sqrt(2)) < 1e-15
    verdict(6, "invariant measure", ok, "; ".join(details) + "; closed forms OK")


# --- 7: conservation and constraint drift -----------------------------------------------------


def test_criterion_7_conservation_drift():
    cases = [(name, "first") for name in SYSTEMS] + [("vertical_disk", "second")]
    ok = True
    details = []
    for name, kind in cases:
        sys_ = builtin_system(name)
        start = {"free_particle": 1.0, "knife_edge": 0.25, "vertical_disk": 0.2}[name]
        jet0 = sys_.on_constraint((start,) + (0.0,) * (sys_.n - 1), 1.0, 0.5)
        hmodel = lagrangian_model(sys_, kind)
        ps0 = legendre(lagrangian_model(sys_, kind), jet0)
        cfg = IntegratorConfig(h=1e-3, t_span=(0.0, 10.0))
        traj = integrate(hamilton_ode(hmodel), np.array(ps0.q + ps0.p), cfg,
                         phase_columns(sys_), "hamiltonian")
        n = sys_.n
        e0 = hamiltonian_value(hmodel, ps0)
        energy_drift = 0.0
        constraint_drift = 0.0
        for row in traj.states[::20]:
            ps = PhaseState(tuple(row[:n]), tuple(row[n:]))
            energy_drift = max(energy_drift, abs(hamiltonian_value(hmodel, ps) - e0))
            constraint_drift = max(
                constraint_drift, max(abs(r) for r in phase_constraint_residual(hmodel, ps)))
        rel = energy_drift / abs(e0)
        ok = ok and rel < 1e-8 and constraint_drift < 1e-6
        details.append(f"{name}/{kind}: dE/E={rel:.1e} dC={constraint_drift:.1e}")
    verdict(7, "energy and constraint drift along canonical flows", ok, "; ".join(details))


# --- 8: integrator order -----------------------------------------------------------------------


def test_criterion_8_integrator_order():
    sys_ = builtin_system("free_particle")
    jet0 = sys_.on_constraint((0.5, 0.0, 0.0), 1.0, 2.0)
    y0 = nh_state_from_jet(sys_, jet0)
    ends = {}
    for h in (0.2, 0.1, 0.05):
        cfg = IntegratorConfig(h=h, t_span=(0.0, 2.0))
        ends[h] = integrate(nonholonomic_ode(sys_), y0, cfg, nh_columns(sys_),
                            "nonholonomic").states[-1]
    e1 = np.max(np.abs(ends[0.2] - ends[0.1]))
    e2 = np.max(np.abs(ends[0.1] - ends[0.05]))
    order = math.log2(e1 / e2)
    verdict(8, "observed integrator order", order >= 3.9, f"order={order:.3f}")
