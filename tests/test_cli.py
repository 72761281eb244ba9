import json
import math
import os

import pytest

from hamiltonize import cli
from hamiltonize.cli import main
from hamiltonize.systems import builtin_system, load_system_file
from hamiltonize.variational import LagrangianModel, default_coefficients


def run_cli(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def load_report(tmp_path, name):
    with open(os.path.join(str(tmp_path), name)) as fh:
        return json.load(fh)


# --- simulate ------------------------------------------------------------------


def test_simulate_writes_csv_and_sidecar(tmp_path):
    code = run_cli(
        ["simulate", "--system", "vertical_disk", "--formulation", "nonholonomic",
         "--t", "2.0"],
        tmp_path,
    )
    assert code == 0
    csv_path = tmp_path / "vertical_disk_nonholonomic.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,phi,theta,x,y,dphi,dtheta"
    sidecar = load_report(tmp_path, "vertical_disk_nonholonomic.json")
    assert sidecar["constraint_drift"] == 0.0
    assert sidecar["version"]
    assert sidecar["seed"] == 0


def test_simulate_hamiltonian_reports_drift(tmp_path):
    code = run_cli(
        ["simulate", "--system", "free_particle", "--formulation", "hamiltonian",
         "--t", "5.0", "--ic-on-constraint"],
        tmp_path,
    )
    assert code == 0
    sidecar = load_report(tmp_path, "free_particle_hamiltonian.json")
    assert sidecar["energy_drift"] < 1e-8
    assert sidecar["constraint_drift"] < 1e-6


def test_simulate_rejects_bad_expression(tmp_path):
    spec = tmp_path / "bad.system"
    spec.write_text("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1 +\nnames = a,b,c\n")
    code = run_cli(["simulate", "--spec", str(spec)], tmp_path)
    assert code == 1


def test_simulate_custom_spec_file(tmp_path):
    spec = tmp_path / "disk.system"
    spec.write_text(
        "I1 = 1.0\nI2 = 1.0\nI_alpha = 1.0, 1.0\n"
        "A_alpha = -cos(r1), -sin(r1)\nnames = phi, theta, x, y\n"
    )
    code = run_cli(
        ["simulate", "--spec", str(spec), "--formulation", "nonholonomic", "--t", "1.0"],
        tmp_path,
    )
    assert code == 0


def test_simulate_ic_overrides(tmp_path):
    code = run_cli(
        ["simulate", "--system", "free_particle", "--formulation", "nonholonomic",
         "--t", "0.5", "--ic", "x=2.0,dx=0.5"],
        tmp_path,
    )
    assert code == 0
    first_row = (tmp_path / "free_particle_nonholonomic.csv").read_text().splitlines()[1]
    assert first_row.startswith("0,2,")


def test_simulate_model_coefficient_overrides(tmp_path):
    code = run_cli(
        ["simulate", "--system", "free_particle", "--formulation", "hamiltonian",
         "--t", "1.0", "--params", "C2=2.0,C3=-1.0"],
        tmp_path,
    )
    assert code == 0
    sidecar = load_report(tmp_path, "free_particle_hamiltonian.json")
    assert sidecar["constraint_drift"] < 1e-6


def test_simulate_unknown_system_exit_1(tmp_path):
    assert run_cli(["simulate", "--system", "tippe_top"], tmp_path) == 1


def test_simulate_closed_form_requires_disk(tmp_path):
    assert run_cli(
        ["simulate", "--system", "knife_edge", "--formulation", "closed-form"], tmp_path
    ) == 1


def test_spec_file_named_like_builtin_gets_no_presets(tmp_path):
    """A spec file called vertical_disk.txt is not the built-in disk: no
    closed-form trajectory and no preset model coefficients."""
    spec = tmp_path / "vertical_disk.txt"
    spec.write_text(
        "I1 = 1.0\nI2 = 1.0\nI_alpha = 1.0, 1.0\n"
        "A_alpha = cos(r1), sin(r1)\nnames = phi, theta, x, y\n"
    )
    assert run_cli(
        ["simulate", "--spec", str(spec), "--formulation", "closed-form", "--t", "1.0"],
        tmp_path,
    ) == 1
    sys_ = load_system_file(str(spec))
    assert default_coefficients(sys_, "first") == (1.0, 1.0, 1.0)
    assert default_coefficients(sys_, "second") == (1.0, 1.0)


def test_simulate_grid_stopping_short_exit_1(tmp_path):
    assert run_cli(
        ["simulate", "--system", "free_particle", "--t", "1", "--h", "0.3"], tmp_path
    ) == 1


def test_simulate_sode_second_aborts_on_exact_pole(tmp_path):
    """A run that evaluates a decoupled coefficient at a vanishing A aborts
    with exit code 2 (runtime domain error)."""
    code = run_cli(
        ["simulate", "--system", "vertical_disk", "--formulation", "sode",
         "--sode", "second", "--t", "1.0", "--ic", "phi=0.0"],
        tmp_path,
    )
    assert code == 2


def test_simulate_non_finite_state_exit_2(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--system", "free_particle", "--formulation", "sode",
         "--ic", "dx=1e200,dy=1e200", "--t", "0.002"],
        tmp_path,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1
    assert not (tmp_path / "free_particle_sode.csv").exists()


def test_simulate_unallocatable_grid_exit_2(tmp_path, capsys):
    """1e18 steps: the first grid allocation fails at once."""
    assert run_cli(["simulate", "--t", "1e9", "--h", "1e-9"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1


def _spec_directory(tmp_path):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    return ["certify", "--spec", str(spec_dir)]


def _non_utf8_spec(tmp_path):
    spec = tmp_path / "latin1.system"
    spec.write_bytes(b"# caf\xe9\nI1 = 1\n")
    return ["certify", "--spec", str(spec)]


def _nan_inertia_spec(tmp_path):
    spec = tmp_path / "nan.system"
    spec.write_text("I1 = nan\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = x,y,z\n")
    return ["simulate", "--spec", str(spec), "--t", "0.01"]


# (argv builder, documented exit code, part of the message): each bad input
# ends in one line on stderr, never a traceback
BAD_INPUTS = {
    "t-nan": (lambda tmp_path: ["simulate", "--t", "nan"], 1, "grid must be finite"),
    "t-inf": (lambda tmp_path: ["simulate", "--t", "inf"], 1, "grid must be finite"),
    "h-nan": (lambda tmp_path: ["simulate", "--h", "nan"], 1, "grid must be finite"),
    "h-inf": (lambda tmp_path: ["simulate", "--h", "inf", "--t", "1"], 1,
              "grid must be finite"),
    "spec-directory": (_spec_directory, 1, "cannot read spec file"),
    "spec-not-utf8": (_non_utf8_spec, 1, "cannot read spec file"),
    # the r2 weight cos(phi)/sqrt(m) vanishes where A = -tan(phi) has its pole
    "knife-edge-r2-weight-zero": (
        lambda tmp_path: ["simulate", "--system", "knife_edge", "--formulation",
                          "lagrangian", "--ic", f"phi={math.pi / 2!r}", "--t", "0.01"],
        2, "velocity weight 0 vanishes"),
    # r1' cubed underflows to 0 in the Hessian: a float division by zero
    "lagrangian-r1dot-underflow": (
        lambda tmp_path: ["simulate", "--system", "free_particle", "--formulation",
                          "lagrangian", "--ic", "dx=1e-110", "--t", "0.01"],
        2, "integration aborted at t=0.0: ZeroDivisionError"),
    # model constants reach the optimal-control check
    "pontryagin-check-coefficient-out-of-range": (
        lambda tmp_path: ["pontryagin-check", "--system", "free_particle",
                          "--params", "C9=1", "--samples", "20"],
        1, "coefficient C9 out of range"),
    "certify-pontryagin-coefficient-out-of-range": (
        lambda tmp_path: ["certify", "--system", "free_particle", "--check", "pontryagin",
                          "--params", "C9=1", "--samples", "20"],
        1, "coefficient C9 out of range"),
    # non-finite inertias, parameters and model constants
    "disk-mass-nan": (
        lambda tmp_path: ["simulate", "--system", "vertical_disk", "--params", "m=nan",
                          "--t", "0.01"],
        1, "parameter m must be finite and positive"),
    "model-coefficient-inf": (
        lambda tmp_path: ["simulate", "--system", "free_particle", "--formulation",
                          "lagrangian", "--params", "C2=inf", "--t", "0.01"],
        1, "model coefficients must be finite"),
    "knife-edge-inertia-inf": (
        lambda tmp_path: ["simulate", "--system", "knife_edge", "--params", "J=inf",
                          "--t", "0.01"],
        1, "parameter J must be finite and positive"),
    "spec-inertia-nan": (_nan_inertia_spec, 1, "inertias must be finite"),
    # r1' = 1e-160 squares to a subnormal: p_1 overflows to -inf
    "hamiltonian-legendre-overflow": (
        lambda tmp_path: ["simulate", "--system", "free_particle", "--formulation",
                          "hamiltonian", "--ic", "dx=1e-160", "--t", "0.01"],
        1, "Legendre image of the initial jet q=[1.0, 0.0, 0.0], qdot=[1e-160,"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code(case, tmp_path, capsys):
    build_argv, expected, message = BAD_INPUTS[case]
    try:
        code = run_cli(build_argv(tmp_path), tmp_path)
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    err = capsys.readouterr().err
    assert code == expected
    prefix = "error:" if expected == 1 else "runtime error:"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert message in err and "A[-1]" not in err


def test_superscript_params_key_is_ignored_like_unknown_keys(tmp_path, capsys):
    """C² is no coefficient key (int() rejects the superscript): it is
    ignored like any other unknown --params key."""
    base = ["simulate", "--system", "free_particle", "--formulation", "lagrangian",
            "--t", "0.01"]
    csvs = {}
    for extra in ([], ["--params", "C²=1"], ["--params", "foo=1"]):
        out = tmp_path / str(len(csvs))
        try:
            code = main(base + extra + ["--out", str(out)])
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
        assert code == 0 and capsys.readouterr().err == ""
        csvs[tuple(extra)] = (out / "free_particle_lagrangian.csv").read_bytes()
    assert len(set(csvs.values())) == 1


def test_internal_error_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    def broken(manifest):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
    try:
        code = run_cli(["simulate"], tmp_path)
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert code == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: first line second line\n"


# --- compare --------------------------------------------------------------------


def test_compare_disk_all_formulations(tmp_path):
    code = run_cli(
        ["compare", "--system", "vertical_disk",
         "--formulation", "nonholonomic,hamiltonian,closed-form",
         "--t", "2.0", "--tol", "1e-5"],
        tmp_path,
    )
    assert code == 0
    report = load_report(tmp_path, "vertical_disk_compare.json")
    assert report["passed"]
    assert report["max_sup"] < 1e-5
    assert len(report["pairs"]) == 3


def test_compare_needs_two_formulations(tmp_path):
    assert run_cli(
        ["compare", "--system", "free_particle", "--formulation", "nonholonomic"],
        tmp_path,
    ) == 1


def test_compare_singular_velocity_exit_1(tmp_path):
    code = run_cli(
        ["compare", "--system", "free_particle",
         "--formulation", "nonholonomic,hamiltonian", "--ic", "dx=0.0"],
        tmp_path,
    )
    assert code == 1


def test_compare_knife_edge_nonholonomic_vs_hamiltonian(tmp_path):
    code = run_cli(
        ["compare", "--system", "knife_edge",
         "--formulation", "nonholonomic,hamiltonian",
         "--t", "1.0", "--tol", "1e-6"],
        tmp_path,
    )
    assert code == 0


# --- checks ------------------------------------------------------------------------


def test_certify_free_particle(tmp_path):
    assert run_cli(["certify", "--system", "free_particle"], tmp_path) == 0
    report = load_report(tmp_path, "free_particle_certify.json")
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["first-kind-singularity-certificate"] == "pass"
    assert by_name["multiplier-conditions"] == "pass"
    assert by_name["optimal-control-g1"] == "pass"
    assert by_name["second-kind-suite"] == "skipped"


def test_certify_disk_includes_second_kind(tmp_path):
    assert run_cli(["certify", "--system", "vertical_disk"], tmp_path) == 0
    report = load_report(tmp_path, "vertical_disk_certify.json")
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["second-kind-suite"] == "pass"


def test_certify_g2_skipped_for_knife_edge(tmp_path):
    assert run_cli(["certify", "--system", "knife_edge", "--check", "g2"], tmp_path) == 0
    report = load_report(tmp_path, "knife_edge_certify.json")
    (check,) = report["checks"]
    assert check["status"] == "skipped"
    assert check["reason"] == "non-constant invariant measure"


def test_helmholtz_check_report_shape(tmp_path):
    assert run_cli(
        ["helmholtz-check", "--system", "free_particle", "--samples", "20"], tmp_path
    ) == 0
    report = load_report(tmp_path, "free_particle_helmholtz.json")
    assert report["certificate"]["passed"]
    assert set(report["certificate"]["nullspace_dims"]) == {2}
    assert report["multiplier_conditions"]["phi_condition"] < 1e-8
    assert report["seed"] == 0


def test_negative_samples_exit_1(tmp_path):
    assert run_cli(
        ["helmholtz-check", "--system", "free_particle", "--samples", "-3"], tmp_path
    ) == 1


def test_zero_samples_selects_default(tmp_path):
    assert run_cli(
        ["measure-check", "--system", "free_particle", "--samples", "0"], tmp_path
    ) == 0
    assert load_report(tmp_path, "free_particle_measure.json")["samples"] == 100


def test_certify_depth_0_exit_1(tmp_path):
    assert run_cli(["certify", "--system", "free_particle", "--depth", "0"], tmp_path) == 1


def test_non_finite_report_is_runtime_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "_measure_payload", lambda sys_, manifest: {"max_residual": float("nan"),
                                                        "passed": True})
    assert run_cli(["measure-check", "--system", "free_particle"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1
    assert not (tmp_path / "free_particle_measure.json").exists()


def test_pontryagin_check(tmp_path):
    assert run_cli(
        ["pontryagin-check", "--system", "vertical_disk", "--kind", "g2",
         "--samples", "100", "--seed", "3"],
        tmp_path,
    ) == 0
    report = load_report(tmp_path, "vertical_disk_pontryagin.json")
    assert report["max_hamiltonian_deviation"] < 1e-10
    assert report["max_stationarity_norm"] < 1e-8


def test_pontryagin_check_builds_one_model_from_params(tmp_path, monkeypatch):
    """The check evaluates the one model it builds, with the --params
    constants; no other model is built while it runs."""
    built = []
    original = LagrangianModel.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(LagrangianModel, "__post_init__", counted)
    base = ["pontryagin-check", "--system", "free_particle", "--samples", "50", "--seed", "3"]
    assert run_cli(base, tmp_path) == 0
    assert [m.coefficients for m in built] == [(1.0, 1.0)]
    built.clear()
    assert run_cli(base + ["--params", "C2=2,C3=-0.5"], tmp_path) == 0
    assert built[-1].coefficients == (2.0, -0.5)
    assert len(built) == 2  # the preset that maps C2, C3 to their slots, then the model


def test_certify_g2_suite_checks_the_params_model(tmp_path, monkeypatch):
    """Both halves of the second-kind suite, multiplier conditions and
    optimal control, evaluate the model of the --params constants."""
    built = []
    original = LagrangianModel.__post_init__

    def recorded(self):
        built.append(self.coefficients)
        original(self)

    monkeypatch.setattr(LagrangianModel, "__post_init__", recorded)
    assert run_cli(["certify", "--system", "vertical_disk", "--check", "g2", "--samples", "20",
                    "--params", "a3=-0.7,a4=0.5"], tmp_path) == 0
    preset = default_coefficients(builtin_system("vertical_disk"), "second")
    assert built == [preset, (-0.7, 0.5)] * 2


def test_measure_check(tmp_path):
    assert run_cli(["measure-check", "--system", "knife_edge"], tmp_path) == 0
    report = load_report(tmp_path, "knife_edge_measure.json")
    assert report["passed"] and not report["constant"]


def test_certify_custom_constant_measure_system(tmp_path):
    """A non-builtin system with constant measure gets the full suite,
    including the second-kind checks with default coefficients."""
    spec_dir = tmp_path / "systems"
    spec_dir.mkdir()
    spec = spec_dir / "rotor.system"
    spec.write_text(
        "I1 = 1.0\nI2 = 2.0\nI_alpha = 3.0, 3.0\n"
        "A_alpha = 0.7*cos(r1), 0.7*sin(r1)\nnames = a, b, c, d\n"
    )
    assert run_cli(["certify", "--spec", str(spec), "--samples", "25"], tmp_path) == 0
    report = load_report(tmp_path, "rotor_certify.json")
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["first-kind-singularity-certificate"] == "pass"
    assert by_name["second-kind-suite"] == "pass"


def test_determinism_same_seed_same_report(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        assert main(["helmholtz-check", "--system", "knife_edge", "--samples", "10",
                     "--seed", "11", "--out", str(d)]) == 0
    a = (a_dir / "knife_edge_helmholtz.json").read_text()
    b = (b_dir / "knife_edge_helmholtz.json").read_text()
    assert a == b
