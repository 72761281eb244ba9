import json
import math
import os

import pytest

from hamiltonize import cli, expr
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


def test_hamiltonian_run_compiles_each_weight_once(tmp_path, monkeypatch):
    """The Legendre map, the canonical flow and the drift metrics of a
    Hamiltonian run read one compiled form of the weights E_b and E_b': no
    weight expression reaches a compiler twice."""
    handed = []
    compile_one, compile_table = expr.Expr.compile, expr.compile_table

    def one(self):
        handed.append(self)
        return compile_one(self)

    def table(exprs):
        exprs = tuple(exprs)
        handed.extend(exprs)
        return compile_table(exprs)

    monkeypatch.setattr(expr.Expr, "compile", one)
    monkeypatch.setattr(expr, "compile_table", table)
    assert run_cli(["simulate", "--system", "vertical_disk", "--formulation", "hamiltonian",
                    "--t", "0.01"], tmp_path) == 0
    weights = builtin_system("vertical_disk").exp_xi_exprs
    for e in weights + tuple(w.diff() for w in weights):
        assert sum(x is e for x in handed) == 1, e


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


def _names_spec(names):
    """A compare over a spec whose coordinates are named ``names``."""
    def build(tmp_path):
        spec = tmp_path / "names.system"
        spec.write_text(f"I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = {names}\n")
        return ["compare", "--spec", str(spec), "--formulation", "nonholonomic,sode",
                "--t", "0.5", "--ic", "x=0.7"]
    return build


def _spec_with_system_parameter(tmp_path):
    spec = tmp_path / "ok.system"
    spec.write_text("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\nnames = x,y,z\n")
    return ["simulate", "--spec", str(spec), "--params", "m=2", "--t", "0.01"]


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
    # the r2 weight cos(phi)/sqrt(m) vanishes where A = -tan(phi) has its pole;
    # the second associated system divides by it as the first Lagrangian does
    "knife-edge-r2-weight-zero": (
        lambda tmp_path: ["simulate", "--system", "knife_edge", "--formulation",
                          "lagrangian", "--ic", f"phi={math.pi / 2!r}", "--t", "0.01"],
        2, "velocity weight 0 vanishes"),
    "knife-edge-r2-weight-zero-sode-second": (
        lambda tmp_path: ["simulate", "--system", "knife_edge", "--formulation", "sode",
                          "--sode", "second", "--ic", f"phi={math.pi / 2!r}", "--t", "0.01"],
        2, "velocity weight 0 vanishes"),
    # coordinate names label CSV columns, report entries and --ic keys
    "spec-repeated-name": (_names_spec("x, x, z"), 1, "name 'x' labels more than one"),
    "spec-empty-name": (_names_spec("x, , z"), 1, "names must not be empty"),
    "spec-velocity-key-name": (_names_spec("x, dx, z"), 1,
                               "name 'dx' is the velocity key of 'x'"),
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
    # a --params key that is neither a parameter of the built-in nor a model
    # constant (here a typo of m) is rejected, not ignored
    "disk-unknown-parameter": (
        lambda tmp_path: ["simulate", "--system", "vertical_disk", "--params", "M=2",
                          "--t", "0.01"],
        1, "unknown vertical_disk parameters ['M']"),
    "spec-system-parameter": (_spec_with_system_parameter, 1,
                              "unknown --params keys ['m']: a spec file takes no system"),
    # r1' = 1e-160 squares to a subnormal: p_1 overflows to -inf
    "hamiltonian-legendre-overflow": (
        lambda tmp_path: ["simulate", "--system", "free_particle", "--formulation",
                          "hamiltonian", "--ic", "dx=1e-160", "--t", "0.01"],
        1, "Legendre image of the initial jet q=[1.0, 0.0, 0.0], qdot=[1e-160,"),
    # comparing a run with itself would pass on zero evidence
    "compare-repeated-formulation": (
        lambda tmp_path: ["compare", "--system", "knife_edge", "--formulation",
                          "nonholonomic,nonholonomic", "--t", "0.01"],
        1, "compare got formulation 'nonholonomic' more than once"),
    # a negative seed is rejected before any work, by every command
    **{f"seed-negative-{command}": (
        lambda tmp_path, command=command: [command, "--system", "vertical_disk", "--seed", "-1"],
        1, "--seed must be >= 0, got -1") for command in cli.COMMANDS},
    # no integration runs for a tolerance that no run can meet or that is no number
    **{f"tol-{name}": (lambda tmp_path, value=value: [
        "compare", "--system", "vertical_disk", "--formulation", "nonholonomic,closed-form",
        "--tol", value], 1, f"--tol must be finite and >= 0, got {float(value)!r}")
       for name, value in (("nan", "nan"), ("inf", "inf"), ("negative", "-1"))},
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


def test_params_key_that_is_no_parameter_or_model_constant_exit_1(tmp_path, capsys):
    """C² is no coefficient key (int() rejects the superscript) and foo no
    parameter of the free particle: each exits 1 with one line naming it."""
    base = ["simulate", "--system", "free_particle", "--formulation", "lagrangian",
            "--t", "0.01"]
    cases = (([], 0), (["--params", "C²=1"], 1), (["--params", "foo=1"], 1))
    for i, (extra, expected) in enumerate(cases):
        out = tmp_path / str(i)
        try:
            code = main(base + extra + ["--out", str(out)])
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
        err = capsys.readouterr().err
        assert code == expected
        if expected == 0:
            assert err == ""
        else:
            key = extra[1].split("=")[0]
            assert err.startswith("error:") and err.count("\n") == 1 and repr(key) in err


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


def test_compare_tol_zero_is_valid(tmp_path):
    code = run_cli(["compare", "--system", "vertical_disk", "--formulation",
                    "nonholonomic,closed-form", "--t", "0.05", "--tol", "0"], tmp_path)
    report = load_report(tmp_path, "vertical_disk_compare.json")
    assert report["tol"] == 0.0
    assert code == (0 if report["max_sup"] == 0.0 else 3)


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
    # every sampled point is either evaluated or counted as skipped
    assert report["samples"] == (report["evaluated"] + report["skipped_degenerate"]
                                 + report["skipped_near_u1_zero"])
    assert report["skipped_near_u1_zero"] > 0
    assert (report["deviation_tol"], report["stationarity_tol"]) == (1e-10, 1e-8)


def test_pontryagin_check_fails_on_zero_evidence(tmp_path):
    """The one sampled point is skipped, so nothing is evaluated and neither
    the check nor certify's copy of it may pass."""
    argv = ["--system", "free_particle", "--samples", "1", "--seed", "10"]
    assert run_cli(["pontryagin-check", *argv], tmp_path) == 3
    report = load_report(tmp_path, "free_particle_pontryagin.json")
    assert (report["evaluated"], report["passed"]) == (0, False)
    assert run_cli(["certify", "--check", "pontryagin", *argv], tmp_path) == 3
    (check,) = load_report(tmp_path, "free_particle_certify.json")["checks"]
    assert check["status"] == "fail" and check["details"]["evaluated"] == 0


@pytest.mark.parametrize("system", ["free_particle", "knife_edge", "vertical_disk"])
@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_pontryagin_check_sees_a_small_control_error(system, kind, tmp_path, monkeypatch):
    """The complex-step gradient is exact to roundoff, so controls off u*
    by a relative 1e-11 show in the stationarity norm.  The two-route
    deviation is taken at the check's own u*, where the control Hamiltonian
    is stationary: the error moves it at second order, that is by roundoff."""
    argv = ["pontryagin-check", "--system", system, "--kind", kind,
            "--samples", "200", "--seed", "3"]
    name = f"{system}_pontryagin.json"
    assert run_cli(argv, tmp_path / "clean") == 0
    clean = load_report(tmp_path / "clean", name)
    if clean.get("status") == "skipped":
        assert kind == "g2"
        return
    assert clean["max_stationarity_norm"] <= 1e-13

    exact = cli.optimal_controls
    monkeypatch.setattr(cli, "optimal_controls",
                        lambda model, ps: tuple(v * (1 + 1e-11) for v in exact(model, ps)))
    assert run_cli(argv, tmp_path / "off") == 0  # still inside the 1e-8 bound
    off = load_report(tmp_path / "off", name)
    assert off["max_stationarity_norm"] > 1e-12
    assert abs(off["max_hamiltonian_deviation"] - clean["max_hamiltonian_deviation"]) < 1e-14
    assert off["evaluated"] == clean["evaluated"]


@pytest.mark.parametrize("command", [["pontryagin-check", "--kind", "g1"],
                                     ["pontryagin-check", "--kind", "g2"],
                                     ["certify", "--check", "pontryagin"]])
def test_optimal_controls_computed_once_per_point(command, tmp_path, monkeypatch):
    """Each sampled phase point computes its optimal controls once; the
    two-route Hamiltonian and the stationarity check both evaluate them."""
    from hamiltonize import pontryagin

    calls = []
    exact = pontryagin.optimal_controls

    def counted(model, ps):
        calls.append(ps)
        return exact(model, ps)

    monkeypatch.setattr(pontryagin, "optimal_controls", counted)
    monkeypatch.setattr(cli, "optimal_controls", counted)
    assert run_cli(command + ["--system", "vertical_disk", "--samples", "60", "--seed", "3"],
                   tmp_path) == 0
    report = load_report(tmp_path, f"vertical_disk_{command[0].split('-')[0]}.json")
    if command[0] == "certify":
        report = report["checks"][0]["details"]
    assert report["evaluated"] > 0
    assert len(calls) == report["samples"] == 60
    assert len(set(map(id, calls))) == 60  # one call per point, none repeated


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


def _record_calls(monkeypatch, name, calls):
    """Append (name, positional arguments) to ``calls`` on each call of the
    cli's ``name``."""
    fn = getattr(cli, name)

    def recorded(*args, **kwargs):
        calls.append((name, args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)


def test_certify_g2_suite_checks_the_params_model(tmp_path, monkeypatch):
    """Both halves of the second-kind suite, multiplier conditions and
    optimal control, evaluate the model of the --params constants."""
    built = []
    original = LagrangianModel.__post_init__

    def recorded(self):
        built.append(self.coefficients)
        original(self)

    monkeypatch.setattr(LagrangianModel, "__post_init__", recorded)
    evaluated = []
    for name in ("hessian_field", "optimal_controls"):
        _record_calls(monkeypatch, name, evaluated)
    assert run_cli(["certify", "--system", "vertical_disk", "--check", "g2", "--samples", "20",
                    "--params", "a3=-0.7,a4=0.5"], tmp_path) == 0
    preset = default_coefficients(builtin_system("vertical_disk"), "second")
    assert built == [preset, (-0.7, 0.5)]  # one model, shared by both halves
    assert {name for name, _ in evaluated} == {"hessian_field", "optimal_controls"}
    assert {args[0].coefficients for _, args in evaluated} == {(-0.7, 0.5)}


@pytest.mark.parametrize("name", ["free_particle", "knife_edge", "vertical_disk"])
def test_certify_compiles_each_table_once(name, tmp_path, monkeypatch):
    """certify builds each object once: its checks compile 6 distinct tables
    (the weights, the second associated system's rates and its Phi tier,
    the first associated system's three Phi tiers at depth 3) and no
    expression tuple twice, also on the disk, which runs the g2 suite."""
    compiled = []
    original = expr.compile_table

    def recorded(exprs):
        exprs = tuple(exprs)
        compiled.append(exprs)
        return original(exprs)

    monkeypatch.setattr(expr, "compile_table", recorded)
    built = []
    _record_calls(monkeypatch, "second_associated", built)
    assert run_cli(["certify", "--system", name, "--samples", "20"], tmp_path) == 0
    assert len(compiled) == 6
    assert len(set(compiled)) == len(compiled)
    assert len(built) == 1


def test_certify_checks_compute_only_what_they_report(tmp_path, monkeypatch):
    """--check helmholtz runs no certificate and --check singularity no
    multiplier residuals; every single check reports exactly its part of
    --check all."""
    base = ["certify", "--system", "vertical_disk", "--samples", "20", "--seed", "4"]
    assert run_cli(base, tmp_path / "all") == 0
    everything = load_report(tmp_path / "all", "vertical_disk_certify.json")["checks"]
    for check, name, expected in (
            ("measure", "invariant-measure", []),
            ("singularity", "first-kind-singularity-certificate", ["singularity_certificate"]),
            ("helmholtz", "multiplier-conditions", ["helmholtz_residuals"]),
            ("pontryagin", "optimal-control-g1", []),
            ("g2", "second-kind-suite", ["helmholtz_residuals"])):
        ran = []
        for fn in ("singularity_certificate", "helmholtz_residuals"):
            _record_calls(monkeypatch, fn, ran)
        assert run_cli(base + ["--check", check], tmp_path / check) == 0
        monkeypatch.undo()
        (only,) = load_report(tmp_path / check, "vertical_disk_certify.json")["checks"]
        assert only == next(c for c in everything if c["name"] == name)
        assert [fn for fn, _ in ran] == expected


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
