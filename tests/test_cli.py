import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from random import Random

import pytest

from hamiltonize import cli, expr
from hamiltonize.errors import ConfigError
from hamiltonize.cli import RunManifest, build_parser, main, manifest_from_args
from hamiltonize import pontryagin
from hamiltonize.pontryagin import MODEL_KINDS, PONTRYAGIN_U1_MIN, optimal_controls
from hamiltonize.sampling import phase_points
from hamiltonize.systems import BUILTIN_NAMES, Jet, builtin_system, load_system_file
from hamiltonize.variational import LagrangianModel, default_coefficients, lagrangian_model


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


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_empty_out_exit_1(command, tmp_path, capsys, monkeypatch):
    """An empty --out names no directory: one configuration error before any
    work, where simulate and compare raised FileNotFoundError and the check
    commands wrote no report."""
    monkeypatch.chdir(tmp_path)
    assert main([command, "--out", ""]) == 1
    assert capsys.readouterr().err == "error: --out must name a directory, got an empty path\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out", ["afile", os.path.join("afile", "x", "y"),
                                 os.path.join("afile", os.pardir)])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_out_under_a_file_exit_1(command, out, tmp_path, capsys, monkeypatch):
    """An --out that is an existing file, or a path under one, is one
    configuration error before any work, where certify printed its report
    and raised FileExistsError and simulate raised NotADirectoryError."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    assert main([command, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out must name a directory, but {tmp_path / 'afile'} is a file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("out", ["locked", os.path.join("locked", "x", "y")])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_unwritable_out_exit_1(command, out, tmp_path, capsys, monkeypatch):
    """An --out whose deepest existing directory this process may not
    create files in is one configuration error before any work, where the
    report's write raised PermissionError after the work (exit 2).  Root
    may write anywhere, so ``os.access`` is what denies it here."""
    monkeypatch.chdir(tmp_path)
    locked = tmp_path / "locked"
    locked.mkdir()
    allowed = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        os.fspath(path) != str(locked) and allowed(path, mode)))
    assert main([command, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out must name a writable directory, but {locked} is not\n"
    assert not list(locked.iterdir())


def test_flags_keep_the_exit_code_contract(tmp_path, monkeypatch):
    """Over the flags of every command, zero, negative, non-finite, tiny
    and huge values, seeds up to 2**200, an --out that is an existing file,
    model constants and system parameters from 1e-320 to 1e300 and initial
    velocities up to 1e200 included, every run ends in a documented exit
    code with at most one line on stderr, none is an internal error, and
    an exit 0 leaves stderr empty.  The --t values, the default 5 included,
    keep every grid that is accepted at 5,000 steps or fewer; --samples
    stays small where a value is drawn.  A non-finite --ic value, and a
    valid --spec beside --system, exit 1."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "ok.system").write_text("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = r1\n"
                                        "names = x,y,z\n")
    numbers = ["0", "-1", "nan", "inf", "1e-300", "1e308"]
    formulations = st.sampled_from(cli.FORMULATIONS)

    def assignments(keys, values):  # one to three key=value pairs, comma separated
        pairs = st.tuples(st.sampled_from(keys), st.sampled_from(values))
        return st.lists(pairs, min_size=1, max_size=3).map(
            lambda kv: ",".join(f"{key}={value}" for key, value in kv))

    flags = {
        "--system": st.sampled_from(BUILTIN_NAMES),
        "--h": st.sampled_from(numbers + ["0.001", "0.004"]),
        "--t": st.sampled_from(numbers + ["0.01", "0.003"]),
        "--out": st.sampled_from(["", ".", "runs", os.path.join("a", "b"), "afile",
                                  os.path.join("afile", "x"), os.path.join("afile", os.pardir)]),
        "--samples": st.sampled_from(["0", "-1", "1", "3", "nan", "1e308"]),
        "--seed": st.sampled_from(["0", "-1", "2", "nan", str(2**64), str(2**200 - 1),
                                   str(2**200)]),
        "--depth": st.sampled_from(["0", "-1", "1", "3", "8", "32", "65", "inf"]),
        "--formulation": formulations,
        "--formulations": st.lists(formulations, min_size=2, max_size=3, unique=True).map(",".join),
        "--tol": st.sampled_from(numbers + ["1e-5", "1"]),
        "--kind": st.sampled_from(["g1", "g2", "g3"]),
    }
    # --params and --ic draw keys the system takes: model constants in range,
    # its own parameters, its coordinates and their velocities
    constants = ["C2", "C3", "a3"]
    keys = {"free_particle": (constants, ["x", "y", "z"]),
            "knife_edge": (constants + ["m", "J"], ["phi", "x", "y"]),
            "vertical_disk": (constants + ["C4", "a4", "m", "R", "I", "J"],
                              ["phi", "theta", "x", "y"])}
    per_system = {
        "--params": lambda system: assignments(keys[system][0],
                                               ["1e-320", "1e-300", "1e300", "2"]),
        "--ic": lambda system: assignments([*keys[system][1], *("d" + n for n in keys[system][1])],
                                           ["0", "1e-300", "-1e100", "1e200", "nan", "inf"]),
    }
    common = ("--system", "--out", "--seed", "--params")
    trajectory = common + ("--h", "--t", "--ic")
    used = {"simulate": trajectory + ("--formulation",),
            "compare": trajectory + ("--formulations", "--tol"),
            "certify": common + ("--samples", "--depth"),
            "helmholtz-check": common + ("--samples", "--depth"),
            "pontryagin-check": common + ("--samples", "--kind"),
            "measure-check": common + ("--samples",)}

    @st.composite
    def argvs(draw):
        """An argv, and whether it must exit 1."""
        command = draw(st.sampled_from(sorted(used)))
        argv, system, config_error = [command], "free_particle", False
        for flag in used[command]:
            if draw(st.booleans()):
                value = draw(per_system[flag](system) if flag in per_system else flags[flag])
                system = value if flag == "--system" else system
                # compare takes its list through --formulation too
                argv += [flag.replace("--formulations", "--formulation"), value]
                config_error |= flag == "--ic" and ("nan" in value or "inf" in value)
                if flag == "--system" and draw(st.booleans()):
                    argv += ["--spec", "ok.system"]
                    config_error = True
        return argv, config_error

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(argvs())
    def keeps_contract(drawn):
        argv, config_error = drawn
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in ((1,) if config_error else (0, 1, 2, 3)), (argv, err.getvalue())
        assert err.getvalue().count("\n") <= 1 and "internal error" not in err.getvalue(), (
            argv, err.getvalue())
        assert code != 0 or err.getvalue() == "", (argv, err.getvalue())

    keeps_contract()


def _spec_directory(tmp_path):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    return ["certify", "--spec", str(spec_dir)]


def _non_utf8_spec(tmp_path):
    spec = tmp_path / "latin1.system"
    spec.write_bytes(b"# caf\xe9\nI1 = 1\n")
    return ["certify", "--spec", str(spec)]


def _inertia_spec(i1, i_alpha):
    """A simulate over a spec whose I1 and I_alpha read ``i1`` and ``i_alpha``."""
    def build(tmp_path):
        spec = tmp_path / "inertia.system"
        spec.write_text(f"I1 = {i1}\nI2 = 1\nI_alpha = {i_alpha}\nA_alpha = r1\nnames = x,y,z\n")
        return ["simulate", "--spec", str(spec), "--t", "0.01"]
    return build


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


def _weights_spec(weights):
    """A certify over the knife edge as a spec whose weights are ``weights``."""
    def build(tmp_path):
        spec = tmp_path / "weights.system"
        spec.write_text("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = -tan(r1)\nnames = phi,x,y\n"
                        f"weights = {weights}\n")
        return ["certify", "--spec", str(spec)]
    return build


def _deep_spec(coefficient, command=("certify",)):
    """A ``command`` (a certify by default) over a spec whose A_alpha is
    ``coefficient``."""
    def build(tmp_path):
        spec = tmp_path / "deep.system"
        spec.write_text(f"I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = {coefficient}\nnames = x,y,z\n")
        return [*command, "--spec", str(spec)]
    return build


# (argv builder, documented exit code, part of the message): each bad input
# ends in one line on stderr, never a traceback, and an edge case that exits
# 0 leaves stderr empty
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
    # the hamiltonian CSV header would read t,t,x,px,pt,px,ppx
    "spec-time-name": (_names_spec("t, x, y"), 1, "name 't' is the time column"),
    "spec-momentum-key-name": (_names_spec("x, px, z"), 1,
                               "name 'px' is the momentum column of 'x'"),
    # r1' cubed underflows to 0 in the Hessian: a float division by zero
    "lagrangian-r1dot-underflow": (
        lambda tmp_path: ["simulate", "--system", "free_particle", "--formulation",
                          "lagrangian", "--ic", "dx=1e-110", "--t", "0.01"],
        2, "integration aborted at t=0.0: ZeroDivisionError"),
    # the certificate's memory grows faster than linearly with the depth
    "helmholtz-check-depth-above-bound": (
        lambda tmp_path: ["helmholtz-check", "--system", "free_particle", "--depth", "65"],
        1, "--depth must be <= 64, got 65"),
    # model constants reach the optimal-control check
    "pontryagin-check-coefficient-out-of-range": (
        lambda tmp_path: ["pontryagin-check", "--system", "free_particle",
                          "--params", "C9=1", "--samples", "20"],
        1, "coefficient C9 out of range"),
    "certify-pontryagin-coefficient-out-of-range": (
        lambda tmp_path: ["certify", "--system", "free_particle", "--check", "pontryagin",
                          "--params", "C9=1", "--samples", "20"],
        1, "coefficient C9 out of range"),
    # and are range-checked by the commands that build no model as well
    **{f"{name}-coefficient-out-of-range": (
        lambda tmp_path, argv=argv: argv + ["--system", "free_particle", "--params", "C9=1"],
        1, "coefficient C9 out of range") for name, argv in (
            ("certify-measure", ["certify", "--check", "measure"]),
            ("certify-singularity", ["certify", "--check", "singularity", "--samples", "5"]),
            ("simulate-nonholonomic", ["simulate", "--formulation", "nonholonomic",
                                       "--t", "0.01"]),
            ("simulate-sode", ["simulate", "--formulation", "sode", "--t", "0.01"]))},
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
    "spec-inertia-nan": (_inertia_spec("nan", "1"), 1, "inertias must be finite"),
    # weights undefined at every checked point leave the override unchecked
    "spec-weights-undefined": (_weights_spec("ln(r1 - 2), ln(r1 - 2)"), 1,
                               "weight overrides could not be validated on [-1.3, 1.3]"),
    # and so do weights with a constant part that raises wherever it is evaluated
    "spec-weights-constant-raises": (_weights_spec("cos(r1) + ln(-1), -sin(r1)"), 1,
                                     "weight overrides could not be validated on [-1.3, 1.3]"),
    # and a weight that is 0 everywhere, under any floor relative to its size
    "spec-weights-zero": (_weights_spec("cos(r1), 0*r1"), 1,
                          "weight overrides could not be validated on [-1.3, 1.3]"),
    # expressions nested past MAX_EXPR_DEPTH levels, which the parser reaches
    # by recursion for parentheses and minuses and by a loop for a sum
    "spec-nested-parentheses": (_deep_spec("(" * 3000 + "r1" + ")" * 3000), 1,
                                "expression is nested too deeply"),
    "spec-nested-minus": (_deep_spec("-" * 5000 + "r1"), 1, "expression is nested too deeply"),
    "spec-long-sum": (_deep_spec(" + ".join(["r1"] * 20000)), 1,
                      "expression is nested too deeply"),
    # one level past the bound: a sum of 500 terms nests 501 levels deep
    "spec-nesting-bound": (_deep_spec(" + ".join(["sin(r1)"] * 500)), 1,
                           "expression is nested too deeply"),
    # a coefficient undefined on all of [-1, 1] leaves no point at which the
    # g2 cost's model can decide whether N is constant
    "spec-measure-slope-unsampled": (
        _deep_spec("ln(r1 - 2)", ("pontryagin-check", "--kind", "g2")), 2,
        "runtime error: measure slope could not be sampled on [-1, 1]"),
    # and so does an undefined constant part, which every arithmetic reads as NaN
    **{f"spec-constant-part-undefined-{name}": (
        _deep_spec("r1 + sqrt(-1)", command), 2,
        "runtime error: measure slope could not be sampled on [-1, 1]")
       for name, command in (("certify-g2", ("certify", "--check", "g2")),
                             ("pontryagin-check-g2", ("pontryagin-check", "--kind", "g2")))},
    "spec-constant-part-undefined-measure-check": (
        _deep_spec("r1 + 1/0", ("measure-check",)), 2,
        "runtime error: could not sample a generic r1 in [-1, 1]"),
    # the knife edge's weights cos(r1)/sqrt(m) are some 1e-10 at m = 1e20: the
    # override check's floor is relative to each weight's size, so it passes
    "knife-edge-mass-1e20": (
        lambda tmp_path: ["certify", "--system", "knife_edge", "--params", "m=1e20"], 0, ""),
    # numbers and exponents in an expression are ASCII digits
    "spec-superscript-exponent": (_deep_spec("r1^²"), 1, "expected an integer exponent"),
    "spec-arabic-indic-number": (_deep_spec("١.٥*r1"), 1, "unexpected '١'"),
    "spec-arabic-indic-exponent-digit": (_deep_spec("1e3١"), 1, "unexpected '١'"),
    # an exponent is at most MAX_EXPONENT in size, however many digits it has
    "spec-exponent-1000": (_deep_spec("r1 + 0.1*r1^1000"), 0, ""),
    **{f"spec-exponent-{name}": (_deep_spec(f"r1 + r1^{exponent}"), 1,
                                 "an exponent's magnitude must be at most 1000")
       for name, exponent in (("1001", "1001"), ("minus-1001", "-1001"),
                              ("401-digits", "1" + "0" * 400),
                              ("5001-digits", "1" + "0" * 5000))},
    # and so are numbers outside expressions, without a digit-group _
    "spec-inertia-underscore": (_inertia_spec("1_0", "1"), 1, "I1 must be a number, got '1_0'"),
    "spec-inertia-arabic-indic": (_inertia_spec("1", "١"), 1,
                                  "I_alpha must be a comma-separated list of numbers"),
    "params-underscore": (
        lambda tmp_path: ["simulate", "--system", "knife_edge", "--params", "m=1_0",
                          "--t", "0.01"], 1, "bad value in 'm=1_0'"),
    "ic-arabic-indic": (
        lambda tmp_path: ["simulate", "--system", "knife_edge", "--ic", "phi=٠.٣",
                          "--t", "0.01"], 1, "bad value in 'phi=٠.٣'"),
    **{f"flag-{flag[2:]}-{name}": (
        lambda tmp_path, argv=argv: argv, 1, f"argument {flag}: invalid {kind} value: ")
       for flag, kind, name, argv in (
           ("--samples", "int", "arabic-indic",
            ["measure-check", "--system", "knife_edge", "--samples", "١٠", "--seed", "٣"]),
           ("--seed", "int", "arabic-indic", ["measure-check", "--system", "knife_edge",
                                              "--seed", "٣"]),
           ("--depth", "int", "underscore", ["helmholtz-check", "--depth", "1_0"]),
           ("--t", "float", "arabic-indic", ["simulate", "--t", "١"]),
           ("--h", "float", "underscore", ["simulate", "--h", "0.0_1"]),
           ("--tol", "float", "arabic-indic", ["compare", "--tol", "١"]))},
    # a non-finite initial condition, of a position as of a velocity
    **{f"ic-{value}": (lambda tmp_path, key=key, value=value: [
        "simulate", "--system", "knife_edge", "--ic", f"{key}={value}", "--t", "0.01"],
        1, f"initial condition {key} must be finite, got {value}")
       for key, value in (("phi", "nan"), ("x", "inf"))},
    "ic-on-constraint-nan-velocity": (lambda tmp_path: [
        "simulate", "--system", "free_particle", "--ic-on-constraint", "--ic", "dz=nan",
        "--t", "0.01"], 1, "initial condition dz must be finite, got nan"),
    "system-and-spec": (_deep_spec("r1", ("measure-check", "--system", "knife_edge")), 1,
                        "--system and --spec exclude each other"),
    # a --params key that is neither a parameter of the built-in nor a model
    # constant (here a typo of m, and C3 with an Arabic-Indic 3) is rejected,
    # not ignored
    "params-arabic-indic-model-constant": (
        lambda tmp_path: ["pontryagin-check", "--system", "free_particle", "--params", "C٣=2"],
        1, "unknown free_particle parameters ['C٣']"),
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
    # r1' = 1e200 or r2' = 1e160 squares past the largest float: OverflowError
    **{f"hamiltonian-legendre-overflow-{key}": (
        lambda tmp_path, key=key, value=value: [
            "simulate", "--system", "free_particle", "--formulation", "hamiltonian",
            "--ic", f"{key}={value}", "--t", "0.01"],
        1, f"Legendre image of the initial jet q=[1.0, 0.0, 0.0], qdot={qdot}")
       for key, value, qdot in (("dx", "1e200", "[1e+200,"), ("dy", "1e160", "[1.0, 1e+160,"))},
    # C2 = 1e-150 leaves the optimal controls finite, near 1e300, and their
    # squares in the control Hamiltonian overflow: the error names the point
    "pontryagin-check-control-hamiltonian-overflow": (
        lambda tmp_path: ["pontryagin-check", "--system", "free_particle", "--params",
                          "C2=1e-150", "--samples", "5"],
        2, "runtime error: non-finite optimal-control check at q="),
    # a velocity of 1e200 gives differences whose squares overflow the RMS
    "compare-rms-overflow": (
        lambda tmp_path: ["compare", "--system", "vertical_disk", "--ic", "dphi=1e200",
                          "--formulation", "nonholonomic,sode", "--t", "0.01"],
        2, "report vertical_disk_compare.json holds a non-finite value"),
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
    # usage errors are configuration errors too, in the subcommands as at the top
    "usage-invalid-choice": (lambda tmp_path: ["pontryagin-check", "--kind", "g3"], 1,
                             "argument --kind: invalid choice: 'g3'"),
    "usage-invalid-int": (lambda tmp_path: ["pontryagin-check", "--samples", "abc"], 1,
                          "argument --samples: invalid int value: 'abc'"),
    "usage-unknown-flag": (lambda tmp_path: ["simulate", "--bogus"], 1,
                           "unrecognized arguments: --bogus"),
    "usage-unknown-command": (lambda tmp_path: ["frobnicate"], 1,
                              "argument command: invalid choice: 'frobnicate'"),
    # a grid whose step count is infinite or too large for one array of stamps
    **{f"grid-{name}-{formulation}": (
        lambda tmp_path, argv=argv, formulation=formulation: [
            "simulate", "--system", "vertical_disk", "--formulation", formulation, *argv],
        1, "more than one array can hold")
       for name, argv in (("tiny-h", ["--h", "1e-300", "--t", "0.01"]),
                          ("infinite-step-count", ["--h", "0.3", "--t", "1e308"]))
       for formulation in ("nonholonomic", "closed-form")},
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
    if expected == 0:
        assert err == ""
        return
    prefix = "error:" if expected == 1 else "runtime error:"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert message in err and "A[-1]" not in err


def test_missing_command_exit_1(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err == "error: the following arguments are required: command\n"


# --- the front end's contract ---------------------------------------------------------

# flags of every command, of the commands that integrate, and of each command
# alone: (argv, the RunManifest field it sets, the value it sets there)
COMMON_FLAGS = [(["--system", "knife_edge"], "system_source", "knife_edge"),
                (["--spec", "a.system"], "spec_file", "a.system"),
                (["--seed", "7"], "seed", 7),
                (["--out", "runs"], "out_dir", "runs"),
                (["--params", "m=2", "--params", "C2=1.5,R=3"], "params",
                 {"m": 2.0, "C2": 1.5, "R": 3.0})]
TRAJECTORY_FLAGS = [(["--sode", "third"], "sode_kind", "third"),
                    (["--ham-kind", "second"], "ham_kind", "second"),
                    (["--lag-kind", "variational"], "lag_kind", "variational"),
                    (["--t", "2.5"], "t_final", 2.5),
                    (["--h", "0.01"], "h", 0.01),
                    (["--ic", "x=0.5", "--ic", "dx=2"], "ic", {"x": 0.5, "dx": 2.0}),
                    (["--ic-on-constraint"], "ic_on_constraint", True)]
COMMAND_FLAGS = {
    "simulate": TRAJECTORY_FLAGS + [
        (["--formulation", "sode"], "formulations", ("sode",)),
        (["--formulation", "hamiltonian", "--formulation", "lagrangian"], "formulations",
         ("lagrangian",))],
    "compare": TRAJECTORY_FLAGS + [
        (["--formulation", "sode,closed-form", "--formulation", "hamiltonian"],
         "formulations", ("sode", "closed-form", "hamiltonian")),
        (["--tol", "0.25"], "tol", 0.25)],
    "certify": [(["--check", "g2"], "check", "g2"), (["--samples", "9"], "samples", 9),
                (["--depth", "4"], "depth", 4)],
    "helmholtz-check": [(["--samples", "9"], "samples", 9), (["--depth", "4"], "depth", 4)],
    "pontryagin-check": [(["--kind", "g2"], "cost_kind", "g2"),
                         (["--samples", "9"], "samples", 9)],
    "measure-check": [(["--samples", "9"], "samples", 9)],
}


def parse(argv):
    return manifest_from_args(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_bare_command_parses_to_manifest_defaults(command):
    assert parse([command]) == RunManifest()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_each_flag_lands_in_its_field(command):
    """A flag sets its own field and no other."""
    for argv, name, value in COMMON_FLAGS + COMMAND_FLAGS[command]:
        assert parse([command, *argv]) == dataclasses.replace(RunManifest(), **{name: value})


def test_every_manifest_field_has_a_flag():
    flagged = {name for flags in COMMAND_FLAGS.values() for _, name, _ in COMMON_FLAGS + flags}
    assert flagged == {f.name for f in dataclasses.fields(RunManifest)}


def test_simulate_runs_the_last_formulation_given(tmp_path):
    assert run_cli(["simulate", "--formulation", "hamiltonian", "--formulation", "lagrangian",
                    "--t", "0.01"], tmp_path) == 0
    assert load_report(tmp_path, "free_particle_lagrangian.json")["formulation"] == "lagrangian"
    assert sorted(os.listdir(tmp_path)) == ["free_particle_lagrangian.csv",
                                            "free_particle_lagrangian.json"]


# the key order of the reports, which is the field order of the report classes
CONDITION_KEYS = ["gdot_symmetry", "nabla_condition", "phi_condition", "min_abs_det",
                  "tolerance", "n_jets", "passed"]
CERTIFICATE_KEYS = ["passed", "depth", "det_tol", "nullspace_dims",
                    "max_normalized_det", "kept_margin_decades", "kept_margin_jet",
                    "cut_gap_decades", "det_margin_decades", "warnings"]
COUNTEREXAMPLE_KEYS = ["jet_index", "q", "qdot", "c_singular_values"]


def test_helmholtz_report_key_order(tmp_path):
    argv = ["helmholtz-check"]
    assert run_cli(argv, tmp_path / "pass") == 0
    report = load_report(tmp_path / "pass", "free_particle_helmholtz.json")
    assert list(report) == ["tool", "version", "system", "seed", "jets",
                            "multiplier_conditions", "certificate"]
    assert list(report["multiplier_conditions"]) == CONDITION_KEYS
    assert list(report["certificate"]) == CERTIFICATE_KEYS
    # at depth 1 C has one row, so rank C < 2 at every jet: no jet gives a
    # kept margin, and the certificate fails and reports its first jet last
    assert run_cli(argv + ["--depth", "1"], tmp_path / "fail") == 3
    certificate = load_report(tmp_path / "fail", "free_particle_helmholtz.json")["certificate"]
    kept = ["kept_margin_decades", "kept_margin_jet"]
    assert list(certificate) == [k for k in CERTIFICATE_KEYS if k not in kept] + ["counterexample"]
    assert list(certificate["counterexample"]) == COUNTEREXAMPLE_KEYS


def test_certify_report_key_order(tmp_path):
    assert run_cli(["certify", "--system", "vertical_disk"], tmp_path) == 0
    report = load_report(tmp_path, "vertical_disk_certify.json")
    assert list(report) == ["tool", "version", "system", "seed", "checks"]
    details = {c["name"]: c["details"] for c in report["checks"]}
    assert all(list(c) == ["name", "status", "details"] for c in report["checks"])
    assert list(details["first-kind-singularity-certificate"]) == CERTIFICATE_KEYS
    assert list(details["multiplier-conditions"]) == CONDITION_KEYS
    suite = details["second-kind-suite"]
    assert list(suite) == ["multiplier_conditions", "optimal_control_g2"]
    assert list(suite["multiplier_conditions"]) == CONDITION_KEYS


def test_compare_report_key_order(tmp_path):
    assert run_cli(["compare", "--formulation", "nonholonomic,hamiltonian", "--t", "0.1"],
                   tmp_path) == 0
    report = load_report(tmp_path, "free_particle_compare.json")
    assert list(report) == ["tool", "version", "system", "initial_jet", "t_final", "h", "tol",
                            "seed", "max_sup", "pairs", "passed", "energy_drift",
                            "constraint_drift"]
    (pair,) = report["pairs"].values()
    assert list(pair) == ["sup", "rms", "per_column"]
    assert list(pair["per_column"]) == ["x", "y", "z"]
    assert all(list(c) == ["sup", "rms"] for c in pair["per_column"].values())


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["certify", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out and not err


def _outcome(parser, argv, capsys):
    """What parsing ``argv`` ends in: the manifest, the configuration error,
    or the exit and its text."""
    try:
        return manifest_from_args(parser.parse_args(argv))
    except ConfigError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_alone_parses_as_the_full_parser(command, capsys):
    """``main`` builds only the invoked command's parser: its help, usage
    errors and manifests are the full parser's, byte for byte."""
    flags = [argv for argv, _, _ in COMMON_FLAGS + COMMAND_FLAGS[command]]
    for argv in [["--help"], ["-h"], ["--bogus"], ["extra"], ["--seed", "x"], ["--seed"],
                 *flags, [arg for argv in flags for arg in argv]]:
        full = _outcome(build_parser(), [command, *argv], capsys)
        assert _outcome(build_parser(command), [command, *argv], capsys) == full, argv
    alone = build_parser(command)._subparsers._group_actions[0].choices
    assert list(alone) == [command]


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["nope"], ["--seed", "1"]])
def test_no_command_builds_every_subcommand(argv):
    subcommands = build_parser(argv[0] if argv else None)._subparsers._group_actions[0].choices
    assert list(subcommands) == list(cli.COMMANDS)


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


@pytest.mark.parametrize("system", ["free_particle", "knife_edge", "vertical_disk"])
def test_helmholtz_check_at_depth_16(system, tmp_path):
    """The tower's 16 tiers stay finite, and the certificate still finds no
    regular multiplier; so do 32 tiers."""
    for depth in (16, 32):
        assert run_cli(["helmholtz-check", "--system", system, "--depth", str(depth)],
                       tmp_path) == 0
        certificate = load_report(tmp_path, f"{system}_helmholtz.json")["certificate"]
        assert certificate["passed"] and certificate["depth"] == depth
        assert 0 <= certificate["kept_margin_jet"] < 50


def test_knife_edge_certificate_passes_at_depth_32(tmp_path):
    """The full tower's rank cut refuted falsely here at seeds 0-2: its
    smallest kept singular value was 0.03 decades above the cut.  C's
    second singular value sits more than 8 decades above it."""
    for seed in ("0", "1", "2"):
        argv = ["helmholtz-check", "--system", "knife_edge", "--depth", "32", "--seed", seed]
        assert run_cli(argv, tmp_path) == 0
        certificate = load_report(tmp_path, "knife_edge_helmholtz.json")["certificate"]
        assert certificate["kept_margin_decades"] > 8.0


def test_certificate_maps_back_columns_of_subnormal_scale(tmp_path, capsys):
    """With m = 1e-320 the disk's first tier column is some 1e-323 against
    columns near 1, where it is exactly 0 at unit parameters: a column of
    underflow counts as zero, so every jet keeps the nullspace dimension 5
    of unit parameters, and C's nullspace mapped back through the column
    scales neither overflows nor underflows to a zero vector."""
    argv = ["certify", "--system", "vertical_disk", "--params", "m=1e-320",
            "--check", "singularity"]
    assert run_cli(argv, tmp_path) == 0
    assert capsys.readouterr().err == ""
    (check,) = load_report(tmp_path, "vertical_disk_certify.json")["checks"]
    assert set(check["details"]["nullspace_dims"]) == {5}


def test_tower_domain_error_exits_2(tmp_path, monkeypatch, capsys):
    """A tower that leaves its domain at a jet is a runtime error with one
    line naming the point: ln(r1) at r1 = -0.5.  The sampler draws no such
    jet, so the jets are set."""
    spec = tmp_path / "ln.spec"
    spec.write_text("I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = ln(r1)\nnames = a, b, c\n")
    jets = [Jet((r1, 0.1, 0.2), (1.0, 0.5, 0.5)) for r1 in (0.5, -0.5, -0.25)]
    monkeypatch.setattr(cli, "_jets", lambda sys_, manifest: (jets, jets))
    assert run_cli(["certify", "--check", "singularity", "--spec", str(spec)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1
    assert err.rstrip().endswith("at r1=-0.5")


# A_alpha texts whose chains of single-use nodes nest deeper than the 200
# parentheses CPython's parser takes, once inlined into generated code
DEEP_CHAINS = {
    "sum-200": " + ".join(["sin(r1)"] * 200),
    "product-150": "*".join(["(r1+2)"] * 150),
    "product-100": "*".join(["(r1+2)"] * 100),
}


# the products' full suite stops at its documented runtime error: their
# weight N = 1/sqrt(1 + A^2) is below COEFF_EPS at the sampled jets
PRODUCT_SINGULARITY = ["certify", "--check", "singularity", "--samples", "3"]


def _run_spec(a_alpha, argv, tmp_path):
    spec = tmp_path / "deep.spec"
    spec.write_text(f"I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = {a_alpha}\nnames = phi, th, x\n")
    return run_cli([*argv, "--spec", str(spec)], tmp_path)


def _run_deep(chain, argv, tmp_path):
    return _run_spec(DEEP_CHAINS[chain], argv, tmp_path)


@pytest.mark.parametrize("chain,argv,code", [
    ("sum-200", ["certify", "--samples", "3"], 0),
    ("sum-200", ["simulate", "--t", "0.01"], 0),
    ("product-150", PRODUCT_SINGULARITY, 0),
    ("product-150", ["simulate", "--t", "0.01"], 0),
    ("product-100", PRODUCT_SINGULARITY, 0),
])
def test_deeply_nested_spec_runs(chain, argv, code, tmp_path, capsys):
    """Generated code gives a deep node a local of its own, and
    differentiation does not recurse without bound: such a spec gets a
    verdict, not an internal error."""
    assert _run_deep(chain, argv, tmp_path) == code
    assert "error" not in capsys.readouterr().err


def test_measure_check_holds_where_the_measure_is_steep(tmp_path):
    """The sum-200 spec's N varies on a scale of 1/200, where a central
    difference of dN/dr1 with step 1e-5 errs by up to 1e-4 and refutes a
    valid spec; the check's slope must be exact to roundoff."""
    for seed in range(10):
        assert _run_deep("sum-200", ["measure-check", "--seed", str(seed)], tmp_path) == 0
        assert load_report(tmp_path, "deep_measure.json")["max_residual"] < 1e-12


@pytest.mark.parametrize("chain", ["product-150", "product-100"])
def test_deep_product_certificate_passes(chain, tmp_path):
    """The tower's s rows are some 1e-35 of its r2 rows, which a rank cut
    over the whole tower counted as zero; C's columns are scaled apart."""
    assert _run_deep(chain, PRODUCT_SINGULARITY, tmp_path) == 0


@pytest.mark.parametrize("depth", [3, 8, 16, 24])
@pytest.mark.parametrize("a_alpha", ["sqrt(r1^2+0.01)", "r1^-3 + 2"],
                         ids=["sqrt-offset", "inverse-cube"])
def test_certificate_passes_where_the_tower_spans_decades(a_alpha, depth, tmp_path):
    """A rank cut over the whole tower refuted these specs falsely, the
    first at depths 16 and 24 and the second from depth 8 up."""
    argv = ["certify", "--check", "singularity", "--depth", str(depth)]
    assert _run_spec(a_alpha, argv, tmp_path) == 0


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


@pytest.mark.parametrize("argv, name, code", [
    (["simulate", "--system", "free_particle", "--t", "0.1"], "free_particle_nonholonomic.json", 0),
    (["certify", "--system", "free_particle", "--params", "C2=1e300", "--samples", "20"],
     "free_particle_certify.json", 3),
])
def test_closed_stdout_keeps_the_report_and_the_verdict(argv, name, code, tmp_path):
    """A reader that closed stdout before the report is printed loses only
    the printed copy: the report file is written, the verdict keeps its exit
    code, and nothing reaches stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from hamiltonize.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, "--out", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, "")
    assert load_report(tmp_path, name)["tool"] == "hamiltonize"


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


def first_seed_skipped_near_u1_zero(name, seeds):
    """The first of ``seeds`` whose single phase point the g1 check skips
    as near u1 = 0, or None."""
    sys_ = builtin_system(name)
    model = lagrangian_model(sys_, MODEL_KINDS["g1"])
    for seed in seeds:
        (ps,) = phase_points(sys_, 1, Random(seed))
        if abs(optimal_controls(model, ps)[0]) < PONTRYAGIN_U1_MIN:
            return seed
    return None


def test_pontryagin_check_fails_on_zero_evidence(tmp_path):
    """The one sampled point is skipped, so nothing is evaluated and neither
    the check nor certify's copy of it may pass.  About 2% of points are
    skipped, so some seed below 500 draws one."""
    seed = first_seed_skipped_near_u1_zero("free_particle", range(500))
    assert seed is not None
    argv = ["--system", "free_particle", "--samples", "1", "--seed", str(seed)]
    assert run_cli(["pontryagin-check", *argv], tmp_path) == 3
    report = load_report(tmp_path, "free_particle_pontryagin.json")
    assert (report["evaluated"], report["passed"]) == (0, False)
    assert run_cli(["certify", "--check", "pontryagin", *argv], tmp_path) == 3
    (check,) = load_report(tmp_path, "free_particle_certify.json")["checks"]
    assert check["status"] == "fail" and check["details"]["evaluated"] == 0


@pytest.mark.parametrize("argv", [
    ["pontryagin-check", "--system", "vertical_disk", "--kind", "g2", "--params", "a3=1e-320"],
    ["pontryagin-check", "--system", "vertical_disk", "--kind", "g2", "--params", "a3=1e-300"],
    ["pontryagin-check", "--system", "free_particle", "--params", "C2=1e-320"],
    ["pontryagin-check", "--system", "free_particle", "--params", "C2=1e-300"],
    ["pontryagin-check", "--system", "free_particle", "--params", "C3=1e-200"],
    ["certify", "--system", "free_particle", "--params", "C2=1e-320"]])
def test_non_finite_optimal_controls_are_degenerate(argv, tmp_path, capsys):
    """A tiny model constant overflows every point's optimal controls, so
    every point is skipped as degenerate and the check fails on zero
    evidence: exit 3 and nothing on stderr, where the NaN deviations that
    max dropped passed or an OverflowError ended in an internal error."""
    assert run_cli([*argv, "--samples", "20"], tmp_path) == 3
    assert capsys.readouterr().err == ""
    system = argv[argv.index("--system") + 1]
    if argv[0] == "certify":
        checks = load_report(tmp_path, f"{system}_certify.json")["checks"]
        report = next(c for c in checks if c["name"] == "optimal-control-g1")["details"]
    else:
        report = load_report(tmp_path, f"{system}_pontryagin.json")
    assert (report["evaluated"], report["skipped_degenerate"], report["passed"]) == (0, 20, False)


def test_singular_multiplier_determinant_is_reported(tmp_path, capsys):
    """J = 1e-320 leaves the knife edge's model Hessian with a determinant
    that numpy's det divides by zero on: the report carries it, where the
    warning ended in an internal error, and the singular multiplier fails
    the check (exit 3), where it passed."""
    for params in ("C3=1e-320,J=1e-320", "J=1e-320"):
        argv = ["helmholtz-check", "--system", "knife_edge", "--params", params, "--samples", "5"]
        assert run_cli(argv, tmp_path) == 3
        assert capsys.readouterr().err == ""
        conditions = load_report(tmp_path, "knife_edge_helmholtz.json")["multiplier_conditions"]
        assert (conditions["min_abs_det"], conditions["passed"]) == (0.0, False)
        certify = ["certify", "--system", "knife_edge", "--params", params, "--samples", "5"]
        assert run_cli(certify, tmp_path) == 3
        checks = load_report(tmp_path, "knife_edge_certify.json")["checks"]
        verdict = next(c for c in checks if c["name"] == "multiplier-conditions")["status"]
        assert verdict == "fail"


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

    # the array function's u_1, and through it every weighted control, off by 1e-11
    exact = pontryagin._drive
    monkeypatch.setattr(pontryagin, "_drive", lambda model: f"({exact(model)}) * (1 + 1e-11)")
    assert run_cli(argv, tmp_path / "off") == 0  # still inside the 1e-8 bound
    off = load_report(tmp_path / "off", name)
    assert off["max_stationarity_norm"] > 1e-12
    assert abs(off["max_hamiltonian_deviation"] - clean["max_hamiltonian_deviation"]) < 1e-14
    assert off["evaluated"] == clean["evaluated"]


# (evaluated, skipped_degenerate, skipped_near_u1_zero, max_hamiltonian_deviation,
# max_stationarity_norm) of the optimal-control reports at the default 1,000
# points of ``random.Random(seed)``, as the generated optimal-control
# functions wrote them when the sampler moved to ``random.Random``.  The
# array check took the counts unchanged and moved one maximum in its last
# bits: the disk's g2 stationarity at seed 2, from 1.576460772365419e-15.
# ``certify --check pontryagin`` runs the g1 check on the same points.  G2 is
# skipped where the measure is not constant.
GOLDEN_OPTIMAL_CONTROL = {
    ("free_particle", "g1", 1): (975, 0, 25, 5.329070518200751e-15, 1.0509738482436127e-15),
    ("free_particle", "g1", 2): (981, 0, 19, 3.552713678800501e-15, 1.0509738482436127e-15),
    ("free_particle", "g1", 3): (982, 0, 18, 4.440892098500626e-15, 1.0509738482436127e-15),
    ("knife_edge", "g1", 1): (974, 0, 26, 5.329070518200751e-15, 8.758115402030106e-16),
    ("knife_edge", "g1", 2): (982, 0, 18, 5.329070518200751e-15, 1.0509738482436127e-15),
    ("knife_edge", "g1", 3): (983, 0, 17, 5.329070518200751e-15, 1.0509738482436127e-15),
    ("vertical_disk", "g1", 1): (977, 0, 23, 4.440892098500626e-15, 1.401298464324817e-15),
    ("vertical_disk", "g1", 2): (986, 0, 14, 3.552713678800501e-15, 1.0509738482436127e-15),
    ("vertical_disk", "g1", 3): (985, 0, 15, 6.217248937900877e-15, 1.0509738482436127e-15),
    ("vertical_disk", "g2", 1): (987, 0, 13, 5.329070518200751e-15, 1.0509738482436127e-15),
    ("vertical_disk", "g2", 2): (978, 0, 22, 4.440892098500626e-15, 1.401298464324817e-15),
    ("vertical_disk", "g2", 3): (986, 0, 14, 5.329070518200751e-15, 1.401298464324817e-15),
}
GOLDEN_FIELDS = ("evaluated", "skipped_degenerate", "skipped_near_u1_zero",
                 "max_hamiltonian_deviation", "max_stationarity_norm")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("system", ["free_particle", "knife_edge", "vertical_disk"])
def test_optimal_control_reports_match_golden(system, seed, tmp_path):
    for kind in ("g1", "g2"):
        out = tmp_path / kind
        assert run_cli(["pontryagin-check", "--system", system, "--kind", kind,
                        "--seed", str(seed)], out) == 0
        report = load_report(out, f"{system}_pontryagin.json")
        golden = GOLDEN_OPTIMAL_CONTROL.get((system, kind, seed))
        if golden is None:
            assert report["status"] == "skipped"
        else:
            assert tuple(report[f] for f in GOLDEN_FIELDS) == golden
    assert run_cli(["certify", "--system", system, "--check", "pontryagin",
                    "--seed", str(seed)], tmp_path) == 0
    (check,) = load_report(tmp_path, f"{system}_certify.json")["checks"]
    details = check["details"]
    assert tuple(details[f] for f in GOLDEN_FIELDS) == GOLDEN_OPTIMAL_CONTROL[(system, "g1", seed)]


def count_control_calls(command, block, code, tmp_path, monkeypatch):
    """The report of ``command`` on 60 of the disk's points in blocks of
    ``block``, which must exit ``code``, the blocks of points of the array
    function's calls (one row per coordinate and momentum, r1 first) and the
    phase points of the scalar ``optimal_controls`` calls."""
    array_calls, scalar_calls = [], []
    check, exact = pontryagin._check_block, pontryagin.optimal_controls

    def counted(model, ps):
        scalar_calls.append(ps)
        return exact(model, ps)

    monkeypatch.setattr(pontryagin, "POINT_BLOCK", block)
    monkeypatch.setattr(pontryagin, "_check_block",
                        lambda model, points: array_calls.append(points) or check(model, points))
    monkeypatch.setattr(pontryagin, "optimal_controls", counted)
    assert run_cli(command + ["--system", "vertical_disk", "--samples", "60", "--seed", "3"],
                   tmp_path) == code
    report = load_report(tmp_path, f"vertical_disk_{command[0].split('-')[0]}.json")
    if command[0] == "certify":
        report = report["checks"][0]["details"]
    assert report["samples"] == 60
    assert len(array_calls) == -(-60 // block)
    assert sum(len(args[0]) for args in array_calls) == 60
    return report, scalar_calls


@pytest.mark.parametrize("command", [["pontryagin-check", "--kind", "g1"],
                                     ["pontryagin-check", "--kind", "g2"],
                                     ["certify", "--check", "pontryagin"]])
def test_optimal_controls_computed_once_per_point(command, tmp_path, monkeypatch):
    """Each block of sampled phase points computes its optimal controls in
    one call of the array function, and no point computes them again
    through the scalar function."""
    report, scalar_calls = count_control_calls(command, pontryagin.POINT_BLOCK, 0, tmp_path,
                                               monkeypatch)
    assert report["evaluated"] > 0
    assert scalar_calls == []


@pytest.mark.parametrize("command", [["pontryagin-check", "--kind", "g1"],
                                     ["certify", "--check", "pontryagin"]])
def test_degenerate_points_compute_their_controls_once(command, tmp_path, monkeypatch):
    """C2=1e-320 overflows every point's optimal controls, so the array
    function, called once per block of 7, counts every member degenerate,
    and no point computes its controls again through the scalar function."""
    report, scalar_calls = count_control_calls(command + ["--params", "C2=1e-320"], 7, 3,
                                               tmp_path, monkeypatch)
    assert (report["evaluated"], report["skipped_degenerate"]) == (0, 60)
    assert scalar_calls == []


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
    assert [m.coefficients for m in built] == [(2.0, -0.5)]  # the one model


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
    for name in ("hessian_field", "optimal_control_check"):
        _record_calls(monkeypatch, name, evaluated)
    assert run_cli(["certify", "--system", "vertical_disk", "--check", "g2", "--samples", "20",
                    "--params", "a3=-0.7,a4=0.5"], tmp_path) == 0
    assert built == [(-0.7, 0.5)]  # one model, shared by both halves
    assert {name for name, _ in evaluated} == {"hessian_field", "optimal_control_check"}
    assert {args[0].coefficients for _, args in evaluated} == {(-0.7, 0.5)}


@pytest.mark.parametrize("name", ["free_particle", "knife_edge", "vertical_disk"])
def test_certify_compiles_each_table_once(name, tmp_path, monkeypatch):
    """certify builds each object once: its checks compile 2 distinct tables
    (the weights and the second associated system's rates; the Phi towers
    and the knife edge's weight-override check are series, not tables) and
    no expression tuple twice, also on the disk, which runs the g2 suite."""
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
    assert len(compiled) == 2
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


def test_generated_sources_match_the_census():
    """The census commands, run in a fresh process, keep the exit codes,
    execute the generated sources and, where numpy's version and the machine
    are the manifest's, write the stdout, the stderr and the files whose
    sha256 hashes ``census_sources.json`` records."""
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "census_sources.py")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
    assert done.returncode == 0, done.stdout + done.stderr
