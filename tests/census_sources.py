"""Command census: a fixed list of commands, each run through ``cli.main``
into a temporary directory, gives what ``census_sources.json`` records of
it: the exit code, the sources that ``expr.define`` executes, and its
outputs.  A source is recorded as its sha256, and a command's as the sorted
list of them, one entry per execution.  The outputs are the sha256 of
stdout, of stderr and of each file written under the command's ``--out``,
keyed by its path there, each with that directory's path replaced by
``OUT_TOKEN`` (the ``simulate`` report names its CSV).  The commands run in
one fresh process, in list order, so what one builds and caches is not built
again by a later one, from a temporary directory that holds the spec files
of ``SPECS``, which the ``--spec`` commands name.

Exit codes and sources are compared everywhere.  The outputs hold numbers
that numpy's functions may round differently elsewhere, so they are
compared only where the numpy version and the machine are those the
manifest was written on; otherwise one line says that they were not.

A change that alters an exit code, a generated source or an output
regenerates the manifest in the same diff, so the change shows in review:

    PYTHONPATH=src python tests/census_sources.py          # compare; exit 1 on a difference
    PYTHONPATH=src python tests/census_sources.py --write  # regenerate the manifest
"""

import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from hamiltonize import cli, expr

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_sources.json")
OUT_TOKEN = b"<out>"

POLE = "--ic phi=1.5707963267948966"  # the knife edge's tan pole, the disk's cos(r1) root
# specs whose coefficients have constant parts, each generated as one literal
SPECS = {f"{name}.system": f"I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = {coefficient}\nnames = phi, x, y\n"
         for name, coefficient in (("constant_product", "2*3*r1"),
                                   ("constant_nested", "cos(0.7)/(exp(r1+2+1.3)^2+1) + r1"))}
SIMULATIONS = ["nonholonomic", "lagrangian --lag-kind first", "lagrangian --lag-kind variational",
               "hamiltonian", "sode --sode first", "sode --sode second", "sode --sode third"]
COMMANDS = [
    *(f"{command} --system {system}"
      for system in ("free_particle", "knife_edge", "vertical_disk")
      for command in ("certify", "helmholtz-check --depth 5", "measure-check",
                      "pontryagin-check --kind g1",
                      *(f"simulate --t 0.5 --formulation {run}" for run in SIMULATIONS))),
    "pontryagin-check --kind g2 --system vertical_disk",
    "simulate --t 0.5 --formulation hamiltonian --ham-kind second --system vertical_disk",
    "simulate --t 0.5 --formulation lagrangian --lag-kind second --system vertical_disk",
    "compare --system vertical_disk --formulation nonholonomic,lagrangian,hamiltonian,closed-form"
    " --tol 1e-5 --t 1",
    *(f"simulate --t 0.5 --formulation {run} {POLE} --system knife_edge"
      for run in ("sode --sode second", "lagrangian", "hamiltonian")),
    f"simulate --t 0.5 --formulation lagrangian --lag-kind second {POLE} --system vertical_disk",
    *(f"helmholtz-check --depth 5 --params C2=2,C3=-0.5 --system {system}"
      for system in ("free_particle", "knife_edge", "vertical_disk")),
    "certify --system knife_edge --params m=2,J=3",
    *(f"{command} --spec {spec}" for spec in SPECS
      for command in ("certify", "simulate --t 0.5 --formulation lagrangian")),
    # model constants other than 1.0, whose factors the generated programs keep
    *(f"simulate --t 0.5 --formulation {run} --params C2=2,C3=-0.5 --system {system}"
      for system in ("free_particle", "knife_edge", "vertical_disk")
      for run in ("lagrangian", "hamiltonian")),
    *(f"simulate --t 0.5 --formulation {run} --params a3=-0.7,a4=0.5 --system vertical_disk"
      for run in ("lagrangian --lag-kind second", "hamiltonian --ham-kind second")),
    # a -0.0 start in a slot whose slope is the literal 0.0
    *(f"simulate --t 0.5 --formulation {run} --ic dphi=-0.0 --system vertical_disk"
      for run in ("nonholonomic", "sode --sode second", "sode --sode third")),
    "simulate --t 0.5 --formulation hamiltonian --ic dtheta=-0.0 --system vertical_disk",
    *(f"compare --system {system} --formulation nonholonomic,lagrangian,hamiltonian --t 1"
      for system in ("knife_edge", "free_particle")),
    *(f"simulate --t 0.5 --formulation closed-form {option} --system vertical_disk"
      for option in ("--params R=0.7", "--ic dphi=0")),
    # the Legendre map and the phase constraints: at the disk's cos root, where
    # the image is not finite, on the specs, and on the disk's second kind
    *(f"simulate --t 0.5 --formulation hamiltonian{kind} {POLE} --system vertical_disk"
      for kind in ("", " --ham-kind second")),
    "simulate --t 0.5 --formulation hamiltonian --params J=1e308"
    " --ic dphi=1,phi=2.0,dx=3e154,dy=3e154 --system knife_edge",
    *(f"simulate --t 0.5 --formulation hamiltonian --spec {spec}" for spec in SPECS),
    "compare --system vertical_disk --formulation nonholonomic,hamiltonian --ham-kind second"
    " --params a3=-0.7,a4=0.5 --t 1",
    # each check of certify alone
    *(f"certify --check {check} --system vertical_disk"
      for check in ("measure", "singularity", "helmholtz", "pontryagin", "g2")),
    # the README's command lines, spaced as it writes them (which keeps its
    # certify and measure-check on the knife edge apart from those above);
    # the --out that every command is given last wins over "--out runs"
    "simulate --system vertical_disk --formulation nonholonomic --t 10 --out runs",
    "simulate --system free_particle --formulation hamiltonian --ic-on-constraint",
    "compare  --system vertical_disk"
    " --formulation nonholonomic,lagrangian,hamiltonian,closed-form --tol 1e-5",
    "certify  --system knife_edge",
    "certify  --system knife_edge --check g2",
    "helmholtz-check  --system free_particle --samples 50",
    "pontryagin-check --system vertical_disk --kind g2 --samples 1000 --seed 1",
    "measure-check    --system knife_edge",
]


def _platform() -> dict:
    """What the outputs' numbers may depend on beyond the program."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def _digest(data: bytes, out: str) -> str:
    return hashlib.sha256(data.replace(out.encode(), OUT_TOKEN)).hexdigest()


def _outputs(stdout: str, stderr: str, out: str) -> dict:
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, out)] = _digest(f.read(), out)
    return {"stdout": _digest(stdout.encode(), out), "stderr": _digest(stderr.encode(), out),
            "files": dict(sorted(files.items()))}


def census() -> dict:
    """Each command's exit code, the sorted sha256 of the sources it
    executes, and the sha256 of its outputs."""
    record, hashes = {}, []

    def recording_exec(source, namespace):
        hashes.append(hashlib.sha256(source.encode()).hexdigest())
        exec(source, namespace)

    expr.exec = recording_exec  # ``define`` reads exec from its module before the builtins
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, text in SPECS.items():
                with open(name, "w") as f:
                    f.write(text)
            for i, command in enumerate(COMMANDS):
                hashes.clear()
                out, stdout, stderr = os.path.join(tmp, str(i)), io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main([*command.split(), "--out", out])
                record[command] = {"exit": code, "sources": sorted(hashes),
                                   "outputs": _outputs(stdout.getvalue(), stderr.getvalue(), out)}
    finally:
        os.chdir(cwd)
        del expr.exec
    return record


def _differences(expected: dict | None, found: dict | None, outputs: bool) -> list[str]:
    """The parts of one command's record that differ from the manifest's."""
    if expected is None or found is None:
        return ["missing from the " + ("manifest" if expected is None else "census")]
    parts = [key for key in ("exit", "sources") if expected[key] != found[key]]
    if outputs:
        before, after = expected["outputs"], found["outputs"]
        parts += [key for key in ("stdout", "stderr") if before[key] != after[key]]
        parts += [path for path in sorted(before["files"].keys() | after["files"].keys())
                  if before["files"].get(path) != after["files"].get(path)]
    return parts


def main(argv: list[str]) -> int:
    record = census()
    if argv == ["--write"]:
        with open(MANIFEST, "w") as f:
            json.dump({"platform": _platform(), "commands": record}, f, indent=1)
            f.write("\n")
        print(f"wrote {len(record)} commands to {MANIFEST}")
        return 0
    with open(MANIFEST) as f:
        manifest = json.load(f)
    written, here = manifest["platform"], _platform()
    outputs = written == here
    if not outputs:
        print(f"outputs not compared: the manifest was written with numpy {written['numpy']} "
              f"on {written['machine']}, this is numpy {here['numpy']} on {here['machine']}")
    commands, differ = manifest["commands"], 0
    for command in sorted(commands.keys() | record.keys()):
        parts = _differences(commands.get(command), record.get(command), outputs)
        if parts:
            differ += 1
            print(f"differs from the manifest: {command}: {', '.join(parts)}")
    total = sum(len(entry["sources"]) for entry in record.values())
    files = sum(len(entry["outputs"]["files"]) for entry in record.values())
    print(f"{len(record)} commands, {total} sources, {files} files: "
          f"{differ} differ from the manifest")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
