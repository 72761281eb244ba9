"""Generated-source census: a fixed list of commands, each run through
``cli.main`` into a temporary directory, gives the exit code and the sources
that ``expr.define`` executes recorded in ``census_sources.json``.  A source
is recorded as its sha256, and a command's as the sorted list of them, one
entry per execution.  The commands run in one fresh process, in list order,
so what one builds and caches is not built again by a later one.

A change that alters a generated source or an exit code regenerates the
manifest in the same diff, so the change shows in review:

    PYTHONPATH=src python tests/census_sources.py          # compare; exit 1 on a difference
    PYTHONPATH=src python tests/census_sources.py --write  # regenerate the manifest
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hamiltonize import cli, expr

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_sources.json")

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
]


def census() -> dict:
    """Each command's exit code and the sorted sha256 of the sources it executes."""
    record, hashes = {}, []

    def recording_exec(source, namespace):
        hashes.append(hashlib.sha256(source.encode()).hexdigest())
        exec(source, namespace)

    expr.exec = recording_exec  # ``define`` reads exec from its module before the builtins
    try:
        with (tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()),
              redirect_stderr(io.StringIO())):
            for i, command in enumerate(COMMANDS):
                hashes.clear()
                code = cli.main([*command.split(), "--out", os.path.join(out, str(i))])
                record[command] = {"exit": code, "sources": sorted(hashes)}
    finally:
        del expr.exec
    return record


def main(argv: list[str]) -> int:
    record = census()
    if argv == ["--write"]:
        with open(MANIFEST, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"wrote {len(record)} commands to {MANIFEST}")
        return 0
    with open(MANIFEST) as f:
        manifest = json.load(f)
    differ = [c for c in manifest.keys() | record.keys() if manifest.get(c) != record.get(c)]
    for command in sorted(differ):
        print(f"differs from the manifest: {command}")
    total = sum(len(entry["sources"]) for entry in record.values())
    print(f"{len(record)} commands, {total} sources: {len(differ)} differ from the manifest")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
