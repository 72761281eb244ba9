"""Long-span census: every formulation and kind on each built-in, and every
Lagrangian and Hamiltonian kind on the disk with m=2, I=3, J=0.5 and the
model coefficients ``CONSTANTS`` of ``test_integrate.py`` (every factor
other than 1.0), simulated to t=10 from the CLI's default initial jet at the
CLI's default step, gives the same bits through ``integrate`` as through the
array-state referee ``numpy_rk4`` of ``test_integrate.py``.  The spans
cross the knife edge's tan poles and the disk's E_b zeros; at 10,000 steps
each they are too slow for the test suite.

The referee runs the same right-hand side, so a change to a generated
kernel that moves a bit moves it in both.  Each run's states are therefore
also pinned: the sha256 of their bytes is compared with
``census_long_spans.json``, where the numpy version and the machine are
those the manifest was written on (as ``census_sources.py`` does).

    PYTHONPATH=src python tests/census_long_spans.py          # compare; exit 1 on a difference
    PYTHONPATH=src python tests/census_long_spans.py --write  # regenerate the manifest
"""

import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_integrate import CONSTANTS, _formulation_runs, _same_run  # noqa: E402

from hamiltonize import IntegratorConfig, builtin_system, third_associated  # noqa: E402
from hamiltonize.cli import RunManifest, default_initial_jet  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_long_spans.json")


def _platform() -> dict:
    """What the states' bits may depend on beyond the program."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def main(argv: list[str]) -> int:
    cfg = IntegratorConfig(h=RunManifest().h, t_span=(0.0, 10.0))
    hashes = {}
    spans = []
    for name in ("free_particle", "knife_edge", "vertical_disk"):
        system = builtin_system(name)
        runs = _formulation_runs(name, system)
        if not system.constant_measure:  # the suite runs kind third only where it is associated
            jet0 = default_initial_jet(system)
            runs.append(("sode-third", third_associated(system).ode(),
                         np.array(jet0.q + jet0.qdot)))
        spans += [(name, run) for run in runs]
    disk = builtin_system("vertical_disk", m=2.0, I=3.0, J=0.5)
    spans += [("vertical_disk m=2,I=3,J=0.5", run)
              for run in _formulation_runs("vertical_disk", disk, CONSTANTS)
              if run[0].startswith(("lagrangian", "hamiltonian"))]
    for name, (label, rhs, y0) in spans:
        start = time.perf_counter()
        states = _same_run(rhs, y0, cfg, f"{name} {label}").states
        hashes[f"{name} {label}"] = hashlib.sha256(states.tobytes()).hexdigest()
        print(f"{name:14} {label:22} same bits ({time.perf_counter() - start:.1f} s)")
    print(f"{len(hashes)} runs of {cfg.steps} steps: every one matches the referee")
    if argv == ["--write"]:
        with open(MANIFEST, "w") as f:
            json.dump({"platform": _platform(), "states": hashes}, f, indent=1)
            f.write("\n")
        print(f"wrote {len(hashes)} state hashes to {MANIFEST}")
        return 0
    with open(MANIFEST) as f:
        manifest = json.load(f)
    if manifest["platform"] != _platform():
        print(f"states not compared with the manifest: it was written on {manifest['platform']}, "
              f"this is {_platform()}")
        return 0
    differ = sorted(run for run in manifest["states"].keys() | hashes.keys()
                    if manifest["states"].get(run) != hashes.get(run))
    for run in differ:
        print(f"states differ from the manifest: {run}")
    print(f"{len(hashes) - len(differ)} of {len(hashes)} runs match the manifest's states")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
