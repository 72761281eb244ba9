"""The benchmark's tracer (perfbench/tracing.py) still wraps the package.

The tracer looks package names up with ``getattr``, so a renamed function
would break only traced benchmark runs.  It monkeypatches the package, so it
runs here in a subprocess of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The optimal-control check decides every sampled point on its array
# function: it calls none of the scalar functions and no
# sampling.phase_points, so the commands below add nothing to the tracer's
# pontryagin.* counters.  Those come from the one optimal_hamiltonian_value
# call through the package, which counts each name.
SCRIPT = """
import json, sys
import tracing

tracer = tracing.install()
import hamiltonize
from hamiltonize import cli

out = sys.argv[1]
codes = [
    cli.main(["certify", "--system", "vertical_disk", "--samples", "20", "--out", out]),
    cli.main(["simulate", "--formulation", "hamiltonian", "--t", "0.01", "--out", out]),
    cli.main(["pontryagin-check", "--params", "C2=1e-320", "--samples", "5", "--out", out]),
]
model = hamiltonize.lagrangian_model(hamiltonize.builtin_system("free_particle"), "first")
hamiltonize.optimal_hamiltonian_value(model, hamiltonize.PhaseState((0.3, 0, 0), (1, 0.5, 0.5)))
print(json.dumps({"codes": codes, "counts": dict(tracer.counts)}))
"""


def test_tracer_installs_and_counts(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 3]
    counts = result["counts"]
    for name in ("pontryagin.optimal_controls", "pontryagin.pontryagin_hamiltonian",
                 "pontryagin.optimal_hamiltonian_value", "variational.hamiltonian_value",
                 "integrate.rhs"):
        assert counts.get(name, 0) > 0, name
