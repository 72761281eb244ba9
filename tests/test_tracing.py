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

SCRIPT = """
import json, sys
import tracing

tracer = tracing.install()
from hamiltonize import cli

out = sys.argv[1]
codes = [
    cli.main(["certify", "--system", "vertical_disk", "--samples", "20", "--out", out]),
    cli.main(["simulate", "--formulation", "hamiltonian", "--t", "0.01", "--out", out]),
]
print(json.dumps({"codes": codes, "counts": dict(tracer.counts)}))
"""


def test_tracer_installs_and_counts(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0]
    counts = result["counts"]
    for name in ("pontryagin.optimal_controls", "pontryagin.pontryagin_hamiltonian",
                 "pontryagin.optimal_hamiltonian_value", "variational.hamiltonian_value",
                 "integrate.rhs"):
        assert counts.get(name, 0) > 0, name
