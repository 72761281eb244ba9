"""Long-span census: every formulation and kind on each built-in, simulated
to t=10 from the CLI's default initial jet at the CLI's default step, gives
the same bits through ``integrate`` as through the array-state referee
``numpy_rk4`` of ``test_integrate.py``, or aborts where it does.  The
spans cross the knife edge's tan poles and the disk's E_b zeros; at 10,000
steps each they are too slow for the test suite.

    PYTHONPATH=src python tests/census_long_spans.py
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_integrate import _formulation_runs, _same_run  # noqa: E402

from hamiltonize import IntegratorConfig, builtin_system, third_associated  # noqa: E402
from hamiltonize.cli import RunManifest, default_initial_jet  # noqa: E402


def main() -> int:
    cfg = IntegratorConfig(h=RunManifest().h, t_span=(0.0, 10.0))
    count = 0
    for name in ("free_particle", "knife_edge", "vertical_disk"):
        system = builtin_system(name)
        runs = _formulation_runs(name, system)
        if not system.constant_measure:  # the suite runs kind third only where it is associated
            jet0 = default_initial_jet(system)
            runs.append(("sode-third", third_associated(system).ode(),
                         np.array(jet0.q + jet0.qdot)))
        for label, rhs, y0 in runs:
            start = time.perf_counter()
            _same_run(rhs, y0, cfg, f"{name} {label}")
            print(f"{name:14} {label:22} same bits ({time.perf_counter() - start:.1f} s)")
            count += 1
    print(f"{count} runs of {cfg.steps} steps: every one matches the referee")
    return 0


if __name__ == "__main__":
    sys.exit(main())
