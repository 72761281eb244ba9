"""CSV text census: ``Trajectory.write_csv`` writes each of 3,200,000 values
exactly as a per-value ``"%.17g"`` would.  The values come from a fixed seed,
drawn from the rounding probes of ``csv_families`` in ``test_integrate.py``
(bit patterns, neighbours of powers of ten, decade and range edges, exact and
nearest half-way values, integers above 2**53), 8 to a row, written and
compared 200,000 at a time.  Too slow for the test suite.

    PYTHONPATH=src python tests/census_csv_text.py
"""

import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_integrate import csv_families  # noqa: E402

from hamiltonize import Trajectory  # noqa: E402

VALUES = 3_200_000
BATCH = 200_000
SEED = 34


def main() -> int:
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    total = mismatched = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "census.csv")
        while total < VALUES:
            values = csv_families(rng, BATCH)
            states = values[: len(values) // 8 * 8].reshape(-1, 8)
            Trajectory(np.arange(len(states), dtype=float), states, tuple("abcdefgh"),
                       "census").write_csv(path)
            with open(path, encoding="ascii") as fh:
                lines = fh.read().split("\n")
            assert lines[0] == "t,a,b,c,d,e,f,g,h" and lines[-1] == "" and len(lines) == len(states) + 2
            for k, (line, row) in enumerate(zip(lines[1:], states.tolist())):
                expected = ["%.17g" % v for v in (k, *row)]
                if line != ",".join(expected):
                    mismatched += sum(a != b for a, b in zip(line.split(","), expected))
            total += states.size
    print(f"{total} values from seed {SEED}: {mismatched} differ from \"%.17g\" "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
