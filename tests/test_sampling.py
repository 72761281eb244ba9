"""The samplers draw generic, reproducible points from ``random.Random``.

Every report's sampled points are fixed by the seed.  The checks need only
generic points, so what is tested is the samplers' contract: the seed
fixes the points, coordinates stay in [-1, 1) away from coefficient zeros,
speeds have magnitudes in ``SPEEDS`` and both signs, and constrained jets
lie on the constraint.
"""

import os
import subprocess
import sys
from random import Random

import numpy as np
import pytest

import hamiltonize
from hamiltonize.helmholtz import singularity_certificate
from hamiltonize.sampling import (
    MIN_COEFF,
    SPEEDS,
    constraint_jets,
    generic_jets,
    phase_points,
)
from hamiltonize.sode import first_associated
from hamiltonize.systems import BUILTIN_NAMES, builtin_system


def test_samplers_draw_generic_reproducible_points():
    """Over the built-ins and several seeds, each sampler gives the same
    points for the same seed, at an r1 in [-1, 1) where every |A_a| is at
    least ``MIN_COEFF`` and N is defined, the other coordinates in [-1, 1),
    speeds of magnitude in ``SPEEDS`` with both signs, and constrained jets
    on the constraint.  The certificate refuses a negative seed, which
    ``Random`` would read as its absolute value."""
    speeds = {generic_jets: lambda jet: jet.qdot, phase_points: lambda ps: ps.p,
              constraint_jets: lambda jet: jet.qdot[:2]}
    for name in BUILTIN_NAMES:
        sys_ = builtin_system(name)
        for seed in (0, 1, 7, 2**40):
            for sampler, speed in speeds.items():
                points = sampler(sys_, 50, Random(seed))
                assert sampler(sys_, 50, Random(seed)) == points
                for point in points:
                    r1, *rest = point.q
                    assert -1.0 <= r1 < 1.0 and all(-1.0 <= x < 1.0 for x in rest)
                    assert all(abs(fn(r1)) >= MIN_COEFF for fn in sys_.a_fns)
                    assert sys_.measure_fn(r1) > 0.0
                    if sampler is constraint_jets:
                        assert point == sys_.on_constraint(point.q, *point.qdot[:2])
                rates = [v for point in points for v in speed(point)]
                assert all(SPEEDS[0] <= abs(v) < SPEEDS[1] for v in rates)
                assert min(rates) < 0.0 < max(rates)
    jets = generic_jets(sys_, 5, Random(0))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        singularity_certificate(first_associated(sys_), jets, seed=-1)


@pytest.mark.parametrize("argv", [
    ["certify", "--samples", "5"],
    ["helmholtz-check", "--samples", "5"],
    ["pontryagin-check", "--samples", "20"],
    ["pontryagin-check", "--kind", "g2", "--samples", "20"],
    ["measure-check", "--samples", "5"],
])
def test_sampling_commands_never_import_numpy_random(argv, tmp_path):
    """A sampling command runs to its verdict without importing
    ``numpy.random``, whose import costs more than a 50-jet certificate.
    numpy 1.x imports it within ``import numpy`` itself, which the package
    cannot avoid, so there the test is skipped."""
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
            "from hamiltonize.cli import main; code = main(sys.argv[1:]); "
            "print(eager, code, 'numpy.random' in sys.modules, file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(hamiltonize.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--system", "vertical_disk", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    last = done.stderr.splitlines()[-1]
    if last.startswith("True "):
        pytest.skip(f"numpy {np.__version__} imports numpy.random within import numpy")
    assert last == "False 0 False", done.stderr
