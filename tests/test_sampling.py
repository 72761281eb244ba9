"""The samplers' stream draws exactly what ``numpy.random.default_rng`` draws.

Every report's sampled points are fixed by the seed, so ``Stream(seed)``
must give the values of the numpy generator seeded alike and pass through
the same states.  The reference sampler below is the per-point numpy
sampler the package used before: ``rng.uniform`` and ``rng.choice``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import hamiltonize
from hamiltonize.errors import EvaluationError
from hamiltonize.sampling import (
    Stream,
    _draw,
    constraint_jets,
    generic_jets,
    phase_points,
    sample_r1,
)
from hamiltonize.systems import BUILTIN_NAMES, builtin_system


def numpy_state(rng):
    """(state, inc, pending half or None) of a numpy PCG64 generator."""
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["uinteger"] if state["has_uint32"] else None)


def stream_state(stream):
    return stream.state, stream.inc, stream.pending


def test_stream_matches_default_rng():
    """Over seeds of one, two to four and more than four 32-bit words,
    any interleaving of ``random(k)`` and ``halves(k)`` gives the values of
    numpy's ``random(k)`` and the sign draws of ``integers(0, 2, k)``, and
    leaves the stream in numpy's state after every call, k = 0 included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                      st.integers(2**128, 2**256), st.sampled_from([0, 1, 2**32, 2**256]))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(seeds, st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=20))
    def agree(seed, draws):
        stream, rng = Stream(seed), np.random.default_rng(seed)
        assert stream_state(stream) == numpy_state(rng)
        for signs, k in draws:
            if signs:
                assert [h >> 31 for h in stream.halves(k)] == rng.integers(0, 2, k).tolist()
            else:
                assert [x.hex() for x in stream.random(k)] == [x.hex() for x in rng.random(k)]
            assert stream_state(stream) == numpy_state(rng)

    agree()


def test_draws_match_uniform_and_choice_bit_for_bit():
    """Over seeds, ranges and sizes 1-5, ``_draw`` returns the values of
    ``uniform(-1, 1, coords)``, ``uniform(lo, hi, count)`` times
    ``choice((-1.0, 1.0), count)``, and ``sample_r1``'s scalar draw is
    ``uniform(-1, 1)``; stream and generator end in the same state."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bounds = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**63), st.integers(1, 5), st.integers(1, 5),
                      st.tuples(bounds, bounds).map(sorted))
    def agree(seed, coords, count, limits):
        lo, hi = limits
        stream, ref = Stream(seed), np.random.default_rng(seed)
        rest, signed = _draw(stream, coords, count, lo, hi)
        assert [v.hex() for v in rest] == [v.hex() for v in ref.uniform(-1.0, 1.0, coords)]
        expected = ref.uniform(lo, hi, size=count) * ref.choice((-1.0, 1.0), size=count)
        assert [v.hex() for v in signed] == [v.hex() for v in expected]
        assert all(type(v) is float for v in rest + signed)
        assert (-1.0 + 2.0 * stream.random(1)[0]).hex() == float(ref.uniform(-1.0, 1.0)).hex()
        assert stream_state(stream) == numpy_state(ref)

    agree()


def _reference_sample_r1(sys, rng):
    for _ in range(1000):
        r1 = float(rng.uniform(-1.0, 1.0))
        try:
            if all(abs(fn(r1)) >= 0.15 for fn in sys.a_fns):
                sys.measure_fn(r1)
                return r1
        except EvaluationError:
            continue
    raise EvaluationError("could not sample a generic r1 in [-1, 1]")


def _reference_point(sys, rng, count):
    q = (_reference_sample_r1(sys, rng),) + tuple(rng.uniform(-1.0, 1.0, size=sys.n - 1))
    rates = rng.uniform(0.5, 2.0, size=count) * rng.choice((-1.0, 1.0), size=count)
    return q, tuple(rates)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_samplers_keep_their_points(name):
    """Each sampler returns the points the reference numpy sampler gives
    with the same seed, and leaves the stream where it leaves numpy's
    generator."""
    sys = builtin_system(name)
    n = sys.n
    for sampler, count in ((generic_jets, n), (constraint_jets, 2), (phase_points, n)):
        stream, ref = Stream(11), np.random.default_rng(11)
        for item in sampler(sys, 50, stream):
            q, rates = _reference_point(sys, ref, count)
            assert item.q == q
            if sampler is constraint_jets:
                assert item == sys.on_constraint(q, *rates)
            else:
                assert (item.p if sampler is phase_points else item.qdot) == rates
        assert sample_r1(sys, stream) == _reference_sample_r1(sys, ref)
        assert stream_state(stream) == numpy_state(ref)


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


def test_stream_rejects_a_negative_seed():
    """A negative seed is refused, as numpy's SeedSequence refuses it,
    rather than read as its two's-complement words."""
    with pytest.raises(ValueError, match="seed must be >= 0"):
        Stream(-1)
