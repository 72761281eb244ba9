"""The samplers draw exactly what ``rng.uniform`` and ``rng.choice`` drew.

Every report's sampled points are fixed by the seed, so a faster way to draw
them must take the same values from the generator and leave it in the same
state.  The reference calls below are the ones the samplers used to make.
"""

import numpy as np
import pytest

from hamiltonize.errors import EvaluationError
from hamiltonize.sampling import _draw, constraint_jets, generic_jets, phase_points, sample_r1
from hamiltonize.systems import BUILTIN_NAMES, builtin_system


def test_draws_match_uniform_and_choice_bit_for_bit():
    """Over seeds, ranges and sizes 1-5, ``_draw`` returns the values of
    ``uniform(-1, 1, coords)``, ``uniform(lo, hi, count)`` times
    ``choice((-1.0, 1.0), count)``, and ``sample_r1``'s scalar draw is
    ``uniform(-1, 1)``; both generators end in the same state."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bounds = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**63), st.integers(1, 5), st.integers(1, 5),
                      st.tuples(bounds, bounds).map(sorted))
    def agree(seed, coords, count, limits):
        lo, hi = limits
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rest, signed = _draw(rng, coords, count, lo, hi)
        assert [v.hex() for v in rest] == [v.hex() for v in ref.uniform(-1.0, 1.0, coords)]
        expected = ref.uniform(lo, hi, size=count) * ref.choice((-1.0, 1.0), size=count)
        assert [v.hex() for v in signed] == [v.hex() for v in expected]
        assert all(type(v) is float for v in rest + signed)
        assert (-1.0 + 2.0 * rng.random()).hex() == float(ref.uniform(-1.0, 1.0)).hex()
        assert rng.bit_generator.state == ref.bit_generator.state

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
    """Each sampler returns the points the reference calls give, and leaves
    the generator where they leave it."""
    sys = builtin_system(name)
    n = sys.n
    for sampler, count in ((generic_jets, n), (constraint_jets, 2), (phase_points, n)):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for item in sampler(sys, 50, rng):
            q, rates = _reference_point(sys, ref, count)
            assert item.q == q
            if sampler is constraint_jets:
                assert item == sys.on_constraint(q, *rates)
            else:
                assert (item.p if sampler is phase_points else item.qdot) == rates
        assert sample_r1(sys, rng) == _reference_sample_r1(sys, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
