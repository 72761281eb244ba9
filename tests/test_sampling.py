"""The samplers draw generic, reproducible points from ``random.Random``.

Every report's sampled points are fixed by the seed.  The checks need only
generic points, so what is tested is the samplers' contract: the seed
fixes the points, coordinates stay in [-1, 1) away from coefficient zeros,
speeds have magnitudes in ``SPEEDS`` and both signs, and constrained jets
lie on the constraint.
"""

import contextlib
import itertools
import os
import re
import subprocess
import sys
from random import Random

import numpy as np
import pytest

import hamiltonize
from hamiltonize import sampling
from hamiltonize.cli import main
from hamiltonize.errors import ConfigError, EvaluationError
from hamiltonize.sampling import (
    MIN_COEFF,
    SPEEDS,
    constraint_jets,
    generic_jets,
    phase_points,
)
from hamiltonize.systems import BUILTIN_NAMES, builtin_system, parse_system_file

import sampling_oracle as referee


def test_samplers_draw_generic_reproducible_points():
    """Over the built-ins and several seeds, each sampler gives the same
    points for the same seed, at an r1 in [-1, 1) where every |A_a| is at
    least ``MIN_COEFF`` and N is defined, the other coordinates in [-1, 1),
    speeds of magnitude in ``SPEEDS`` with both signs, and constrained jets
    on the constraint."""
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


# --- the block draw against the point-by-point referee ------------------------------

SAMPLERS = ("generic_r1", "generic_jets", "constraint_jets", "phase_points", "phase_rows")


def spec(*coefficients: str, inertia: float = 1.0):
    """A spec with I1 = I2 = 1 and one ``s`` coordinate of inertia ``inertia``
    per coefficient."""
    names = ", ".join(["a", "b", *(f"s{i}" for i in range(len(coefficients)))])
    inertias = ", ".join([str(inertia)] * len(coefficients))
    return parse_system_file(f"I1 = 1\nI2 = 1\nI_alpha = {inertias}\n"
                             f"A_alpha = {', '.join(coefficients)}\nnames = {names}\n")


def same_draws(sys_, name, count, ours, theirs):
    """``name`` draws the same ``count`` points from the streams ``ours`` and
    ``theirs``, package and referee, or raises the same error, and leaves
    the two streams in the same state."""
    try:
        expected = getattr(referee, name)(sys_, count, theirs)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError, match=re.escape(str(exc))):
            getattr(sampling, name)(sys_, count, ours)
    else:
        got = getattr(sampling, name)(sys_, count, ours)
        if name == "phase_rows":
            assert got.shape == (2 * sys_.n, count) and got.flags.c_contiguous
            got, expected = got.T.tolist(), [list(row) for row in expected]
        assert got == expected
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_samplers_match_the_referee_on_the_builtins(name):
    """Every sampler draws the referee's points, bit for bit, and leaves the
    generator where the referee does, for counts that fit one block and
    ones that need several top-ups."""
    sys_ = builtin_system(name)
    for seed in (0, 1, 7, 2**40):
        for count in (1, 7, 300, 4096, 4097):
            for sampler in SAMPLERS:
                same_draws(sys_, sampler, count, Random(seed), Random(seed))


def test_successive_draws_on_one_stream_match_the_referee():
    """Samplers called in turn on one shared generator keep the referee's
    points and state: each call starts where the last one left it."""
    for name in BUILTIN_NAMES:
        sys_ = builtin_system(name)
        ours, theirs = Random(11), Random(11)
        for count, sampler in zip((7, 300, 1, 4096, 5, 2), SAMPLERS + ("generic_jets",)):
            same_draws(sys_, sampler, count, ours, theirs)


@pytest.mark.parametrize("coefficients", [
    ("ln(r1)",), ("sqrt(r1)",), ("tan(3*r1)",), ("1/(r1-0.3)",), ("ln(r1)", "1/(r1-0.3)"),
    ("1 + 1/exp(1/(r1-0.3))",),
])
def test_domain_holes_and_poles_match_the_referee(coefficients):
    """Where a coefficient or N is undefined on part of [-1, 1], or has a
    pole there, the tries it rejects are the referee's."""
    sys_ = spec(*coefficients)
    for seed in (0, 1, 7, 2**40):
        for count, sampler in zip((1, 7, 300, 4097), ("phase_rows", "generic_jets",
                                                      "constraint_jets", "generic_r1")):
            same_draws(sys_, sampler, count, Random(seed), Random(seed))


def try_positions(tries, width):
    """The index of each of the referee's tries among the stream's draws,
    and whether it was a miss."""
    at, out = 0, []
    for _, generic in tries:
        out.append((at, not generic))
        at += width if generic else 1
    return out


@pytest.mark.parametrize("coefficient", ["0.15 + 0.01*sin(200*r1)", "r1/6.6",
                                         "0.15 + 1e-8*sin(200*r1)"])
def test_runs_of_misses_across_top_ups_match_the_referee(coefficient, monkeypatch):
    """A coefficient that crosses ``MIN_COEFF`` often, rarely leaves it, or
    stays within 1e-8 of it gives runs of misses; where such a run spans
    the end of one block of draws and the start of the next, the points and
    the generator's state are still the referee's."""
    sys_ = spec(coefficient)
    sizes = []  # the sampler's blocks of draws, each ``repeat(stream, size)``
    monkeypatch.setattr(sampling, "repeat",
                        lambda stream, k: sizes.append(k) or itertools.repeat(stream, k))
    spanned = 0
    for seed in range(4):
        sizes.clear()
        same_draws(sys_, "phase_rows", 300, Random(seed), Random(seed))
        tries = []
        referee.phase_rows(sys_, 300, Random(seed), tries)
        misses = {at for at, miss in try_positions(tries, 3 * sys_.n) if miss}
        ends = np.cumsum(sizes)[:-1]
        spanned += sum(end - 1 in misses and end in misses for end in ends)
    assert spanned > 0


def boundary_spec(tries: int):
    """A seed and a spec ``A = k*r1`` whose first ``tries`` tries from
    ``Random(seed)`` miss and whose next one is accepted: k puts
    ``MIN_COEFF`` halfway between the largest |r1| of the misses and that
    try's."""
    for seed in itertools.count():
        draw = Random(seed).random
        r1 = [abs(-1.0 + 2.0 * draw()) for _ in range(tries + 1)]
        if r1[-1] > max(r1[:-1]) * (1 + 1e-9):
            return seed, spec(f"{2 * MIN_COEFF / (r1[-1] + max(r1[:-1]))!r}*r1")


@pytest.mark.parametrize("misses", [999, 1000])
def test_the_last_allowed_miss_matches_the_referee(misses):
    """A try after 999 misses is still drawn and accepted; after 1,000 the
    sampler gives up, as the referee does."""
    seed, sys_ = boundary_spec(misses)
    for sampler in SAMPLERS:
        same_draws(sys_, sampler, 1, Random(seed), Random(seed))
    with pytest.raises(EvaluationError) if misses == 1000 else contextlib.nullcontext():
        sampling.generic_r1(sys_, 1, Random(seed))


def test_no_generic_r1_gives_the_referees_error(tmp_path, capsys):
    """The disk written in the coordinates s/10 has |A| <= 0.1 < MIN_COEFF
    everywhere: every sampler raises the referee's error after the same
    draws, and the commands exit 2 with its one line."""
    disk = spec("-0.1*cos(r1)", "-0.1*sin(r1)", inertia=100.0)
    for sampler in SAMPLERS:
        for seed, count in ((0, 1), (1, 300), (2, 4097)):
            same_draws(disk, sampler, count, Random(seed), Random(seed))
    path = tmp_path / "disk.txt"
    path.write_text("I1 = 1\nI2 = 1\nI_alpha = 100, 100\nA_alpha = -0.1*cos(r1), -0.1*sin(r1)\n"
                    "names = phi, theta, x, y\n")
    for command in ("certify", "pontryagin-check", "helmholtz-check", "measure-check"):
        assert main([command, "--spec", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "runtime error: could not sample a generic r1 in [-1, 1]\n")


# --- the array acceptance against the scalar test --------------------------------


def drawn_coefficient(draw: Random, depth: int = 3) -> str:
    """A coefficient over a small grammar: r1, shifted and squared r1,
    constants, sin, cos, exp, a positive square root, sums, differences,
    products and a pole-free quotient, nested at most ``depth`` deep."""
    if depth == 0 or draw.random() < 0.3:
        return draw.choice(["r1", "(r1+2)", "(r1^2+0.5)", "0.7", "2", "3*r1"])
    inner = [drawn_coefficient(draw, depth - 1) for _ in range(2)]
    return draw.choice([
        f"sin({inner[0]})", f"cos({inner[0]})", f"exp({inner[0]})",
        f"sqrt(({inner[0]})^2+0.1)", f"({inner[0]}) + ({inner[1]})",
        f"({inner[0]}) - ({inner[1]})", f"({inner[0]}) * ({inner[1]})",
        f"({inner[0]}) / (({inner[1]})^2+1)",
    ])


def drawn_specs(count: int):
    draw = Random(2024)
    while count:
        try:
            sys_ = spec(*(drawn_coefficient(draw) for _ in range(1 + (draw.random() < 0.5))),
                        inertia=0.5 + 2.5 * draw.random())
        except ConfigError:  # a constant coefficient: the class excludes it
            continue
        count -= 1
        yield sys_


def test_array_acceptance_gives_the_scalar_verdict_at_every_try():
    """At every try the referee makes, on the built-ins and on drawn specs,
    the array acceptance's verdict is the compiled scalar functions'."""
    systems = [builtin_system(name) for name in BUILTIN_NAMES] + list(drawn_specs(36))
    for sys_ in systems:
        tries = []
        try:
            referee.phase_points(sys_, 200, Random(5), tries)
        except EvaluationError:
            pass
        r1, verdicts = np.array([r1 for r1, _ in tries]), [generic for _, generic in tries]
        assert sampling._generic(sys_, r1).tolist() == verdicts
        assert verdicts == [referee.is_generic(sys_, float(x)) for x in r1]


def test_near_bound_and_non_finite_values_take_the_array_verdict():
    """Tries whose |A_a| lies within a few parts in a million of
    ``MIN_COEFF``, or whose code meets a non-finite value, are decided by the
    array code alone, with the compiled scalar functions' verdict.
    ``1 + 1/exp(1/(r1 - 0.3))`` reads 1 on numpy just above 0.3, where exp
    overflows and the compiled code raises.  The array rule is stricter only
    where a product of finite values overflows: the compiled code of ``1 +
    1/(exp(400*r1)*exp(400*r1))`` reads 1.0 at r1 = 0.9, and the array code's
    infinite node makes that try a miss."""
    cases = [
        (builtin_system("free_particle"),  # A = r1
         [MIN_COEFF * (1 + 0.5e-6), -MIN_COEFF * (1 - 0.5e-6), MIN_COEFF,
          MIN_COEFF * (1 + 3e-6), MIN_COEFF * (1 - 3e-6), 0.5, -0.01],
         [True, False, True, True, False, True, False]),
        (spec("1 + 1/exp(1/(r1-0.3))"), [0.3005, 0.5, 0.2], [False, True, True]),
        (spec("ln(r1)"), [-0.5, 0.0, 0.5], [False, False, True]),
    ]
    for sys_, r1, verdicts in cases:
        assert sampling._generic(sys_, np.array(r1)).tolist() == verdicts
        assert [referee.is_generic(sys_, x) for x in r1] == verdicts
    overflow = spec("1 + 1/(exp(400*r1)*exp(400*r1))")
    assert sampling._generic(overflow, np.array([0.9, 0.99, 0.5])).tolist() == [
        False, False, True]
    assert [referee.is_generic(overflow, x) for x in (0.9, 0.99)] == [True, True]
