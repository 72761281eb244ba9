"""The stacked singularity certificate against a per-jet reference.

The reference below is the certificate as a loop over jets: the tower of
one jet alone, one algebraic system, one SVD and one determinant per
candidate at a time.  The stacked certificate must give the same report,
every float and every sign of zero included.
"""

import functools
import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from hamiltonize import (
    ConfigError,
    EvaluationError,
    ExprDomainError,
    Jet,
    MultiplierField,
    algebraic_system,
    builtin_system,
    first_associated,
    helmholtz_residuals,
    nabla_phi,
    nullspace,
    parse_system_file,
    phi,
    second_associated,
    singularity_certificate,
)
from hamiltonize import expr, helmholtz
from hamiltonize.helmholtz import JET_BLOCK, CertificateReport, psi_stack, sym_entry_index
from hamiltonize.sampling import generic_jets

import tower_oracle

RTOL = 1e-10


# --- the per-jet reference ------------------------------------------------------


def reference_psi_stack(sode, jet, depth):
    tiers = sode.phi_tiers([jet.r1], depth)[:, :, 0]  # the tower of this jet alone
    out = []
    for order, coeffs in enumerate(tiers.tolist()):
        n = sode.n
        u1 = jet.r1dot
        M = np.zeros((n, n))
        for a, coeff in enumerate(coeffs):
            col = 1 if sode.kind == "first" else 1 + a
            M[1 + a, 0] = coeff * u1 ** (order + 1) * jet.qdot[col]
            M[1 + a, col] = -coeff * u1 ** (order + 2)
        out.append(M)
    return out


def reference_algebraic_system(sode, jet, depth):
    n = sode.n
    idx = sym_entry_index(n)
    pos = {ij: c for c, ij in enumerate(idx)}
    rows = []
    for psi in reference_psi_stack(sode, jet, depth):
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(len(idx))
                for k in range(n):
                    row[pos[(min(i, k), max(i, k))]] += psi[k, j]
                    row[pos[(min(j, k), max(j, k))]] -= psi[k, i]
                rows.append(row)
    return np.array(rows), idx


def reference_nullspace(matrix):
    """The basis, and the (kept, cut gap) margins of the rank decision."""
    if matrix.size == 0 or not np.any(matrix):
        return np.eye(matrix.shape[1]), []
    _, svals, vt = np.linalg.svd(matrix)
    rank = int(np.sum(svals > RTOL * svals[0]))
    cut = float(RTOL * svals[0])
    margins = []
    if rank:
        margins.append(("kept", math.log10(float(svals[rank - 1]) / cut)))
    if rank < len(svals) and svals[rank] > 0.0:
        margins.append(("gap", math.log10(cut / float(svals[rank]))))
    return vt[rank:], margins


def reference_certificate(sode, jets, depth=3, seed=0, det_tol=1e-10, combos=8):
    stream = Random(seed)
    n = sode.n
    dims, warnings, margins = [], [], []
    worst = 0.0
    counterexample = None
    for jdx, jet in enumerate(jets):
        if abs(jet.r1dot) < 0.1 or abs(jet.r2dot) < 0.1:
            warnings.append(f"jet {jdx} is near-degenerate (small r1dot or r2dot); "
                            "rank decisions may be unreliable")
        matrix, idx = reference_algebraic_system(sode, jet, depth)
        basis, jet_margins = reference_nullspace(matrix)
        margins += [(kind, value, jdx) for kind, value in jet_margins]
        dims.append(len(basis))
        candidates = [v for v in basis]
        for _ in range(combos):
            candidates.append(basis.T @ np.array([-1.0 + 2.0 * stream.random() for _ in basis]))
        for vec in candidates:
            g = np.zeros((n, n))
            for value, (i, j) in zip(vec, idx):
                g[i, j] = value
                g[j, i] = value
            peak = np.max(np.abs(g))
            if peak == 0.0:
                continue
            det = abs(float(np.linalg.det(g / peak)))
            worst = max(worst, det)
            if det >= det_tol and counterexample is None:
                counterexample = {"jet_index": jdx, "q": list(jet.q), "qdot": list(jet.qdot),
                                  "g": (g / peak).tolist(), "abs_det": det}

    def smallest(kind):
        """The smallest margin of a kind and the first jet that gives it."""
        return min(((v, jdx) for k, v, jdx in margins if k == kind), default=(None, None))

    return CertificateReport(
        passed=counterexample is None, depth=depth, seed=seed, det_tol=det_tol,
        nullspace_dims=tuple(dims), max_normalized_det=worst,
        kept_margin_decades=smallest("kept")[0], kept_margin_jet=smallest("kept")[1],
        cut_gap_decades=smallest("gap")[0],
        det_margin_decades=math.log10(det_tol / worst) if worst > 0.0 else None,
        warnings=tuple(warnings), counterexample=counterexample)


def assert_same(report, expected):
    """Equal reports, float for float: repr tells -0.0 from 0.0 and prints
    every float exactly."""
    assert repr(report) == repr(expected)


# --- the grid ---------------------------------------------------------------------

SYSTEMS = ("free_particle", "knife_edge", "vertical_disk")
BUILDERS = {"first": first_associated, "second": second_associated}


@functools.cache
def associated(name, kind):
    """One system object per built-in and kind, so each oracle tier is
    derived and compiled once."""
    return BUILDERS[kind](builtin_system(name))


def command_jets(name, samples, seed):
    """The jets a certificate sees in ``helmholtz-check --samples S --seed N``:
    the second draw of a ``random.Random`` seeded with N."""
    sys_ = builtin_system(name)
    stream = Random(seed)
    generic_jets(sys_, samples, stream)
    return generic_jets(sys_, samples, stream)


@pytest.mark.parametrize("depth", [1, 3, 5, 8])
@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_stacked_certificate_matches_per_jet_reference(name, kind, depth):
    sode = associated(name, kind)
    for samples in (1, 7, 50):
        for seed in (0, 1, 2):
            jets = command_jets(name, samples, seed)
            report = singularity_certificate(sode, jets, depth=depth, seed=seed)
            assert_same(report, reference_certificate(sode, jets, depth=depth, seed=seed))


@pytest.mark.parametrize("block", [1, 3, JET_BLOCK])
def test_blocks_of_jets_match_per_jet_reference(monkeypatch, block):
    """The certificate's report does not depend on how its jets are split
    into stacks: the SVD and determinant work one matrix at a time, and
    successive draws of the normals give the values of one draw.  The
    free particle's second kind puts its counterexample in a later block."""
    monkeypatch.setattr(helmholtz, "JET_BLOCK", block)
    for name, kind, samples, seed in (("knife_edge", "first", 20, 1),
                                      ("free_particle", "second", 10, 7),
                                      ("vertical_disk", "second", 2 * JET_BLOCK + 3, 2)):
        sode = associated(name, kind)
        jets = command_jets(name, samples, seed)
        report = singularity_certificate(sode, jets, depth=3, seed=seed)
        assert_same(report, reference_certificate(sode, jets, depth=3, seed=seed))


def test_certificate_memory_is_bounded_in_the_number_of_jets(monkeypatch):
    """Four blocks of jets take about the peak memory of one: the stacks,
    the SVD's U above all (96 x 96 floats per jet for the disk at depth
    16), are one block's.  Every jet is the same one, whose tower is
    evaluated once, so the measurement covers the stacking alone."""
    sode = associated("vertical_disk", "first")
    jets = command_jets("vertical_disk", 1, 4)
    tower = psi_stack(sode, jets, 16)
    monkeypatch.setattr(helmholtz, "psi_stack",
                        lambda sode, jets, depth: np.repeat(tower, len(jets), axis=0))

    def peak(samples):
        tracemalloc.start()
        try:
            singularity_certificate(sode, jets * samples, depth=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * JET_BLOCK) < 1.5 * peak(JET_BLOCK)


def test_second_kind_counterexample_matches_reference():
    """The second associated system is variational: the certificate finds a
    regular multiplier, the same one at the same jet."""
    sode = associated("free_particle", "second")
    jets = command_jets("free_particle", 10, 7)
    report = singularity_certificate(sode, jets, depth=3, seed=7)
    assert not report.passed and report.counterexample["abs_det"] > 1e-10
    assert_same(report, reference_certificate(sode, jets, depth=3, seed=7))


def test_degenerate_jet_warnings_match_reference():
    sode = associated("free_particle", "first")
    jets = [Jet((1.0, 0, 0), (1.0, 0.01, 0.0)), Jet((0.5, 0.2, 0.1), (1.2, -0.7, 0.9)),
            Jet((-0.3, 0, 0), (0.05, 1.0, 1.0))]
    report = singularity_certificate(sode, jets, depth=3)
    assert [w.split(" is")[0] for w in report.warnings] == ["jet 0", "jet 2"]
    assert_same(report, reference_certificate(sode, jets, depth=3))


def test_all_zero_algebraic_system_matches_reference():
    """Every tier of the first kind is a multiple of r1dot, so at r1dot = 0
    the tower vanishes: every matrix is all zero, its basis the identity,
    and no rank decision gives a margin."""
    sode = associated("free_particle", "first")
    jets = [Jet((0.1, 0.2, 0.3), (0.0, -0.5, 2.0)), Jet((0.0, 0.0, 0.0), (0.0, 1.0, 1.0))]
    matrices, idx = algebraic_system(sode, jets, 3)
    assert matrices.shape == (2, 9, len(idx)) and not np.any(matrices)
    report = singularity_certificate(sode, jets, depth=3, seed=5)
    assert report.nullspace_dims == (6, 6)
    assert report.kept_margin_decades is None and report.cut_gap_decades is None
    assert_same(report, reference_certificate(sode, jets, depth=3, seed=5))


@pytest.mark.parametrize("kind", ["first", "second"])
def test_stacked_pieces_match_their_one_jet_case(kind):
    """The stacked tower and algebraic systems are, jet by jet, the one-jet
    stacks and the reference's matrices; Phi and nabla^k Phi are their
    members."""
    sode = associated("vertical_disk", kind)
    jets = command_jets("vertical_disk", 7, 3)
    stack = psi_stack(sode, jets, 4)
    matrices, idx = algebraic_system(sode, jets, 4)
    bases, svals = nullspace(matrices)
    for jdx, jet in enumerate(jets):
        one = psi_stack(sode, [jet], 4)[0]
        assert one.tobytes() == stack[jdx].tobytes()
        assert phi(sode, jet).tobytes() == one[0].tobytes()
        assert nabla_phi(sode, jet, 3).tobytes() == one[3].tobytes()
        assert np.array(reference_psi_stack(sode, jet, 4)).tobytes() == one.tobytes()
        matrix, _ = reference_algebraic_system(sode, jet, 4)
        assert matrix.tobytes() == matrices[jdx].tobytes()
        assert reference_nullspace(matrix)[0].tobytes() == bases[jdx].tobytes()
        assert np.linalg.svd(matrix)[1].tobytes() == svals[jdx].tobytes()


def tower_error(sode, r1, depth):
    """The type and message of the error of the series tower at ``r1``."""
    with pytest.raises(EvaluationError) as info:
        sode.phi_tiers(r1, depth)
    return info.type, str(info.value)


@pytest.mark.parametrize("depth", [1, 3, 8, 16])
@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_joint_tower_matches_per_tier_tables(name, kind, depth):
    """Every tier of the series tower is within 1e-12 of its largest
    coefficient of that tier's symbolic table, at 20 points in [-3, 3]."""
    sode = associated(name, kind)
    points = np.random.default_rng(depth).uniform(-3.0, 3.0, 20)
    tiers = sode.phi_tiers(points, depth)
    assert tiers.shape == (depth, sode.n - 1, len(points))
    for order in range(depth):
        table = tower_oracle.tier_table(sode, order)
        for jdx, r1 in enumerate(points.tolist()):
            expected = np.array(table(r1))
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(tiers[order, :, jdx] - expected)) <= 1e-12 * scale, (order, r1)


@pytest.mark.parametrize("depth", [1, 3, 8])
@pytest.mark.parametrize("kind", ["first", "second"])
def test_joint_tower_raises_as_the_first_failing_tier(kind, depth):
    """Where the symbolic tiers fail, so does the series tower, with a
    domain error naming the point: ln(r1) at r1 = -0.5.  A stack raises
    for its lowest failing point."""
    sode = BUILDERS[kind](parse_system_file(
        "I1 = 1\nI2 = 1\nI_alpha = 1\nA_alpha = ln(r1)\nnames = a, b, c\n"))
    with pytest.raises(ExprDomainError, match=r"at r1=-0\.5$"):
        tower_oracle.tier_table(sode, 0)(-0.5)
    alone = tower_error(sode, [-0.5], depth)
    assert alone[0] is ExprDomainError and alone[1].endswith("at r1=-0.5")
    assert tower_error(sode, [0.5, 2.0, -0.5, 1.5, -0.25], depth) == alone
    assert sode.phi_tiers([0.5, 2.0, 1.5], depth).shape == (depth, 2, 3)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_series_tower_of_a_jet_does_not_depend_on_its_stack(name, kind):
    """A jet's tiers are the same bits alone and in a stack of 64."""
    sode = associated(name, kind)
    points = [jet.r1 for jet in command_jets(name, JET_BLOCK, 5)]
    stack = sode.phi_tiers(points, 16)
    for jdx, r1 in enumerate(points):
        assert sode.phi_tiers([r1], 16)[:, :, 0].tobytes() == stack[:, :, jdx].tobytes()


def test_series_product_is_symmetric():
    """a*b and b*a give the same bits at every order, so the difference of
    two equal products is exactly 0; the disk's G2, (cos sin - sin cos)
    over a positive denominator, is exactly 0 at every order."""
    rng = np.random.default_rng(11)
    for size in (1, 2, 5, 17, 33):
        a, b = (expr.Series(rng.standard_normal((size, 7)) * 10.0 ** rng.integers(-8, 8, 7))
                for _ in range(2))
        assert (a * b).c.tobytes() == (b * a).c.tobytes()
        assert not np.any((a * b - b * a).c)
        assert (a * b).c.shape == (size, 7)
    sode = associated("vertical_disk", "first")
    series = sode._series(np.linspace(-1.0, 1.0, 9), 32)
    assert series.shape == (33, 3, 9)
    assert not np.any(series[:, 0]) and np.all(np.isfinite(series))


def _mp_value(root, x, mp):
    """The value of an expression at the mpmath number x, over its DAG."""
    ops = {expr.Add: lambda a, b: a + b, expr.Sub: lambda a, b: a - b,
           expr.Mul: lambda a, b: a * b, expr.Div: lambda a, b: a / b,
           expr.Pow: lambda a, n: a ** n, expr.Neg: lambda a: -a, expr.Sin: mp.sin,
           expr.Cos: mp.cos, expr.Tan: mp.tan, expr.ExpF: mp.exp, expr.Ln: mp.log,
           expr.Sqrt: mp.sqrt}
    values = {}
    stack = [root]
    while stack:
        node = stack[-1]
        fields = list(vars(node).values())
        pending = [f for f in fields if isinstance(f, expr.Expr) and f not in values]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, expr.Const):
            values[node] = mp.mpf(node.value)
        elif isinstance(node, expr.Var):
            values[node] = x
        else:
            values[node] = ops[type(node)](*(values[f] if isinstance(f, expr.Expr) else f
                                             for f in fields))
    return values[root]


def _mp_tiers(sode, r1, depth, mp):
    """The tiers at r1 from 50-digit Taylor coefficients, which mpmath finds
    by numerical differentiation: a referee that shares neither the series
    arithmetic nor the symbolic derivatives."""
    coeffs = [mp.taylor(lambda x, e=e: _mp_value(e, x, mp), mp.mpf(r1), depth)
              for e in sode.coeff_exprs]

    def times(a, b):
        return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]

    def plus(a, b, scale=1):
        return [x + scale * y for x, y in zip(a, b)]

    def diff(a):
        return [(k + 1) * a[k + 1] for k in range(len(a) - 1)]

    if sode.kind == "first":
        g2 = [c / 2 for c in coeffs[0]]
        level = [plus(times(g2, g), diff(g), -1) for g in coeffs]
        tiers = [[c[0] for c in level]]
        for _ in range(1, depth):
            c2 = [c / 2 for c in level[0]]
            level = [plus(plus(diff(c), times(g2, c)), times(c2, g), -1)
                     for c, g in zip(level, coeffs)]
            tiers.append([c[0] for c in level])
    else:
        level = [plus([c / 2 for c in times(x, x)], diff(x), -1) for x in coeffs]
        tiers = [[c[0] for c in level]]
        for _ in range(1, depth):
            level = [diff(c) for c in level]
            tiers.append([c[0] for c in level])
    return tiers


@pytest.mark.parametrize("depth", [8, 16, 24])
@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_series_tower_matches_a_50_digit_referee(name, kind, depth):
    """Every tier is within 1e-12 of its largest coefficient of the tiers
    that 50-digit arithmetic gives, at three points of the sampled range."""
    mp = pytest.importorskip("mpmath").mp
    sode = associated(name, kind)
    points = [-0.83, 0.1, 0.95]
    tiers = sode.phi_tiers(points, depth)
    with mp.workdps(50):
        for jdx, r1 in enumerate(points):
            for order, expected in enumerate(_mp_tiers(sode, r1, depth, mp)):
                expected = np.array([float(c) for c in expected])
                error = np.max(np.abs(tiers[order, :, jdx] - expected))
                assert error <= 1e-12 * np.max(np.abs(expected)), (r1, order)


# --- margins --------------------------------------------------------------------------


@pytest.mark.parametrize("depth,low,high", [(3, 7.0, math.inf), (16, -math.inf, 3.0)])
def test_knife_edge_kept_margin_shrinks_with_depth(depth, low, high):
    """The knife edge's smallest kept singular value sits 7 or more decades
    above the rank cut at depth 3, and under 3 decades at depth 16: the
    borderline rank decision the report now shows."""
    report = singularity_certificate(associated("knife_edge", "first"),
                                     command_jets("knife_edge", 50, 0), depth=depth)
    assert report.passed
    assert low <= report.kept_margin_decades < high
    for margin in (report.kept_margin_decades, report.cut_gap_decades,
                   report.det_margin_decades):
        assert margin is not None and math.isfinite(margin) and margin > 0.0


# --- zero evidence ----------------------------------------------------------------


def test_certificate_needs_a_jet(free_particle):
    with pytest.raises(ConfigError, match="needs at least one jet"):
        singularity_certificate(first_associated(free_particle), [])


def test_multiplier_conditions_need_a_jet(free_particle):
    field = MultiplierField(lambda jet: np.eye(3))
    with pytest.raises(ConfigError, match="needs at least one jet"):
        helmholtz_residuals(second_associated(free_particle), field, [])
