"""The singularity certificate against a full-tower reference.

The reference below decides each jet on the whole tower, as a loop over
jets: the tower of one jet alone, one algebraic system of every tier's
rows, one SVD whose rank cut is set over all of them, and a determinant
for each nullspace basis member and for random combinations of them.
Where that cut holds (the built-ins up to depth 8), the certificate, which
decides each jet on its tier matrix C, must give the same verdict and
nullspace dimensions.  The lemma the certificate rests on is checked in
exact rational arithmetic at the end.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
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
        if abs(jet.r1dot) < 0.1:
            warnings.append(f"jet {jdx} is near-degenerate (small r1dot); "
                            "nullspace_dims may be unreliable")
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
        passed=counterexample is None, depth=depth, det_tol=det_tol,
        nullspace_dims=tuple(dims), max_normalized_det=worst,
        kept_margin_decades=smallest("kept")[0], kept_margin_jet=smallest("kept")[1],
        cut_gap_decades=smallest("gap")[0],
        det_margin_decades=math.log10(det_tol / worst) if worst > 0.0 else None,
        warnings=tuple(warnings), counterexample=counterexample)


def assert_agrees(report, expected):
    """The same verdict, nullspace dimensions and warnings as the reference."""
    assert report.passed == expected.passed
    assert report.nullspace_dims == expected.nullspace_dims
    assert report.warnings == expected.warnings


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


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_stacked_certificate_matches_per_jet_reference(name, kind, depth):
    """The first kind's verdict and dimensions are the reference's; at
    depth 1, where C has one row, both refute.  The second kind is
    variational: the reference finds a regular multiplier, and the
    certificate, whose lemma does not hold there, refuses the kind."""
    sode = associated(name, kind)
    for samples in (1, 7, 50):
        for seed in (0, 1, 2):
            jets = command_jets(name, samples, seed)
            expected = reference_certificate(sode, jets, depth=depth, seed=seed)
            if kind == "second":
                assert not expected.passed and expected.counterexample["abs_det"] >= 1e-10
                with pytest.raises(ValueError, match="holds for kind 'first'"):
                    singularity_certificate(sode, jets, depth=depth)
                continue
            report = singularity_certificate(sode, jets, depth=depth)
            assert_agrees(report, expected)
            assert report.passed == (depth > 1)
            assert report.max_normalized_det < 1e-10 or not report.passed


def with_tower_vanishing_at(jets, jdx):
    """``jets`` with jet ``jdx`` at r1dot = 0, where every tier vanishes."""
    jet = jets[jdx]
    return [*jets[:jdx], Jet(jet.q, (0.0, *jet.qdot[1:])), *jets[jdx + 1:]]


@pytest.mark.parametrize("block", [1, 3, JET_BLOCK])
def test_blocks_of_jets_match_per_jet_reference(monkeypatch, block):
    """The certificate's report does not depend on how its jets are split
    into stacks: a jet's tiers, its SVDs and its determinants are the same
    bits in any stack.  The disk's sample puts its failing jet, and so its
    counterexample, in a later block."""
    cases = [("knife_edge", command_jets("knife_edge", 20, 1), 3),
             ("free_particle", command_jets("free_particle", 10, 7), 1),
             ("vertical_disk", with_tower_vanishing_at(
                 command_jets("vertical_disk", 2 * JET_BLOCK + 3, 2), JET_BLOCK + 5), 3)]
    whole = [singularity_certificate(associated(name, "first"), jets, depth=depth)
             for name, jets, depth in cases]
    monkeypatch.setattr(helmholtz, "JET_BLOCK", block)
    for (name, jets, depth), expected in zip(cases, whole):
        sode = associated(name, "first")
        report = singularity_certificate(sode, jets, depth=depth)
        assert repr(report) == repr(expected)  # repr prints every float exactly
        assert_agrees(report, reference_certificate(sode, jets, depth=depth, seed=2))
    assert whole[2].counterexample["jet_index"] == JET_BLOCK + 5


def test_certificate_memory_is_bounded_in_the_number_of_jets(monkeypatch):
    """Four blocks of jets take about the peak memory of one: the stacks
    and their SVDs are one block's.  Every jet is the same one, whose tiers
    are evaluated once, so the measurement covers the stacking alone."""
    sode = first_associated(builtin_system("vertical_disk"))
    jets = command_jets("vertical_disk", 1, 4)
    tiers = sode.phi_tiers([jets[0].r1], 16)
    monkeypatch.setattr(type(sode), "phi_tiers",
                        lambda self, r1, depth: np.repeat(tiers, len(r1), axis=2))

    def peak(samples):
        tracemalloc.start()
        try:
            singularity_certificate(sode, jets * samples, depth=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * JET_BLOCK) < 1.5 * peak(JET_BLOCK)


def test_second_kind_counterexample_matches_reference():
    """The second associated system is variational: the reference finds a
    regular multiplier, and the certificate refuses the kind rather than
    certify it."""
    sode = associated("free_particle", "second")
    jets = command_jets("free_particle", 10, 7)
    expected = reference_certificate(sode, jets, depth=3, seed=7)
    assert not expected.passed and expected.counterexample["abs_det"] > 1e-10
    with pytest.raises(ValueError, match="holds for kind 'first', not 'second'"):
        singularity_certificate(sode, jets, depth=3)


def test_degenerate_jet_warnings_match_reference():
    """Small r1dot warns; small r2dot does not, as C reads r1 alone: jet 0
    keeps the margin it has at r2dot = 1."""
    sode = associated("free_particle", "first")
    jets = [Jet((1.0, 0, 0), (1.0, 0.01, 0.0)), Jet((0.5, 0.2, 0.1), (1.2, -0.7, 0.9)),
            Jet((-0.3, 0, 0), (0.05, 1.0, 1.0))]
    report = singularity_certificate(sode, jets, depth=3)
    assert [w.split(" is")[0] for w in report.warnings] == ["jet 2"]
    assert_agrees(report, reference_certificate(sode, jets, depth=3))
    generic = Jet((1.0, 0, 0), (1.0, 1.0, 0.0))
    margins = [singularity_certificate(sode, [jet]).kept_margin_decades
               for jet in (jets[0], generic)]
    assert margins[0] == margins[1]


def test_all_zero_algebraic_system_matches_reference():
    """Every tier of the first kind is a multiple of r1dot, so at r1dot = 0
    the tower vanishes: every system is all zero, its basis the identity,
    no rank decision gives a margin, and the first such jet fails."""
    sode = associated("free_particle", "first")
    jets = [Jet((0.1, 0.2, 0.3), (0.0, -0.5, 2.0)), Jet((0.0, 0.0, 0.0), (0.0, 1.0, 1.0))]
    matrices, idx, _, _ = algebraic_system(sode, jets, 3)
    assert matrices.shape == (2, 6, len(idx)) and not np.any(matrices)
    report = singularity_certificate(sode, jets, depth=3)
    assert report.nullspace_dims == (6, 6)
    assert report.kept_margin_decades is None and report.cut_gap_decades is None
    assert not report.passed and report.counterexample["jet_index"] == 0
    assert_agrees(report, reference_certificate(sode, jets, depth=3, seed=5))


def test_regular_basis_member_names_its_jet(monkeypatch):
    """Where every jet passes on C but a nullspace basis member is regular,
    the certificate fails and its counterexample is that member's jet."""
    sode = associated("knife_edge", "first")
    jets = command_jets("knife_edge", 5, 0)
    identity = np.array([[1.0 if i == j else 0.0 for i, j in sym_entry_index(sode.n)]])
    exact = helmholtz.nullspace

    def with_regular_member(matrices):
        bases, svals = exact(matrices)
        bases[3] = np.concatenate([bases[3], identity])
        return bases, svals

    monkeypatch.setattr(helmholtz, "nullspace", with_regular_member)
    report = singularity_certificate(sode, jets, depth=3)
    assert report.kept_margin_decades is not None and report.max_normalized_det == 1.0
    assert not report.passed and report.counterexample["jet_index"] == 3


def test_nullspace_of_c_maps_back_across_any_column_scales(monkeypatch):
    """C's columns at 1e-300 and 1e100 give the system that unit columns
    give: its nullspace (0, 1, -1) mapped back as x1 / col neither overflows
    nor underflows to a zero vector, whose direction would join the row
    basis."""
    sode = first_associated(builtin_system("vertical_disk"))
    jets = command_jets("vertical_disk", 3, 0)
    unit = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])

    def bases(scale):
        tiers = np.repeat((unit * scale)[:, :, None], len(jets), axis=2)
        monkeypatch.setattr(type(sode), "phi_tiers", lambda self, r1, depth: tiers)
        matrices, _, _, rank = algebraic_system(sode, jets, 2)
        assert list(rank) == [2] * len(jets)
        return nullspace(matrices)[0]

    for spread, unscaled in zip(bases(np.array([1e-300, 1e100, 1e100])), bases(1.0)):
        assert same_span(spread, unscaled)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND in CHANGES.md: algebraic_system maps C's nullspace back as x1 / col, "
    "which multiplies roundoff in a small column's component by 1 / col"))
def test_nullspace_of_c_mixing_columns_decades_apart_maps_back(monkeypatch):
    """A nullspace member of C that mixes a column at 1e-300 with columns at
    1e200 maps back to the direction that unit columns give: the reduced
    system keeps the rank of the unit-column system (6), where the map-back
    x1 / col leaves it at 5."""
    sode = first_associated(builtin_system("vertical_disk"))
    jets = command_jets("vertical_disk", 3, 0)
    unit = np.array([[1.0, 1.0, 1.0], [-1.0, 2.0, 2.0]])

    def system_ranks(scale):
        tiers = np.repeat((unit * scale)[:, :, None], len(jets), axis=2)
        monkeypatch.setattr(type(sode), "phi_tiers", lambda self, r1, depth: tiers)
        matrices, idx, _, rank = algebraic_system(sode, jets, 2)
        assert list(rank) == [2] * len(jets)
        return [len(idx) - len(basis) for basis in nullspace(matrices)[0]]

    assert system_ranks(1.0) == [6] * len(jets)
    assert system_ranks(np.array([1e-300, 1e200, 1e200])) == [6] * len(jets)


def same_span(a, b):
    """Whether the rows of two orthonormal bases span the same space."""
    return len(a) == len(b) and np.allclose(a @ b.T @ b, a, atol=1e-9)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_stacked_pieces_match_their_one_jet_case(kind):
    """The stacked tower and algebraic systems are, jet by jet, the one-jet
    stacks; Phi and nabla^k Phi are the tower's members, and the tower is
    the reference's.  An algebraic system has n - 1 blocks of rows and the
    nullspace of the reference's system of every tier."""
    sode = associated("vertical_disk", kind)
    jets = command_jets("vertical_disk", 7, 3)
    stack = psi_stack(sode, jets, 4)
    matrices, idx, c_svals, c_rank = algebraic_system(sode, jets, 4)
    bases, svals = nullspace(matrices)
    assert matrices.shape == (7, 3 * 6, len(idx))
    for jdx, jet in enumerate(jets):
        one = psi_stack(sode, [jet], 4)[0]
        assert one.tobytes() == stack[jdx].tobytes()
        assert phi(sode, jet).tobytes() == one[0].tobytes()
        assert nabla_phi(sode, jet, 3).tobytes() == one[3].tobytes()
        assert np.array(reference_psi_stack(sode, jet, 4)).tobytes() == one.tobytes()
        (matrix,), _, (c,), (rank,) = algebraic_system(sode, [jet], 4)
        assert matrix.tobytes() == matrices[jdx].tobytes()
        assert c.tobytes() == c_svals[jdx].tobytes() and rank == c_rank[jdx]
        assert np.linalg.svd(matrix)[1].tobytes() == svals[jdx].tobytes()
        reference, _ = reference_nullspace(reference_algebraic_system(sode, jet, 4)[0])
        assert same_span(bases[jdx], reference)


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


@pytest.mark.parametrize("depth", [3, 16, 24, 32])
@pytest.mark.parametrize("name", SYSTEMS)
def test_kept_margin_holds_with_depth(name, depth):
    """C's second singular value sits 6 or more decades above the rank cut
    at every depth, where the full tower's smallest kept singular value fell
    under 3 decades on the knife edge at depth 16 and refuted at 32."""
    for seed in (0, 1, 2):
        report = singularity_certificate(associated(name, "first"),
                                         command_jets(name, 50, seed), depth=depth)
        assert report.passed
        assert report.kept_margin_decades >= 6.0
        for margin in (report.cut_gap_decades, report.det_margin_decades):
            assert margin is not None and math.isfinite(margin) and margin > 0.0


# --- the lemma, in exact arithmetic ---------------------------------------------------


def rational_nullspace(rows, width):
    """A basis of the x with row . x = 0 for every row, exact: one member per
    free column of the reduced row echelon form."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(width):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col] != 0), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[k])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for k, col in enumerate(pivots):
            x[col] = -rows[k][free]
        basis.append(x)
    return basis


def rational_det(matrix):
    """The determinant of a square matrix of Fractions, by elimination."""
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        r = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if r is None:
            return Fraction(0)
        if r != col:
            m[col], m[r] = m[r], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            factor = m[i][col] / m[col][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return det


def first_kind_conditions(n, tiers, u1, u2):
    """The rows of "g Psi_m is symmetric" on the entries of symmetric g, for
    the first kind's tiers Psi_m = u1^(m+1) sum_a C[m, a] e_(1+a) w^T with
    w = (u2, -u1, 0, ..., 0)."""
    idx = sym_entry_index(n)
    pos = {ij: c for c, ij in enumerate(idx)}
    w = [u2, -u1] + [Fraction(0)] * (n - 2)
    rows = []
    for m, coeffs in enumerate(tiers):
        psi = [[Fraction(0)] * n for _ in range(n)]
        for a, coeff in enumerate(coeffs):
            psi[1 + a] = [u1 ** (m + 1) * coeff * x for x in w]
        for i, j in itertools.combinations(range(n), 2):
            row = [Fraction(0)] * len(idx)
            for k in range(n):
                row[pos[min(i, k), max(i, k)]] += psi[k][j]
                row[pos[min(j, k), max(j, k)]] -= psi[k][i]
            rows.append(row)
    return rows


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_lemma_in_exact_arithmetic(n):
    """At rational velocities with u1 != 0, where C has rank r >= 2 every
    member of the conditions' rational nullspace is singular, and where
    r = 1 some member is regular.  With N_1..N_k the nullspace basis,
    det(sum_i t_i N_i) is a polynomial of degree n in t, so it is zero
    everywhere exactly when it is zero at the integer points t >= 0 with
    sum t <= n, which determine such a polynomial."""
    stream = Random(n)
    u1, u2 = Fraction(3, 2), Fraction(-2, 5)
    sym = [(min(i, j), max(i, j)) for i in range(n) for j in range(n)]
    for r in range(1, n):
        while True:  # r independent tiers of small integers, and their sum
            tiers = [[Fraction(stream.randint(-3, 3)) for _ in range(n - 1)] for _ in range(r)]
            if len(rational_nullspace(tiers, n - 1)) == n - 1 - r:
                break
        tiers.append([sum(column) for column in zip(*tiers)])
        basis = rational_nullspace(first_kind_conditions(n, tiers, u1, u2), n * (n + 1) // 2)
        pos = {ij: c for c, ij in enumerate(sym_entry_index(n))}
        members = [[[x[pos[ij]] for ij in sym[i * n:(i + 1) * n]] for i in range(n)]
                   for x in basis]
        dets = []
        for point in itertools.combinations_with_replacement(range(len(basis) + 1), n):
            t = [point.count(i) for i in range(len(basis))]
            g = [[sum(ti * m[i][j] for ti, m in zip(t, members)) for j in range(n)]
                 for i in range(n)]
            dets.append(rational_det(g))
            if r == 1 and dets[-1] != 0:
                break
        assert basis
        if r == 1:
            assert dets[-1] != 0, "no regular member where rank C = 1"
        else:
            assert not any(dets), (n, r)


# --- zero evidence ----------------------------------------------------------------


def test_certificate_needs_a_jet(free_particle):
    with pytest.raises(ConfigError, match="needs at least one jet"):
        singularity_certificate(first_associated(free_particle), [])


def test_multiplier_conditions_need_a_jet(free_particle):
    field = MultiplierField(lambda jet: np.eye(3))
    with pytest.raises(ConfigError, match="needs at least one jet"):
        helmholtz_residuals(second_associated(free_particle), field, [])
