import dataclasses
import math
from random import Random

import numpy as np
import pytest

from hamiltonize import (
    Jet,
    MultiplierField,
    algebraic_system,
    first_associated,
    helmholtz_residuals,
    hessian,
    hessian_field,
    lagrangian_model,
    nabla,
    nabla_phi,
    nullspace,
    phi,
    second_associated,
    singularity_certificate,
    third_associated,
)
from hamiltonize import expr
from hamiltonize.helmholtz import HelmholtzReport, _derivative6, psi_stack
from hamiltonize.sampling import generic_jets

from expr_oracle import evaluate
import fd_oracle
import tower_oracle


# --- nabla ---------------------------------------------------------------------


def test_nabla_first_kind_free_particle(free_particle):
    sode = first_associated(free_particle)
    m = nabla(sode, Jet((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    assert m[1, 1] == pytest.approx(0.25)  # -(1/2) Gamma_2 r1dot


def test_nabla_second_kind_structure(vertical_disk, stream):
    sode = second_associated(vertical_disk)
    for jet in generic_jets(vertical_disk, 5, stream):
        m = nabla(sode, jet)
        fd = -0.5 * fd_oracle.jac_u(sode, jet, h=1e-6, scaled=False)
        assert np.allclose(m, fd, rtol=1e-6, atol=1e-9)
        # only the first column and the diagonal of the q_a block are filled
        assert np.all(m[0] == 0.0)
        for a in range(1, 4):
            for b in range(1, 4):
                if a != b:
                    assert m[a, b] == 0.0


def test_tensors_of_the_third_kind_raise(vertical_disk):
    """Only the first and second kinds have closed-form tensors; the third
    kind's coefficient table has more entries than it has q_a rows."""
    sode = third_associated(vertical_disk)
    jet = Jet((0.7, 0.2, 0.1, -0.3), (1.1, 0.8, 0.5, 0.4))
    with pytest.raises(ValueError, match="no closed-form tensors for kind 'third'"):
        nabla(sode, jet)
    with pytest.raises(ValueError, match="no closed-form tensors for kind 'third'"):
        psi_stack(sode, [jet], 3)


# --- phi ----------------------------------------------------------------------


def test_phi_second_kind_closed_form(free_particle, stream):
    """Phi^a_1 = -(1/2) r1' q_a' (2 X_a' - X_a^2), Phi^a_a = +(1/2) r1'^2 (...)."""
    sode = second_associated(free_particle)
    for jet in generic_jets(free_particle, 10, stream):
        m = phi(sode, jet)
        r1, u1 = jet.r1, jet.r1dot
        for a in range(1, 3):
            x = sode.coeff_exprs[a - 1]
            bracket = 2 * evaluate(x.diff(), r1) - evaluate(x, r1) ** 2
            assert m[a, 0] == pytest.approx(-0.5 * u1 * jet.qdot[a] * bracket, rel=1e-12)
            assert m[a, a] == pytest.approx(0.5 * u1 ** 2 * bracket, rel=1e-12)


def test_phi_first_kind_disk_measure_rows_vanish(vertical_disk, stream):
    sode = first_associated(vertical_disk)
    for jet in generic_jets(vertical_disk, 5, stream):
        m = phi(sode, jet)
        assert m[1, 0] == 0.0 and m[1, 1] == 0.0  # Gamma_2 == 0 identically


@pytest.mark.parametrize("kind", ["first", "second"])
def test_phi_closed_matches_finite_differences(any_system, kind, stream):
    build = first_associated if kind == "first" else second_associated
    sode = build(any_system)
    for jet in generic_jets(any_system, 100, stream):
        closed = phi(sode, jet)
        fd = fd_oracle.phi(sode, jet)
        scale = max(1e-12, np.max(np.abs(closed)))
        assert np.max(np.abs(closed - fd)) / scale < 1e-6


# --- nabla_phi -------------------------------------------------------------------


def test_nabla_phi_first_order_closed_form(free_particle, stream):
    """(nabla Phi)^2_1 = (G2 G2' - G2'') r1'^2 r2'."""
    sode = first_associated(free_particle)
    g2 = sode.coeff_exprs[0]
    coeff = g2 * g2.diff() - g2.diff().diff()
    for jet in generic_jets(free_particle, 20, stream):
        m = nabla_phi(sode, jet, 1)
        expected = evaluate(coeff, jet.r1) * jet.r1dot**2 * jet.r2dot
        assert m[1, 0] == pytest.approx(expected, rel=1e-12)


def test_nabla_nabla_phi_constrained_row_closed_form(any_system, stream):
    """(nabla^2 Phi)^a_1 carries the third-derivative coefficient
    Ga' G2' + (3/2) Ga G2'' - (1/2) Ga'' G2 - Ga'''."""
    sode = first_associated(any_system)
    g2 = sode.coeff_exprs[0]
    for jet in generic_jets(any_system, 10, stream):
        m = nabla_phi(sode, jet, 2)
        r1 = jet.r1
        for a, ga in enumerate(sode.coeff_exprs[1:], start=2):
            coeff = (
                evaluate(ga.diff(), r1) * evaluate(g2.diff(), r1)
                + 1.5 * evaluate(ga, r1) * evaluate(g2.diff().diff(), r1)
                - 0.5 * evaluate(ga.diff().diff(), r1) * evaluate(g2, r1)
                - evaluate(ga.diff().diff().diff(), r1)
            )
            expected = coeff * jet.r1dot**3 * jet.r2dot
            assert m[a, 0] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_nabla_phi_closed_matches_finite_differences(free_particle, stream):
    sode = first_associated(free_particle)
    for jet in generic_jets(free_particle, 10, stream):
        closed = nabla_phi(sode, jet, 1)
        fd = fd_oracle.nabla_phi(sode, jet, 1)
        scale = max(1e-9, np.max(np.abs(closed)))
        assert np.max(np.abs(closed - fd)) / scale < 1e-4


def test_phi_tower_compiles_no_table(knife_edge, monkeypatch, stream):
    """A depth-5 stack compiles no table: the first jet generates the
    series code of the system's coefficients, later jets reuse it."""
    sode = first_associated(knife_edge)
    jets = generic_jets(knife_edge, 2, stream)
    compiled, defined = [], []
    original_table, original_define = expr.compile_table, expr.define

    def counted_table(exprs):
        compiled.append(tuple(exprs))
        return original_table(compiled[-1])

    def counted_define(signature, *args, **kwargs):
        defined.append(signature)
        return original_define(signature, *args, **kwargs)

    monkeypatch.setattr(expr, "compile_table", counted_table)
    monkeypatch.setattr(expr, "define", counted_define)
    for jet in jets:
        psi_stack(sode, [jet], 5)
    assert defined == ["series(r1)"] and compiled == []


@pytest.mark.parametrize("name", ["knife_edge", "vertical_disk"])
def test_phi_tower_tier_is_a_shared_dag(name, request):
    """The symbolic depth-5 tower is a DAG of 557 (knife edge) or 701
    (disk) nodes, where the order-4 tier's expanded trees alone hold 1.0
    and 1.6 million."""
    sode = first_associated(request.getfixturevalue(name))
    seen = set()
    pending = [c for order in range(5) for c in tower_oracle.tier_exprs(sode, order)]
    assert pending
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            pending.extend(f for f in vars(node).values() if isinstance(f, expr.Expr))
    assert len(seen) < 1000


@pytest.mark.parametrize("build", [first_associated, second_associated])
def test_phi_tower_denominators_do_not_square(any_system, build):
    """The quotient rule keeps the denominator of u/v at v, so no power of a
    power builds up: the order-8 symbolic tier holds no Pow whose base is a
    Pow."""
    sode = build(any_system)
    seen = set()
    pending = list(tower_oracle.tier_exprs(sode, 8))
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert not (isinstance(node, expr.Pow) and isinstance(node.base, expr.Pow)), node
            pending.extend(f for f in vars(node).values() if isinstance(f, expr.Expr))


def test_deep_phi_tower_tiers_stay_finite(knife_edge):
    """At r1 = 0.956, where 1 + tan^2 is about 3, orders 9 to 16 of the knife
    edge's tower evaluate to finite values."""
    tiers = first_associated(knife_edge).phi_tiers([0.956], 17)
    assert np.all(np.isfinite(tiers[9:17]))


def test_column_proportionality_identity(any_system, stream):
    """Psi^a_1 Psi^b_2 = Psi^b_1 Psi^a_2 for the whole first-kind tower."""
    sode = first_associated(any_system)
    for jet in generic_jets(any_system, 20, stream):
        mats = [phi(sode, jet), nabla_phi(sode, jet, 1), nabla_phi(sode, jet, 2)]
        n = sode.n
        for psi in mats:
            for a in range(1, n):
                for b in range(1, n):
                    assert abs(psi[a, 0] * psi[b, 1] - psi[b, 0] * psi[a, 1]) < 1e-10


# --- curvature condition -----------------------------------------------------------


def test_r_condition_automatic_for_second_kind(any_system, stream):
    """With the constructed multiplier the curvature condition adds nothing."""
    sode = second_associated(any_system)
    model = lagrangian_model(any_system, "first")
    for jet in generic_jets(any_system, 10, stream):
        g = hessian(model, jet)
        assert fd_oracle.r_condition_residual(sode, g, jet) < 1e-8


def test_r_condition_disk_first_kind_with_partial_multiplier(vertical_disk, rng, stream):
    """The bordered multiplier shape admitted by the algebraic conditions
    satisfies all curvature-condition equations."""
    sode = first_associated(vertical_disk)
    for jet in generic_jets(vertical_disk, 10, stream):
        lam = -jet.r2dot / jet.r1dot
        g11, g12, g22, g23, g24 = rng.uniform(-2, 2, size=5)
        g = np.array(
            [
                [g11, g12, lam * g23, lam * g24],
                [g12, g22, g23, g24],
                [lam * g23, g23, 0.0, 0.0],
                [lam * g24, g24, 0.0, 0.0],
            ]
        )
        assert fd_oracle.r_condition_residual(sode, g, jet) < 1e-8


# --- multiplier conditions -----------------------------------------------------------


@pytest.mark.parametrize(
    "system_name,coeffs",
    [("free_particle", (1.0, 1.0)), ("vertical_disk", None)],
)
def test_hessian_multiplier_passes(system_name, coeffs, stream, request):
    sys = request.getfixturevalue(system_name)
    sode = second_associated(sys)
    kind = "first" if system_name == "free_particle" else "second"
    model = lagrangian_model(sys, kind, coeffs)
    field = MultiplierField(lambda jet: hessian(model, jet))
    report = helmholtz_residuals(sode, field, generic_jets(sys, 100, stream))
    assert report.passed, report
    assert report.min_abs_det > 1e-6


def reference_residuals(sode, g, jets, tolerance=1e-8):
    """The multiplier conditions as a loop over jets, one matrix at a time:
    dg/du_k along (0, e_k) and G(g) along (u, f), from the field's slopes
    of one jet at a time where it has them."""
    n = sode.n
    sym_worst = nabla_worst = phi_worst = 0.0
    min_det = np.inf
    h0 = 1e-4
    for jet in jets:
        q, u = np.array(jet.q), np.array(jet.qdot)
        gm = g(jet)
        min_det = min(min_det, abs(float(np.linalg.det(gm))))
        f0 = sode.f(q, u)
        if g.slopes is not None:
            dq = np.vstack((np.zeros((n, n)), u))
            du = np.vstack((np.eye(n), f0))
            *dg, gamma_g = g.slopes([jet], dq[None], du[None])[0]
        else:
            dg = np.empty((n, n, n))
            for kdx in range(n):
                step = h0 * (1.0 + abs(u[kdx]))

                def sample(c, kdx=kdx, step=step):
                    shifted = u.copy()
                    shifted[kdx] += c * step
                    return g(Jet(jet.q, tuple(shifted)))

                dg[kdx] = _derivative6(sample, step)

            def along(c):
                return g(Jet(tuple(q + c * h0 * u), tuple(u + c * h0 * f0)))

            gamma_g = _derivative6(along, h0)
        for i in range(n):
            for j in range(n):
                for kdx in range(j + 1, n):
                    sym_worst = max(sym_worst, abs(dg[kdx][i, j] - dg[j][i, kdx]))
        nb = nabla(sode, jet)
        resid = gamma_g - gm @ nb - nb.T @ gm
        nabla_worst = max(nabla_worst, float(np.max(np.abs(resid))))
        gphi = gm @ phi(sode, jet)
        phi_worst = max(phi_worst, float(np.max(np.abs(gphi - gphi.T))))
    return HelmholtzReport(float(sym_worst), nabla_worst, phi_worst, float(min_det), tolerance,
                           len(jets), all(r < tolerance for r in (sym_worst, nabla_worst,
                                                                  phi_worst)))


@pytest.mark.parametrize("exact", [True, False])
def test_stacked_residuals_match_per_jet_reference(any_system, exact):
    """The stacked residuals give the per-jet loop's report, every float
    but the nabla condition bit for bit, over the Hessian field with its
    complex-step slopes and over the same multiplier without them (the
    finite-difference route).  The nabla condition multiplies stacked
    matrices in one and single ones in the other, whose sums a BLAS may
    order differently, so it may move in its last bits: by at most 1e-13 of
    the largest |g|."""
    sode = second_associated(any_system)
    model = lagrangian_model(any_system, "first")
    field = hessian_field(model)
    if not exact:
        field = MultiplierField(field.fn)
    for seed in (0, 1, 2):
        jets = generic_jets(any_system, 50, Random(seed))
        report = helmholtz_residuals(sode, field, jets)
        expected = reference_residuals(sode, field, jets)
        assert report.passed and expected.passed
        nabla_moved = abs(report.nabla_condition - expected.nabla_condition)
        assert nabla_moved <= 1e-13 * max(np.max(np.abs(field(jet))) for jet in jets)
        assert repr(dataclasses.replace(report, nabla_condition=0.0)) == repr(
            dataclasses.replace(expected, nabla_condition=0.0))


def test_a_non_finite_multiplier_fails_the_conditions(free_particle):
    """A multiplier that is NaN at one jet makes every residual NaN and the
    check fails; it does not vanish in a running maximum."""
    def field(jet):
        g = np.eye(3)
        if jet.q[0] > 0.5:
            g[0, 1] = g[1, 0] = np.nan
        return g

    jets = [Jet((0.1, 0.2, 0.3), (1.0, -0.5, 2.0)), Jet((0.9, 0.0, 0.0), (2.0, 1.0, 1.0))]
    report = helmholtz_residuals(second_associated(free_particle), MultiplierField(field), jets)
    assert not report.passed
    assert all(math.isnan(v) for v in (report.gdot_symmetry, report.nabla_condition,
                                       report.phi_condition, report.min_abs_det))


# --- algebraic system and certificates -------------------------------------------------


def test_residuals_raise_on_singular_jets(free_particle):
    """Jets violating the preconditions (r1dot = 0, coefficient zero) are
    reported as evaluation errors, not silently skipped."""
    from hamiltonize import CoefficientSingularityError, SingularVelocityError, hessian_field

    sode = second_associated(free_particle)
    field = hessian_field(lagrangian_model(free_particle, "first"))
    with pytest.raises(SingularVelocityError):
        helmholtz_residuals(sode, field, [Jet((1.0, 0, 0), (0.0, 1.0, 1.0))])
    with pytest.raises(CoefficientSingularityError):
        helmholtz_residuals(sode, field, [Jet((0.0, 0, 0), (1.0, 1.0, 1.0))])


def test_algebraic_system_depth1_free_sode_unconstrained(free_particle):
    """Every tier is a multiple of r1dot, so at r1dot = 0 the first kind
    puts no condition on g."""
    sode = first_associated(free_particle)
    (matrix,), idx, _, _ = algebraic_system(sode, [Jet((0, 0, 0), (0, 1, 1))], depth=1)
    assert np.all(matrix == 0.0)
    assert len(nullspace(matrix[None])[0][0]) == len(idx)  # no constraints at all


def test_algebraic_system_free_particle_solution_space(free_particle):
    """At (x=1, x'=1, y'=1, z'=0), depth 2 forces g23 = g33 = g13 = 0 and
    x' g12 = -y' g22."""
    sode = first_associated(free_particle)
    jet = Jet((1.0, 0.0, 0.0), (1.0, 1.0, 0.0))
    (matrix,), idx, _, _ = algebraic_system(sode, [jet], depth=2)
    (basis,), _ = nullspace(matrix[None])
    assert len(basis) == 2
    pos = {ij: c for c, ij in enumerate(idx)}
    rng = np.random.default_rng(3)
    for _ in range(10):
        vec = basis.T @ rng.standard_normal(2)
        assert abs(vec[pos[(1, 2)]]) < 1e-12  # g23
        assert abs(vec[pos[(2, 2)]]) < 1e-12  # g33
        assert abs(vec[pos[(0, 2)]]) < 1e-12  # g13
        assert abs(1.0 * vec[pos[(0, 1)]] + 1.0 * vec[pos[(1, 1)]]) < 1e-12


def test_algebraic_system_disk_solution_space(vertical_disk):
    """Depth 3 at a generic jet: the s-block vanishes and
    g13 = -(theta'/phi') g23, g14 = -(theta'/phi') g24."""
    sode = first_associated(vertical_disk)
    jet = Jet((0.7, 0.2, 0.1, -0.3), (1.1, 0.8, 0.5, 0.4))
    (matrix,), idx, _, _ = algebraic_system(sode, [jet], depth=3)
    (basis,), _ = nullspace(matrix[None])
    assert len(basis) == 5
    pos = {ij: c for c, ij in enumerate(idx)}
    lam = -jet.r2dot / jet.r1dot
    rng = np.random.default_rng(4)
    for _ in range(10):
        vec = basis.T @ rng.standard_normal(5)
        for entry in ((2, 2), (2, 3), (3, 3)):
            assert abs(vec[pos[entry]]) < 1e-12
        assert vec[pos[(0, 2)]] == pytest.approx(lam * vec[pos[(1, 2)]], rel=1e-9, abs=1e-12)
        assert vec[pos[(0, 3)]] == pytest.approx(lam * vec[pos[(1, 3)]], rel=1e-9, abs=1e-12)


def test_singularity_certificate_first_kind(any_system, stream):
    sode = first_associated(any_system)
    jets = generic_jets(any_system, 50, stream)
    report = singularity_certificate(sode, jets, depth=3)
    assert report.passed, report
    assert report.max_normalized_det < 1e-10
    expected_dim = 2 if any_system.n == 3 else 5
    assert set(report.nullspace_dims) == {expected_dim}


def test_certificate_refuted_for_variational_system(free_particle, stream):
    """The second kind is variational, so the certificate, whose lemma holds
    for the first kind alone, must not certify it: it refuses the kind."""
    sode = second_associated(free_particle)
    jets = generic_jets(free_particle, 10, stream)
    with pytest.raises(ValueError, match="holds for kind 'first', not 'second'"):
        singularity_certificate(sode, jets, depth=3)


def test_certificate_warns_on_degenerate_jets(free_particle):
    """Small r1dot shrinks the algebraic system's u1 entries toward the rank
    cut; C, and the verdict, do not read r2dot, so small r2dot is generic."""
    sode = first_associated(free_particle)
    jets = [Jet((1.0, 0, 0), (0.01, 1.0, 0.0)), Jet((1.0, 0, 0), (1.0, 0.01, 0.0))]
    report = singularity_certificate(sode, jets, depth=3)
    assert [w.split(" is")[0] for w in report.warnings] == ["jet 0"]
