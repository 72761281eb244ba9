"""Inverse-problem tensors and multiplier conditions for second-order systems.

For a system q'' = f(q, q') with associated field G = q'^i d/dq^i + f^i d/dq'^i,
the tensors used below are

    nabla^i_j = -(1/2) df^i/dq'^j
    Phi^k_j   = G(df^k/dq'^j) - 2 df^k/dq^j - (1/2) df^k/dq'^l df^l/dq'^j

and the dynamical covariant derivative of a (1,1) tensor U along G,

    (nabla U)^i_j = G(U^i_j) + nabla^i_k U^k_j - nabla^k_j U^i_k.

A symmetric multiplier field g makes the system variational exactly when

    det g != 0,
    dg_ij/dq'^k symmetric in (j, k),
    G(g_ij) - nabla^k_j g_ik - nabla^k_i g_kj = 0      (the nabla condition)
    g Phi = (g Phi)^T                                   (the Phi condition)

together with the derived algebraic conditions g Psi = (g Psi)^T for
Psi = nabla Phi, nabla nabla Phi, ...  The curvature condition uses the
velocity curl

    R^j_kl = (1/3) (dPhi^j_l/dq'^k - dPhi^j_k/dq'^l)

in the cyclic sum g_ij R^j_kl + g_lj R^j_ik + g_kj R^j_li = 0.  (Some
statements of the curl carry a stray free index; the convention above is the
one consistent with that cyclic sum.)

Closed-form fast paths are provided for the first and second associated
systems, whose Phi towers reduce to derivative recurrences on scalar
coefficient functions of r1; a central finite-difference path covers any
other system and cross-checks the closed forms in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .systems import Jet

__all__ = [
    "nabla",
    "phi",
    "nabla_phi",
    "psi_stack",
    "r_tensor",
    "MultiplierField",
    "HelmholtzReport",
    "helmholtz_residuals",
    "algebraic_system",
    "nullspace",
    "CertificateReport",
    "singularity_certificate",
]

H_FD = 1e-5  # base first-derivative step, scaled by (1 + |component|)
CLOSED_KINDS = ("first", "second")  # kinds with closed-form tensors


# --- finite-difference helpers ----------------------------------------------


def _jac_u(sode, q: np.ndarray, u: np.ndarray, h: float = H_FD) -> np.ndarray:
    n = sode.n
    J = np.empty((n, n))
    for j in range(n):
        step = h * (1.0 + abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += step
        um[j] -= step
        J[:, j] = (sode.f(q, up) - sode.f(q, um)) / (2.0 * step)
    return J


def _jac_q(sode, q: np.ndarray, u: np.ndarray, h: float = H_FD) -> np.ndarray:
    n = sode.n
    J = np.empty((n, n))
    for j in range(n):
        step = h * (1.0 + abs(q[j]))
        qp, qm = q.copy(), q.copy()
        qp[j] += step
        qm[j] -= step
        J[:, j] = (sode.f(qp, u) - sode.f(qm, u)) / (2.0 * step)
    return J


def _gamma_of_matrix(F, sode, q, u, h: float) -> np.ndarray:
    """Directional derivative of a matrix field along (q', f), 4th order."""
    f0 = sode.f(q, u)

    def at(eps):
        return F(q + eps * u, u + eps * f0)

    return (-at(2 * h) + 8.0 * at(h) - 8.0 * at(-h) + at(-2 * h)) / (12.0 * h)


def _mixed_gamma_jac_u(sode, q, u) -> np.ndarray:
    """G(df/du) by Richardson-extrapolated cross differences of f itself."""
    n = sode.n
    f0 = sode.f(q, u)

    def cross(eps, h):
        M = np.empty((n, n))
        for j in range(n):
            step = h * (1.0 + abs(u[j]))
            ej = np.zeros(n)
            ej[j] = step
            fpp = sode.f(q + eps * u, u + eps * f0 + ej)
            fpm = sode.f(q + eps * u, u + eps * f0 - ej)
            fmp = sode.f(q - eps * u, u - eps * f0 + ej)
            fmm = sode.f(q - eps * u, u - eps * f0 - ej)
            M[:, j] = (fpp - fpm - fmp + fmm) / (4.0 * eps * step)
        return M

    h0 = 6e-4
    return (4.0 * cross(h0 / 2, h0 / 2) - cross(h0, h0)) / 3.0


# --- closed-form tensors of the first and second kinds ------------------------
#
# Both kinds fill only column 0 and one more column of the q_a rows: the r2
# column for every row of kind first, the row's own q_a column for kind second.


def _band_column(sode, a: int) -> int:
    return 1 if sode.kind == "first" else 1 + a


def _closed_psi(sode, jet: Jet, order: int) -> np.ndarray:
    """nabla^order Phi from the coefficients of ``sode.phi_tower``."""
    coeffs = sode.phi_tower(order)(jet.r1)
    n = sode.n
    u1 = jet.r1dot
    M = np.zeros((n, n))
    for a, coeff in enumerate(coeffs):
        col = _band_column(sode, a)
        M[1 + a, 0] = coeff * u1 ** (order + 1) * jet.qdot[col]
        M[1 + a, col] = -coeff * u1 ** (order + 2)
    return M


# --- public tensor evaluations ------------------------------------------------


def nabla(sode, jet: Jet) -> np.ndarray:
    """The connection matrix -(1/2) df^i/dq'^j at a jet."""
    n = sode.n
    if sode.kind in CLOSED_KINDS:
        coeffs = sode.coeff_table(jet.r1)
        u1 = jet.r1dot
        M = np.zeros((n, n))
        for a, x in enumerate(coeffs):
            col = _band_column(sode, a)
            M[1 + a, 0] = -0.5 * x * jet.qdot[col]
            M[1 + a, col] = -0.5 * x * u1
        return M
    q, u = jet.arrays()
    return -0.5 * _jac_u(sode, q, u)


def phi(sode, jet: Jet, fd: bool = False) -> np.ndarray:
    """The Jacobi endomorphism matrix at a jet.

    ``fd=True`` forces the finite-difference path even when a closed form
    exists (used to cross-check the fast paths).
    """
    if not fd and sode.kind in CLOSED_KINDS:
        return _closed_psi(sode, jet, 0)
    q, u = jet.arrays()
    J = _jac_u(sode, q, u)
    return _mixed_gamma_jac_u(sode, q, u) - 2.0 * _jac_q(sode, q, u) - 0.5 * (J @ J)


def nabla_phi(sode, jet: Jet, order: int = 1, fd: bool = False) -> np.ndarray:
    """The ``order``-fold covariant derivative of Phi along the system field."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not fd and sode.kind in CLOSED_KINDS:
        return _closed_psi(sode, jet, order)

    def tensor(q, u):
        j = Jet(tuple(q), tuple(u))
        return nabla_phi(sode, j, order - 1, fd=fd) if order > 1 else phi(sode, j, fd=fd)

    q, u = jet.arrays()
    U = tensor(q, u)
    N = nabla(sode, jet)
    scale = 1.0 + float(np.max(np.abs(np.concatenate((q, u)))))
    G = _gamma_of_matrix(tensor, sode, q, u, 1e-3 * scale)
    return G + N @ U - U @ N


def psi_stack(sode, jet: Jet, depth: int) -> list[np.ndarray]:
    """[Phi, nabla Phi, ..., nabla^(depth-1) Phi] at a jet."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = [phi(sode, jet)]
    for order in range(1, depth):
        out.append(nabla_phi(sode, jet, order))
    return out


def r_tensor(sode, jet: Jet, h: float = 1e-6) -> np.ndarray:
    """Velocity curl R[j, k, l] = (1/3)(dPhi^j_l/du_k - dPhi^j_k/du_l)."""
    n = sode.n
    q, u = jet.arrays()
    dphi = np.empty((n, n, n))  # dphi[k] = dPhi/du_k
    for kdx in range(n):
        step = h * (1.0 + abs(u[kdx]))
        up, um = u.copy(), u.copy()
        up[kdx] += step
        um[kdx] -= step
        dphi[kdx] = (
            phi(sode, Jet(tuple(q), tuple(up))) - phi(sode, Jet(tuple(q), tuple(um)))
        ) / (2.0 * step)
    R = np.empty((n, n, n))
    for k in range(n):
        for l in range(n):
            R[:, k, l] = (dphi[k, :, l] - dphi[l, :, k]) / 3.0
    return R


def r_condition_residual(sode, g: np.ndarray, jet: Jet) -> float:
    """Max absolute cyclic sum g_ij R^j_kl + g_lj R^j_ik + g_kj R^j_li."""
    R = r_tensor(sode, jet)
    n = sode.n
    worst = 0.0
    for i in range(n):
        for k in range(n):
            for l in range(n):
                total = 0.0
                for j in range(n):
                    total += g[i, j] * R[j, k, l] + g[l, j] * R[j, i, k] + g[k, j] * R[j, l, i]
                worst = max(worst, abs(total))
    return worst


# --- multiplier conditions -----------------------------------------------------


@dataclass(frozen=True)
class MultiplierField:
    """A candidate multiplier: jet -> symmetric matrix, with provenance.

    ``velocity_jacobian`` (jet -> dg/dq' with leading axis the velocity
    index) and ``coordinate_jacobian`` (jet -> dg/dq likewise) are optional
    exact derivatives.  When supplied they replace finite differences in the
    condition residuals, whose tolerances are tighter than FD noise on
    multipliers with steep velocity dependence.
    """

    fn: Callable[[Jet], np.ndarray]
    provenance: str = "candidate"
    velocity_jacobian: Callable[[Jet], np.ndarray] | None = None
    coordinate_jacobian: Callable[[Jet], np.ndarray] | None = None

    def __call__(self, jet: Jet) -> np.ndarray:
        return self.fn(jet)


@dataclass(frozen=True)
class HelmholtzReport:
    """Max residuals of the multiplier conditions over a jet sample; it
    passes when all three are below ``tolerance``.

    ``min_abs_det`` is reported, not thresholded: regularity is a property
    one wants to inspect, while the three residuals are pass/fail.
    """

    gdot_symmetry: float
    nabla_condition: float
    phi_condition: float
    min_abs_det: float
    tolerance: float
    n_jets: int
    passed: bool


_STENCIL6 = ((-3, -1.0), (-2, 9.0), (-1, -45.0), (1, 45.0), (2, -9.0), (3, 1.0))


def _derivative6(sample, step: float):
    """Sixth-order central first derivative; ``sample`` maps an offset count
    to a matrix.  Keeps truncation negligible for multiplier entries with
    steep 1/r1dot^3 velocity dependence."""
    total = sum(w * sample(c) for c, w in _STENCIL6)
    return total / (60.0 * step)


def helmholtz_residuals(
    sode,
    g: MultiplierField,
    jets: Sequence[Jet],
    tolerance: float = 1e-8,
) -> HelmholtzReport:
    """Evaluate the multiplier conditions for ``g`` against ``sode``.

    Velocity derivatives of g and its derivative along the system field are
    taken by high-order central differences; nabla and Phi use their fast
    paths.
    """
    n = sode.n
    sym_worst = 0.0
    nabla_worst = 0.0
    phi_worst = 0.0
    min_det = np.inf
    h0 = 1e-4
    for jet in jets:
        q, u = jet.arrays()
        gm = g(jet)
        min_det = min(min_det, abs(float(np.linalg.det(gm))))

        if g.velocity_jacobian is not None:
            dg = g.velocity_jacobian(jet)
        else:
            dg = np.empty((n, n, n))  # dg[k] = dg/du_k
            for kdx in range(n):
                step = h0 * (1.0 + abs(u[kdx]))

                def sample(c, kdx=kdx, step=step):
                    shifted = u.copy()
                    shifted[kdx] += c * step
                    return g(Jet(jet.q, tuple(shifted)))

                dg[kdx] = _derivative6(sample, step)
        for i in range(n):
            for j in range(n):
                for kdx in range(j + 1, n):
                    sym_worst = max(sym_worst, abs(dg[kdx][i, j] - dg[j][i, kdx]))

        f0 = sode.f(q, u)
        if g.velocity_jacobian is not None and g.coordinate_jacobian is not None:
            dgq = g.coordinate_jacobian(jet)
            gamma_g = np.tensordot(u, dgq, axes=1) + np.tensordot(f0, dg, axes=1)
        else:
            eps = h0

            def along(c):
                return g(Jet(tuple(q + c * eps * u), tuple(u + c * eps * f0)))

            gamma_g = _derivative6(along, eps)
        nb = nabla(sode, jet)
        resid = gamma_g - gm @ nb - nb.T @ gm
        nabla_worst = max(nabla_worst, float(np.max(np.abs(resid))))

        gphi = gm @ phi(sode, jet)
        phi_worst = max(phi_worst, float(np.max(np.abs(gphi - gphi.T))))

    return HelmholtzReport(
        gdot_symmetry=sym_worst,
        nabla_condition=nabla_worst,
        phi_condition=phi_worst,
        min_abs_det=float(min_det),
        tolerance=tolerance,
        n_jets=len(jets),
        passed=all(r < tolerance for r in (sym_worst, nabla_worst, phi_worst)),
    )


# --- algebraic system and the singularity certificate ---------------------------


def sym_entry_index(n: int) -> list[tuple[int, int]]:
    """Column order of the independent entries of a symmetric n x n matrix."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def algebraic_system(sode, jet: Jet, depth: int = 3) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Homogeneous linear system on the entries of symmetric g at one jet.

    Rows encode g Psi = (g Psi)^T for Psi in the covariant-derivative tower
    of Phi up to ``depth`` members; columns follow ``sym_entry_index``.
    """
    n = sode.n
    idx = sym_entry_index(n)
    pos = {ij: c for c, ij in enumerate(idx)}
    rows = []
    for psi in psi_stack(sode, jet, depth):
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(len(idx))
                for k in range(n):
                    row[pos[(min(i, k), max(i, k))]] += psi[k, j]
                    row[pos[(min(j, k), max(j, k))]] -= psi[k, i]
                rows.append(row)
    return np.array(rows), idx


def nullspace(matrix: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal nullspace basis (rows) with an explicit SVD threshold."""
    if matrix.size == 0 or not np.any(matrix):
        return np.eye(matrix.shape[1])
    _, svals, vt = np.linalg.svd(matrix)
    rank = int(np.sum(svals > rtol * svals[0]))
    return vt[rank:]


def assemble_symmetric(vec: np.ndarray, idx: list[tuple[int, int]], n: int) -> np.ndarray:
    g = np.zeros((n, n))
    for value, (i, j) in zip(vec, idx):
        g[i, j] = value
        g[j, i] = value
    return g


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the no-regular-multiplier certificate over sampled jets."""

    passed: bool
    depth: int
    seed: int
    det_tol: float
    nullspace_dims: tuple[int, ...]
    max_normalized_det: float
    warnings: tuple[str, ...] = ()
    counterexample: dict | None = None


def singularity_certificate(
    sode,
    jets: Sequence[Jet],
    depth: int = 3,
    seed: int = 0,
    det_tol: float = 1e-10,
    combos: int = 8,
) -> CertificateReport:
    """Certify (or refute) that no regular multiplier survives the algebraic
    conditions at the sampled jets.

    Every nullspace basis element and ``combos`` random combinations per jet
    are assembled into symmetric matrices, normalized so the largest entry is
    one, and tested for |det| below ``det_tol``.  A regular combination is
    returned as a counterexample and fails the certificate.
    """
    rng = np.random.default_rng(seed)
    n = sode.n
    dims = []
    warnings = []
    worst = 0.0
    counterexample = None
    for jdx, jet in enumerate(jets):
        if abs(jet.r1dot) < 0.1 or abs(jet.r2dot) < 0.1:
            warnings.append(
                f"jet {jdx} is near-degenerate (small r1dot or r2dot); "
                "rank decisions may be unreliable"
            )
        matrix, idx = algebraic_system(sode, jet, depth)
        basis = nullspace(matrix)
        dims.append(len(basis))
        candidates = [v for v in basis]
        for _ in range(combos):
            candidates.append(basis.T @ rng.standard_normal(len(basis)))
        for vec in candidates:
            g = assemble_symmetric(vec, idx, n)
            peak = np.max(np.abs(g))
            if peak == 0.0:
                continue
            det = abs(float(np.linalg.det(g / peak)))
            worst = max(worst, det)
            if det >= det_tol and counterexample is None:
                counterexample = {
                    "jet_index": jdx,
                    "q": list(jet.q),
                    "qdot": list(jet.qdot),
                    "g": (g / peak).tolist(),
                    "abs_det": det,
                }
    return CertificateReport(
        passed=counterexample is None,
        depth=depth,
        seed=seed,
        det_tol=det_tol,
        nullspace_dims=tuple(dims),
        max_normalized_det=worst,
        warnings=tuple(warnings),
        counterexample=counterexample,
    )
