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
one consistent with that cyclic sum.)  R, and Phi and nabla Phi by central
differences of f, are the test suite's definition-based reference
(``tests/fd_oracle.py``); this module does not evaluate them.

The tensors are closed forms for the first and second associated systems,
whose Phi towers reduce to derivative recurrences on scalar coefficient
functions of r1; ``nabla`` and ``psi_stack`` raise ``ValueError`` on any
other kind.

The singularity certificate rests on a lemma.  For kind first, tier m of
the tower is u1^(m+1) sum_a C[m, a] e_(1+a) w^T, with C the depth x (n-1)
matrix of ``SodeSystem.phi_tiers`` and one w = (u2, -u1, 0, ..., 0).  So
"g Psi_m is symmetric" says g v_m is parallel to w, v_m = sum_a C[m, a]
e_(1+a): g maps the span of the v_m, of dimension rank C, into the line
through w, and where rank C >= 2 it sends some nonzero v to 0.  Every g
that satisfies the tower is then singular.  The lemma assumes kind first,
u1 != 0 (at u1 = 0 the tower vanishes) and n >= 3 (every ``SystemSpec``
has an s coordinate), so the certificate refuses other kinds and decides
each jet on C alone.  ``phi`` and ``nabla_phi`` are the one-jet case of
``psi_stack``, and a jet's tiers do not depend on its stack.

The multiplier residuals evaluate the multiplier, f and nabla jet by jet,
its derivatives in one call of its ``slopes`` (or by central differences),
and Phi in one series evaluation, and reduce (jets, n, n) stacks to the
determinant and the three residuals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .systems import Jet

__all__ = [
    "nabla",
    "phi",
    "nabla_phi",
    "psi_stack",
    "MultiplierField",
    "HelmholtzReport",
    "helmholtz_residuals",
    "algebraic_system",
    "nullspace",
    "CertificateReport",
    "singularity_certificate",
]

RANK_RTOL = 1e-10  # a singular value counts toward the rank above RANK_RTOL * the largest
DET_TOL = 1e-10  # a normalized nullspace basis member with |det| at or above this is regular
JET_BLOCK = 64  # jets per stack of the certificate; bounds the memory of its SVDs
RESIDUAL_TOL = 1e-8  # the multiplier conditions pass with every residual below this
FD_STEP = 1e-4  # base step of the residuals' central differences of a field without slopes


# --- closed-form tensors of the first and second kinds ------------------------


def _band_columns(sode) -> list[int]:
    """The column each q_a row fills besides column 0: the r2 column for
    every row of kind first, the row's own q_a column for kind second."""
    if sode.kind not in ("first", "second"):
        raise ValueError(f"no closed-form tensors for kind {sode.kind!r}")
    return [1 if sode.kind == "first" else 1 + a for a in range(sode.n - 1)]


def nabla(sode, jet: Jet) -> np.ndarray:
    """The connection matrix -(1/2) df^i/dq'^j at a jet."""
    n = sode.n
    cols = _band_columns(sode)
    M = np.zeros((n, n))
    for a, (x, col) in enumerate(zip(sode.coeff_table(jet.r1), cols)):
        M[1 + a, 0] = -0.5 * x * jet.qdot[col]
        M[1 + a, col] = -0.5 * x * jet.r1dot
    return M


def phi(sode, jet: Jet) -> np.ndarray:
    """The Jacobi endomorphism matrix at a jet."""
    return psi_stack(sode, [jet], 1)[0, 0]


def nabla_phi(sode, jet: Jet, order: int = 1) -> np.ndarray:
    """The ``order``-fold covariant derivative of Phi along the system field."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return psi_stack(sode, [jet], order + 1)[0, -1]


def psi_stack(sode, jets: Sequence[Jet], depth: int) -> np.ndarray:
    """[Phi, nabla Phi, ..., nabla^(depth-1) Phi] at each jet, a (jets, depth,
    n, n) stack, from the coefficients of ``sode.phi_tiers`` at every jet at
    once."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cols = _band_columns(sode)
    coeffs = sode.phi_tiers([jet.r1 for jet in jets], depth).transpose(2, 0, 1)
    return _banded(jets, cols, coeffs, range(depth))


def _banded(jets: Sequence[Jet], cols: list[int], coeffs: np.ndarray, orders) -> np.ndarray:
    """u1^(order+1) sum_a coeffs[j, m, a] B_a(u) at each jet j for the m-th
    of ``orders``, a (jets, len(orders), n, n) stack; B_a(u) has the single
    row 1 + a, which holds u_c in column 0 and -u1 in column c = cols[a].
    The r1dot powers are Python floats."""
    n = len(cols) + 1
    shape = (len(jets), len(orders), n - 1)
    low, high = (np.array([[jet.r1dot ** (order + k) for order in orders] for jet in jets])
                 .reshape(*shape[:2], 1) for k in (1, 2))
    qdot = np.array([[jet.qdot[col] for col in cols] for jet in jets]).reshape(len(jets), 1, n - 1)
    M = np.zeros((*shape[:2], n, n))
    M[:, :, 1:, 0] = coeffs * low * qdot
    M[:, :, range(1, n), cols] = -coeffs * high
    return M


# --- multiplier conditions -----------------------------------------------------


@dataclass(frozen=True)
class MultiplierField:
    """A candidate multiplier: jet -> symmetric matrix.

    ``slopes`` (optional) gives its exact derivatives: ``slopes(jets, dq,
    du)`` with dq, du of shape (jets, directions, n) returns a (jets,
    directions, n, n) stack whose entry [j, k] is the derivative of g at
    jets[j] along (dq[j, k], du[j, k]).  Without it the condition residuals
    take central differences of ``fn``, whose noise the tolerance must
    absorb on multipliers with steep velocity dependence.
    """

    fn: Callable[[Jet], np.ndarray]
    slopes: Callable[[Sequence[Jet], np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, jet: Jet) -> np.ndarray:
        return self.fn(jet)


@dataclass(frozen=True)
class HelmholtzReport:
    """Max residuals of the multiplier conditions over a jet sample; it
    passes when all three are below ``tolerance`` and the smallest |det g|,
    ``min_abs_det``, is finite and not zero.  No scaled bound is put on it:
    |det g| scales with the model, and a regular one with a tiny inertia
    reads small."""

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


def _worst(stack: np.ndarray, antisymmetric: bool = False) -> float:
    """The largest magnitude in a stack of matrices, or in each matrix minus
    its transpose; NaN if any entry is NaN."""
    return float(np.max(np.abs(stack - stack.swapaxes(-1, -2) if antisymmetric else stack)))


def helmholtz_residuals(sode, g: MultiplierField, jets: Sequence[Jet]) -> HelmholtzReport:
    """Evaluate the multiplier conditions for ``g`` against ``sode``.

    g, f and nabla are evaluated jet by jet, in jet order.  Each jet takes
    n + 1 derivatives of g: along (0, e_k), dg/dq'^k, and along (q', f), its
    derivative G(g) along the system field.  ``g.slopes`` gives them in one
    call for the whole sample; without it each is a sixth-order central
    difference of g with step ``FD_STEP`` (1 + |q'^k|) along e_k and
    ``FD_STEP`` along G.  Phi comes from one stacked evaluation, and the
    determinants and the three residuals are computed on (jets, n, n) stacks.
    """
    if not jets:
        raise ConfigError("the multiplier-condition check needs at least one jet")
    n = sode.n
    gms, fs, nbs = [], [], []
    for jet in jets:
        gms.append(g(jet))
        fs.append(sode.f(jet.q, jet.qdot))
        nbs.append(nabla(sode, jet))
    gm, nb = np.array(gms), np.array(nbs)
    q, u = np.array([jet.q for jet in jets]), np.array([jet.qdot for jet in jets])
    # directions (0, e_k) for k < n, then (u, f): the velocity slopes, then G(g)
    dq, du = np.zeros((2, len(jets), n + 1, n))
    du[:, :n] = np.eye(n)
    dq[:, n], du[:, n] = u, fs
    if g.slopes is not None:
        slopes = g.slopes(jets, dq, du)
    else:
        steps = np.full((len(jets), n + 1), FD_STEP)
        steps[:, :n] *= 1.0 + np.abs(u)
        slopes = np.empty((len(jets), n + 1, n, n))
        for j, k in np.ndindex(steps.shape):
            a, b, h = dq[j, k], du[j, k], steps[j, k]
            slopes[j, k] = _derivative6(
                lambda c: g(Jet(tuple(q[j] + c * h * a), tuple(u[j] + c * h * b))), h)
    dg, gamma_g = slopes[:, :n], slopes[:, n]
    gphi = gm @ psi_stack(sode, jets, 1)[:, 0]
    # dg[:, k, i, j] = dg_ij/du_k must be symmetric in (j, k)
    sym_worst = _worst(dg.transpose(0, 2, 1, 3), antisymmetric=True)
    nabla_worst = _worst(gamma_g - gm @ nb - nb.transpose(0, 2, 1) @ gm)
    phi_worst = _worst(gphi, antisymmetric=True)
    with np.errstate(all="ignore"):  # the report carries whatever det gives, NaN included
        min_det = float(np.min(np.abs(np.linalg.det(gm))))

    return HelmholtzReport(
        gdot_symmetry=sym_worst,
        nabla_condition=nabla_worst,
        phi_condition=phi_worst,
        min_abs_det=min_det,
        tolerance=RESIDUAL_TOL,
        n_jets=len(jets),
        passed=all(r < RESIDUAL_TOL for r in (sym_worst, nabla_worst, phi_worst))
        and 0.0 < min_det < math.inf,
    )


# --- algebraic system and the singularity certificate ---------------------------


def sym_entry_index(n: int) -> list[tuple[int, int]]:
    """Column order of the independent entries of a symmetric n x n matrix."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def algebraic_system(sode, jets: Sequence[Jet], depth: int = 3
                     ) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The conditions "g Psi is symmetric" of the tower's first ``depth``
    members at each jet, as a (jets, rows, columns) stack of linear systems
    on the entries of symmetric g in ``sym_entry_index`` order; the
    singular values of each jet's equilibrated C, (jets, min(depth, n - 1));
    and the rank of each jet's C, (jets,).

    As tier m is u1^(m+1) sum_a C[m, a] B_a(u), the rows say "u1 g B(y) is
    symmetric", B(y) = sum_a y_a B_a(u), for an orthonormal basis y of C's
    row space, a block of rows per member, padded with zero blocks to n - 1.
    C's columns (those below the smallest normal float, which only
    underflow gives, count as zero), then its rows, are scaled by their
    largest entry, and one stacked SVD decides its rank at ``RANK_RTOL``.
    The basis complements the equilibrated nullspace mapped back as x = x1
    / col, each member scaled by a power of two to a largest entry in (1/2,
    2), so none overflows or underflows to zero; the row basis mapped back
    would be badly scaled where the columns differ by many decades.
    """
    n = sode.n
    cols = _band_columns(sode)
    tiers = sode.phi_tiers([jet.r1 for jet in jets], depth).transpose(2, 0, 1)
    col = np.max(np.abs(tiers), axis=1, keepdims=True)
    zero = col < np.finfo(float).tiny
    col[zero] = 1.0
    scaled = np.where(zero, 0.0, tiers / col)
    row = np.max(np.abs(scaled), axis=2, keepdims=True)
    row[row == 0.0] = 1.0
    _, c_svals, vt = np.linalg.svd(scaled / row)
    rank = np.sum(c_svals > RANK_RTOL * c_svals[:, :1], axis=1)
    (mantissa, power), (col_mantissa, col_power) = np.frexp(vt), np.frexp(col)
    power = np.where(mantissa == 0.0, -2**20, power - col_power)  # x1 / col = mantissas * 2^power
    null = np.ldexp(mantissa / col_mantissa, power - np.max(power, axis=2, keepdims=True))
    member = np.arange(n - 1).reshape(-1, 1)
    null = np.where(member >= rank.reshape(-1, 1, 1), null, 0.0)
    basis = np.where(member >= n - 1 - rank.reshape(-1, 1, 1), np.linalg.svd(null)[2], 0.0)
    gb = np.einsum("cik,jbkl->jbcil", _sym_basis(n), _banded(jets, cols, basis, [0] * (n - 1)))
    upper = np.triu_indices(n, 1)
    rows = (gb - gb.swapaxes(-1, -2))[..., upper[0], upper[1]].swapaxes(2, 3)
    return rows.reshape(len(jets), -1, rows.shape[-1]), sym_entry_index(n), c_svals, rank


@functools.cache
def _sym_basis(n: int) -> np.ndarray:
    """The symmetric matrix of each column of ``sym_entry_index``, (columns, n, n)."""
    basis = np.zeros((n * (n + 1) // 2, n, n))
    for c, (i, j) in enumerate(sym_entry_index(n)):
        basis[c, i, j] = basis[c, j, i] = 1.0
    return basis


def nullspace(matrices: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Orthonormal nullspace bases (rows) of each matrix of a stack, and the
    singular values of each, from one stacked SVD.  A matrix's rank counts
    its singular values above ``RANK_RTOL`` times its largest; an all-zero
    matrix has the identity basis."""
    _, svals, vt = np.linalg.svd(matrices)
    bases = [v[int(np.sum(s > RANK_RTOL * s[0])):] if np.any(m) else np.eye(len(v))
             for m, s, v in zip(matrices, svals, vt)]
    return bases, svals


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the no-regular-multiplier certificate over sampled jets.

    The verdict rests on the lemma of the module docstring (kind first,
    u1 != 0, n >= 3): a jet passes when u1 != 0 and its equilibrated C has
    rank >= 2, and the certificate when every jet does and every normalized
    nullspace basis member of the algebraic systems (not their
    combinations) has |det| below ``det_tol``.  The margins are in decades
    and left out when no jet gives one: the smallest kept margin
    ``log10(s_2 / (rtol s_1))`` of C's second singular value over the
    passing jets and the lowest jet index giving it, the smallest cut gap
    ``log10(rtol s_max / s_dropped)`` of the systems' first dropped
    singular value where it is nonzero, and ``log10(det_tol /
    max_normalized_det)``.  The counterexample is the lowest failing jet,
    else the jet of the largest regular |det|: index, q, qdot and C's
    singular values.  A warning names each jet with |r1dot| < 0.1, whose
    system entries in u1 near the rank cut may change its nullspace
    dimension, though not the verdict.
    """

    passed: bool
    depth: int
    det_tol: float
    nullspace_dims: tuple[int, ...]
    max_normalized_det: float
    kept_margin_decades: float | None = None
    kept_margin_jet: int | None = None
    cut_gap_decades: float | None = None
    det_margin_decades: float | None = None
    warnings: tuple[str, ...] = ()
    counterexample: dict | None = None


def _smallest(margins) -> tuple[float | None, int | None]:
    """The smallest finite log10(a / b) over the margins (jet index, (a, b))
    with a, b > 0, and the lowest jet index that gives it; or (None, None)."""
    logs = [(math.log10(float(a) / float(b)), key) for key, (a, b) in margins
            if a > 0.0 and b > 0.0]
    return min(((v, key) for v, key in logs if math.isfinite(v)), default=(None, None))


def singularity_certificate(sode, jets: Sequence[Jet], depth: int = 3) -> CertificateReport:
    """Certify (or refute) that no regular multiplier of the first associated
    system ``sode`` survives its tower's first ``depth`` members at the
    sampled jets, deciding each jet on C (see ``CertificateReport``).

    The sample is evaluated in stacks of up to ``JET_BLOCK`` jets, each one
    ``algebraic_system``, one ``nullspace`` and one stacked determinant of
    its basis members, so memory stays bounded however many jets there
    are.  Any kind but first raises ValueError: the lemma does not hold
    there (the second kind is variational).
    """
    if not jets:
        raise ConfigError("the singularity certificate needs at least one jet")
    if sode.kind != "first":
        raise ValueError(f"the singularity certificate holds for kind 'first', not {sode.kind!r}")
    warnings = [f"jet {jdx} is near-degenerate (small r1dot); nullspace_dims may be unreliable"
                for jdx, jet in enumerate(jets) if abs(jet.r1dot) < 0.1]
    dims, kept, gaps, dets = [], [], [], []  # kept, gaps: (jet index, (a, b)) of log10(a / b)
    failing, c_values = None, []
    for first in range(0, len(jets), JET_BLOCK):
        stack = jets[first:first + JET_BLOCK]
        matrices, idx, c_svals, ranks = algebraic_system(sode, stack, depth)
        bases, sv = nullspace(matrices)
        g = np.einsum("mc,cij->mij", np.concatenate(bases), _sym_basis(sode.n))
        g /= np.max(np.abs(g), axis=(1, 2), keepdims=True)  # a basis member is never zero
        dets.append(np.abs(np.linalg.det(g)))
        for jdx, (jet, c, r, s, basis) in enumerate(zip(stack, c_svals, ranks, sv, bases), first):
            if jet.r1dot != 0.0 and r >= 2:
                kept.append((jdx, (c[1], RANK_RTOL * c[0])))
            elif failing is None:
                failing = jdx
            rank = len(idx) - len(basis)
            if rank < len(s):
                gaps.append((jdx, (RANK_RTOL * s[0], s[rank])))
        c_values += c_svals.tolist()
        dims += map(len, bases)
    dets = np.concatenate(dets)
    worst = float(np.max(dets, initial=0.0))
    if failing is None and worst >= DET_TOL:  # the jet of the largest |det|
        failing = int(np.repeat(np.arange(len(jets)), dims)[np.argmax(dets)])
    kept_margin, kept_jet = _smallest(kept)
    return CertificateReport(
        passed=failing is None,
        depth=depth,
        det_tol=DET_TOL,
        nullspace_dims=tuple(dims),
        max_normalized_det=worst,
        kept_margin_decades=kept_margin,
        kept_margin_jet=kept_jet,
        cut_gap_decades=_smallest(gaps)[0],
        det_margin_decades=_smallest([(0, (DET_TOL, worst))])[0],
        warnings=tuple(warnings),
        counterexample=None if failing is None else {
            "jet_index": failing, "q": list(jets[failing].q), "qdot": list(jets[failing].qdot),
            "c_singular_values": c_values[failing]},
    )
