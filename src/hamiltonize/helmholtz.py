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

The singularity certificate treats its jet sample as stacks of up to
``JET_BLOCK`` jets (a command's 50 jets are one): the tower's tiers up to
``depth`` come from one truncated Taylor series of the system's
coefficients per stack (``SodeSystem.phi_tiers``), filled into a (jets,
depth, n, n) array; index maps fixed per n turn it into the (jets, rows,
columns) algebraic systems, one stacked SVD decides every rank and one
stacked determinant tests every candidate.  ``psi_stack``,
``algebraic_system`` and ``nullspace`` take a stack; ``phi`` and
``nabla_phi`` are the one-jet case of the same code, and a jet's tiers do
not depend on its stack.  The report carries the margins of its rank and
determinant decisions, and the jet of the smallest kept margin.

The multiplier residuals evaluate the multiplier, f and nabla jet by jet,
its derivatives in one call of its ``slopes`` (or by central differences),
and Phi in one series evaluation, and reduce (jets, n, n) stacks to the
determinant and the three residuals.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from random import Random
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
DET_TOL = 1e-10  # a normalized candidate multiplier with |det| at or above this is regular
COMBOS = 8  # random combinations of each jet's nullspace basis the certificate tests
JET_BLOCK = 64  # jets per stack of the certificate; bounds the memory of its SVD
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
    once; the r1dot powers are Python floats."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cols = _band_columns(sode)
    n = sode.n
    shape = (len(jets), depth, n - 1)
    coeffs = sode.phi_tiers([jet.r1 for jet in jets], depth).transpose(2, 0, 1)
    low, high = (np.array([[jet.r1dot ** (order + k) for order in range(depth)] for jet in jets])
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
        fs.append(sode.f(*jet.arrays()))
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


def algebraic_system(sode, jets: Sequence[Jet],
                     depth: int = 3) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Homogeneous linear systems on the entries of symmetric g, one per jet,
    as a (jets, rows, columns) stack.

    Rows encode g Psi = (g Psi)^T for Psi in the covariant-derivative tower
    of Phi up to ``depth`` members, a block of rows per member; columns
    follow ``sym_entry_index``.
    """
    n = sode.n
    psi = psi_stack(sode, jets, depth).reshape(len(jets), depth, n * n)
    flat = np.concatenate((psi, np.zeros((len(jets), depth, 1))), axis=2)
    index, sign = _row_maps(n)
    terms = flat[..., index] * sign  # (jets, depth, pairs, columns, 2)
    rows = terms[..., 0] + 0.0 + terms[..., 1]
    return rows.reshape(len(jets), depth * len(index), -1), sym_entry_index(n)


@functools.cache
def _row_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of one member's block of rows reads the flattened Psi:
    the indices and signs of its first and second terms, in the order in
    which the row of the pair i < j sums psi[k, j] into column (i, k) and
    -psi[k, i] into column (j, k) over k.  No entry has a third term; a
    missing term reads index n*n, a zero."""
    pos = {ij: c for c, ij in enumerate(sym_entry_index(n))}
    terms = []
    for i, j in itertools.combinations(range(n), 2):
        row = [[] for _ in pos]
        for k in range(n):
            row[pos[min(i, k), max(i, k)]].append((k * n + j, 1.0))
            row[pos[min(j, k), max(j, k)]].append((k * n + i, -1.0))
        terms.append([entry + [(n * n, 1.0)] * (2 - len(entry)) for entry in row])
    maps = np.array(terms)  # (pairs, columns, term, (index, sign))
    return maps[..., 0].astype(int), maps[..., 1]


def nullspace(matrices: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Orthonormal nullspace bases (rows) of each matrix of a stack, and the
    singular values of each, from one stacked SVD.  A matrix's rank counts
    its singular values above ``RANK_RTOL`` times its largest; an all-zero
    matrix has the identity basis."""
    if matrices.size == 0:
        return [np.eye(matrices.shape[2]) for _ in matrices], np.zeros((len(matrices), 0))
    _, svals, vt = np.linalg.svd(matrices)
    bases = [v[int(np.sum(s > RANK_RTOL * s[0])):] if np.any(m) else np.eye(len(v))
             for m, s, v in zip(matrices, svals, vt)]
    return bases, svals


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the no-regular-multiplier certificate over sampled jets.

    The margins are in decades and left out when no jet gives one: the
    smallest kept margin ``log10(s_kept / (rtol s_max))`` of the last kept
    singular value and the lowest index of a jet that gives it, the
    smallest cut gap ``log10(rtol s_max / s_dropped)`` of the first dropped
    one where it is nonzero, and the determinant margin
    ``log10(det_tol / max_normalized_det)``; ``det_tol`` is ``DET_TOL``.
    """

    passed: bool
    depth: int
    seed: int
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


def singularity_certificate(sode, jets: Sequence[Jet], depth: int = 3,
                            seed: int = 0) -> CertificateReport:
    """Certify (or refute) that no regular multiplier survives the algebraic
    conditions at the sampled jets.

    Every nullspace basis element and ``COMBOS`` random combinations per jet
    are assembled into symmetric matrices, normalized so the largest entry is
    one, and tested for |det| below ``DET_TOL``.  A combination's coefficients
    are ``-1 + 2*random()`` of ``random.Random(seed)``, drawn jet by jet and
    combination by combination; any continuous law gives a generic
    combination.  A negative seed raises ValueError, since ``Random(-s)``
    would repeat ``Random(s)``.  A regular combination is returned as a
    counterexample and fails the certificate.  The sample is evaluated in
    stacks of up to ``JET_BLOCK`` jets, each its algebraic systems, one SVD
    and one determinant call, so memory stays bounded however many jets
    there are; the first counterexample is that of the lowest jet index.
    """
    if not jets:
        raise ConfigError("the singularity certificate needs at least one jet")
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")
    n = sode.n
    warnings = [f"jet {jdx} is near-degenerate (small r1dot or r2dot); "
                "rank decisions may be unreliable"
                for jdx, jet in enumerate(jets) if abs(jet.r1dot) < 0.1 or abs(jet.r2dot) < 0.1]
    pos = {ij: c for c, ij in enumerate(sym_entry_index(n))}
    sym = [pos[min(i, j), max(i, j)] for i in range(n) for j in range(n)]
    draw = Random(seed).random
    dims, kept, gaps = [], [], []  # kept, gaps: (jet index, (a, b)) of the margins log10(a / b)
    worst, counterexample = 0.0, None
    for first in range(0, len(jets), JET_BLOCK):
        matrices, _ = algebraic_system(sode, jets[first:first + JET_BLOCK], depth)
        bases, svals = nullspace(matrices)
        # successive draws give the coefficients of one combination
        coeffs = -1.0 + 2.0 * np.array([draw() for _ in range(COMBOS * sum(map(len, bases)))])
        owners, candidates, start = [], [], 0
        for jdx, basis in enumerate(bases, first):
            candidates += list(basis)
            for _ in range(COMBOS):
                candidates.append(basis.T @ coeffs[start:start + len(basis)])
                start += len(basis)
            owners += [jdx] * (len(basis) + COMBOS)
        g = np.array(candidates).reshape(len(candidates), len(pos))[:, sym].reshape(-1, n, n)
        peak = np.max(np.abs(g), axis=(1, 2))
        regular = peak != 0.0  # an all-zero candidate is skipped
        normalized = g[regular] / peak[regular, None, None]
        owners = np.asarray(owners)[regular].tolist()
        dets = np.abs(np.linalg.det(normalized)).tolist()
        worst = max([worst, *dets])
        k = next((k for k, det in enumerate(dets) if det >= DET_TOL), None)
        if counterexample is None and k is not None:
            jet = jets[owners[k]]
            counterexample = {
                "jet_index": owners[k],
                "q": list(jet.q),
                "qdot": list(jet.qdot),
                "g": normalized[k].tolist(),
                "abs_det": dets[k],
            }
        for jdx, (s, basis) in enumerate(zip(svals, bases), first):
            rank = len(pos) - len(basis)
            cut = RANK_RTOL * s[0] if len(s) else 0.0
            if rank:
                kept.append((jdx, (s[rank - 1], cut)))
            if rank < len(s):
                gaps.append((jdx, (cut, s[rank])))
        dims += map(len, bases)
    kept_margin, kept_jet = _smallest(kept)
    return CertificateReport(
        passed=counterexample is None,
        depth=depth,
        seed=seed,
        det_tol=DET_TOL,
        nullspace_dims=tuple(dims),
        max_normalized_det=worst,
        kept_margin_decades=kept_margin,
        kept_margin_jet=kept_jet,
        cut_gap_decades=_smallest(gaps)[0],
        det_margin_decades=_smallest([(0, (DET_TOL, worst))])[0],
        warnings=tuple(warnings),
        counterexample=counterexample,
    )
