"""The inverse-problem tensors from their definitions: the reference of the
closed forms in ``hamiltonize.helmholtz``.

For q'' = f(q, q') with field G = q'^i d/dq^i + f^i d/dq'^i,

    nabla^i_j     = -(1/2) df^i/dq'^j
    Phi^k_j       = G(df^k/dq'^j) - 2 df^k/dq^j - (1/2) df^k/dq'^l df^l/dq'^j
    (nabla U)^i_j = G(U^i_j) + nabla^i_k U^k_j - nabla^k_j U^i_k

are taken here by central differences of ``sode.f`` alone, for any system.
The velocity curl R^j_kl = (1/3) (dPhi^j_l/dq'^k - dPhi^j_k/dq'^l) of the
curvature condition is a central difference of the closed-form Phi: a
difference of the differenced Phi would drown in roundoff.
"""

import numpy as np

from hamiltonize import Jet, helmholtz

H_FD = 1e-5  # base first-derivative step, scaled by (1 + |component|)


def _central(fn, x, h, scaled=True):
    """The Jacobian of ``fn`` at x, column j a central difference of step
    h * (1 + |x_j|), or h where not ``scaled``."""
    J = np.empty((len(x), len(x)))
    for j in range(len(x)):
        step = h * (1.0 + abs(x[j])) if scaled else h
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (fn(xp) - fn(xm)) / (2.0 * step)
    return J


def jac_u(sode, jet, h=H_FD, scaled=True):
    """df/dq' at a jet."""
    q, u = np.array(jet.q), np.array(jet.qdot)
    return _central(lambda v: sode.f(q, v), u, h, scaled)


def nabla(sode, jet):
    return -0.5 * jac_u(sode, jet)


def _gamma_of_matrix(F, sode, q, u, h):
    """Directional derivative of a matrix field along (q', f), 4th order."""
    f0 = sode.f(q, u)

    def at(eps):
        return F(q + eps * u, u + eps * f0)

    return (-at(2 * h) + 8.0 * at(h) - 8.0 * at(-h) + at(-2 * h)) / (12.0 * h)


def _mixed_gamma_jac_u(sode, q, u):
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


def phi(sode, jet):
    """The Jacobi endomorphism matrix at a jet."""
    q, u = np.array(jet.q), np.array(jet.qdot)
    J = jac_u(sode, jet)
    dq = _central(lambda x: sode.f(x, u), q, H_FD)
    return _mixed_gamma_jac_u(sode, q, u) - 2.0 * dq - 0.5 * (J @ J)


def nabla_phi(sode, jet, order=1):
    """The ``order``-fold covariant derivative of Phi, each fold a
    fourth-order difference along the system field of the one before."""
    def tensor(q, u):
        j = Jet(tuple(q), tuple(u))
        return nabla_phi(sode, j, order - 1) if order > 1 else phi(sode, j)

    q, u = np.array(jet.q), np.array(jet.qdot)
    U = tensor(q, u)
    N = nabla(sode, jet)
    scale = 1.0 + float(np.max(np.abs(np.concatenate((q, u)))))
    G = _gamma_of_matrix(tensor, sode, q, u, 1e-3 * scale)
    return G + N @ U - U @ N


def r_tensor(sode, jet, h=1e-6):
    """Velocity curl R[j, k, l] = (1/3)(dPhi^j_l/du_k - dPhi^j_k/du_l)."""
    n = sode.n
    q, u = np.array(jet.q), np.array(jet.qdot)
    dphi = np.empty((n, n, n))  # dphi[k] = dPhi/du_k
    for kdx in range(n):
        step = h * (1.0 + abs(u[kdx]))
        up, um = u.copy(), u.copy()
        up[kdx] += step
        um[kdx] -= step
        dphi[kdx] = (helmholtz.phi(sode, Jet(tuple(q), tuple(up)))
                     - helmholtz.phi(sode, Jet(tuple(q), tuple(um)))) / (2.0 * step)
    return (dphi.transpose(1, 0, 2) - dphi.transpose(1, 2, 0)) / 3.0


def r_condition_residual(sode, g, jet):
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
