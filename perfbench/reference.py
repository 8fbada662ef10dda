"""Reference values for the benchmark, computed apart from the program.

Nothing here imports ``asymsqueeze``.  The state is the two-mode vacuum
evolved by the quadratic Hamiltonian

    H = lam e^{+gamma} Q1 P2 + lam e^{-gamma} Q2 P1 = x^T K x / 2,

x = (q1, p1, q2, p2), [q, p] = i.  Its Heisenberg flow is the symplectic
matrix S = expm(Omega K), computed by ``scipy.linalg.expm`` on the 4x4
matrix, and the covariance is sigma = S (I/2) S^T.  Every derived quantity
comes from sigma through generic Gaussian-state formulas:

* CHSH: pi^2 [W(0,0) + W(alpha,0) + W(0,beta) - W(alpha,beta)] with the
  Gaussian Wigner function W(x) = exp(-x^T sigma^-1 x / 2) / (4 pi^2 sqrt(det sigma)).
  sigma^-1 = 2 S^-T S^-1 with S^-1 = expm(-Omega K), and det S = exp(tr Omega K)
  (Jacobi's formula), so neither an ill-conditioned inverse nor a cancelling
  determinant enters.
* E_N = max(0, -ln 2 nu_min), nu_min the smallest symplectic eigenvalue of
  sigma_PT (sigma with the sign of p2 flipped), taken as the reciprocal of
  the largest modulus among the eigenvalues of i Omega sigma_PT^-1 (generic
  non-symmetric eigensolver).
* Teleportation fidelity F = (1/pi) Int d^2 eta |chi_in(eta)|^2 chi_E(-eta*, -eta)
  with chi_E(xi) = exp(-xi^T Omega^T sigma Omega xi / 2).  Both factors are
  Gaussians in z = (Re eta, Im eta), so F = 1 / sqrt(det A) for the 2x2 form A.

All functions broadcast over leading axes of ``lam`` and ``gamma``.
"""

import math

import numpy as np
from scipy.linalg import expm

OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
TSIRELSON = 2.0 * math.sqrt(2.0)

# xi = sqrt(2) T z maps z = (Re eta, Im eta) to the phase point of
# (alpha, beta) = (-eta*, -eta), with alpha = (q1 + i p1)/sqrt(2).
_T = np.array([[-1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def hamiltonian_matrix(lam, gamma):
    """K with H = x^T K x / 2, shape (..., 4, 4)."""
    lam, gamma = np.broadcast_arrays(np.asarray(lam, float), np.asarray(gamma, float))
    k = np.zeros(lam.shape + (4, 4))
    lam1 = lam * np.exp(gamma)  # Q1 P2: indices 0, 3
    lam2 = lam * np.exp(-gamma)  # Q2 P1: indices 2, 1
    k[..., 0, 3] = k[..., 3, 0] = lam1
    k[..., 2, 1] = k[..., 1, 2] = lam2
    return k


class Gaussian:
    """sigma, sigma^-1 and det sigma of the state at each (lam, gamma)."""

    def __init__(self, lam, gamma):
        gen = OMEGA @ hamiltonian_matrix(lam, gamma)
        flat = gen.reshape(-1, 4, 4)
        s = expm(flat).reshape(gen.shape)
        s_inv = expm(-flat).reshape(gen.shape)
        self.sigma = 0.5 * s @ np.swapaxes(s, -1, -2)
        self.sigma_inv = 2.0 * np.swapaxes(s_inv, -1, -2) @ s_inv
        self.det = np.exp(np.trace(gen, axis1=-2, axis2=-1)) ** 2 / 16.0

    def wigner(self, x, index=...):
        """W at phase points x (..., 4); ``index`` picks the state per point."""
        quad = np.einsum("...i,...ij,...j->...", x, self.sigma_inv[index], x)
        return np.exp(-0.5 * quad) / (4.0 * math.pi ** 2 * np.sqrt(self.det[index]))

    def chsh(self, j, theta, phi, index=...):
        """CHSH combination at displacements alpha = sqrt(J) e^{i phi}, beta = sqrt(J) e^{i theta}."""
        j, theta, phi = np.broadcast_arrays(*(np.asarray(v, float) for v in (j, theta, phi)))
        amp = np.sqrt(2.0 * j)
        zero = np.zeros_like(amp)
        a = np.stack([amp * np.cos(phi), amp * np.sin(phi), zero, zero], axis=-1)
        b = np.stack([zero, zero, amp * np.cos(theta), amp * np.sin(theta)], axis=-1)
        w = lambda x: self.wigner(x, index)  # noqa: E731
        return math.pi ** 2 * (w(np.zeros_like(a)) + w(a) + w(b) - w(a + b))

    def log_negativity(self):
        # nu_min of sigma_PT is 1/nu_max of its inverse (S D S^T inverts to
        # S^-T D^-1 S^-1); the largest eigenvalue carries only relative
        # round-off, where the smallest would carry ||sigma|| eps.
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        eigs = np.linalg.eigvals(1j * OMEGA @ (flip @ self.sigma_inv @ flip))
        nu_min = 1.0 / np.max(np.abs(eigs), axis=-1)
        return np.maximum(0.0, -np.log(2.0 * nu_min))

    def fidelity(self, r=0.0):
        """Teleportation fidelity of a squeezed-vacuum input (r = 0: coherent)."""
        kernel = OMEGA.T @ self.sigma @ OMEGA
        form = _T.T @ kernel @ _T + np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)])
        det = form[..., 0, 0] * form[..., 1, 1] - form[..., 0, 1] * form[..., 1, 0]
        return 1.0 / np.sqrt(det)


def schmidt_log_negativity(amplitudes):
    """2 ln sum_i s_i from the singular values of a pure two-mode amplitude matrix."""
    return 2.0 * math.log(float(np.sum(np.linalg.svd(np.asarray(amplitudes), compute_uv=False))))
