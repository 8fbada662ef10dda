"""Independent reference implementations used only by the tests.

These deliberately avoid the library code paths they check: symplectic
spectra by a generic eigensolver, matrix exponentials by scaled Taylor series,
the CHSH maximum from its closed form in 50-digit arithmetic.
"""

import mpmath
import numpy as np

OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def symplectic_eigs_generic(sigma, ppt=False):
    """(n_minus, n_plus) as |eigenvalues| of i Omega sigma via a generic solver."""
    sigma = np.asarray(sigma, dtype=float)
    if ppt:
        flip = np.diag([1.0, 1.0, 1.0, -1.0])  # transpose mode 2: p2 -> -p2
        sigma = flip @ sigma @ flip
    eigs = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ sigma)))
    # eigenvalues come in +-nu pairs
    return float(eigs[0]), float(eigs[2])


def expm_taylor(mat, terms=24):
    """Matrix exponential by scaling-and-squaring plus Taylor series."""
    mat = np.asarray(mat, dtype=float)
    norm = np.max(np.abs(mat))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    scaled = mat / 2.0 ** squarings
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, terms):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_physical_cov(rng, mixed=True, scale=0.4):
    """Random physical covariance matrix S D S^T with S symplectic."""
    h = rng.normal(size=(4, 4), scale=scale)
    h = 0.5 * (h + h.T)
    s = expm_taylor(OMEGA @ h)
    if mixed:
        nus = 0.5 + rng.uniform(0.0, 0.8, size=2)
    else:
        nus = np.array([0.5, 0.5])
    base = np.diag([nus[0], nus[0], nus[1], nus[1]])
    return s @ base @ s.T


def coefficients_50_digits(lam, gamma):
    """(m1, m2, m3, f) of the state as 50-digit mpf, from the hyperbolics of (lam, gamma) directly:
    m1, m2 = cosh^2 lam + e^{+-2 gamma} sinh^2 lam, m3 = cosh gamma sinh 2 lam and
    f = m3 - cosh^2 lam - cosh 2gamma sinh^2 lam.  Take functions of them at 50 digits too."""
    with mpmath.workdps(50):
        lam, gamma = mpmath.mpf(float(lam)), mpmath.mpf(float(gamma))
        c2, s2 = mpmath.cosh(lam) ** 2, mpmath.sinh(lam) ** 2
        m3 = mpmath.cosh(gamma) * mpmath.sinh(2 * lam)
        return c2 + mpmath.exp(2 * gamma) * s2, c2 + mpmath.exp(-2 * gamma) * s2, m3, m3 - c2 - mpmath.cosh(2 * gamma) * s2


def chsh_maximum_50_digits(lam, gamma):
    """B_max = 1 + (2 - 1/rho) rho^{-1/(2 rho - 1)} with rho = 1 + tanh E_N, as an mpf."""
    with mpmath.workdps(50):
        m3 = coefficients_50_digits(lam, gamma)[2]
        rho = 1 + m3 / mpmath.sqrt(1 + m3 * m3)
        return 1 + (2 - 1 / rho) * rho ** (-1 / (2 * rho - 1))
