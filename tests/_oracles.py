"""Independent reference implementations used only by the tests.

These deliberately avoid the library code paths they check: symplectic
spectra by a generic eigensolver, matrix exponentials by scaled Taylor series,
the CHSH maximum from its closed form in 50-digit arithmetic.  The one
bound here, ``exponent_error_bound``, is a rounding-error bound that the float
Gaussian form is held to, not a reference value; it reads G as the 4x4 matrix
``gaussian_form_matrix`` builds from S.
"""

import mpmath
import numpy as np

from asymsqueeze import SYMPLECTIC_FORM, heisenberg_transform

OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


EPS = np.finfo(float).eps
# Unit roundoff, and an allowance of LIBM_ULPS ulps (each at most eps relative) per libm cosh,
# sinh, exp, cos or sin.  G = S^T Omega only moves and negates S's entries cosh(lam) and
# sinh(lam) e^{-+gamma}, each two libm values and at most one rounded product or quotient:
# G_ENTRY relative.
U = EPS / 2
LIBM_ULPS = 2
G_ENTRY = 2 * LIBM_ULPS * EPS + U


def gaussian_form_matrix(params):
    """G = S^T Omega as a 4x4 matrix, S = ``heisenberg_transform``: its entries are S's, moved and
    negated, so it is the matrix of ``_kernels.gaussian_forms`` at S's float entries."""
    return heisenberg_transform(params).T @ SYMPLECTIC_FORM


def exponent_error_bound(g, x, x_error=0.0):
    """A running error bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 3), to first order in U, on the float |G x|^2 from the float G (``gaussian_form_matrix``)
    and the float point x, each of whose entries is off by at most x_error relative from the
    point meant (0 when x is the point meant).

    Entry i of G x adds the products G_ij x_j (two of them nonzero), each within
    G_ENTRY + x_error + U, in one rounded sum: it is off by at most
    e_i = (G_ENTRY + x_error + 2U) sum_j |G_ij x_j|.  Those products are of size
    e^{2 lam + |gamma|} |x| and cancel to the state's own scale |G x|.  Squaring and summing
    the four entries adds sum_i e_i (2 |(G x)_i| + e_i), and its own rounding 4U |G x|^2."""
    v = g @ x
    e = (G_ENTRY + x_error + 2 * U) * (np.abs(g) @ np.abs(x))
    return float(e @ (2.0 * np.abs(v) + e) + 4 * U * (v @ v))


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


def wigner_of_covariance(sigma, point):
    """Gaussian Wigner density exp[-x^T sigma^{-1} x / 2] / ((2 pi)^2 sqrt(det sigma)) by a generic
    solve and determinant, so it holds for mixed states too and uses no pure-state identity."""
    sigma = np.asarray(sigma, dtype=float)
    x = np.array([point.q1, point.p1, point.q2, point.p2])
    return float(np.exp(-0.5 * x @ np.linalg.solve(sigma, x))) / (
        (2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(sigma))
    )


def cf_of_covariance(sigma, point):
    """Symmetric-order characteristic function exp[-x^T (Omega^T sigma Omega) x / 2]."""
    x = np.array([point.q1, point.p1, point.q2, point.p2])
    return float(np.exp(-0.5 * x @ OMEGA.T @ np.asarray(sigma, dtype=float) @ OMEGA @ x))


def coefficient_formulas(ns, lam, gamma):
    """(m1, m2, m3, f) from the hyperbolics of (lam, gamma) directly, with the cosh, sinh and exp of
    ``ns`` (``mpmath`` or ``sympy``): m1, m2 = cosh^2 lam + e^{+-2 gamma} sinh^2 lam,
    m3 = cosh gamma sinh 2 lam and f = m3 - cosh^2 lam - cosh 2gamma sinh^2 lam."""
    c2, s2 = ns.cosh(lam) ** 2, ns.sinh(lam) ** 2
    m3 = ns.cosh(gamma) * ns.sinh(2 * lam)
    return c2 + ns.exp(2 * gamma) * s2, c2 + ns.exp(-2 * gamma) * s2, m3, m3 - c2 - ns.cosh(2 * gamma) * s2


def coefficients_50_digits(lam, gamma):
    """``coefficient_formulas`` as 50-digit mpf, the formulas ``test_certificate`` proves.
    Take functions of them at 50 digits too."""
    with mpmath.workdps(50):
        return coefficient_formulas(mpmath, mpmath.mpf(float(lam)), mpmath.mpf(float(gamma)))


def chsh_maximum_50_digits(lam, gamma):
    """B_max = 1 + (2 - 1/rho) rho^{-1/(2 rho - 1)} with rho = 1 + tanh E_N, as an mpf."""
    with mpmath.workdps(50):
        m3 = coefficients_50_digits(lam, gamma)[2]
        rho = 1 + m3 / mpmath.sqrt(1 + m3 * m3)
        return 1 + (2 - 1 / rho) * rho ** (-1 / (2 * rho - 1))
