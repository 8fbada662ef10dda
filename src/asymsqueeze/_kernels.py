"""Hot numeric kernels, vectorised with numpy.

Kernels:
  * ``bell_values``       -- CHSH combination of displaced-parity correlations
                             from the Wigner coefficients m1, m2, m3,
                             broadcast over the settings
  * ``fock_series_table`` -- amplitude table of the squeezed vacuum, row by row
                             from its two ladder relations
  * ``teleport_integrand`` -- fidelity integrand |chi_in|^2 * chi_E(-eta*, -eta)
                             on a tensor grid of Re/Im eta (61 x 61 in
                             ``fidelity_quadrature``, whose trapezoid sampling
                             error is about 2 e^{-pi^2 (N-1)^2 / 144}), from
                             chi_E's exponent as the real 2x2 form q in (Re, Im)
                             that the quadrature builds once per call; q's
                             diagonal also gives its axis decay rates
"""

import numpy as np

# ---------------------------------------------------------------------------
# CHSH combination of four displaced-parity expectations.
# Exponents follow from the closed-form Wigner function of the state at the
# four displacement settings (0,0), (alpha,0), (0,beta), (alpha,beta) with
# alpha = sqrt(J) e^{i phi}, beta = sqrt(J) e^{i theta}:
#   a = m1 cos^2(phi) + m2 sin^2(phi),   b = m1 sin^2(theta) + m2 cos^2(theta)
#   B = 1 + e^{-2Ja} + e^{-2Jb} - e^{-2J(a + b) + 4J cos(theta + phi) m3}
# ---------------------------------------------------------------------------


def bell_values(m1, m2, m3, j, theta, phi):
    a = m1 * np.cos(phi) ** 2 + m2 * np.sin(phi) ** 2
    b = m1 * np.sin(theta) ** 2 + m2 * np.cos(theta) ** 2
    t1 = np.exp(-2.0 * j * a)
    t2 = np.exp(-2.0 * j * b)
    t3 = np.exp(-2.0 * j * (a + b) + 4.0 * j * np.cos(theta + phi) * m3)
    return 1.0 + t1 + t2 - t3


# ---------------------------------------------------------------------------
# Fock amplitude table c[m, n] of psi = norm * exp[-A a'^2 + A b'^2 + B a'b'] |00>
# (primes denote creation operators), from a psi = (-2A a' + B b') psi and
# b psi = (2A b' + B a') psi:
#   sqrt(n+1) c[0, n+1] = 2A sqrt(n) c[0, n-1]                         (row 0)
#   sqrt(m+1) c[m+1, n] = -2A sqrt(m) c[m-1, n] + B sqrt(n) c[m, n-1]   (rows 1 on)
# No factorial is formed, so nothing overflows at any cutoff; at large cutoffs
# the two terms of a row can cancel, which the caller's unit-vector gate catches.
# ---------------------------------------------------------------------------


def fock_series_table(a_coeff, b_coeff, norm, cutoff):
    d = cutoff + 1
    root = np.sqrt(np.arange(d))
    table = np.zeros((d, d + 1))  # c[m, n] at table[m, n + 1]; column 0 holds c[m, -1] = 0
    table[0, 1::2] = np.cumprod(np.r_[norm, 2.0 * a_coeff * (root[1:-1:2] / root[2::2])])
    for m in range(d - 1):  # at m = 0, root[m] = 0 drops table[-1], the still-zero last row
        down, up = root[m] / root[m + 1], root / root[m + 1]
        table[m + 1, 1:] = (b_coeff * up) * table[m, :-1] - (2.0 * a_coeff * down) * table[m - 1, 1:]
    return table[:, 1:]


# ---------------------------------------------------------------------------
# Teleportation fidelity integrand on a tensor grid of eta = x + iy:
#   g(x, y) = |chi_in(eta)|^2 * chi_E(-eta*, -eta)
# chi_in is the input state's characteristic function, called on the complex
# grid; chi_E's exponent is a real quadratic form q in (x, y), which the caller
# builds once per quadrature and the kernel evaluates point by point:
#   chi_E = exp[-(q00 x^2 + (q01 + q10) x y + q11 y^2)].
# ---------------------------------------------------------------------------


def teleport_integrand(xs, ys, q, chi_in):
    x = xs[:, None]
    y = ys[None, :]
    chi = chi_in(x + 1j * y)
    form = q[0, 0] * (x * x) + (q[0, 1] + q[1, 0]) * (x * y) + q[1, 1] * (y * y)
    return (chi.real * chi.real + chi.imag * chi.imag) * np.exp(-form)
