"""Hot numeric kernels, vectorised with numpy.

Kernels:
  * ``gaussian_forms``    -- G x for G = S^T Omega; ``gaussian_exponent`` |G x|^2
  * ``bell_values``       -- CHSH combination of displaced-parity correlations
                             from those forms, broadcast over the settings
  * ``fock_series_table`` -- amplitude table of the squeezed vacuum, row by row
                             from its two ladder relations
  * ``teleport_integrand`` -- fidelity integrand |chi_in|^2 * chi_E(-eta*, -eta)
                             on a tensor grid of Re/Im eta (31 x 31 in
                             ``fidelity_quadrature``, whose trapezoid sampling
                             error is about 2 e^{-pi^2 (N-1)^2 / 144}), from
                             chi_E's exponent as the real 2x2 form q in (Re, Im)
                             that the quadrature builds once per call; q's
                             diagonal also gives its axis decay rates
"""

import numpy as np

# ---------------------------------------------------------------------------
# G = S^T Omega (S = ``state.heisenberg_transform``) as four linear forms of
# x = (q1, p1, q2, p2), from ch = cosh lam, she = e^gamma sinh lam and
# shi = e^{-gamma} sinh lam: pi^2 W(x) = exp(-|G x|^2), CF(x) = exp(-|G x|^2/4).
# Each form's two products, of size e^{2 lam + |gamma|} |x|, cancel only to
# |G x|.  Only + - * appear, so floats, arrays and symbols all run here.
# The CHSH combination of four displaced-parity expectations pi^2 W at the
# settings (0,0), (alpha,0), (0,beta), (alpha,beta), alpha = sqrt(J) e^{i phi}
# and beta = sqrt(J) e^{i theta}, takes their points as sqrt(2J) times 0, u, v
# and u + v with u = (cos phi, sin phi, 0, 0) and v = (0, 0, cos theta, sin theta):
#   B = 1 + e^{-2J |G u|^2} + e^{-2J |G v|^2} - e^{-2J |G (u + v)|^2}
# ---------------------------------------------------------------------------


def gaussian_forms(ch, she, shi, q1, p1, q2, p2):
    return ch * p1 + she * p2, shi * q2 - ch * q1, shi * p1 + ch * p2, she * q1 - ch * q2


def gaussian_exponent(ch, she, shi, q1, p1, q2, p2):
    r0, r1, r2, r3 = gaussian_forms(ch, she, shi, q1, p1, q2, p2)
    return r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3


def bell_values(ch, she, shi, j, theta, phi):
    cos_phi, sin_phi, cos_theta, sin_theta = np.cos(phi), np.sin(phi), np.cos(theta), np.sin(theta)
    t1 = np.exp(-2.0 * j * gaussian_exponent(ch, she, shi, cos_phi, sin_phi, 0.0, 0.0))
    t2 = np.exp(-2.0 * j * gaussian_exponent(ch, she, shi, 0.0, 0.0, cos_theta, sin_theta))
    t3 = np.exp(-2.0 * j * gaussian_exponent(ch, she, shi, cos_phi, sin_phi, cos_theta, sin_theta))
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
