"""Hot numeric kernels, vectorised with numpy.

Kernels:
  * ``bell_values``       -- CHSH combination of displaced-parity correlations
                             from the Wigner coefficients m1, m2, m3,
                             broadcast over the settings
  * ``fock_series_table`` -- amplitude table of the squeezed vacuum expanded
                             as a product of three commuting exponential series
  * ``teleport_integrand`` -- fidelity integrand |chi_in|^2 * chi_E(-eta*, -eta)
                             on a tensor grid of Re/Im eta (61 x 61 in
                             ``fidelity_quadrature``, whose trapezoid sampling
                             error is about 2 e^{-pi^2 (N-1)^2 / 144}), from
                             chi_E's exponent as the real 2x2 form q in (Re, Im)
                             that ``channel_form`` reduces once per quadrature;
                             q's diagonal also gives the quadrature's axis decay
                             rates, so no probe call is made
"""

import math

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
# Fock amplitude table of the state  norm * exp[-A a'^2] exp[A b'^2] exp[B a'b'] |00>
# (primes denote creation operators; the three factors commute).  Within the
# retained block 0 <= m,n <= cutoff the triple series is exactly finite, since
# every factor only raises occupation numbers: powers beyond the cutoff cannot
# contribute to retained amplitudes.
#
#   c_{mn} = norm * sum_k B^k s^-_A(m,k) s^+_A(n,k)
#   s^±_A(m,k) = [(m-k) even >= 0] (±A)^{(m-k)/2} / ((m-k)/2)! * sqrt(m!/k!)
# ---------------------------------------------------------------------------


def fock_series_table(a_coeff, b_coeff, norm, cutoff):
    d = cutoff + 1
    sa = np.zeros((d, d))
    sb = np.zeros((d, d))
    for m in range(d):
        for k in range(m % 2, m + 1, 2):
            i = (m - k) // 2
            sq = math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(k + 1)))
            fi = math.factorial(i)
            sa[m, k] = (-a_coeff) ** i / fi * sq
            sb[m, k] = a_coeff ** i / fi * sq
    bk = b_coeff ** np.arange(d)
    return norm * (sa * bk) @ sb.T


# ---------------------------------------------------------------------------
# Teleportation fidelity integrand on a tensor grid of eta = x + iy:
#   g(x, y) = |chi_in(eta)|^2 * chi_E(-eta*, -eta)
# chi_in is the input state's characteristic function, called on the complex
# grid; chi_E is the two-mode characteristic function exp[-v^T M v / 8] with
# v = (conj(a), a, conj(b), b) evaluated at a = -eta*, b = -eta.  That v is
# linear in (x, y), v = T (x, y) with T = _ETA_TO_V, so Re(v^T M v)/8 is the
# real 2x2 form q = Re(T^T M T)/8 (``channel_form``), which the caller reduces
# once and the kernel evaluates point by point:
#   chi_E = exp[-(q00 x^2 + (q01 + q10) x y + q11 y^2)].
# ---------------------------------------------------------------------------

_ETA_TO_V = np.array([[-1.0, -1j], [-1.0, 1j], [-1.0, 1j], [-1.0, -1j]])


def channel_form(m_mat):
    return (_ETA_TO_V.T @ m_mat @ _ETA_TO_V).real / 8.0


def teleport_integrand(xs, ys, q, chi_in):
    x = xs[:, None]
    y = ys[None, :]
    chi = chi_in(x + 1j * y)
    form = q[0, 0] * (x * x) + (q[0, 1] + q[1, 0]) * (x * y) + q[1, 1] * (y * y)
    return (chi.real * chi.real + chi.imag * chi.imag) * np.exp(-form)
