"""Symbolic proof of the closed-form algebra, from the generator to every closed form.

With u = e^lam and v = e^gamma as positive symbols, every hyperbolic function
of (lam, gamma) is a rational function of u and v.  An identity is proved when
its difference, expanded and put over one denominator, cancels to 0; it then
holds exactly for every lam and gamma, not only inside the envelope.

The link to the float code: m1, m2, m3 and f are ``_oracles.coefficient_formulas``,
the expressions that the envelope tests evaluate at 50 digits and hold the float
code to; ``state._combine`` and ``state._squeezer`` are called on symbols
themselves, and so are ``_kernels.gaussian_forms``, ``state._wigner_exponent``
and ``_kernels.bell_values``, on the symbolic entries of S; and S and sigma are
written as ``heisenberg_transform`` and ``covariance`` write them, which
``test_float_code_writes_the_proven_matrices`` checks bit for bit.  So W, the CF,
the channel CF and the CHSH terms, which all read ``gaussian_forms``, inherit
the proof that it is S^T Omega x.
"""

import dataclasses
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from _oracles import coefficient_formulas

from asymsqueeze import (
    SYMPLECTIC_FORM,
    BellSetting,
    PhasePoint,
    SqueezeParams,
    _kernels,
    coefficients,
    covariance,
    enhanced_squeezing,
    heisenberg_transform,
    state,
)
from asymsqueeze.bell import _chsh_points
from asymsqueeze.state import squeezer_entries
from asymsqueeze.teleport import _ETA_TO_PHASE

U, V = sp.symbols("u v", positive=True)  # e^lam, e^gamma
LAM, GAMMA = sp.log(U), sp.log(V)
X = sp.symbols("q1 p1 q2 p2", real=True)


def rational(expr):
    """expr, a function of (lam, gamma), as a rational function of u and v."""
    return sp.cancel(sp.together(sp.expand(sp.sympify(expr).rewrite(sp.exp))))


def vanishes(expr):
    return sp.cancel(sp.together(sp.expand(expr))) == 0


def all_vanish(matrix):
    return all(vanishes(entry) for entry in matrix)


def s_entries(ch, sh, eg):
    """S as ``heisenberg_transform`` writes it, from cosh lam, sinh lam and e^gamma."""
    return [[ch, 0, sh / eg, 0], [0, ch, 0, -sh * eg], [sh * eg, 0, ch, 0], [0, -sh / eg, 0, ch]]


def sigma_entries(m1, m2, m3):
    """sigma as ``covariance`` writes it, from m1, m2 and m3."""
    return [[m2 / 2, 0, m3 / 2, 0], [0, m1 / 2, 0, -m3 / 2], [m3 / 2, 0, m1 / 2, 0], [0, -m3 / 2, 0, m2 / 2]]


def lambda_terms():
    """``state._lambda_terms`` on the symbol u = e^lam, in its order."""
    ch, sh = sp.cosh(LAM), sp.sinh(LAM)
    return [rational(t) for t in (sh, ch, ch ** 2, sh ** 2, sp.sinh(2 * LAM), sp.exp(-2 * LAM), sp.exp(-LAM))]


def gamma_terms(v):
    """``state._gamma_terms`` on the symbol v = e^gamma, or at v = 1 (gamma = 0), in its order."""
    gamma = sp.log(v)
    return [rational(t) for t in (v, v ** 2, v ** -2, sp.cosh(gamma), 4 * sp.sinh(gamma / 2) ** 2)]


M1, M2, M3, F = (rational(c) for c in coefficient_formulas(sp, LAM, GAMMA))
CH, SH = rational(sp.cosh(LAM)), rational(sp.sinh(LAM))
# ``state._squeezer`` on (sinh lam, cosh lam) and (e^gamma,), as ``squeezer_entries`` passes them and as they
# lead ``_lambda_terms`` and ``_gamma_terms``, which ``squeezer_grid`` passes
ENTRIES = state._squeezer((SH, CH), (V,))  # cosh lam, e^gamma sinh lam, e^-gamma sinh lam
OMEGA = sp.Matrix(SYMPLECTIC_FORM.astype(int))
S = sp.Matrix(s_entries(CH, SH, V))
SIGMA = sp.Matrix(sigma_entries(M1, M2, M3))
KERNEL = OMEGA.T * SIGMA * OMEGA  # the CF's quadratic kernel
I4 = sp.eye(4)


def test_package_does_not_import_sympy(child_env):
    # sympy is a test dependency only; importing it would also slow every run's start-up
    code = "import sys, asymsqueeze, asymsqueeze.cli; assert 'sympy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)


@pytest.fixture
def exponent(monkeypatch):
    """``state._wigner_exponent`` at a symbolic PhasePoint, on the symbolic entries of S."""
    monkeypatch.setattr(state, "squeezer_entries", lambda params: ENTRIES)
    return lambda *x: state._wigner_exponent(None, PhasePoint(*x))


@pytest.mark.parametrize("lam, gamma", [(0.0, 0.0), (0.5, 1.0), (1.2, -0.8), (5.0, 5.0), (3.0, -5.0)])
def test_float_code_writes_the_proven_matrices(lam, gamma):
    p = SqueezeParams(lam, gamma)
    c = coefficients(p)
    transform = np.array(s_entries(math.cosh(lam), math.sinh(lam), math.exp(gamma)), dtype=float)
    assert np.array_equal(heisenberg_transform(p), transform)
    assert np.array_equal(covariance(p).entries, np.array(sigma_entries(c.m1, c.m2, c.m3), dtype=float))


def test_squeezer_entries_are_those_of_s():
    assert all(vanishes(a - b) for a, b in zip(ENTRIES, (S[0, 0], S[2, 0], S[0, 2])))


def test_gaussian_forms_are_s_transpose_omega():
    # the one home of G = S^T Omega: W, the CF, the channel CF and the CHSH kernel read these forms
    forms = sp.Matrix(_kernels.gaussian_forms(*ENTRIES, *X))
    assert all_vanish(forms - S.T * OMEGA * sp.Matrix(X))
    assert vanishes(_kernels.gaussian_exponent(*ENTRIES, *X) - (forms.T * forms)[0])


def test_transform_solves_the_generator_flow():
    # For a quadratic generator x^T h x / 2, [x_j, x_k] = i Omega_jk gives [x_j, G] = i (Omega h x)_j, so
    # the Heisenberg flow of exp(-i lam G) is dx/dlam = Omega h x: dS/dlam = Omega h S, S(0) = I.
    # Q1 P2 and Q2 P1 act on different modes, so h is the Hessian of the classical polynomial.
    q1, p1, q2, p2 = X
    h = sp.hessian(V * q1 * p2 + q2 * p1 / V, X)
    assert h == h.T
    assert all_vanish(U * S.diff(U) - OMEGA * h * S)  # d/dlam = u d/du
    assert S.subs(U, 1) == I4


def test_transform_is_symplectic():
    assert all_vanish(S * OMEGA * S.T - OMEGA)


def test_transformed_vacuum_is_the_covariance():
    assert all_vanish(S * S.T / 2 - SIGMA)


def test_purity_identity():
    assert vanishes(M1 * M2 - M3 ** 2 - 1)


def test_inverse_is_four_times_the_cf_kernel():
    # sigma^{-1} = 4 Omega^T sigma Omega for this pure state (Weedbrook et al., RMP 84, 621, 2012)
    assert all_vanish(SIGMA * 4 * KERNEL - I4)


def test_combine_regroups_f():
    # _combine's terms in _lambda_terms' and _gamma_terms' order; its f is the regrouped form
    c = state._combine(lambda_terms(), gamma_terms(V))
    assert all(vanishes(a - b) for a, b in zip((c.m1, c.m2, c.m3, c.f), (M1, M2, M3, F)))


def test_series_coefficient_forms():
    # fock_amplitudes' L = m1 + m2 + 2 and the uncancelled m1 - m2 its A is taken from
    s2 = SH ** 2
    assert vanishes(M1 + M2 + 2 - 4 * (CH ** 2 + rational(sp.sinh(GAMMA) ** 2) * s2))
    assert vanishes(M1 - M2 - 2 * rational(sp.sinh(2 * GAMMA)) * s2)


def test_series_form_is_the_squeezed_vacuum():
    # V^dag X V = S X, so V a V^dag = U a + W a' with U, W the top blocks of S^{-1} in the complex
    # basis (a1, a2, a1', a2').  V|00> is the state a - M a' annihilates, M = -U^{-1} W, which is
    # N exp(a'^T M a' / 2)|00> with |N| = |det U|^{-1/2} (Ma & Rhodes, PRA 41, 4625, 1990).  The
    # ladder of _kernels.fock_series_table takes M = [[-2A, B], [B, 2A]] and N = 2/sqrt(L), with L, A
    # and B as fock_amplitudes writes them; so these two identities prove its table exactly.
    r = 1 / sp.sqrt(2)
    t = sp.Matrix([[r, sp.I * r, 0, 0], [0, 0, r, sp.I * r], [r, -sp.I * r, 0, 0], [0, 0, r, -sp.I * r]])
    blocks = t * S.inv() * t.inv()
    u, w = blocks[:2, :2], blocks[:2, 2:]
    big_l = M1 + M2 + 2
    a, b = rational(sp.sinh(2 * GAMMA)) * SH ** 2 / big_l, 2 * M3 / big_l
    assert all_vanish(u * sp.Matrix([[-2 * a, b], [b, 2 * a]]) + w)  # U M + W = 0
    assert vanishes(u.det() - big_l / 4)  # det U = L/4 > 0, so U is invertible and |N| = 2/sqrt(L)


def test_wigner_exponent_is_the_gaussian_form(exponent):
    # Q = -x^T sigma^{-1} x / 2 = -2 x^T (Omega^T sigma Omega) x, so W = e^Q / pi^2 and CF = e^{Q/4}
    x = sp.Matrix(X)
    assert vanishes(exponent(*X) + 2 * (x.T * KERNEL * x)[0])


def test_cf_kernel_is_a_gram_matrix():
    # K = G^T G / 2 with G = S^T Omega of det 1, so K > 0: the CF is at most 1, reached only at the
    # origin.  At lam = 0, K = I/2 is the vacuum's, CF = exp(-|x|^2 / 4).
    g = S.T * OMEGA
    assert all_vanish(KERNEL - g.T * g / 2)
    assert vanishes(g.det() - 1)
    assert KERNEL.subs(U, 1) == I4 / 2


def test_wigner_normalisation():
    # det sigma = 1/16, so e^Q = exp(-x^T (2K) x) has det 2K = 16 det sigma = 1, and its integral over
    # R^4 is pi^2 / sqrt(det 2K) = pi^2: W = e^Q / pi^2 integrates to 1
    assert vanishes(SIGMA.det() - sp.Rational(1, 16))
    assert vanishes((2 * KERNEL).det() - 1)


def test_log_negativity_from_partial_transpose_invariants():
    # transposing mode 2 flips p2; n_min^2 is the smaller root of n^4 - Delta n^2 + det sigma
    flip = sp.diag(1, 1, 1, -1)
    pt = flip * SIGMA * flip
    blocks = pt[:2, :2].det(), pt[2:, 2:].det(), pt[:2, 2:].det()
    delta = blocks[0] + blocks[1] + 2 * blocks[2]
    # the discriminant is (m3 w)^2, with w = sqrt(1 + m3^2) and m3 >= 0
    assert vanishes(delta ** 2 - 4 * SIGMA.det() - M3 ** 2 * (1 + M3 ** 2))
    w = sp.Symbol("w", positive=True)
    n_min_sq = (delta - M3 * w) / 2
    # so n_min = (w - m3)/2 (w > m3), reducing w^2 to 1 + m3^2
    claim = sp.expand(((w - M3) / 2) ** 2 - n_min_sq)
    assert vanishes(claim.coeff(w, 1)) and vanishes(claim.coeff(w, 0) + claim.coeff(w, 2) * (1 + M3 ** 2))
    # -ln(2 n_min) = -ln(w - m3) = ln(w + m3), as (w - m3)(w + m3) = w^2 - m3^2 = 1, and that is asinh m3
    m3 = sp.Symbol("m3", nonnegative=True)
    root = sp.sqrt(1 + m3 ** 2)
    assert sp.expand((root - m3) * (root + m3)) == 1
    assert sp.asinh(m3).rewrite(sp.log) == sp.log(m3 + root)


def test_chsh_exponents_are_the_wigner_exponent(exponent, monkeypatch):
    # _kernels.bell_values, run on the symbols, takes its three terms -2J |G u|^2, -2J |G v|^2 and
    # -2J |G (u + v)|^2 from gaussian_forms at u = (cos phi, sin phi, 0, 0), v = (0, 0, cos theta,
    # sin theta) and u + v, and returns 1 + t1 + t2 - t3.  The exponents are Q at the last three
    # _chsh_points (the one of sign -1 last), and Q = 0 at the first: B = pi^2 [W(0, 0) + W(alpha, 0) + ...]
    j = sp.Symbol("J", positive=True)
    cos_p, sin_p, cos_t, sin_t = sp.symbols("cos_phi sin_phi cos_theta sin_theta", real=True)
    theta, phi = sp.symbols("theta phi", real=True)
    trig = {theta: (cos_t, sin_t), phi: (cos_p, sin_p)}
    kernel_exponents, terms = [], sp.symbols("t1:4")
    record = lambda e: kernel_exponents.append(e) or terms[len(kernel_exponents) - 1]
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "np", SimpleNamespace(cos=lambda a: trig[a][0], sin=lambda a: trig[a][1], exp=record))
        assert vanishes(_kernels.bell_values(*ENTRIES, j, theta, phi) - (1 + terms[0] + terms[1] - terms[2]))
    exponents = (0, *kernel_exponents)
    r = sp.sqrt(2 * j)  # q = sqrt2 Re alpha and p = sqrt2 Im alpha, with |alpha|^2 = J
    alpha, beta = (r * cos_p, r * sin_p), (r * cos_t, r * sin_t)
    points = [(0, 0, 0, 0), (*alpha, 0, 0), (0, 0, *beta), (*alpha, *beta)]
    assert all(vanishes(k - exponent(*pt)) for k, pt in zip(exponents, points))
    # the transcription, at one setting: the points and signs of _chsh_points, and the kernel's value
    lam, gamma, setting = 0.5, 1.0, BellSetting(j=0.1, theta=0.2, phi=0.3)
    at = {U: math.exp(lam), V: math.exp(gamma), j: setting.j, cos_p: math.cos(setting.phi),
          sin_p: math.sin(setting.phi), cos_t: math.cos(setting.theta), sin_t: math.sin(setting.theta)}
    terms = _chsh_points(setting)
    assert [sign for _, sign in terms] == [1.0, 1.0, 1.0, -1.0]
    for (point, _), expected in zip(terms, points):
        coordinates = [float(sp.sympify(c).subs(at)) for c in expected]
        assert np.allclose(dataclasses.astuple(point), coordinates, rtol=0.0, atol=1e-15)
    closed = sum(sign * math.exp(float(sp.sympify(k).subs(at))) for (_, sign), k in zip(terms, exponents))
    params = SqueezeParams(lam, gamma)  # not the fixture's symbols
    kernel = _kernels.bell_values(*squeezer_entries(params), setting.j, setting.theta, setting.phi)
    assert kernel == pytest.approx(closed, abs=1e-14)


def test_chsh_exchange_symmetry(monkeypatch):
    # (theta, phi) -> (phi + pi/2, theta - pi/2) swaps the exponents a = m1 cos^2 phi + m2 sin^2 phi and
    # b = m1 sin^2 theta + m2 cos^2 theta of the single-displacement terms (-2Ja and -2Jb) and keeps
    # theta + phi, so it keeps B.  Applied twice it is the identity; its fixed set is theta = phi + pi/2,
    # the line maximize_bell takes.
    m1, m2, m3, j = sp.symbols("m1 m2 m3 J", positive=True)
    theta, phi = sp.symbols("theta phi", real=True)

    def swap(t, p):
        return p + sp.pi / 2, t - sp.pi / 2

    def a(p):
        return m1 * sp.cos(p) ** 2 + m2 * sp.sin(p) ** 2

    def b(t):
        return m1 * sp.sin(t) ** 2 + m2 * sp.cos(t) ** 2

    theta2, phi2 = swap(theta, phi)
    assert vanishes(a(phi2) - b(theta)) and vanishes(b(theta2) - a(phi)) and vanishes(theta2 + phi2 - theta - phi)
    assert swap(theta2, phi2) == (theta, phi)
    assert vanishes((theta2 - theta) + (phi2 - phi)) and sp.solve(theta2 - theta, theta) == [phi + sp.pi / 2]
    # the kernel itself, run on any entries of S with sympy's cos, sin and exp
    monkeypatch.setattr(_kernels, "np", SimpleNamespace(cos=sp.cos, sin=sp.sin, exp=sp.exp))
    entries = sp.symbols("ch she shi", positive=True)
    assert vanishes(_kernels.bell_values(*entries, j, theta, phi) - _kernels.bell_values(*entries, j, theta2, phi2))


def test_channel_form_is_minus_f():
    # chi_E(-eta*, -eta) is the CF at x = sqrt2 P (Re eta, Im eta), with exponent
    # -x^T K x / 2 = -|G (Re eta, Im eta)|^2 / 2, G = S^T Omega P
    p = sp.Matrix(_ETA_TO_PHASE.astype(int))
    g = S.T * OMEGA * p
    q = g.T * g / 2
    assert all_vanish(q - p.T * KERNEL * p)
    assert all_vanish(q + F * sp.eye(2))  # so -f > 0: q is a Gram matrix of the full-rank G


def test_closed_fidelities():
    # F = (1/pi) Int dx dy |chi_in|^2 exp(f (x^2 + y^2)) at eta = x + iy, each axis by the
    # 1-D rule Int exp(-a x^2) dx = sqrt(pi / a), a > 0
    f = sp.Symbol("f", negative=True)
    s = sp.Symbol("s", positive=True)  # e^{2r}
    x, y = sp.symbols("x y", real=True)
    eta = x + sp.I * y

    def fidelity(rate_x, rate_y):
        return sp.sqrt(sp.pi / rate_x) * sp.sqrt(sp.pi / rate_y) / sp.pi

    # coherent input: |chi_in|^2 = exp(-|eta|^2), the amplitude entering only through a phase
    assert vanishes(fidelity(1 - f, 1 - f) - 1 / (1 - f))
    # squeezed input: cf_input's exp[-(e^{2r} x^2 + e^{-2r} y^2)/2] is the squeezed vacuum's
    # exp[-|eta|^2 cosh(2r)/2 - (eta^2 + eta*^2) sinh(2r)/4]
    cosh2r, sinh2r = (s + 1 / s) / 2, (s - 1 / s) / 2
    textbook = -(x ** 2 + y ** 2) * cosh2r / 2 - (eta ** 2 + sp.conjugate(eta) ** 2) * sinh2r / 4
    assert vanishes(textbook + (s * x ** 2 + y ** 2 / s) / 2)
    squeezed = fidelity(s - f, 1 / s - f)
    assert vanishes(squeezed ** 2 - 1 / (f ** 2 - 2 * f * cosh2r + 1))  # both sides > 0


def combined(v):
    """``state._combine`` on the terms of lam (u) and of gamma = ln v, v a symbol or 1 (gamma = 0)."""
    return state._combine(lambda_terms(), gamma_terms(v))


def test_entanglement_exceeds_symmetric_state():
    # m3(lam, gamma) - m3(lam, 0) = (cosh gamma - 1) sinh 2 lam, a product of two factors >= 0 for lam >= 0
    # (u >= 1), zero only at gamma = 0 or lam = 0.  asinh increases, so E_N(lam, gamma) >= E_N(lam, 0),
    # and E_N(lam, 0) = asinh(sinh 2 lam) = ln(s + sqrt(1 + s^2)) = ln u^2 = 2 lam, with s = sinh 2 lam
    c, symmetric = combined(V), combined(sp.Integer(1))
    s, cosh_gamma = rational(sp.sinh(2 * LAM)), rational(sp.cosh(GAMMA))
    assert vanishes(symmetric.m3 - s)
    assert vanishes(c.m3 - symmetric.m3 - (cosh_gamma - 1) * s)
    assert vanishes(cosh_gamma - 1 - (V - 1) ** 2 / (2 * V)) and vanishes(s - (U ** 4 - 1) / (2 * U ** 2))
    root = (U ** 2 + U ** -2) / 2  # > 0, so it is sqrt(1 + s^2)
    assert vanishes(1 + s ** 2 - root ** 2) and vanishes(s + root - U ** 2)


def test_chsh_maximum_increases_with_entanglement():
    # maximize_bell's B_max = 1 + g(rho), g = (2 - 1/rho) rho^{-1/(2 rho - 1)}, rho = 1 + tanh E_N in [1, 2).
    # Both factors of g are > 0, and d ln g / d rho = 2 ln rho / (2 rho - 1)^2 > 0 for rho > 1, where rho
    # increases with E_N.  So B_max increases with E_N, and with test_entanglement_exceeds_symmetric_state,
    # B_max(lam, gamma) > B_max(lam, 0) for lam > 0, gamma != 0 on the line theta = phi + pi/2.
    rho, t = sp.symbols("rho t", positive=True)
    e_n = sp.Symbol("E_N", nonnegative=True)
    log_g = sp.expand_log(sp.log((2 - 1 / rho) * rho ** (-1 / (2 * rho - 1))), force=True)
    slope = 2 * sp.log(rho) / (2 * rho - 1) ** 2
    assert vanishes(sp.diff(log_g, rho) - slope)
    assert slope.subs(rho, 1 + t).is_positive
    assert sp.factor(sp.diff(sp.tanh(e_n).rewrite(sp.exp), e_n)).is_positive  # 4 e^{2 E_N} / (e^{2 E_N} + 1)^2


def test_fidelity_gain_identity():
    # f(lam, gamma) - f(lam, 0) = 4 sinh^2(gamma/2) sinh lam (e^{-lam} - cosh gamma sinh lam), as the
    # README states, with 4 sinh^2(gamma/2) sinh lam >= 0 for lam >= 0, zero only at gamma = 0 or lam = 0
    c, symmetric = combined(V), combined(sp.Integer(1))
    half, sh = rational(4 * sp.sinh(GAMMA / 2) ** 2), rational(sp.sinh(LAM))
    assert vanishes(c.f - symmetric.f - half * sh * (rational(sp.exp(-LAM)) - rational(sp.cosh(GAMMA)) * sh))
    assert vanishes(half - (V - 1) ** 2 / V) and vanishes(sh - (U ** 2 - 1) / (2 * U))
    # both closed fidelities increase with f (f < 0 < k = cosh 2r), so F gains exactly where f does
    f, k = sp.Symbol("f", negative=True), sp.Symbol("k", positive=True)
    assert vanishes(sp.diff(1 / (1 - f), f) - 1 / (1 - f) ** 2)
    radicand = f ** 2 - 2 * f * k + 1  # > 0, each term of it being > 0
    assert sp.simplify(sp.diff(1 / sp.sqrt(radicand), f) - (k - f) * radicand ** sp.Rational(-3, 2)) == 0


@pytest.mark.parametrize("lam, gamma", [(0.3, 1.0), (0.5, 1.0), (0.05, -3.0), (0.2, -3.0), (1.0, 0.1)])
def test_fidelity_gain_sign_is_enhanced_squeezing(lam, gamma):
    # e^{-lam} - cosh gamma sinh lam = cosh lam (1 - (1 + cosh gamma) tanh lam) with cosh lam > 0, so the
    # gain is > 0 iff tanh lam < 1/(1 + cosh gamma): enhanced_squeezing's condition (for lam > 0, gamma != 0)
    cosh_gamma = rational(sp.cosh(GAMMA))
    assert vanishes(rational(sp.exp(-LAM)) - cosh_gamma * SH - CH * (1 - (1 + cosh_gamma) * SH / CH))
    # the transcription, at points off the boundary (lam* = 0.416 at gamma = 1, 0.091 at 3, 0.547 at 0.1)
    factor = float((1 - (1 + cosh_gamma) * SH / CH).subs({U: math.exp(lam), V: math.exp(gamma)}))
    assert abs(factor) > 0.1
    assert enhanced_squeezing(SqueezeParams(lam, gamma)) == (factor > 0)
