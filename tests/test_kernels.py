import math

import mpmath
import numpy as np
import pytest

from _oracles import EPS, LIBM_ULPS, U, coefficients_50_digits, exponent_error_bound, gaussian_form_matrix
from asymsqueeze import (
    BellSetting,
    Coherent,
    SqueezedVacuum,
    SqueezeParams,
    bell_from_wigner,
    cf_input,
    coefficients,
    fidelity_quadrature,
)
from asymsqueeze import _kernels
from asymsqueeze.bell import _chsh_points
from asymsqueeze.state import squeezer_entries

INPUTS = {"coherent": Coherent(0.7 - 1.2j), "squeezed": SqueezedVacuum(-1.5)}


def _bell_mp(lam, gamma, j, theta, phi):
    """CHSH combination at 50 digits from the 50-digit m1, m2, m3, so that it
    shares neither rounding nor form with the kernel, which reads S's entries
    (``test_certificate`` proves the two forms the same)."""
    with mpmath.workdps(50):
        m1, m2, m3 = coefficients_50_digits(lam, gamma)[:3]
        j, theta, phi = (mpmath.mpf(float(v)) for v in (j, theta, phi))
        a = m1 * mpmath.cos(phi) ** 2 + m2 * mpmath.sin(phi) ** 2
        b = m1 * mpmath.sin(theta) ** 2 + m2 * mpmath.cos(theta) ** 2
        t3 = mpmath.exp(-2 * j * (a + b) + 4 * j * mpmath.cos(theta + phi) * m3)
        return 1 + mpmath.exp(-2 * j * a) + mpmath.exp(-2 * j * b) - t3


def test_bell_values_broadcasting():
    ch, she, shi = squeezer_entries(SqueezeParams(0.5, 1.0))
    assert _kernels.bell_values(ch, she, shi, np.array([0.01, 0.02]), np.pi, 0.0).shape == (2,)
    # the state, the vacuum and the mode-swapped state
    s = np.array([[ch, she, shi], [1.0, 0.0, 0.0], [ch, shi, she]])
    grid = _kernels.bell_values(s[:, 0, None], s[:, 1, None], s[:, 2, None], np.linspace(0.0, 0.1, 4), np.pi, 0.0)
    assert grid.shape == (3, 4)
    single = _kernels.bell_values(s[2, 0], s[2, 1], s[2, 2], 0.1, np.pi, 0.0)
    assert abs(grid[2, 3] - single) <= 1e-15


def test_bell_values_matches_mpmath(rng):
    worst = 0.0
    for _ in range(20):
        lam, gamma = rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0)
        j = rng.uniform(0.0, 2.0)
        theta, phi = rng.uniform(0.0, 2 * np.pi, 2)
        value = _kernels.bell_values(*squeezer_entries(SqueezeParams(lam, gamma)), j, theta, phi)
        worst = max(worst, float(abs(mpmath.mpf(float(value)) - _bell_mp(lam, gamma, j, theta, phi))))
    assert worst <= 1e-13


# The displaced points that bell_from_wigner forms: each entry is sqrt(2) Re or Im of
# sqrt(J) e^{i phi}, a libm cos or sin and four roundings (sqrt J, sqrt 2 and two products).
POINT_ERROR = LIBM_ULPS * EPS + 4 * U


def chsh_from_wigner_bound(params, setting):
    """A bound on the error of ``bell_from_wigner``: each term pi^2 W = exp(-|G x|^2) is off by
    exp(E) - 1 relative from its exponent's error E at the rounded point, by exp's rounding, and
    by 12U for pi, its square, the division and the product by pi^2 and the three additions."""
    g, bound = gaussian_form_matrix(params), 0.0
    for point, _ in _chsh_points(setting):
        x = np.array([point.q1, point.p1, point.q2, point.p2])
        v = g @ x
        error = math.expm1(exponent_error_bound(g, x, POINT_ERROR)) + LIBM_ULPS * EPS + 12 * U
        bound += math.exp(-(v @ v)) * error
    return bound


def envelope_settings(rng):
    """The outer corner (5, 0, 10, -0.4, 0.4) and 600 box draws of (lam, gamma, J, theta, phi):
    gamma near 0 for half of them, and theta near -phi for two thirds, where the joint term's
    m-coefficient exponent -2J(a + b) + 4J cos(theta + phi) m3 cancels terms of size 2J(m1 + m2)."""
    points = [(5.0, 0.0, 10.0, -0.4, 0.4)]  # B = 0.0018 there
    for k in range(600):
        lam, j, phi = rng.uniform(0.0, 5.0), rng.uniform(0.0, 10.0), rng.uniform(0.0, 2 * np.pi)
        gamma = rng.uniform(-5.0, 5.0) * (1.0 if k % 2 else 10.0 ** -rng.uniform(0.0, 4.0))
        theta = rng.uniform(0.0, 2 * np.pi) if k % 3 == 0 else -phi + rng.uniform(-1.0, 1.0) * 10.0 ** -rng.uniform(0.0, 6.0)
        points.append((lam, gamma, j, theta, phi))
    return points


def m_form_rounding(lam, gamma, j, theta, phi):
    """8 eps J (m1 + m2 + 2|m3|) t3: the rounding of the joint term's m-coefficient exponent."""
    c = coefficients(SqueezeParams(lam, gamma))
    a = c.m1 * np.cos(phi) ** 2 + c.m2 * np.sin(phi) ** 2
    b = c.m1 * np.sin(theta) ** 2 + c.m2 * np.cos(theta) ** 2
    t3 = np.exp(-2.0 * j * (a + b) + 4.0 * j * np.cos(theta + phi) * c.m3)
    return 8 * EPS * j * (c.m1 + c.m2 + 2 * abs(c.m3)) * t3


def test_bell_values_over_the_envelope(rng):
    # Both routes sum three terms exp(-|G x|^2), whose forms cancel only G x's products, of size
    # e^{2 lam + |gamma|} |x|, to |G x|.  The kernel takes the forms at (cos, sin) and scales their
    # squares by 2J instead of forming the displaced point, so it rounds less than bell_from_wigner:
    # each holds bell_from_wigner's bound, and 1e-13 flat
    points = envelope_settings(rng)
    # the sample reaches the points where the m-coefficient exponent held only 1e-13 + that rounding
    assert sum(m_form_rounding(*point) > 1e-12 for point in points) >= 10
    worst, worst_ratio, worst_wigner, worst_wigner_ratio = 0.0, 0.0, 0.0, 0.0
    for lam, gamma, j, theta, phi in points:
        params, setting = SqueezeParams(lam, gamma), BellSetting(j, theta, phi)
        bound = chsh_from_wigner_bound(params, setting)
        exact = _bell_mp(lam, gamma, j, theta, phi)
        value = _kernels.bell_values(*squeezer_entries(params), j, theta, phi)
        error = float(abs(mpmath.mpf(float(value)) - exact))
        worst, worst_ratio = max(worst, error), max(worst_ratio, error / bound)
        wigner_error = float(abs(mpmath.mpf(bell_from_wigner(params, setting).value) - exact))
        worst_wigner = max(worst_wigner, wigner_error)
        worst_wigner_ratio = max(worst_wigner_ratio, wigner_error / bound)
    assert worst_ratio <= 1.0 and worst_wigner_ratio <= 1.0
    # 7.7e-15 on this sample and up to 2.3e-14 at seeds 0-3; the m-coefficient exponent was off
    # by 1.06e-10 at the outer corner
    assert worst <= 1e-13 and worst_wigner <= 1e-13


def reference_teleport_integrand(xs, ys, m_mat, chi_in):
    """The integrand as the complex quadratic form v^T M v, summed over the 16 products m_pq v_p v_q."""
    eta = xs[:, None] + 1j * ys[None, :]
    a = -np.conj(eta)
    b = -eta
    v = (np.conj(a), a, np.conj(b), b)
    quad = np.zeros(eta.shape, dtype=complex)
    for p in range(4):
        for q in range(4):
            if m_mat[p, q] != 0.0:
                quad = quad + m_mat[p, q] * v[p] * v[q]
    return np.abs(chi_in(eta)) ** 2 * np.exp(-quad.real / 8.0)


# v = (conj(a), a, conj(b), b) at a = -eta*, b = -eta is T (Re eta, Im eta)
ETA_TO_V = np.array([[-1.0, -1j], [-1.0, 1j], [-1.0, 1j], [-1.0, -1j]])


def reference_form(m_mat):
    """Re(v^T M v)/8 as the real 2x2 form Re(T^T M T)/8 in (Re eta, Im eta)."""
    return (ETA_TO_V.T @ m_mat @ ETA_TO_V).real / 8.0


def channel_matrix(params):
    """The channel's CF exponent matrix M in the (alpha*, alpha, beta*, beta) basis, CF = exp(-v^T M v / 8)."""
    c = coefficients(params)
    dm, sm, t = c.m1 - c.m2, c.m1 + c.m2, -2.0 * c.m3
    return np.array([[dm, sm, t, 0.0], [sm, dm, 0.0, t], [t, 0.0, -dm, sm], [0.0, t, sm, -dm]])


class _Form(Exception):
    pass


def quadrature_form(params):
    """The channel form q that ``fidelity_quadrature`` hands to the integrand kernel."""

    def capture(xs, ys, q, chi_in):
        raise _Form(q)

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_Form) as captured:
        patch.setattr(_kernels, "teleport_integrand", capture)
        fidelity_quadrature(Coherent(), params)
    return captured.value.args[0]


def assert_matches_reference(m_mat, state, q=None):
    """The kernel on the form q (by default ``reference_form(m_mat)``) against the 16-term sum of M."""
    # keep the channel exponent above about -500, so that neither route underflows
    size = float(np.abs(m_mat).sum())
    radius = min(2.0, (4000.0 / size) ** 0.5 / 2 ** 0.5)
    xs = np.linspace(-radius, radius, 41)
    ys = np.linspace(-radius, 0.8 * radius, 37)
    chi_in = lambda eta: cf_input(state, eta)
    new = _kernels.teleport_integrand(xs, ys, reference_form(m_mat) if q is None else q, chi_in)
    old = reference_teleport_integrand(xs, ys, m_mat, chi_in)
    assert new.shape == old.shape == (41, 37)
    assert np.all(new > 0.0) and np.all(old > 0.0)
    eta2 = xs[:, None] ** 2 + ys[None, :] ** 2
    # the old route cancels large m_pq v_p v_q terms, so its own error scales with sum |m_pq| |eta|^2
    bound = 32 * EPS * (size * eta2 / 8.0 + 4.0 * eta2 + 1.0)
    excess = np.abs(np.log(new) - np.log(old)) - bound
    assert excess.max() <= 0.0, np.unravel_index(excess.argmax(), excess.shape)


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("lam", [0.0, 0.7, 2.5, 5.0])
@pytest.mark.parametrize("gamma", [-5.0, -1.0, 0.0, 2.0, 5.0])
def test_teleport_integrand_matches_reference_on_channel_matrices(lam, gamma, kind):
    # the quadrature's own form, from S, against the channel's complex-basis matrix M
    params = SqueezeParams(lam, gamma)
    assert_matches_reference(channel_matrix(params), INPUTS[kind], quadrature_form(params))


def test_quadrature_channel_form_is_minus_f_times_the_identity():
    # chi_E(-eta*, -eta) = exp(f |eta|^2), so q = -f I; the Gram product G^T G / 2
    # cancels no large terms, and holds the small f ~ -e^{-2 lam} at gamma = 0
    worst = 0.0
    for lam in np.linspace(0.0, 5.0, 41):
        for gamma in np.linspace(-5.0, 5.0, 41):
            q = quadrature_form(SqueezeParams(lam, gamma))
            exact = float(coefficients_50_digits(lam, gamma)[3])
            deviations = (abs(q[0, 0] + exact), abs(q[1, 1] + exact), abs(q[0, 1]), abs(q[1, 0]))
            worst = max(worst, max(deviations) / abs(exact))
    assert worst <= 1e-11


def test_quadrature_evaluates_the_integrand_once(monkeypatch):
    calls = []
    integrand = _kernels.teleport_integrand
    monkeypatch.setattr(_kernels, "teleport_integrand", lambda *args: calls.append(args[2]) or integrand(*args))
    for state in INPUTS.values():
        fidelity_quadrature(state, SqueezeParams(0.5, 1.0))
    assert len(calls) == len(INPUTS)
    assert all(q.shape == (2, 2) for q in calls)


def form_of_reference(m_mat):
    """The reference channel exponent's x-y cross term and x^2 - y^2 anisotropy."""
    unit = lambda eta: np.ones(np.shape(eta))
    ln_g = lambda x, y: np.log(reference_teleport_integrand(np.array([x]), np.array([y]), m_mat, unit)[0, 0])
    return ln_g(1.0, 1.0) - ln_g(1.0, -1.0), ln_g(1.0, 0.0) - ln_g(0.0, 1.0)


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("seed", range(6))
def test_teleport_integrand_matches_reference_on_hermitian_matrices(seed, kind):
    # the channel matrices above give an isotropic form; a random Hermitian M
    # gives unequal x and y curvatures (its cross term is still 0, because the
    # eta^2 and eta*^2 coefficients of v^T M v are real for Hermitian M)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m_mat = (a + a.conj().T) / 2.0
    assert abs(form_of_reference(m_mat)[1]) > 1e-3
    assert_matches_reference(m_mat, INPUTS[kind])


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("seed", range(6))
def test_teleport_integrand_matches_reference_on_complex_matrices(seed, kind):
    # a general complex M has complex eta^2 coefficients, hence an x-y cross term
    rng = np.random.default_rng(100 + seed)
    m_mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    cross, anisotropy = form_of_reference(m_mat)
    assert abs(cross) > 1e-3 and abs(anisotropy) > 1e-3
    assert_matches_reference(m_mat, INPUTS[kind])


def test_coherent_cf_input_matches_the_complex_expression():
    xs = np.linspace(-7.0, 7.0, 181)
    eta = xs[:, None] + 1j * np.linspace(-6.5, 6.5, 173)[None, :]
    x2, y2 = eta.real * eta.real, eta.imag * eta.imag
    for amplitude in (0j, 0.7 - 1.2j, -3.0 + 9.5j):
        b = complex(amplitude)
        old = np.exp(-0.5 * (x2 + y2) + 2j * (eta.imag * b.real - eta.real * b.imag))
        new = cf_input(Coherent(amplitude), eta)
        # the same bytes, up to the sign of a zero imaginary part: where the
        # phase is -0, the complex expression's 2j * (...) had added +0 to it
        assert (new + 0.0).tobytes() == (old + 0.0).tobytes()
