import mpmath
import numpy as np
import pytest

from _oracles import coefficients_50_digits
from asymsqueeze import Coherent, SqueezedVacuum, SqueezeParams, cf_input, coefficients, complex_form_matrix, fidelity_quadrature
from asymsqueeze import _kernels

EPS = np.finfo(float).eps
INPUTS = {"coherent": Coherent(0.7 - 1.2j), "squeezed": SqueezedVacuum(-1.5)}


def _bell_mp(lam, gamma, j, theta, phi):
    """CHSH combination at 50 digits from the 50-digit m1, m2, m3, so that it
    shares no rounding with the kernel (``test_bell.TestAlgebraicIdentity``
    checks the formula itself against the Wigner combination)."""
    with mpmath.workdps(50):
        m1, m2, m3 = coefficients_50_digits(lam, gamma)[:3]
        j, theta, phi = (mpmath.mpf(float(v)) for v in (j, theta, phi))
        a = m1 * mpmath.cos(phi) ** 2 + m2 * mpmath.sin(phi) ** 2
        b = m1 * mpmath.sin(theta) ** 2 + m2 * mpmath.cos(theta) ** 2
        t3 = mpmath.exp(-2 * j * (a + b) + 4 * j * mpmath.cos(theta + phi) * m3)
        return 1 + mpmath.exp(-2 * j * a) + mpmath.exp(-2 * j * b) - t3


def test_bell_values_broadcasting():
    c = coefficients(SqueezeParams(0.5, 1.0))
    assert _kernels.bell_values(c.m1, c.m2, c.m3, np.array([0.01, 0.02]), np.pi, 0.0).shape == (2,)
    m = np.array([[c.m1, c.m2, c.m3], [1.0, 1.0, 0.0], [c.m2, c.m1, c.m3]])
    grid = _kernels.bell_values(m[:, 0, None], m[:, 1, None], m[:, 2, None], np.linspace(0.0, 0.1, 4), np.pi, 0.0)
    assert grid.shape == (3, 4)
    single = _kernels.bell_values(m[2, 0], m[2, 1], m[2, 2], 0.1, np.pi, 0.0)
    assert abs(grid[2, 3] - single) <= 1e-15


def test_bell_values_matches_mpmath(rng):
    worst = 0.0
    for _ in range(20):
        lam, gamma = rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0)
        j = rng.uniform(0.0, 2.0)
        theta, phi = rng.uniform(0.0, 2 * np.pi, 2)
        c = coefficients(SqueezeParams(lam, gamma))
        value = _kernels.bell_values(c.m1, c.m2, c.m3, j, theta, phi)
        worst = max(worst, float(abs(mpmath.mpf(float(value)) - _bell_mp(lam, gamma, j, theta, phi))))
    assert worst <= 1e-13


def test_bell_values_over_the_envelope(rng):
    # Outside the paper region t3's exponent -2J(a + b) + 4J cos(theta + phi) m3 cancels
    # terms of size 2J(m1 + m2), most of all near theta = -phi, so the kernel holds 1e-13
    # only up to the rounding of that exponent: 8 eps J (m1 + m2 + 2|m3|) |t3|.
    points = [(5.0, 0.0, 10.0, -0.4, 0.4)]  # off by 1.06e-10 there, with B = 0.0018
    for k in range(600):
        lam, j, phi = rng.uniform(0.0, 5.0), rng.uniform(0.0, 10.0), rng.uniform(0.0, 2 * np.pi)
        gamma = rng.uniform(-5.0, 5.0) * (1.0 if k % 2 else 10.0 ** -rng.uniform(0.0, 4.0))
        theta = rng.uniform(0.0, 2 * np.pi) if k % 3 == 0 else -phi + rng.uniform(-1.0, 1.0) * 10.0 ** -rng.uniform(0.0, 6.0)
        points.append((lam, gamma, j, theta, phi))
    worst, rounding_terms = 0.0, []
    for lam, gamma, j, theta, phi in points:
        c = coefficients(SqueezeParams(lam, gamma))
        value = _kernels.bell_values(c.m1, c.m2, c.m3, j, theta, phi)
        a = c.m1 * np.cos(phi) ** 2 + c.m2 * np.sin(phi) ** 2
        b = c.m1 * np.sin(theta) ** 2 + c.m2 * np.cos(theta) ** 2
        t3 = np.exp(-2.0 * j * (a + b) + 4.0 * j * np.cos(theta + phi) * c.m3)
        rounding_terms.append(8 * EPS * j * (c.m1 + c.m2 + 2 * abs(c.m3)) * t3)
        error = float(abs(mpmath.mpf(float(value)) - _bell_mp(lam, gamma, j, theta, phi)))
        worst = max(worst, error / (1e-13 + rounding_terms[-1]))
    assert worst <= 1.0
    # the sample reaches the points where the plain 1e-13 does not hold
    assert sum(term > 1e-12 for term in rounding_terms) >= 10


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


def assert_matches_reference(m_mat, state):
    # keep the channel exponent above about -500, so that neither route underflows
    size = float(np.abs(m_mat).sum())
    radius = min(2.0, (4000.0 / size) ** 0.5 / 2 ** 0.5)
    xs = np.linspace(-radius, radius, 41)
    ys = np.linspace(-radius, 0.8 * radius, 37)
    chi_in = lambda eta: cf_input(state, eta)
    new = _kernels.teleport_integrand(xs, ys, _kernels.channel_form(m_mat), chi_in)
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
    assert_matches_reference(complex_form_matrix(SqueezeParams(lam, gamma)), INPUTS[kind])


def test_channel_form_of_the_channel_matrix_is_f_times_the_identity():
    # chi_E(-eta*, -eta) = exp(f |eta|^2), so q = -f I; the reduction cancels
    # entries of size up to m1 + m2 + 2|m3|, and holds f to that rounding
    worst = 0.0
    for lam in np.linspace(0.0, 5.0, 21):
        for gamma in np.linspace(-5.0, 5.0, 21):
            params = SqueezeParams(lam, gamma)
            c = coefficients(params)
            q = _kernels.channel_form(complex_form_matrix(params))
            scale = EPS * (c.m1 + c.m2 + 2.0 * abs(c.m3))
            deviations = (abs(q[0, 0] + c.f), abs(q[1, 1] + c.f), abs(q[0, 1] + q[1, 0]))
            worst = max(worst, max(deviations) / scale)
    assert worst <= 4.0


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
