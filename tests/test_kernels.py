import mpmath
import numpy as np

from asymsqueeze import SqueezeParams, coefficients
from asymsqueeze import _kernels


def _bell_mp(lam, gamma, j, theta, phi):
    """CHSH combination at 50 digits, in the four-exponential form written in
    (lam, gamma) directly, so that it shares no arithmetic with the kernel."""
    with mpmath.workdps(50):
        lam, gamma, j, theta, phi = (mpmath.mpf(float(v)) for v in (lam, gamma, j, theta, phi))
        c2 = mpmath.cosh(lam) ** 2
        s2 = mpmath.sinh(lam) ** 2
        e2g = mpmath.exp(2 * gamma)
        em2g = mpmath.exp(-2 * gamma)
        m3 = mpmath.cosh(gamma) * mpmath.sinh(2 * lam)
        cp, sp = mpmath.cos(phi) ** 2, mpmath.sin(phi) ** 2
        ct, st = mpmath.cos(theta) ** 2, mpmath.sin(theta) ** 2
        t1 = mpmath.exp(-2 * j * c2 - 2 * j * (e2g * cp + em2g * sp) * s2)
        t2 = mpmath.exp(-2 * j * c2 - 2 * j * (e2g * st + em2g * ct) * s2)
        t3 = mpmath.exp(
            -4 * j * c2
            - 2 * j * (cp + st) * e2g * s2
            - 2 * j * (sp + ct) * em2g * s2
            + 4 * j * mpmath.cos(theta + phi) * m3
        )
        return 1 + t1 + t2 - t3


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
