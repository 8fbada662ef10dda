"""Closed forms against 50-digit mpmath, and quadrature against closed forms,
over the whole accepted envelope lambda in [0, 5], |gamma| <= 5."""

import math

import mpmath
import numpy as np
import pytest

from _oracles import EPS, LIBM_ULPS, U, coefficients_50_digits, exponent_error_bound, gaussian_form_matrix
from asymsqueeze import (
    Coherent,
    PhasePoint,
    QuadratureDomainError,
    SqueezedVacuum,
    SqueezeParams,
    cf_closed,
    cf_input,
    coefficients,
    fidelity_coherent_closed,
    fidelity_quadrature,
    fidelity_squeezed_closed,
    heisenberg_transform,
    log_negativity_closed,
    variances,
    wigner_closed,
)
from asymsqueeze.cli import main

LAMS = np.linspace(0.0, 5.0, 21)
GAMMAS = np.linspace(-5.0, 5.0, 21)

# Outer-envelope points with the narrowest integrands (lambda, gamma, r; r = 0
# means a coherent input): decay rates of 4.4e3 to 1.9e4, so the integrand
# underflows to 0 already at |eta| = 0.5 and each axis spans only 6/sqrt(c) ~ 0.05.
# They hold the quadrature to reading its rates from q and chi_in, not from
# integrand values, and to the closed forms on its smallest grids.
OUTER_QUADRATURE = (
    (0.6, -5.0, 0.0),
    (1.0, -4.5, 1.0),
    (1.0, 4.5, 0.0),
    (1.5, 4.0, 1.0),
    (2.0, -3.5, 0.0),
    (2.0, 4.0, 1.0),
    (3.0, -3.0, 0.0),
    (3.0, 3.0, 1.0),
)
# gamma = 0 at large lambda, where f ~ -e^{-2 lambda} is smallest against the
# state's e^{2 lambda} scale: the channel form must carry f without cancelling
# terms of that scale.  At |r| = 3 the squeezed input's y axis spans about
# 6 e^{|r|}, where its CF must not cancel terms of size |eta|^2 cosh(2r)/2 either.
GAMMA_ZERO_QUADRATURE = (
    (4.75, 0.0, 0.0),
    (4.75, 0.0, 2.0),
    (5.0, 0.0, 1.0),
    (5.0, 0.0, -3.0),
)
COARSE_QUADRATURE = tuple(
    (float(lam), float(gamma), r)
    for lam in np.linspace(0.0, 5.0, 6)
    for gamma in np.linspace(-5.0, 5.0, 6)
    for r in (0.0, -3.0)
)


def exact_log_negativity(lam, gamma):
    with mpmath.workdps(50):
        return float(mpmath.asinh(coefficients_50_digits(lam, gamma)[2]))


def exact_f(lam, gamma):
    return float(coefficients_50_digits(lam, gamma)[3])


def exact_variances(lam, gamma):
    # var x1, x2 = [cosh(2 lam) + 2 sinh^2(lam) sinh^2(gamma) +- sinh(2 lam) cosh(gamma)] / 4
    with mpmath.workdps(50):
        lam, gamma = mpmath.mpf(lam), mpmath.mpf(gamma)
        base = mpmath.cosh(2 * lam) + 2 * mpmath.sinh(lam) ** 2 * mpmath.sinh(gamma) ** 2
        cross = mpmath.sinh(2 * lam) * mpmath.cosh(gamma)
        return float((base + cross) / 4), float((base - cross) / 4)


def assert_log_negativity(lam, gamma, value):
    exact = exact_log_negativity(lam, gamma)
    assert abs(value - exact) <= 1e-14 * max(1.0, exact), (lam, gamma, value, exact)


def test_log_negativity_closed_over_the_envelope():
    for lam in LAMS:
        for gamma in GAMMAS:
            assert_log_negativity(lam, gamma, log_negativity_closed(SqueezeParams(lam, gamma)))


def test_cli_negativity_column_over_the_envelope(tmp_path):
    out = tmp_path / "neg.csv"
    assert main(["negativity", "--lambda", "0:5:21", "--gamma", "-5:5:21", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == LAMS.size * GAMMAS.size
    for lam_text, gamma_text, value_text in rows:
        assert_log_negativity(float(lam_text), float(gamma_text), float(value_text))


def test_teleportation_scalar_over_the_envelope():
    # f = m3 - cosh^2(lam) - cosh(2 gamma) sinh^2(lam), exactly -e^{-2 lam}
    # at gamma = 0, where the three terms nearly cancel
    for lam in np.linspace(0.0, 5.0, 41):
        for gamma in np.linspace(-5.0, 5.0, 41):
            exact = exact_f(lam, gamma)
            f = coefficients(SqueezeParams(lam, gamma)).f
            assert abs(f - exact) <= 1e-14 * abs(exact), (lam, gamma, f, exact)


def test_variances_over_the_envelope():
    # var x2 falls to e^{-2 lam}/4 at gamma = 0, where its terms nearly cancel
    for lam in np.linspace(0.0, 5.0, 41):
        for gamma in np.linspace(-5.0, 5.0, 41):
            values = variances(SqueezeParams(lam, gamma))
            for value, exact in zip(values, exact_variances(lam, gamma)):
                assert abs(value - exact) <= 2e-15 * exact, (lam, gamma, value, exact)


def exponent_50_digits(lam, gamma, x):
    """Q(x) = m1 (q1^2 + p2^2) + m2 (p1^2 + q2^2) - 2 m3 (q1 q2 - p1 p2) at 50 digits, so that
    W(x) = exp(-Q(x))/pi^2 and, since sigma^{-1} = 4 Omega sigma Omega^T for a pure state,
    CF(x) = exp(-Q(x)/4) at the point with alpha = (q1 + i p1)/sqrt(2), beta = (q2 + i p2)/sqrt(2)."""
    with mpmath.workdps(50):
        m1, m2, m3, _ = coefficients_50_digits(lam, gamma)
        q1, p1, q2, p2 = (mpmath.mpf(float(v)) for v in x)
        return m1 * (q1 * q1 + p2 * p2) + m2 * (p1 * p1 + q2 * q2) - 2 * m3 * (q1 * q2 - p1 * p2)


def state_scale_points(rng, count=600):
    """(params, x) over the box with x = S z on the state's own scale (S = ``heisenberg_transform``),
    z standard normal or uniform in [-3, 3]^4: W(x) = exp(-|z|^2)/pi^2 stays far from underflow
    while the terms of its exponent grow like e^{4 lam}."""
    for k in range(count):
        params = SqueezeParams(rng.uniform(0.0, 5.0), rng.uniform(-5.0, 5.0))
        z = rng.normal(size=4) if k % 2 else rng.uniform(-3.0, 3.0, 4)
        yield params, heisenberg_transform(params) @ z


def old_sum_size(params, x):
    """Sigma = m1 (q1^2 + p2^2) + m2 (p1^2 + q2^2) + 2 m3 |q1 q2 - p1 p2|: the size of the terms
    of the m-coefficient form of Q, which held W only to W (8 eps Sigma + 4 eps)."""
    c = coefficients(params)
    q1, p1, q2, p2 = x
    return c.m1 * (q1 * q1 + p2 * p2) + c.m2 * (p1 * p1 + q2 * q2) + 2.0 * c.m3 * abs(q1 * q2 - p1 * p2)


def test_wigner_closed_over_the_envelope(rng):
    # W = exp(-|G x|^2) / pi^2 is off by exp(E) - 1 relative from the exponent's error E, and by
    # the roundings of exp (LIBM_ULPS eps), pi, its square and the division (4U)
    worst_ratio, worst, old_terms = 0.0, 0.0, []
    for params, x in state_scale_points(rng):
        bound = math.expm1(exponent_error_bound(gaussian_form_matrix(params), x)) + LIBM_ULPS * EPS + 4 * U
        with mpmath.workdps(50):
            exact = mpmath.exp(-exponent_50_digits(params.lam, params.gamma, x)) / mpmath.pi ** 2
            error = float(abs(wigner_closed(params, PhasePoint(*x)) - exact) / exact)
        worst_ratio, worst = max(worst_ratio, error / bound), max(worst, error)
        old_terms.append(8 * EPS * old_sum_size(params, x))
    assert worst_ratio <= 1.0
    assert worst <= 1e-8
    # the sample reaches the points where the m-coefficient form held W to no better than 1e-9
    assert sum(term > 1e-9 for term in old_terms) >= 100


def test_cf_closed_over_the_envelope(rng):
    # CF = exp(-|G x|^2 / 4): the exponent's error E over 4 (the division is exact), and exp's rounding
    worst_ratio, worst, old_terms = 0.0, 0.0, []
    for params, x in state_scale_points(rng):
        x = 2.0 * x  # CF(2x) = exp(-|z|^2), the CF's own scale
        bound = math.expm1(exponent_error_bound(gaussian_form_matrix(params), x) / 4.0) + LIBM_ULPS * EPS
        with mpmath.workdps(50):
            exact = mpmath.exp(-exponent_50_digits(params.lam, params.gamma, x) / 4)
            error = float(abs(cf_closed(params, PhasePoint(*x)) - exact) / exact)
        worst_ratio, worst = max(worst_ratio, error / bound), max(worst, error)
        old_terms.append(2 * EPS * old_sum_size(params, x))
    assert worst_ratio <= 1.0
    assert worst <= 1e-8
    assert sum(term > 1e-9 for term in old_terms) >= 100


QUADRATURE_POINTS = OUTER_QUADRATURE + GAMMA_ZERO_QUADRATURE + COARSE_QUADRATURE


@pytest.mark.parametrize(
    "lam, gamma, r", QUADRATURE_POINTS, ids=[f"{lam:g},{gamma:g},{r:g}" for lam, gamma, r in QUADRATURE_POINTS]
)
def test_quadrature_matches_closed_forms(lam, gamma, r):
    params = SqueezeParams(lam, gamma)
    if r == 0.0:
        quad = fidelity_quadrature(Coherent(0.3 - 0.2j), params).value
        closed = fidelity_coherent_closed(params).value
    else:
        quad = fidelity_quadrature(SqueezedVacuum(r), params).value
        closed = fidelity_squeezed_closed(params, r).value
    assert abs(quad - closed) <= 1e-12


def test_quadrature_still_rejects_a_non_decaying_integrand(monkeypatch):
    # an input CF that grows with |eta| under a flat channel CF gives an
    # integrand with no finite integral
    from asymsqueeze import teleport

    monkeypatch.setattr(teleport, "cf_input", lambda state, eta: np.exp(np.abs(eta) ** 2))
    monkeypatch.setattr(teleport, "squeezer_entries", lambda params: (0.0, 0.0, 0.0))
    with pytest.raises(QuadratureDomainError):
        fidelity_quadrature(Coherent(0j), SqueezeParams(0.5, 0.0))


@pytest.mark.parametrize("state", [Coherent(0.7 - 1.2j), SqueezedVacuum(-2.5), SqueezedVacuum(3.0)])
def test_cf_input_on_an_array_matches_elementwise(state):
    rng = np.random.default_rng(11)
    eta = rng.uniform(-2.0, 2.0, (3, 5)) + 1j * rng.uniform(-2.0, 2.0, (3, 5))
    array = cf_input(state, eta)
    assert array.shape == eta.shape
    for index in np.ndindex(eta.shape):
        assert array[index] == pytest.approx(complex(cf_input(state, complex(eta[index]))), rel=1e-15, abs=0.0)
