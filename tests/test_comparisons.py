"""The abstract's three comparisons of this state with the symmetric two-mode
squeezed vacuum (gamma = 0), one named test each: entanglement, teleportation
fidelity and CHSH violation.  The README states where each one holds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import chsh_maximum_50_digits, coefficients_50_digits
from asymsqueeze import (
    SqueezeParams,
    enhanced_squeezing,
    fidelity_coherent_closed,
    fidelity_squeezed_closed,
    log_negativity_closed,
    maximize_bell,
)

LAM = st.floats(min_value=0.0, max_value=5.0)
GAMMA = st.floats(min_value=-5.0, max_value=5.0)
# None is a coherent input, a float the squeeze r of a squeezed-vacuum input
INPUT = st.one_of(st.none(), st.floats(min_value=-3.0, max_value=3.0))
EPS = np.finfo(float).eps


def exact_log_negativity_gain(lam, gamma):
    """E_N(lam, gamma) - E_N(lam, 0) = asinh(cosh gamma sinh 2 lam) - 2 lam, to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.asinh(coefficients_50_digits(lam, gamma)[2]) - 2 * mpmath.mpf(lam)


def exact_fidelity(lam, gamma, r):
    """Closed fidelity from the 50-digit channel scalar f = m3 - cosh^2 lam - cosh 2gamma sinh^2 lam."""
    with mpmath.workdps(50):
        f = coefficients_50_digits(lam, gamma)[3]
        if r is None:
            return 1 / (1 - f)
        return 1 / mpmath.sqrt(f * f - 2 * f * mpmath.cosh(2 * mpmath.mpf(r)) + 1)


def fidelity(params, r):
    if r is None:
        return fidelity_coherent_closed(params).value
    return fidelity_squeezed_closed(params, r).value


@settings(max_examples=300, deadline=None)
@given(LAM, GAMMA)
@example(0.5, 1.0)
@example(5.0, 5.0)
@example(0.0, 3.0)
def test_entanglement_exceeds_symmetric_state(lam, gamma):
    """E_N(lam, gamma) >= E_N(lam, 0) = 2 lam, with equality iff gamma = 0 or lam = 0."""
    symmetric = log_negativity_closed(SqueezeParams(lam, 0.0))
    en = log_negativity_closed(SqueezeParams(lam, gamma))
    assert symmetric == pytest.approx(2.0 * lam, rel=4 * EPS, abs=0.0)
    if lam == 0.0 or gamma == 0.0:
        assert en == symmetric
        return
    assert en >= symmetric
    if exact_log_negativity_gain(lam, gamma) > 8 * EPS * max(1.0, en):
        assert en > symmetric


@settings(max_examples=300, deadline=None)
@given(LAM, GAMMA, INPUT)
@example(0.3, 1.0, None)
@example(0.3, 1.0, 3.0)
@example(1.0, 0.5, -1.0)
def test_fidelity_exceeds_symmetric_state_iff_enhanced_squeezing(lam, gamma, r):
    """F(lam, gamma) > F(lam, 0) iff tanh lam < 1/(1 + cosh gamma), for every input.

    Both fidelities increase with f, and f(lam, gamma) - f(lam, 0) =
    4 sinh^2(gamma/2) sinh lam (e^{-lam} - cosh gamma sinh lam), whose sign is
    the squeezing-enhancement condition.  Draws where that difference lies
    within rounding of zero (gamma or lam near 0, or on the boundary) are
    skipped.
    """
    boundary = math.exp(-lam) - math.cosh(gamma) * math.sinh(lam)
    assume(abs(boundary) > 64 * EPS * (math.exp(-lam) + math.cosh(gamma) * math.sinh(lam)))
    assume(abs(exact_fidelity(lam, gamma, r) - exact_fidelity(lam, 0.0, r)) > 64 * EPS)
    params = SqueezeParams(lam, gamma)
    gain = fidelity(params, r) > fidelity(SqueezeParams(lam, 0.0), r)
    assert gain == enhanced_squeezing(params)


@settings(max_examples=300, deadline=None)
@given(LAM, GAMMA)
@example(0.1, 2.0)
@example(3.0, 0.5)
@example(5.0, -0.5)
def test_chsh_maximum_exceeds_symmetric_state_over_the_box(lam, gamma):
    """B_max(lam, gamma) > B_max(lam, 0) for lam > 0, gamma != 0.

    B_max grows with E_N, and E_N(lam, gamma) > E_N(lam, 0) there (both
    proven in tests/test_certificate.py, on the line theta = phi + pi/2).  Each
    computed maximum is within 32 eps of its 50-digit value (16 eps measured
    on a 41 x 41 grid and 20,000 random points of the box), so draws whose
    exact gain is within 64 eps of 0 (gamma near 0, or lam so large that
    B_max has reached its limit to double precision) are skipped.
    """
    exact, exact_symmetric = chsh_maximum_50_digits(lam, gamma), chsh_maximum_50_digits(lam, 0.0)
    assume(lam > 0.0 and gamma != 0.0 and exact - exact_symmetric > 64 * EPS)
    _, best = maximize_bell(SqueezeParams(lam, gamma))
    _, symmetric = maximize_bell(SqueezeParams(lam, 0.0))
    assert abs(best.value - float(exact)) <= 32 * EPS
    assert abs(symmetric.value - float(exact_symmetric)) <= 32 * EPS
    assert best.value > symmetric.value


@pytest.mark.parametrize("lam,gamma", [(0.1, 2.0), (0.5, 1.0), (1.0, -1.5), (1.5, 0.5), (1.5, 2.0)])
def test_chsh_maximum_exceeds_symmetric_state(lam, gamma):
    """The paper-region points the README quotes: the gain shrinks as lam
    grows (+8.8e-2 at (0.1, 2), +8.4e-4 at (1.5, 2))."""
    _, best = maximize_bell(SqueezeParams(lam, gamma))
    _, symmetric = maximize_bell(SqueezeParams(lam, 0.0))
    assert best.value - symmetric.value > 1e-8
