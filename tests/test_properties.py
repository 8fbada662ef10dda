"""hypothesis properties of the coefficients, the CHSH value and the
teleportation fidelities over the whole accepted envelope lambda in [0, 5],
|gamma| <= 5, |r| <= 3."""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymsqueeze import (
    Coefficients,
    Coherent,
    SqueezedVacuum,
    SqueezeParams,
    coefficients,
    coefficients_grid,
    fidelity_coherent_closed,
    fidelity_quadrature,
    fidelity_squeezed_closed,
)
from asymsqueeze._kernels import bell_values
from asymsqueeze.state import squeezer_entries, squeezer_grid

FIELDS = tuple(field.name for field in dataclasses.fields(Coefficients))
LAM = st.floats(min_value=0.0, max_value=5.0)
GAMMA = st.floats(min_value=-5.0, max_value=5.0)
R = st.floats(min_value=-3.0, max_value=3.0)
ANGLE = st.floats(min_value=-100.0, max_value=100.0)
EPS = np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(st.lists(LAM, min_size=1, max_size=4), st.lists(GAMMA, min_size=1, max_size=4))
def test_grid_equals_scalar_coefficients(lams, gammas):
    # and S's entries, the other routine over the same per-axis terms
    grid = coefficients_grid(np.array(lams), np.array(gammas))
    entries = np.broadcast_arrays(*squeezer_grid(np.array(lams), np.array(gammas)))
    for i, lam in enumerate(lams):
        for k, gamma in enumerate(gammas):
            scalar = coefficients(SqueezeParams(lam, gamma))
            for field in FIELDS:
                assert np.float64(getattr(grid, field)[i, k]).tobytes() == np.float64(getattr(scalar, field)).tobytes()
            scalar_entries = squeezer_entries(SqueezeParams(lam, gamma))
            assert np.array([entry[i, k] for entry in entries]).tobytes() == np.array(scalar_entries).tobytes()


@settings(max_examples=500, deadline=None)
@given(LAM, GAMMA)
def test_purity(lam, gamma):
    c = coefficients(SqueezeParams(lam, gamma))
    # m1 m2 and m3^2 each carry a few ulps of themselves, and they cancel
    assert abs(c.m1 * c.m2 - c.m3 ** 2 - 1.0) <= 64 * EPS * max(1.0, c.m1 * c.m2)


@settings(max_examples=500, deadline=None)
@given(LAM, GAMMA)
def test_mode_swap(lam, gamma):
    c, swapped = coefficients(SqueezeParams(lam, gamma)), coefficients(SqueezeParams(lam, -gamma))
    assert (swapped.m1, swapped.m2, swapped.m3) == (c.m2, c.m1, c.m3)


@settings(max_examples=300, deadline=None)
@given(LAM, GAMMA, st.floats(min_value=0.0, max_value=2.0), ANGLE, ANGLE)
def test_chsh_within_tsirelson_bound(lam, gamma, j, theta, phi):
    assert abs(bell_values(*squeezer_entries(SqueezeParams(lam, gamma)), j, theta, phi)) <= 2.0 * math.sqrt(2.0)


@settings(max_examples=300, deadline=None)
@given(LAM, GAMMA, R)
def test_closed_fidelities_in_unit_interval(lam, gamma, r):
    params = SqueezeParams(lam, gamma)
    for fidelity in (fidelity_coherent_closed(params), fidelity_squeezed_closed(params, r)):
        assert 0.0 < fidelity.value <= 1.0


@settings(max_examples=25, deadline=None)
# complex_numbers(max_magnitude=10.0) can return |z| = 10 + 9e-16, which Coherent rightly rejects
@given(LAM, GAMMA, R, st.complex_numbers(max_magnitude=10.0).filter(lambda z: abs(z) <= 10.0))
@example(lam=4.75, gamma=0.0, r=3.0, amplitude=0j)
def test_quadrature_matches_closed_fidelities(lam, gamma, r, amplitude):
    params = SqueezeParams(lam, gamma)
    # the channel form q = G^T G / 2 (G = S^T Omega P) cancels no large terms: its entries
    # carry f to about 3 eps e^{lambda} sqrt|f|, which is 3 eps near gamma = 0 at large
    # lambda, where f ~ -e^{-2 lambda}; with |dF/df| <= cosh(2r) that moves F by about
    # 1e-13 at most, so the plain 1e-12 holds over the whole box (the example above is
    # off by 2.3e-14)
    coherent = fidelity_coherent_closed(params).value
    assert abs(fidelity_quadrature(Coherent(amplitude), params).value - coherent) <= 1e-12
    squeezed = fidelity_squeezed_closed(params, r).value
    assert abs(fidelity_quadrature(SqueezedVacuum(r), params).value - squeezed) <= 1e-12
