"""hypothesis properties of the coefficients over the whole accepted envelope
lambda in [0, 5], |gamma| <= 5."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asymsqueeze import SqueezeParams, coefficients, coefficients_grid

FIELDS = ("m1", "m2", "m3", "L", "A", "B", "f")
LAM = st.floats(min_value=0.0, max_value=5.0)
GAMMA = st.floats(min_value=-5.0, max_value=5.0)
EPS = np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(st.lists(LAM, min_size=1, max_size=4), st.lists(GAMMA, min_size=1, max_size=4))
def test_grid_equals_scalar_coefficients(lams, gammas):
    grid = coefficients_grid(np.array(lams), np.array(gammas))
    for i, lam in enumerate(lams):
        for k, gamma in enumerate(gammas):
            scalar = coefficients(SqueezeParams(lam, gamma))
            for field in FIELDS:
                assert np.float64(getattr(grid, field)[i, k]).tobytes() == np.float64(getattr(scalar, field)).tobytes()


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
