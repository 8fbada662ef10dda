import math

import numpy as np
import pytest

from _oracles import chsh_maximum_50_digits
from asymsqueeze import (
    BellSetting,
    BellValue,
    PhasePoint,
    SqueezeParams,
    TSIRELSON_BOUND,
    ValidationError,
    bell_from_wigner,
    bell_function,
    build_state_exponential,
    coefficients,
    maximize_bell,
    wigner_closed,
    wigner_numeric,
)
from asymsqueeze._kernels import bell_values
from asymsqueeze.cli import main

EPS = np.finfo(float).eps


def reduced_opposite_phases(lam, gamma, j):
    """Closed form at phi = 0, theta = pi: three exponentials only."""
    c2, s2 = math.cosh(lam) ** 2, math.sinh(lam) ** 2
    m1 = c2 + math.exp(2 * gamma) * s2
    m2 = c2 + math.exp(-2 * gamma) * s2
    m3 = math.cosh(gamma) * math.sinh(2 * lam)
    return (
        1.0
        + math.exp(-2 * j * m1)
        + math.exp(-2 * j * m2)
        - math.exp(-4 * j * (c2 + math.cosh(2 * gamma) * s2) - 4 * j * m3)
    )


def single_terms(lam, gamma, j, theta, phi):
    """The two single-displacement exponentials of the closed form."""
    c2, s2 = math.cosh(lam) ** 2, math.sinh(lam) ** 2
    e2g, em2g = math.exp(2 * gamma), math.exp(-2 * gamma)
    t1 = math.exp(-2 * j * c2 - 2 * j * (e2g * math.cos(phi) ** 2 + em2g * math.sin(phi) ** 2) * s2)
    t2 = math.exp(-2 * j * c2 - 2 * j * (e2g * math.sin(theta) ** 2 + em2g * math.cos(theta) ** 2) * s2)
    return t1, t2


class TestSetting:
    def test_angles_stored_as_given(self):
        s = BellSetting(j=0.1, theta=2 * math.pi + 0.3, phi=-0.5)
        assert s.theta == 2 * math.pi + 0.3
        assert s.phi == -0.5

    def test_matches_cli_cells_bit_for_bit(self, tmp_path):
        # angles outside [0, 2 pi) on both sides of the range
        out = tmp_path / "bell.csv"
        args = ["bell", "--lambda", "0.7", "--gamma", "0.3", "--j", "0.05",
                "--theta", "-6.28:6.28:201", "--phi", "-1:6:3", "--output", str(out)]
        assert main(args) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 603
        p = SqueezeParams(0.7, 0.3)
        for theta, phi, cell in rows:
            setting = BellSetting(j=0.05, theta=float(theta), phi=float(phi))
            assert bell_function(p, setting).value == float(cell), (theta, phi)

    def test_displacements(self):
        s = BellSetting(j=0.04, theta=math.pi / 2, phi=0.0)
        assert s.alpha == pytest.approx(0.2)
        assert s.beta == pytest.approx(0.2j)

    def test_rejects_negative_j(self):
        with pytest.raises(ValidationError):
            BellSetting(j=-0.1, theta=0.0, phi=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("angle", ["theta", "phi"])
    def test_rejects_non_finite_angle(self, angle, value):
        angles = {"theta": 0.0, "phi": 0.0, angle: value}
        with pytest.raises(ValidationError, match=f"^{angle} must be finite, got {value}$"):
            BellSetting(j=0.1, **angles)

    def test_violation_flag(self):
        assert BellValue(2.1).violates
        assert not BellValue(2.0).violates
        assert BellValue(-2.3).violates
        assert BellValue(3.0).violates
        with pytest.raises(TypeError):
            BellValue(3.0, False)

    def test_violation_flag_is_a_bool(self):
        p = SqueezeParams(1.0, 0.0)
        s = BellSetting(j=0.01, theta=math.pi, phi=0.0)
        for value in (bell_function(p, s), bell_from_wigner(p, s), maximize_bell(p)[1]):
            assert type(value.violates) is bool


class TestParityExpectation:
    # The CHSH combination reads the displaced-parity expectation as pi^2 W.
    def test_origin(self):
        # the undisplaced parity of a pure zero-mean Gaussian state is +1
        assert math.pi ** 2 * wigner_closed(SqueezeParams(0.7, 1.1), PhasePoint.origin()) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_bounded_and_proportional_to_wigner(self, rng):
        # the Fock oracle takes the displaced parity from operator algebra
        p = SqueezeParams(0.6, -0.8)
        oracle = build_state_exponential(p, cutoff=40)
        for _ in range(50):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            val = math.pi ** 2 * wigner_numeric(oracle, pt)
            assert abs(val) <= 1.0 + 1e-12
            assert val == pytest.approx(math.pi ** 2 * wigner_closed(p, pt), abs=1e-6)


class TestBellFunction:
    def test_product_state_formula(self, rng):
        p = SqueezeParams(0.0, 0.0)
        for _ in range(30):
            s = BellSetting(j=rng.uniform(0, 2), theta=rng.uniform(0, 2 * math.pi), phi=rng.uniform(0, 2 * math.pi))
            expected = 1.0 + 2.0 * math.exp(-2 * s.j) - math.exp(-4 * s.j)
            val = bell_function(p, s).value
            assert val == pytest.approx(expected, abs=1e-13)
            assert val <= 2.0

    def test_product_state_value(self):
        val = bell_from_wigner(SqueezeParams(0.0, 0.0), BellSetting(j=0.1, theta=1.0, phi=2.0))
        assert val.value == pytest.approx(1.9671414601203241, abs=1e-12)

    def test_known_violation(self):
        s = BellSetting(j=0.01, theta=math.pi, phi=0.0)
        val = bell_function(SqueezeParams(1.0, 0.0), s)
        assert val.value == pytest.approx(2.1109213521913222, abs=1e-12)
        assert val.value > 2.0
        assert val.violates

    def test_opposite_phase_reduction(self):
        for lam in (0.2, 0.7, 1.1):
            for gamma in (-1.0, 0.0, 1.5):
                for j in (0.005, 0.05, 0.3):
                    s = BellSetting(j=j, theta=math.pi, phi=0.0)
                    closed = bell_function(SqueezeParams(lam, gamma), s).value
                    assert closed == pytest.approx(reduced_opposite_phases(lam, gamma, j), abs=1e-12)


class TestAlgebraicIdentity:
    def test_closed_form_equals_wigner_combination(self, rng):
        for _ in range(300):
            p = SqueezeParams(rng.uniform(0, 1.5), rng.uniform(-2, 2))
            s = BellSetting(
                j=rng.uniform(0, 1.0),
                theta=rng.uniform(0, 2 * math.pi),
                phi=rng.uniform(0, 2 * math.pi),
            )
            assert bell_function(p, s).value == pytest.approx(bell_from_wigner(p, s).value, abs=1e-12)

    def test_mode_swap_symmetry(self, rng):
        # B(lam, gamma; theta, phi) = B(lam, -gamma; phi + pi, theta - pi)
        for _ in range(100):
            lam = rng.uniform(0, 1.5)
            gamma = rng.uniform(-2, 2)
            j = rng.uniform(0, 1)
            theta = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            lhs = bell_function(SqueezeParams(lam, gamma), BellSetting(j=j, theta=theta, phi=phi)).value
            rhs = bell_function(
                SqueezeParams(lam, -gamma), BellSetting(j=j, theta=phi + math.pi, phi=theta - math.pi)
            ).value
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_exchange_symmetry_over_the_envelope(self, rng):
        # (theta, phi) -> (phi + pi/2, theta - pi/2) swaps the kernel's exponents a and b and keeps
        # theta + phi (test_certificate), so its two values differ by rounding alone: at most twice its
        # bound 1e-13 + 8 eps J (m1 + m2 + 2|m3|) |t3|.  J is uniform on [0, 10] for half the draws and
        # log-uniform on [1e-4, 10] for the rest; a third of the draws put theta near -phi.
        n, near = 3000, slice(0, 1000)
        lam, gamma = rng.uniform(0.0, 5.0, n), rng.uniform(-5.0, 5.0, n)
        j = np.where(np.arange(n) % 2, rng.uniform(0.0, 10.0, n), 10.0 ** rng.uniform(-4.0, 1.0, n))
        theta, phi = rng.uniform(-2 * math.pi, 2 * math.pi, (2, n))
        theta[near] = -phi[near] + rng.uniform(-1.0, 1.0, 1000) * 10.0 ** -rng.uniform(0.0, 6.0, 1000)
        c = [coefficients(SqueezeParams(*pair)) for pair in zip(lam.tolist(), gamma.tolist())]
        m1, m2, m3 = (np.array([getattr(x, name) for x in c]) for name in ("m1", "m2", "m3"))
        value = bell_values(m1, m2, m3, j, theta, phi)
        swapped = bell_values(m1, m2, m3, j, phi + math.pi / 2, theta - math.pi / 2)
        a = m1 * np.cos(phi) ** 2 + m2 * np.sin(phi) ** 2
        b = m1 * np.sin(theta) ** 2 + m2 * np.cos(theta) ** 2
        t3 = np.exp(-2.0 * j * (a + b) + 4.0 * j * np.cos(theta + phi) * m3)
        bound = 1e-13 + 8 * EPS * j * (m1 + m2 + 2 * np.abs(m3)) * t3
        assert np.all(np.abs(value - swapped) <= 2 * bound)
        assert np.sum(value != swapped) >= 100  # the two routes round differently, and the sample sees it

    @pytest.mark.parametrize(
        "gamma,theta,phi",
        [
            (0.0, 1.1, 0.4),          # symmetric case: any phases
            (0.0, 2.7, 5.1),
            (1.0, math.pi - 0.4, 0.4),  # asymmetric: joint term shift-invariant
            (-1.3, math.pi - 1.2, 1.2),  # only when theta + phi is 0 or pi
        ],
    )
    def test_phase_sum_shift(self, gamma, theta, phi):
        # Shifting (theta, phi) -> (theta + d, phi - d) keeps theta + phi fixed;
        # the joint term then changes only through sinh(2 gamma) sin(theta + phi),
        # so at gamma = 0 or sin(theta + phi) = 0 the whole change in B comes
        # from the two single-displacement terms.
        lam, j = 0.8, 0.3
        p = SqueezeParams(lam, gamma)
        base = bell_function(p, BellSetting(j=j, theta=theta, phi=phi)).value
        t1, t2 = single_terms(lam, gamma, j, theta, phi)
        for delta in np.linspace(0.0, 2 * math.pi, 17):
            shifted = bell_function(
                p, BellSetting(j=j, theta=theta + delta, phi=phi - delta)
            ).value
            t1s, t2s = single_terms(lam, gamma, j, theta + delta, phi - delta)
            assert shifted - base == pytest.approx((t1s - t1) + (t2s - t2), abs=1e-12)

    def test_no_false_violation_for_product_state(self):
        p = SqueezeParams(0.0, 0.0)
        js = np.linspace(0.02, 2.0, 20)
        angles = np.linspace(0.0, 2 * math.pi, 25)
        worst = 0.0
        for j in js:
            for th in angles:
                for ph in angles:
                    worst = max(worst, abs(bell_function(p, BellSetting(j=j, theta=th, phi=ph)).value))
        assert worst <= 2.0 + 1e-12

    def test_tsirelson_bound(self, rng):
        for _ in range(200):
            p = SqueezeParams(rng.uniform(0, 2.0), rng.uniform(-2, 2))
            s = BellSetting(j=rng.uniform(0, 2), theta=rng.uniform(0, 2 * math.pi), phi=rng.uniform(0, 2 * math.pi))
            assert abs(bell_function(p, s).value) <= TSIRELSON_BOUND + 1e-9


# the outer-envelope points where the earlier grid-seeded search fell short,
# and the paper-region points where it was worst
MAXIMUM_POINTS = [(3.0, 0.5), (3.0, -0.5), (0.75, 5.0), (0.75, -5.0), (2.5, 5.0), (2.0, -5.0),
                  (5.0, 0.0), (0.05, 2.0), (0.05, -2.0), (0.314, 0.25), (0.314, -0.25)]


class TestMaximize:
    @pytest.mark.parametrize("lam,gamma", MAXIMUM_POINTS)
    def test_no_grid_setting_beats_the_maximum(self, lam, gamma):
        # ln J in [-20, 1] covers the optimal J, which falls like e^{-2 lam} to 1e-5 at lam = 5
        p = SqueezeParams(lam, gamma)
        c = coefficients(p)
        _, best = maximize_bell(p)
        js = np.exp(np.linspace(-20.0, 1.0, 85))[:, None, None]
        angles = np.linspace(0.0, 2 * math.pi, 90, endpoint=False)
        grid = bell_values(c.m1, c.m2, c.m3, js, angles[None, :, None], angles[None, None, :])
        assert grid.max() <= best.value + 1e-12
        assert best.value == pytest.approx(float(chsh_maximum_50_digits(lam, gamma)), rel=0.0, abs=4 * EPS)

    @pytest.mark.parametrize("lam,gamma", MAXIMUM_POINTS)
    def test_local_maximum(self, lam, gamma):
        p = SqueezeParams(lam, gamma)
        setting, best = maximize_bell(p)
        for h in (1e-2, 1e-4, 1e-6):
            for sign in (1.0, -1.0):
                step = sign * h
                for trial in (
                    BellSetting(j=setting.j * math.exp(step), theta=setting.theta, phi=setting.phi),
                    BellSetting(j=setting.j, theta=setting.theta + step, phi=setting.phi),
                    BellSetting(j=setting.j, theta=setting.theta, phi=setting.phi + step),
                ):
                    assert bell_function(p, trial).value <= best.value + 1e-13, (h, trial)

    @pytest.mark.parametrize("gamma", [5.0, -5.0])
    def test_banaszek_wodkiewicz_limit(self, gamma):
        # E_N -> infinity: rho -> 2 and B_max -> 1 + 1.5 * 2^{-1/3}
        _, best = maximize_bell(SqueezeParams(5.0, gamma))
        assert best.value == pytest.approx(1.0 + 1.5 * 2.0 ** (-1.0 / 3.0), rel=0.0, abs=1e-12)

    def test_product_state_supremum(self):
        for gamma in (0.0, 3.0, -5.0):
            setting, value = maximize_bell(SqueezeParams(0.0, gamma))
            assert setting.j == 0.0
            assert value.value == 2.0
            assert value.violates is False

    def test_deterministic(self):
        p = SqueezeParams(0.7, 1.3)
        s1, v1 = maximize_bell(p)
        s2, v2 = maximize_bell(p)
        assert s1 == s2
        assert v1.value == v2.value
