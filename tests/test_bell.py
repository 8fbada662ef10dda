import math

import numpy as np
import pytest

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
    maximize_bell,
    wigner_closed,
    wigner_numeric,
)
from asymsqueeze.cli import main


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

    def test_violation_flag(self):
        assert BellValue.of(2.1).violates
        assert not BellValue.of(2.0).violates
        assert BellValue.of(-2.3).violates


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


class TestMaximize:
    def test_small_squeeze_optimum_at_opposite_phases(self):
        p = SqueezeParams(0.5, 1.0)
        setting, value = maximize_bell(p, j=0.01)
        reference = bell_function(p, BellSetting(j=0.01, theta=math.pi, phi=0.0)).value
        assert value.value >= reference - 1e-9
        # optimum sits at (phi, theta) = (0, pi) or its swap (pi, 0)
        candidates = [(0.0, math.pi), (math.pi, 0.0)]
        dist = min(
            math.hypot((setting.phi - c_phi + math.pi) % (2 * math.pi) - math.pi,
                       (setting.theta - c_theta + math.pi) % (2 * math.pi) - math.pi)
            for c_phi, c_theta in candidates
        )
        assert dist < 0.05

    def test_product_state_supremum(self):
        setting, value = maximize_bell(SqueezeParams(0.0, 0.0))
        assert value.value <= 2.0 + 1e-12
        assert value.value >= 2.0 - 1e-6
        assert not value.violates
        assert setting.j <= 0.011  # walked toward the J -> 0 boundary

    def test_refinement_beats_grid(self):
        p = SqueezeParams(1.0, 2.0)
        _, refined = maximize_bell(p, j=0.01)
        thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        grid_best = max(
            bell_function(p, BellSetting(j=0.01, theta=th, phi=ph)).value
            for th in thetas
            for ph in thetas
        )
        assert refined.value >= grid_best - 1e-12

    def test_deterministic(self):
        p = SqueezeParams(0.7, 1.3)
        s1, v1 = maximize_bell(p, j=0.02)
        s2, v2 = maximize_bell(p, j=0.02)
        assert s1 == s2
        assert v1.value == v2.value

    def test_validation(self):
        with pytest.raises(ValidationError):
            maximize_bell(SqueezeParams(0.5, 0.0), j=-1.0)
