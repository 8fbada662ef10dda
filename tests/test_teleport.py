import cmath
import math

import numpy as np
import pytest

from asymsqueeze import (
    Coherent,
    Fidelity,
    PhasePoint,
    SqueezeParams,
    SqueezedVacuum,
    ValidationError,
    cf_closed,
    cf_input,
    cli,
    fidelity_coherent_closed,
    fidelity_difference,
    fidelity_quadrature,
    fidelity_squeezed_closed,
    teleport,
)


BOX_GRID = [
    SqueezeParams(lam, gamma)
    for lam in np.linspace(0.0, 5.0, 41).tolist()
    for gamma in np.linspace(-5.0, 5.0, 41).tolist()
]


class TestInputStates:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Coherent(11.0 + 0.0j)
        with pytest.raises(ValidationError):
            SqueezedVacuum(3.5)
        with pytest.raises(ValidationError):
            Fidelity(0.0)
        with pytest.raises(ValidationError):
            Fidelity(1.1)

    @pytest.mark.parametrize("amplitude", [complex("nan"), 1j * math.nan, complex(math.inf, 0.0)])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValidationError, match="finite"):
            Coherent(amplitude)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 3.5])
    def test_rejects_squeeze_outside_bound(self, r, capsys):
        message = f"r must be finite with |r| <= 3.0, got {r}"
        p = SqueezeParams(0.5, 1.0)
        for call, args in ((SqueezedVacuum, (r,)), (fidelity_squeezed_closed, (p, r)), (fidelity_difference, (p, r))):
            with pytest.raises(ValidationError) as info:
                call(*args)
            assert str(info.value) == message
        assert cli.main(["fidelity", "--lambda", "0.5", "--gamma", "1", f"--r={r}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rejects_unsupported_state(self):
        with pytest.raises(ValidationError, match="unsupported input state"):
            cf_input(object(), 0.1)

    def test_cf_at_origin(self):
        assert cf_input(Coherent(1.0 + 2.0j), 0j) == 1.0
        assert cf_input(SqueezedVacuum(0.8), 0j) == 1.0

    def test_vacuum_cf(self, rng):
        for _ in range(20):
            eta = complex(*rng.normal(size=2))
            assert cf_input(Coherent(0j), eta) == pytest.approx(
                math.exp(-0.5 * abs(eta) ** 2), abs=1e-14
            )

    def test_zero_squeeze_is_vacuum(self, rng):
        for _ in range(20):
            eta = complex(*rng.normal(size=2))
            assert cf_input(SqueezedVacuum(0.0), eta) == pytest.approx(
                cf_input(Coherent(0j), eta), abs=1e-14
            )

    def test_coherent_phase_only_amplitude_dependence(self, rng):
        # the amplitude enters through a pure phase: |cf| is amplitude-free
        for _ in range(20):
            eta = complex(*rng.normal(size=2))
            a = cf_input(Coherent(0.7 - 0.3j), eta)
            b = cf_input(Coherent(0j), eta)
            assert abs(a) == pytest.approx(abs(b), abs=1e-14)


class TestOutputCf:
    # chi_out(eta) = chi_in(eta) * chi_E(eta*, eta): the channel factor
    @staticmethod
    def channel_factor(params, eta):
        return cf_closed(params, PhasePoint.from_complex(eta.conjugate(), eta))

    def test_vacuum_channel(self, rng):
        # lam = 0 channel multiplies the input CF by exp(-|eta|^2)
        p = SqueezeParams(0.0, 0.0)
        for _ in range(20):
            eta = complex(*rng.normal(size=2) * 0.8)
            assert self.channel_factor(p, eta) == pytest.approx(math.exp(-abs(eta) ** 2), abs=1e-14)

    def test_symmetric_channel_factor(self, rng):
        # gamma = 0: the channel factor is exp(-e^{-2 lam} |eta|^2)
        lam = 0.9
        p = SqueezeParams(lam, 0.0)
        for _ in range(20):
            eta = complex(*rng.normal(size=2) * 0.8)
            factor = self.channel_factor(p, eta)
            assert factor == pytest.approx(math.exp(-math.exp(-2 * lam) * abs(eta) ** 2), abs=1e-12)


class TestClosedForms:
    def test_classical_benchmark(self):
        assert fidelity_coherent_closed(SqueezeParams(0.0, 0.0)).value == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_reduction(self):
        for lam in np.linspace(0.0, 2.0, 9):
            f = fidelity_coherent_closed(SqueezeParams(float(lam), 0.0)).value
            assert f == pytest.approx((1.0 + math.tanh(lam)) / 2.0, abs=1e-12)
        assert fidelity_coherent_closed(SqueezeParams(1.0, 0.0)).value == pytest.approx(
            0.88079707797788243, abs=1e-12
        )

    def test_squeezed_reduces_to_coherent_at_zero(self, rng):
        for _ in range(20):
            p = SqueezeParams(rng.uniform(0, 2), rng.uniform(-2, 2))
            assert fidelity_squeezed_closed(p, 0.0).value == fidelity_coherent_closed(p).value

    def test_one_zero_squeeze_formula_over_the_box(self):
        # F(0) has one formula, so these hold bit for bit, not only to rounding
        for p in BOX_GRID:
            coherent = fidelity_coherent_closed(p).value
            assert fidelity_squeezed_closed(p, 0.0).value == coherent
            for r in (1.0, -1.0, 3.0, -3.0):
                assert fidelity_difference(p, r) == fidelity_squeezed_closed(p, r).value - coherent

    def test_frozen_squeezed_value(self):
        f = fidelity_squeezed_closed(SqueezeParams(0.0, 0.0), 1.0).value
        assert f == pytest.approx(1.0 / (2.0 * math.cosh(1.0)), abs=1e-14)
        assert f == pytest.approx(0.32402713683194273, abs=1e-14)

    def test_asymmetry_can_help(self):
        assert (
            fidelity_coherent_closed(SqueezeParams(0.3, 0.5)).value
            > fidelity_coherent_closed(SqueezeParams(0.3, 0.0)).value
        )

    def test_enhancement_region_boundary(self):
        # asymmetry helps below tanh(lam) = 1/2 and hurts above it
        for lam in (0.2, 0.4, 0.5):
            assert math.tanh(lam) < 0.5
            assert (
                fidelity_coherent_closed(SqueezeParams(lam, 0.3)).value
                > fidelity_coherent_closed(SqueezeParams(lam, 0.0)).value
            )
        for lam in (0.6, 1.0, 1.5):
            assert math.tanh(lam) > 0.5
            base = fidelity_coherent_closed(SqueezeParams(lam, 0.0)).value
            for gamma in (0.1, -0.1, 0.2):
                assert fidelity_coherent_closed(SqueezeParams(lam, gamma)).value < base

    def test_range(self, rng):
        for _ in range(200):
            p = SqueezeParams(rng.uniform(0, 5), rng.uniform(-5, 5))
            assert 0.0 < fidelity_coherent_closed(p).value <= 1.0
            assert 0.0 < fidelity_squeezed_closed(p, rng.uniform(-3, 3)).value <= 1.0

    def test_approaches_unity(self):
        f = fidelity_coherent_closed(SqueezeParams(5.0, 0.0)).value
        assert f == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)

    def test_squeeze_envelope(self):
        with pytest.raises(ValidationError):
            fidelity_squeezed_closed(SqueezeParams(0.5, 0.0), 3.2)


class TestQuadrature:
    def test_classical_benchmark(self):
        f = fidelity_quadrature(Coherent(0.4 + 0.1j), SqueezeParams(0.0, 0.0))
        assert f.value == pytest.approx(0.5, abs=1e-12)

    def test_matches_coherent_closed_form(self):
        for lam in np.linspace(0.0, 1.5, 4):
            for gamma in np.linspace(-1.5, 1.5, 4):
                p = SqueezeParams(float(lam), float(gamma))
                quad = fidelity_quadrature(Coherent(0.5 - 0.2j), p).value
                assert quad == pytest.approx(fidelity_coherent_closed(p).value, abs=1e-12)

    @pytest.mark.parametrize("r", [-2.0, -0.5, 0.5, 1.0, 3.0])
    def test_matches_squeezed_closed_form(self, r):
        for lam, gamma in [(0.0, 0.0), (0.4, 0.9), (1.0, -1.2), (1.5, 0.3)]:
            p = SqueezeParams(lam, gamma)
            quad = fidelity_quadrature(SqueezedVacuum(r), p).value
            assert quad == pytest.approx(fidelity_squeezed_closed(p, r).value, abs=1e-12)

    def test_amplitude_independence(self):
        p = SqueezeParams(0.8, 0.7)
        values = [
            fidelity_quadrature(Coherent(b), p).value
            for b in (0j, 2.0 + 0.0j, -1.5 + 2.5j)
        ]
        assert max(values) - min(values) < 1e-12

    def test_sampling_error_bound_at_the_node_count(self):
        # the trapezoid sampling error that fidelity_quadrature's docstring states, far below a double's rounding
        assert 2.0 * math.exp(-math.pi ** 2 * (teleport._NODES - 1) ** 2 / 144.0) < 1e-20

    def test_node_count_gives_the_bits_of_181_nodes(self, rng, monkeypatch):
        # the trapezoid sampling error 2 exp(-pi^2 (N-1)^2 / 144) is 3e-27 at N = 31,
        # so a finer grid, such as the 181 nodes once used, adds nothing but rounding
        assert teleport._NODES % 2 == 1  # eta = 0 is a node
        calls = []
        for _ in range(100):
            p = SqueezeParams(rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))
            if rng.uniform() < 0.5:
                state = Coherent(complex(*rng.uniform(-2.0, 2.0, 2)))
            else:
                state = SqueezedVacuum(rng.uniform(-3.0, 3.0))
            calls.append((state, p, fidelity_quadrature(state, p).value))
        monkeypatch.setattr(teleport, "_NODES", 181)
        worst = max(abs(fidelity_quadrature(state, p).value - value) for state, p, value in calls)
        assert worst <= 2e-14

    @pytest.mark.parametrize("c", [1e-3, 1.0, math.exp(6.0)])
    def test_trapezoid_weights_integrate_a_gaussian(self, c):
        # the rule fidelity_quadrature applies per axis: N nodes over +-6/sqrt(c)
        def relative_error(nodes):
            radius = 6.0 / math.sqrt(c)
            xs = np.linspace(-radius, radius, nodes)
            exact = math.sqrt(math.pi / c)
            return abs(teleport._trapezoid_weights(xs) @ np.exp(-c * xs * xs) - exact) / exact

        assert relative_error(teleport._NODES) <= 4 * np.finfo(float).eps
        # the bound predicts about 2e-12 at 21 nodes, so a too coarse grid shows
        assert relative_error(21) > 1e-13


class TestDifference:
    def test_zero_at_zero(self):
        assert fidelity_difference(SqueezeParams(0.7, 1.1), 0.0) == 0.0

    def test_grows_pointwise_with_input_squeeze(self):
        # F is strictly decreasing in |r| (the channel scalar is negative),
        # so the gap F(0) - F(r) grows pointwise with r
        for lam, gamma in [(0.05, 0.0), (0.5, 1.0), (0.3, -0.5)]:
            gaps = [abs(fidelity_difference(SqueezeParams(lam, gamma), r)) for r in (0.25, 0.5, 1.0, 2.0)]
            assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_asymmetry_advantage_shrinks_with_input_squeeze(self):
        # the advantage of the asymmetric channel over its symmetric
        # counterpart, max over (lam, gamma) of F(lam, gamma; r) - F(lam, 0; r),
        # shrinks as the input squeeze grows
        lams = np.linspace(0.01, 1.5, 16)
        gammas = np.linspace(-2.0, 2.0, 17)
        gains = []
        for r in (0.5, 1.0, 2.0):
            gains.append(
                max(
                    fidelity_squeezed_closed(SqueezeParams(float(a), float(g)), r).value
                    - fidelity_squeezed_closed(SqueezeParams(float(a), 0.0), r).value
                    for a in lams
                    for g in gammas
                )
            )
        assert gains[0] > gains[1] > gains[2] > 0.0

    def test_enhancement_region_exists(self):
        # somewhere off the symmetric axis the channel beats its gamma = 0 self
        for r in (0.5, 1.0):
            base = fidelity_squeezed_closed(SqueezeParams(0.3, 0.0), r).value
            better = fidelity_squeezed_closed(SqueezeParams(0.3, 0.5), r).value
            assert better > base
