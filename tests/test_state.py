import dataclasses
import math

import mpmath
import numpy as np
import pytest
from _oracles import cf_of_covariance, coefficients_50_digits, wigner_of_covariance

from asymsqueeze import (
    Coefficients,
    CovarianceMatrix,
    CutoffTooSmallError,
    PhasePoint,
    SYMPLECTIC_FORM,
    SqueezeParams,
    ValidationError,
    cf_closed,
    coefficients,
    coefficients_grid,
    covariance,
    enhanced_squeezing,
    fock_amplitudes,
    heisenberg_transform,
    variances,
    wigner_closed,
)
from asymsqueeze import _kernels
from asymsqueeze.state import log_negativity_closed, log_negativity_values, squeezer_grid


def random_params(rng, lam_hi=1.5, gamma_hi=2.0):
    return SqueezeParams(rng.uniform(0.0, lam_hi), rng.uniform(-gamma_hi, gamma_hi))


def series_50_digits(lam, gamma):
    """L = m1 + m2 + 2, A = (m1 - m2)/(2L) and B = 2 m3/L of the Fock series, as 50-digit mpf."""
    m1, m2, m3, _ = coefficients_50_digits(lam, gamma)
    with mpmath.workdps(50):
        big_l = m1 + m2 + 2
        return big_l, (m1 - m2) / (2 * big_l), 2 * m3 / big_l


def triple_series_50_digits(lam, gamma, m, n):
    """c[m, n] of (2/sqrt(L)) exp(-A a'^2) exp(A b'^2) exp(B a'b') |00> as the product of the three
    commuting exponential series, sum_k B^k s(-A, m, k) s(A, n, k) with s(x, m, k) = x^i sqrt(m!/k!) / i!
    for m - k = 2i, at m - n even: a route that shares no step with the ladder."""
    big_l, a, b = series_50_digits(lam, gamma)
    with mpmath.workdps(50):
        f = mpmath.factorial

        def s(x, m, k):
            i = (m - k) // 2
            return x ** i / f(i) * mpmath.sqrt(f(m) / f(k))

        terms = (b ** k * s(-a, m, k) * s(a, n, k) for k in range(m % 2, min(m, n) + 1, 2))
        return 2 / mpmath.sqrt(big_l) * mpmath.fsum(terms)


def ladder_table_50_digits(lam, gamma, cutoff):
    """The amplitude table by the ladder recurrences of ``_kernels.fock_series_table``, at 50 digits."""
    big_l, a, b = series_50_digits(lam, gamma)
    with mpmath.workdps(50):
        d = cutoff + 1
        root = [mpmath.sqrt(k) for k in range(d)]
        c = [[mpmath.mpf(0)] * d for _ in range(d)]
        c[0][0] = 2 / mpmath.sqrt(big_l)
        for n in range(1, d - 1, 2):
            c[0][n + 1] = 2 * a * root[n] * c[0][n - 1] / root[n + 1]
        for m in range(d - 1):
            for n in range((m + 1) % 2, d, 2):  # c[m + 1, n] = 0 for odd m + 1 + n
                up = b * root[n] * c[m][n - 1] if n else 0
                c[m + 1][n] = (up - 2 * a * root[m] * c[m - 1][n]) / root[m + 1]
        return np.array(c, dtype=float)


class TestParams:
    def test_generator_weights(self):
        p = SqueezeParams(0.5, 1.0)
        assert p.lam1 == pytest.approx(0.5 * math.e, abs=1e-15)
        assert p.lam2 == pytest.approx(0.5 / math.e, abs=1e-15)

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValidationError):
            SqueezeParams(-0.1, 0.0)

    def test_rejects_outside_envelope(self):
        with pytest.raises(ValidationError):
            SqueezeParams(5.5, 0.0)
        with pytest.raises(ValidationError):
            SqueezeParams(1.0, -6.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            SqueezeParams(math.nan, 0.0)


class TestCoefficients:
    def test_vacuum(self):
        c = coefficients(SqueezeParams(0.0, 2.0))
        assert (c.m1, c.m2, c.m3) == (1.0, 1.0, 0.0)
        assert c.f == -1.0

    def test_symmetric_case(self):
        c = coefficients(SqueezeParams(0.5, 0.0))
        assert c.m1 == pytest.approx(math.cosh(1.0), abs=1e-15)
        assert c.m2 == pytest.approx(math.cosh(1.0), abs=1e-15)
        assert c.m3 == pytest.approx(math.sinh(1.0), abs=1e-15)

    def test_frozen_asymmetric_values(self):
        # frozen by independent desk evaluation of the defining hyperbolics
        c = coefficients(SqueezeParams(0.5, 1.0))
        assert c.m1 == pytest.approx(3.2779669558539748, abs=1e-12)
        assert c.m2 == pytest.approx(1.3082893031741418, abs=1e-12)
        assert c.m3 == pytest.approx(1.8134302039235093, abs=1e-12)
        assert c.f == pytest.approx(-0.47969792559054913, abs=1e-13)
        assert c.m1 * c.m2 - c.m3 ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_purity_identity_sampled(self, rng):
        for _ in range(1000):
            lam = rng.uniform(0.0, 5.0)
            gamma = rng.uniform(-5.0, 5.0)
            c = coefficients(SqueezeParams(lam, gamma))
            scale = max(1.0, c.m1 * c.m2)
            assert abs(c.m1 * c.m2 - c.m3 ** 2 - 1.0) <= 1e-12 * scale
            assert c.m1 >= 1.0 and c.m2 >= 1.0 and c.m3 >= 0.0
            assert c.f < 0.0


FIELDS = tuple(field.name for field in dataclasses.fields(Coefficients))


def same_bits(a, b):
    """Equal as doubles, the sign of a zero included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestCoefficientsGrid:
    LAMS = (0.0, 1e-9, 0.3, 1.5, 2.75, 4.9, 5.0)
    GAMMAS = (-5.0, -1.3, -0.0, 0.0, 1e-9, 0.7, 5.0)

    def test_matches_scalar_bit_for_bit(self):
        grid = coefficients_grid(np.array(self.LAMS), np.array(self.GAMMAS))
        for field in FIELDS:
            assert getattr(grid, field).shape == (len(self.LAMS), len(self.GAMMAS))
        for i, lam in enumerate(self.LAMS):
            for k, gamma in enumerate(self.GAMMAS):
                scalar = coefficients(SqueezeParams(lam, gamma))
                for field in FIELDS:
                    assert same_bits(getattr(grid, field)[i, k], getattr(scalar, field)), (lam, gamma, field)

    def test_log_negativity_values_are_libm_asinh_bit_for_bit(self):
        # the one home of E_N, for the CLI's grid and log_negativity_closed's scalar alike
        grid = log_negativity_values(coefficients_grid(np.array(self.LAMS), np.array(self.GAMMAS)).m3)
        assert grid.shape == (len(self.LAMS), len(self.GAMMAS))
        for i, lam in enumerate(self.LAMS):
            for k, gamma in enumerate(self.GAMMAS):
                expected = math.asinh(coefficients(SqueezeParams(lam, gamma)).m3)
                assert same_bits(grid[i, k], expected), (lam, gamma)
                assert same_bits(log_negativity_closed(SqueezeParams(lam, gamma)), expected), (lam, gamma)
        assert log_negativity_values(0.75).shape == () and same_bits(log_negativity_values(0.75), math.asinh(0.75))

    @pytest.mark.parametrize("lams, gammas", [([0.5, 5.5], [0.0]), ([-0.1], [0.0]), ([0.5], [1.0, -6.0]),
                                              ([0.5], [np.nan])]
                             # a bad value inside an axis, where neither end shows it
                             + [([0.5, bad, 1.0], [0.0]) for bad in (np.nan, np.inf, -np.inf, 5.5, -0.1, -6.0)]
                             + [([0.5], [1.0, bad, -1.0]) for bad in (np.nan, np.inf, -np.inf, 5.5, -6.0)])
    def test_validates_each_axis_value(self, lams, gammas):
        for grid in (coefficients_grid, squeezer_grid):
            with pytest.raises(ValidationError):
                grid(np.array(lams), np.array(gammas))


class TestCovariance:
    def test_vacuum(self):
        cov = covariance(SqueezeParams(0.0, 0.0))
        assert np.allclose(cov.entries, 0.5 * np.eye(4), atol=1e-15)

    def test_symmetric_standard_form(self):
        lam = 0.8
        cov = covariance(SqueezeParams(lam, 0.0))
        ch, sh = math.cosh(2 * lam), math.sinh(2 * lam)
        expected = 0.5 * np.array(
            [[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]]
        )
        assert np.allclose(cov.entries, expected, atol=1e-14)

    def test_pure_state_determinant(self, rng):
        for _ in range(200):
            p = random_params(rng, lam_hi=2.0, gamma_hi=2.0)
            cov = covariance(p)
            c = coefficients(p)
            scale = max(1.0, (c.m1 * c.m2) ** 2)
            assert abs(16.0 * cov.determinant - 1.0) <= 1e-11 * scale


class TestWignerClosed:
    def test_origin(self):
        assert wigner_closed(SqueezeParams(0.9, -0.4), PhasePoint.origin()) == pytest.approx(
            1.0 / math.pi ** 2, abs=1e-16
        )

    def test_matches_covariance_route(self, rng):
        for _ in range(100):
            p = random_params(rng)
            pt = PhasePoint(*rng.uniform(-1.2, 1.2, size=4))
            assert wigner_closed(p, pt) == pytest.approx(
                wigner_of_covariance(covariance(p).entries, pt), abs=1e-12
            )

    def test_symmetric_reduction(self, rng):
        lam = 0.35
        p = SqueezeParams(lam, 0.0)
        for _ in range(50):
            pt = PhasePoint(*rng.uniform(-1, 1, size=4))
            expected = (1.0 / math.pi ** 2) * math.exp(
                -(pt.q1 ** 2 + pt.p1 ** 2 + pt.q2 ** 2 + pt.p2 ** 2) * math.cosh(2 * lam)
                + 2.0 * (pt.q1 * pt.q2 - pt.p1 * pt.p2) * math.sinh(2 * lam)
            )
            assert wigner_closed(p, pt) == pytest.approx(expected, abs=1e-12)


class TestCfClosed:
    def test_origin(self):
        assert cf_closed(SqueezeParams(1.2, 0.7), PhasePoint.origin()) == 1.0

    def test_matches_covariance_route(self, rng):
        for _ in range(100):
            p = random_params(rng)
            pt = PhasePoint(*rng.uniform(-1.2, 1.2, size=4))
            assert cf_closed(p, pt) == pytest.approx(cf_of_covariance(covariance(p).entries, pt), abs=1e-12)

    def test_symmetric_reduction(self, rng):
        lam = 0.55
        p = SqueezeParams(lam, 0.0)
        for _ in range(50):
            pt = PhasePoint(*rng.uniform(-1, 1, size=4))
            alpha, beta = pt.alpha, pt.beta
            expected = math.exp(
                -0.5 * (abs(alpha) ** 2 + abs(beta) ** 2) * math.cosh(2 * lam)
                + (alpha * beta).real * math.sinh(2 * lam)
            )
            assert cf_closed(p, pt) == pytest.approx(expected, abs=1e-12)


class TestVariances:
    def test_vacuum(self):
        assert variances(SqueezeParams(0.0, 0.0)) == (0.25, 0.25)

    def test_symmetric_reduction(self):
        for lam in np.linspace(0.1, 1.5, 8):
            v1, v2 = variances(SqueezeParams(float(lam), 0.0))
            assert v1 == pytest.approx(math.exp(2 * lam) / 4.0, abs=1e-12)
            assert v2 == pytest.approx(math.exp(-2 * lam) / 4.0, abs=1e-12)

    def test_coefficient_identity(self, rng):
        for _ in range(100):
            p = random_params(rng)
            c = coefficients(p)
            v1, v2 = variances(p)
            assert v1 == pytest.approx((c.m1 + c.m2 + 2 * c.m3) / 8.0, abs=1e-12)
            assert v2 == pytest.approx((c.m1 + c.m2 - 2 * c.m3) / 8.0, abs=1e-12)

    def test_uncertainty_product(self, rng):
        # product >= 1/16 with equality only in the symmetric case
        for _ in range(100):
            p = random_params(rng)
            v1, v2 = variances(p)
            assert v1 * v2 >= 1.0 / 16.0 - 1e-12
        v1, v2 = variances(SqueezeParams(0.7, 0.0))
        assert v1 * v2 == pytest.approx(1.0 / 16.0, abs=1e-14)
        v1, v2 = variances(SqueezeParams(0.7, 0.9))
        assert v1 * v2 > 1.0 / 16.0 + 1e-6


class TestEnhancedSqueezing:
    def test_examples(self):
        assert enhanced_squeezing(SqueezeParams(0.1, 1.0)) is True
        assert enhanced_squeezing(SqueezeParams(1.0, 1.0)) is False

    def test_threshold_values(self):
        assert math.tanh(0.1) == pytest.approx(0.099668, abs=1e-6)
        assert 1.0 / (1.0 + math.cosh(1.0)) == pytest.approx(0.393224, abs=1e-6)

    def test_undefined_at_zero(self):
        with pytest.raises(ValidationError):
            enhanced_squeezing(SqueezeParams(0.0, 1.0))

    def test_equivalent_to_variance_inequalities(self):
        # for gamma != 0 the predicate must coincide with both strict
        # variance inequalities against the symmetric state
        for lam in np.linspace(0.05, 1.5, 12):
            for gamma in np.concatenate([np.linspace(-3, -0.3, 6), np.linspace(0.3, 3, 6)]):
                p = SqueezeParams(float(lam), float(gamma))
                v1, v2 = variances(p)
                both = v1 > math.exp(2 * lam) / 4.0 and v2 < math.exp(-2 * lam) / 4.0
                assert enhanced_squeezing(p) == both


def quadrature_blocks(s):
    """The q block (Q1, Q2) -> (Q1, Q2) and the p block of a (q1, p1, q2, p2) matrix."""
    return s[::2, ::2], s[1::2, 1::2]


class TestHeisenbergTransform:
    def test_identity_at_zero(self):
        q, p = quadrature_blocks(heisenberg_transform(SqueezeParams(0.0, 1.0)))
        assert np.allclose(q, np.eye(2), atol=1e-15)
        assert np.allclose(p, np.eye(2), atol=1e-15)

    def test_symmetric_form(self):
        q, _ = quadrature_blocks(heisenberg_transform(SqueezeParams(0.5, 0.0)))
        ch, sh = math.cosh(0.5), math.sinh(0.5)
        assert np.allclose(q, [[ch, sh], [sh, ch]], atol=1e-15)

    def test_unit_determinant_and_duality(self, rng):
        for _ in range(50):
            q, p = quadrature_blocks(heisenberg_transform(random_params(rng)))
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.det(p) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(q @ p.T, np.eye(2), atol=1e-12)
            assert np.allclose(p, np.linalg.inv(q).T, atol=1e-12)

    def test_symplectic_and_vacuum_propagation(self, rng):
        for _ in range(20):
            p = random_params(rng)
            s = heisenberg_transform(p)
            assert s.shape == (4, 4)
            assert np.allclose(s @ SYMPLECTIC_FORM @ s.T, SYMPLECTIC_FORM, atol=1e-12)
            assert np.allclose(CovarianceMatrix(0.5 * s @ s.T).entries, covariance(p).entries, atol=1e-12)


class TestFockAmplitudes:
    def test_vacuum(self):
        state = fock_amplitudes(SqueezeParams(0.0, 0.0), 8)
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        assert np.allclose(state.amplitudes, expected, atol=1e-15)
        assert state.norm_deficit == pytest.approx(0.0, abs=1e-15)

    # The series is (2/sqrt(L)) exp[A(b'^2 - a'^2) + B a'b'] |00>, so its lowest
    # amplitudes give L = 4/c00^2, c11/c00 = B and c02/c00 = -c20/c00 = sqrt(2) A.

    def test_vacuum_series_coefficients(self):
        c = fock_amplitudes(SqueezeParams(0.0, 2.0), 8).amplitudes.real
        assert c[0, 0] == 1.0
        assert c[1, 1] == 0.0 and c[0, 2] == 0.0 and c[2, 0] == 0.0

    def test_symmetric_series_coefficients(self):
        c = fock_amplitudes(SqueezeParams(0.5, 0.0), 30).amplitudes.real
        assert 4.0 / c[0, 0] ** 2 == pytest.approx(4.0 * math.cosh(0.5) ** 2, abs=1e-14)
        assert c[1, 1] / c[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert c[0, 2] == 0.0 and c[2, 0] == 0.0

    def test_frozen_asymmetric_series_coefficients(self):
        # frozen by independent desk evaluation of L = 4 (cosh^2 lam + sinh^2 gamma sinh^2 lam),
        # A = sinh^2 lam sinh(2 gamma)/L and B = 2 cosh(gamma) sinh(2 lam)/L
        c = fock_amplitudes(SqueezeParams(0.5, 1.0), 30).amplitudes.real
        assert 4.0 / c[0, 0] ** 2 == pytest.approx(6.5862562590281151, abs=1e-12)
        assert c[1, 1] / c[0, 0] == pytest.approx(0.55067101327487789, abs=1e-13)
        assert c[0, 2] / c[0, 0] == pytest.approx(math.sqrt(2.0) * 0.14952938173183714, abs=1e-13)
        assert -c[2, 0] / c[0, 0] == pytest.approx(math.sqrt(2.0) * 0.14952938173183714, abs=1e-13)

    @pytest.mark.parametrize("cutoff", [30, 320])
    def test_symmetric_geometric_amplitudes(self, cutoff):
        # past cutoff 300 sqrt(m!/k!) overflows a double; the ladder forms no factorial, so one path serves both
        lam = 0.5
        state = fock_amplitudes(SqueezeParams(lam, 0.0), cutoff)
        c = state.amplitudes.real
        sech, tanh = 1.0 / math.cosh(lam), math.tanh(lam)
        for n in range(12):
            assert c[n, n] == pytest.approx(sech * tanh ** n, abs=1e-13)
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) < 1e-15

    def test_asymmetric_series_above_cutoff_300(self):
        # gamma = 0.01 fills the off-diagonal terms; from m = 301 on, the triple series' sqrt(m!/k!) and i!
        # overflow a double, which the ladder never forms; row m + 1 needs only rows m and m - 1
        params = SqueezeParams(1.0, 0.01)
        c = fock_amplitudes(params, 320).amplitudes.real
        assert np.max(np.abs(c[:301, :301] - fock_amplitudes(params, 300).amplitudes.real)) < 1e-15
        exact = float(triple_series_50_digits(1.0, 0.01, 312, 310))
        assert abs(c[312, 310] - exact) <= 1e-11 * abs(exact)

    def test_table_accuracy_near_the_edge_of_reach(self):
        # at (1, 1) the two terms of a ladder row cancel to noise from cutoff 135; at 120 the table errs by 1.6e-8
        c = fock_amplitudes(SqueezeParams(1.0, 1.0), 120).amplitudes.real
        reference = ladder_table_50_digits(1.0, 1.0, 120)
        assert np.max(np.abs(c - reference)) <= 1e-6
        # the reference against the triple series, which shares no step with the ladder
        for m, n in [(0, 2), (2, 0), (7, 3), (60, 60), (119, 117), (118, 120), (120, 120)]:
            assert float(triple_series_50_digits(1.0, 1.0, m, n)) == pytest.approx(reference[m, n], rel=1e-14)

    def test_even_total_photon_support(self):
        state = fock_amplitudes(SqueezeParams(0.5, 1.0), 20)
        m, n = np.meshgrid(np.arange(21), np.arange(21), indexing="ij")
        odd = (m + n) % 2 == 1
        assert np.max(np.abs(state.amplitudes[odd])) == 0.0

    def test_norm_accounting(self):
        state = fock_amplitudes(SqueezeParams(0.6, 0.9), 40)
        total = np.sum(np.abs(state.amplitudes) ** 2) + state.norm_deficit
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError) as info:
            fock_amplitudes(SqueezeParams(0.8, 0.0), 12)
        assert info.value.deficit > 1e-6

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValidationError):
            fock_amplitudes(SqueezeParams(0.3, 0.0), 1)

    @pytest.mark.parametrize("lam, gamma", [(1e-4, 1e-4), (1e-6, 1.0), (0.5, 1e-8), (1e-3, 0.5)])
    def test_single_mode_amplitudes_keep_relative_precision(self, lam, gamma):
        # c02 = -c20 = (2/sqrt(L)) sqrt(2) A with A = (m1 - m2)/(2L), where m1 - m2 is tiny against m1 ~ m2
        m1, m2, _, _ = coefficients_50_digits(lam, gamma)
        with mpmath.workdps(50):
            big_l = m1 + m2 + 2
            exact = float(2 / mpmath.sqrt(big_l) * mpmath.sqrt(2) * (m1 - m2) / (2 * big_l))
        c = fock_amplitudes(SqueezeParams(lam, gamma), 20).amplitudes.real
        assert abs(c[0, 2] - exact) <= 1e-14 * abs(exact)
        assert c[2, 0] == -c[0, 2]

    @pytest.mark.parametrize("lam, gamma, cutoff", [(1.0, 1.0, 180), (1.2, 1.0, 150), (1.0, 2.0, 200)])
    def test_series_cancelled_to_noise_raises(self, lam, gamma, cutoff):
        # the two terms of each ladder row cancel and the table gains norm here: deficits -4.0e-2, -0.26 and -7.3e2
        message = (
            rf"^Fock series at cutoff {cutoff} cancels to noise for SqueezeParams\(lam={lam}, gamma={gamma}\)"
            r" \(norm deficit -"
        )
        with pytest.raises(CutoffTooSmallError, match=message) as info:
            fock_amplitudes(SqueezeParams(lam, gamma), cutoff)
        assert info.value.deficit < -1e-3

    def test_tail_outside_the_basis_is_not_blamed_on_noise(self):
        # the true deficit at this pair is 2.04e-6 (50-digit ladder), above the 1e-6 gate
        with pytest.raises(CutoffTooSmallError, match="^cutoff 120 leaves too much of the state outside") as info:
            fock_amplitudes(SqueezeParams(1.2, 1.0), 120)
        assert info.value.deficit == pytest.approx(2.04e-6, rel=0.02)

    def test_amplitude_above_one_raises(self, monkeypatch):
        # |c00| = 1 + 4 eps leaves a deficit of about -8 eps, inside the -(cutoff+1)^2 eps rounding allowance
        table = np.zeros((9, 9))
        table[0, 0] = 1.0 + 4 * np.finfo(float).eps
        monkeypatch.setattr(_kernels, "fock_series_table", lambda *args: table)
        with pytest.raises(CutoffTooSmallError, match="cancels to noise"):
            fock_amplitudes(SqueezeParams(0.1, 0.0), 8)

    def test_nan_series_raises(self, monkeypatch):
        table = np.zeros((9, 9))
        table[0, 0] = math.nan
        monkeypatch.setattr(_kernels, "fock_series_table", lambda *args: table)
        with pytest.raises(CutoffTooSmallError, match=r"cancels to noise .* \(norm deficit nan\)$"):
            fock_amplitudes(SqueezeParams(0.1, 0.0), 8)

    @pytest.mark.parametrize(
        "lam, gamma, cutoff", [(0.3, 0.7, 40), (0.5, 1.0, 40), (0.6, -0.5, 40), (0.45, 0.0, 40), (0.5, -1.0, 30)]
    )
    def test_deficits_of_good_cutoffs_pass(self, lam, gamma, cutoff):
        deficit = fock_amplitudes(SqueezeParams(lam, gamma), cutoff).norm_deficit
        assert -((cutoff + 1) ** 2) * np.finfo(float).eps <= deficit <= 1e-6
