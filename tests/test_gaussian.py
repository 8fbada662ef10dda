import math

import numpy as np
import pytest

from asymsqueeze import (
    CovarianceMatrix,
    InvalidCovarianceError,
    PhasePoint,
    PurityError,
    SqueezeParams,
    cf_of_covariance,
    coefficients,
    covariance,
    log_negativity,
    wigner_of_covariance,
)

from _oracles import OMEGA, expm_taylor, random_physical_cov, symplectic_eigs_generic


def symmetric_covariance(lam):
    return covariance(SqueezeParams(lam, 0.0))


class TestCovarianceValidation:
    def test_vacuum_is_valid(self):
        cov = CovarianceMatrix.vacuum()
        assert np.allclose(cov.entries, 0.5 * np.eye(4))

    def test_rejects_asymmetric(self):
        bad = 0.5 * np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(InvalidCovarianceError):
            CovarianceMatrix(bad)

    def test_rejects_non_positive_definite(self):
        bad = 0.5 * np.eye(4)
        bad[3, 3] = -0.5
        with pytest.raises(InvalidCovarianceError):
            CovarianceMatrix(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidCovarianceError, match="expected 4x4"):
            CovarianceMatrix(np.eye(3))

    def test_rejects_uncertainty_violation(self):
        # positive definite but below the vacuum limit
        with pytest.raises(InvalidCovarianceError):
            CovarianceMatrix(0.4 * np.eye(4))

    def test_blocks(self):
        cov = covariance(SqueezeParams(0.5, 1.0))
        c = coefficients(SqueezeParams(0.5, 1.0))
        assert np.allclose(cov.entries[:2, :2], np.diag([c.m2, c.m1]) / 2)
        assert np.allclose(cov.entries[2:, 2:], np.diag([c.m1, c.m2]) / 2)
        assert np.allclose(cov.entries[:2, 2:], np.diag([c.m3, -c.m3]) / 2)


class TestPhasePoint:
    def test_round_trip(self, rng):
        for _ in range(50):
            alpha = complex(*rng.normal(size=2))
            beta = complex(*rng.normal(size=2))
            pt = PhasePoint.from_complex(alpha, beta)
            assert abs(pt.alpha - alpha) < 1e-15 * max(1.0, abs(alpha))
            assert abs(pt.beta - beta) < 1e-15 * max(1.0, abs(beta))

    def test_vector_ordering(self):
        pt = PhasePoint(1.0, 2.0, 3.0, 4.0)
        assert np.array_equal(pt.vector, [1.0, 2.0, 3.0, 4.0])


class TestPptSpectrum:
    """log_negativity is -ln(2 n_min) of the partially transposed spectrum."""

    def test_vacuum(self):
        # degenerate spectrum n_plus = n_minus = 1/2 (zero discriminant), so 2 n_min = 1 exactly
        sigma = CovarianceMatrix.vacuum().entries
        n_minus, n_plus = symplectic_eigs_generic(sigma, ppt=True)
        assert n_minus == pytest.approx(0.5, abs=1e-12)
        assert n_plus == pytest.approx(0.5, abs=1e-12)
        assert log_negativity(CovarianceMatrix(sigma)) == 0.0

    @pytest.mark.parametrize("lam,gamma", [(0.3, 0.0), (0.5, 1.0), (1.2, -0.8), (2.0, 1.5)])
    def test_closed_form(self, lam, gamma):
        # 2 n_min = sqrt(m1 m2) - m3 for this pure state
        c = coefficients(SqueezeParams(lam, gamma))
        expected = -math.log(math.sqrt(c.m1 * c.m2) - c.m3)
        assert log_negativity(covariance(SqueezeParams(lam, gamma))) == pytest.approx(expected, abs=1e-10)

    def test_against_generic_eigensolver(self, rng):
        for mixed in (True, False):
            for _ in range(40):
                sigma = random_physical_cov(rng, mixed=mixed)
                n_minus, _ = symplectic_eigs_generic(sigma, ppt=True)
                expected = max(0.0, -math.log(2.0 * n_minus))
                assert log_negativity(CovarianceMatrix(sigma)) == pytest.approx(expected, abs=1e-8)


class TestLogNegativity:
    def test_vacuum(self):
        assert log_negativity(CovarianceMatrix.vacuum()) == 0.0

    def test_symmetric_equals_twice_lambda(self):
        assert log_negativity(symmetric_covariance(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_equals_arcsinh(self):
        cov = covariance(SqueezeParams(0.5, 1.0))
        assert log_negativity(cov) == pytest.approx(1.3569444900743064, abs=1e-10)
        assert log_negativity(cov) == pytest.approx(1.3570, abs=1e-4)

    def test_arcsinh_identity_and_asymmetry_monotonicity(self):
        # E_N = arcsinh(m3), strictly increasing in |gamma| at fixed lam > 0
        for lam in (0.2, 0.5, 1.0):
            values = []
            for gamma in np.linspace(0.0, 2.5, 11):
                p = SqueezeParams(lam, float(gamma))
                en = log_negativity(covariance(p))
                assert en == pytest.approx(math.asinh(coefficients(p).m3), abs=1e-10)
                assert en == pytest.approx(
                    log_negativity(covariance(SqueezeParams(lam, -float(gamma)))), abs=1e-12
                )
                values.append(en)
            assert values[0] == pytest.approx(2.0 * lam, abs=1e-12)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_smallest_eigenvalue(self, rng):
        # exactly zero once n_min >= 1/2
        for _ in range(20):
            sigma = random_physical_cov(rng, mixed=True)
            n_minus, _ = symplectic_eigs_generic(sigma, ppt=True)
            en = log_negativity(CovarianceMatrix(sigma))
            if n_minus >= 0.5:
                assert en == 0.0
            else:
                assert en > 0.0


class TestSeparability:
    # PPT criterion: a two-mode Gaussian state is separable iff E_N = 0
    def test_vacuum_separable(self):
        assert log_negativity(CovarianceMatrix.vacuum()) == 0.0

    def test_zero_squeeze_separable(self):
        assert log_negativity(covariance(SqueezeParams(0.0, 1.3))) == 0.0

    @pytest.mark.parametrize("lam,gamma", [(0.1, 0.0), (0.5, 1.0), (1.0, -2.0)])
    def test_squeezed_entangled(self, lam, gamma):
        assert log_negativity(covariance(SqueezeParams(lam, gamma))) > 0.0

    def test_locally_squeezed_thermal_product_separable(self, rng):
        # equal local temperatures make both PPT eigenvalues 0.8, and rounding
        # may order them either way or leave the discriminant slightly negative
        for _ in range(100):
            local = np.zeros((4, 4))
            for k in (0, 2):
                block = rng.normal(size=(2, 2), scale=0.5)
                local[k:k + 2, k:k + 2] = 0.5 * (block + block.T)
            s = expm_taylor(OMEGA @ local)
            assert log_negativity(CovarianceMatrix(s @ (0.8 * np.eye(4)) @ s.T)) == 0.0


class TestWignerOfCovariance:
    def test_origin(self):
        val = wigner_of_covariance(covariance(SqueezeParams(0.7, 0.3)), PhasePoint.origin())
        assert val == pytest.approx(1.0 / math.pi ** 2, abs=1e-15)

    def test_symmetric_reduction(self, rng):
        # gamma = 0 must reproduce the symmetric-state Wigner function
        lam = 0.45
        cov = symmetric_covariance(lam)
        for _ in range(50):
            pt = PhasePoint(*rng.uniform(-1, 1, size=4))
            expected = (1.0 / math.pi ** 2) * math.exp(
                -(pt.q1 ** 2 + pt.p1 ** 2 + pt.q2 ** 2 + pt.p2 ** 2) * math.cosh(2 * lam)
                + 2.0 * (pt.q1 * pt.q2 - pt.p1 * pt.p2) * math.sinh(2 * lam)
            )
            assert wigner_of_covariance(cov, pt) == pytest.approx(expected, abs=1e-12)

    def test_positive(self, rng):
        cov = covariance(SqueezeParams(0.8, -0.6))
        for _ in range(30):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            assert wigner_of_covariance(cov, pt) > 0.0

    def test_normalization_grid(self):
        # coarse 4D integral of W over a box should be 1 within 1%
        cov = covariance(SqueezeParams(0.3, 0.4))
        axis = np.linspace(-4.0, 4.0, 41)
        step = axis[1] - axis[0]
        inv = np.linalg.inv(cov.entries)
        q1 = axis[:, None, None, None]
        p1 = axis[None, :, None, None]
        q2 = axis[None, None, :, None]
        p2 = axis[None, None, None, :]
        expo = (
            inv[0, 0] * q1 ** 2 + inv[1, 1] * p1 ** 2 + inv[2, 2] * q2 ** 2 + inv[3, 3] * p2 ** 2
            + 2 * inv[0, 1] * q1 * p1 + 2 * inv[0, 2] * q1 * q2 + 2 * inv[0, 3] * q1 * p2
            + 2 * inv[1, 2] * p1 * q2 + 2 * inv[1, 3] * p1 * p2 + 2 * inv[2, 3] * q2 * p2
        )
        total = np.sum(np.exp(-0.5 * expo)) / math.pi ** 2 * step ** 4
        assert total == pytest.approx(1.0, rel=0.01)

    def test_inverse_is_four_times_the_cf_kernel(self, rng):
        # a pure state has sigma^{-1} = 4 Omega^T sigma Omega, which the Wigner route takes in
        # place of the inverse; the generic inverse is the reference here
        for _ in range(200):
            sigma = covariance(SqueezeParams(rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))).entries
            inverse = np.linalg.inv(sigma)
            assert np.max(np.abs(4.0 * OMEGA.T @ sigma @ OMEGA - inverse)) <= 1e-12 * np.max(np.abs(inverse))

    def test_rejects_mixed_state(self):
        # thermal states; at 1e7 the purity gate's rounding allowance is sized on the
        # envelope's scale, and must still not grow with a mixed state's det sigma
        for scale in (0.8, 1e7):
            with pytest.raises(PurityError):
                wigner_of_covariance(CovarianceMatrix(scale * np.eye(4)), PhasePoint.origin())

    def test_accepts_every_pure_state_of_the_envelope(self):
        # det sigma misses 1/16 by up to 1.7e-5 (16 det - 1) from rounding alone
        # here; the purity gate scales with that rounding and must let it pass
        for lam in np.linspace(0.0, 5.0, 41):
            for gamma in np.linspace(-5.0, 5.0, 41):
                cov = covariance(SqueezeParams(float(lam), float(gamma)))
                assert wigner_of_covariance(cov, PhasePoint.origin()) > 0.0


class TestCfOfCovariance:
    def test_origin_normalization(self):
        assert cf_of_covariance(covariance(SqueezeParams(0.9, 1.2)), PhasePoint.origin()) == 1.0

    def test_vacuum(self, rng):
        cov = CovarianceMatrix.vacuum()
        for _ in range(20):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            expected = math.exp(-(pt.q1 ** 2 + pt.p1 ** 2 + pt.q2 ** 2 + pt.p2 ** 2) / 4.0)
            assert cf_of_covariance(cov, pt) == pytest.approx(expected, abs=1e-14)

    def test_symmetric_reduction(self, rng):
        # gamma = 0 must match the symmetric-state CF
        lam = 0.6
        cov = symmetric_covariance(lam)
        for _ in range(50):
            pt = PhasePoint(*rng.uniform(-1, 1, size=4))
            alpha, beta = pt.alpha, pt.beta
            expected = math.exp(
                -0.5 * (abs(alpha) ** 2 + abs(beta) ** 2) * math.cosh(2 * lam)
            ) * math.exp(0.5 * (2 * (alpha * beta).real) * math.sinh(2 * lam))
            assert cf_of_covariance(cov, pt) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_one(self, rng):
        cov = covariance(SqueezeParams(1.1, -0.9))
        for _ in range(30):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            val = cf_of_covariance(cov, pt)
            assert 0.0 < val < 1.0
