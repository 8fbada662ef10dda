import math

import numpy as np
import pytest

from asymsqueeze import (
    CovarianceMatrix,
    InvalidCovarianceError,
    PhasePoint,
    SqueezeParams,
    coefficients,
    covariance,
    log_negativity,
)

from _oracles import (
    OMEGA,
    cf_of_covariance,
    expm_taylor,
    random_physical_cov,
    symplectic_eigs_generic,
    wigner_of_covariance,
)


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
    def test_positive(self, rng):
        cov = covariance(SqueezeParams(0.8, -0.6))
        for _ in range(30):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            assert wigner_of_covariance(cov.entries, pt) > 0.0


class TestCfOfCovariance:
    def test_vacuum(self, rng):
        cov = CovarianceMatrix.vacuum()
        for _ in range(20):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            expected = math.exp(-(pt.q1 ** 2 + pt.p1 ** 2 + pt.q2 ** 2 + pt.p2 ** 2) / 4.0)
            assert cf_of_covariance(cov.entries, pt) == pytest.approx(expected, abs=1e-14)

    def test_bounded_by_one(self, rng):
        cov = covariance(SqueezeParams(1.1, -0.9))
        for _ in range(30):
            pt = PhasePoint(*rng.uniform(-2, 2, size=4))
            val = cf_of_covariance(cov.entries, pt)
            assert 0.0 < val < 1.0
