"""Generic two-mode Gaussian-state machinery.

Everything here works on an arbitrary physical 4x4 covariance matrix in the
quadrature ordering (q1, p1, q2, p2) with the convention Q = (a + a')/sqrt(2),
P = (a - a')/(i sqrt(2)), so the vacuum covariance is I/2 and all uncertainty
bounds reference the 1/2 scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCovarianceError

#: Symplectic form in (q1, p1, q2, p2) ordering: [[0, 1], [-1, 0]] per mode.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

_SYMMETRY_TOL = 1e-12
_UNCERTAINTY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric 4x4 covariance matrix of a physical two-mode state.

    Construction validates finiteness, symmetry (1e-12), positive definiteness,
    and the uncertainty relation: both Williamson eigenvalues >= 1/2 - 1e-9.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (4, 4):
            raise InvalidCovarianceError(f"expected 4x4 matrix, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidCovarianceError("matrix has a non-finite entry")
        if np.max(np.abs(arr - arr.T)) > _SYMMETRY_TOL:
            raise InvalidCovarianceError("matrix is not symmetric to 1e-12")
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        try:
            np.linalg.cholesky(arr)
        except np.linalg.LinAlgError:
            raise InvalidCovarianceError("matrix is not positive definite") from None
        # Uncertainty relation: every symplectic eigenvalue of sigma itself
        # (no partial transpose) >= 1/2, checked through the equivalent
        # Hermitian condition sigma + (i/2) Omega >= 0.  The direct invariant
        # formula amplifies roundoff by a square root exactly at the pure-state
        # degeneracy nu = 1/2, while Hermitian eigenvalues are well conditioned.
        herm = arr + 0.5j * SYMPLECTIC_FORM
        floor = -_UNCERTAINTY_TOL * max(1.0, float(np.max(np.abs(arr))))
        if float(np.min(np.linalg.eigvalsh(herm))) < floor:
            raise InvalidCovarianceError(
                "uncertainty relation violated: sigma + (i/2) Omega is not positive semidefinite"
            )

    @property
    def determinant(self):
        return float(np.linalg.det(self.entries))

    @classmethod
    def vacuum(cls):
        return cls(0.5 * np.eye(4))


@dataclass(frozen=True)
class PhasePoint:
    """Point in two-mode phase space, interchangeably real or complex.

    alpha = (q1 + i p1)/sqrt(2) and beta = (q2 + i p2)/sqrt(2); the two
    representations round-trip losslessly.
    """

    q1: float
    p1: float
    q2: float
    p2: float

    @classmethod
    def from_complex(cls, alpha, beta):
        alpha = complex(alpha)
        beta = complex(beta)
        s = math.sqrt(2.0)
        return cls(s * alpha.real, s * alpha.imag, s * beta.real, s * beta.imag)

    @property
    def alpha(self):
        return complex(self.q1, self.p1) / math.sqrt(2.0)

    @property
    def beta(self):
        return complex(self.q2, self.p2) / math.sqrt(2.0)

    @classmethod
    def origin(cls):
        return cls(0.0, 0.0, 0.0, 0.0)


def log_negativity(cov):
    """Entanglement monotone max[0, -ln(2 n_min)], n_min the smaller PPT symplectic eigenvalue.

    n_plus^2 is the larger root of n^4 - Delta n^2 + det sigma (Delta = det u + det v - 2 det w; a
    discriminant down to -1e-9 is clamped to 0), and n_min^2 = det sigma / n_plus^2 avoids the
    cancellation of Delta - sqrt(disc) under strong squeezing.  det sigma itself cancels at large lam
    and |gamma|: off by up to about 1e-4 in the outer envelope (1.2e-4 at (4.875, -5)), where
    ``state.log_negativity_closed`` holds 1e-14.
    """
    s = cov.entries
    det_u, det_v = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0], s[2, 2] * s[3, 3] - s[2, 3] * s[3, 2]
    delta = float(det_u + det_v - 2.0 * (s[0, 2] * s[1, 3] - s[0, 3] * s[1, 2]))
    det_sigma = cov.determinant
    disc = delta * delta - 4.0 * det_sigma
    if disc < -1e-9:
        raise InvalidCovarianceError(f"negative symplectic discriminant {disc:.3e}")
    if det_sigma <= 0.0 or delta <= 0.0:
        raise InvalidCovarianceError(f"non-physical invariants: delta {delta:.3e}, det {det_sigma:.3e}")
    n_plus_sq = 0.5 * (delta + math.sqrt(max(disc, 0.0)))
    return max(0.0, -math.log(2.0 * math.sqrt(det_sigma / n_plus_sq)))

