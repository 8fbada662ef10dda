"""Bell-CHSH evaluation through displaced-parity correlations.

The CHSH combination uses four displaced-parity expectations at settings
(0, 0), (alpha, 0), (0, beta), (alpha, beta) with alpha = sqrt(J) e^{i phi}
and beta = sqrt(J) e^{i theta}; |value| > 2 certifies nonlocality and no
quantum state exceeds 2 sqrt(2).

Two evaluation routes are kept deliberately separate: ``bell_function``
evaluates the four-exponential closed form, ``bell_from_wigner`` assembles
the same combination from the closed-form Wigner function.  They agree to
1e-12 everywhere, which is the structural check on the closed form's algebra.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .gaussian import PhasePoint
from .state import SqueezeParams, coefficients, wigner_closed

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BellSetting:
    """Displacement magnitude J = |alpha|^2 = |beta|^2 and the two phases.

    Equal magnitudes on both modes are hard-coded; the displaced-parity test
    implemented here is defined with a single J.  Angles are stored wrapped
    into [0, 2 pi).
    """

    j: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.j) and self.j >= 0.0):
            raise ValidationError(f"displacement magnitude J must be >= 0, got {self.j}")
        object.__setattr__(self, "theta", self.theta % _TWO_PI)
        object.__setattr__(self, "phi", self.phi % _TWO_PI)

    @property
    def alpha(self):
        return math.sqrt(self.j) * complex(math.cos(self.phi), math.sin(self.phi))

    @property
    def beta(self):
        return math.sqrt(self.j) * complex(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class BellValue:
    value: float
    violates: bool

    @classmethod
    def of(cls, value):
        return cls(value=float(value), violates=abs(value) > 2.0)


def parity_expectation(params: SqueezeParams, point: PhasePoint) -> float:
    """Expectation of the displaced parity operator: pi^2 times the Wigner
    density.  Bounded by 1 in magnitude (unit spectral radius)."""
    return math.pi ** 2 * wigner_closed(params, point)


def bell_function(params: SqueezeParams, setting: BellSetting) -> BellValue:
    """Closed-form CHSH combination (the four-exponential expression)."""
    c = coefficients(params)
    return BellValue.of(_kernels.bell_values(c.m1, c.m2, c.m3, setting.j, setting.theta, setting.phi))


def bell_from_wigner(params: SqueezeParams, setting: BellSetting) -> BellValue:
    """CHSH combination assembled from four Wigner evaluations.

    B = pi^2 [W(0,0) + W(alpha,0) + W(0,beta) - W(alpha,beta)].
    """
    alpha, beta = setting.alpha, setting.beta
    zero = 0.0 + 0.0j
    combo = (
        wigner_closed(params, PhasePoint.from_complex(zero, zero))
        + wigner_closed(params, PhasePoint.from_complex(alpha, zero))
        + wigner_closed(params, PhasePoint.from_complex(zero, beta))
        - wigner_closed(params, PhasePoint.from_complex(alpha, beta))
    )
    return BellValue.of(math.pi ** 2 * combo)


def _grid_best(c, j_values, theta_steps, phi_steps):
    thetas = np.linspace(0.0, _TWO_PI, theta_steps, endpoint=False)
    phis = np.linspace(0.0, _TWO_PI, phi_steps, endpoint=False)
    jj, tt, pp = np.meshgrid(j_values, thetas, phis, indexing="ij", sparse=True)
    vals = _kernels.bell_values(c.m1, c.m2, c.m3, jj, tt, pp)
    kj, kt, kp = np.unravel_index(np.argmax(vals), vals.shape)
    return float(j_values[kj]), float(thetas[kt]), float(phis[kp]), float(vals[kj, kt, kp])


def _refine(evaluate, x0, steps, lower, upper, tol=1e-10, step_floor=1e-8):
    """Deterministic coordinate pattern search: probe +-h per coordinate, move
    to the best improvement, halve all steps when nothing improves."""
    x = list(x0)
    best = evaluate(x)
    steps = list(steps)
    while max(steps) > step_floor:
        improved = False
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                trial = list(x)
                trial[i] = min(max(trial[i] + sign * steps[i], lower[i]), upper[i])
                val = evaluate(trial)
                if val > best + tol:
                    x, best, improved = trial, val, True
        if not improved:
            steps = [h / 2.0 for h in steps]
    return x, best


def maximize_bell(params: SqueezeParams, j=None, theta_steps=64, phi_steps=64, j_steps=200):
    """Best CHSH value over the settings, deterministically.

    A dense grid (theta_steps x phi_steps over the angles, and j_steps points
    over J in (0, 2] when ``j`` is not fixed) seeds a coordinate pattern
    search refined to 1e-10 in the CHSH value.  Always returns the best
    setting found; absence of violation shows up as ``violates=False``.
    """
    if theta_steps < 64 or phi_steps < 64:
        raise ValidationError("angle grid must be at least 64x64")
    if j is not None and not (math.isfinite(j) and j >= 0.0):
        raise ValidationError(f"fixed J must be >= 0, got {j}")
    if j is None:
        if j_steps < 200:
            raise ValidationError("free-J search needs at least 200 grid points")
        j_values = np.linspace(2.0 / j_steps, 2.0, j_steps)
    else:
        j_values = np.array([j])
    c = coefficients(params)
    j0, th0, ph0, _ = _grid_best(c, j_values, theta_steps, phi_steps)

    def evaluate(x):
        return float(_kernels.bell_values(c.m1, c.m2, c.m3, x[0], x[1], x[2]))

    dth = _TWO_PI / theta_steps
    dph = _TWO_PI / phi_steps
    if j is None:
        dj = 2.0 / j_steps
        x, best = _refine(
            evaluate,
            [j0, th0, ph0],
            [dj, dth, dph],
            lower=[1e-12, -math.inf, -math.inf],
            upper=[2.0, math.inf, math.inf],
        )
    else:
        x, best = _refine(
            lambda y: evaluate([j0] + list(y)),
            [th0, ph0],
            [dth, dph],
            lower=[-math.inf, -math.inf],
            upper=[math.inf, math.inf],
        )
        x = [j0] + list(x)
    setting = BellSetting(j=x[0], theta=x[1] % _TWO_PI, phi=x[2] % _TWO_PI)
    return setting, BellValue.of(best)
