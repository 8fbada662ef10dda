"""Bell-CHSH evaluation through displaced-parity correlations.

The CHSH combination uses four displaced-parity expectations at settings
(0, 0), (alpha, 0), (0, beta), (alpha, beta) with alpha = sqrt(J) e^{i phi}
and beta = sqrt(J) e^{i theta}; |value| > 2 certifies nonlocality and no
quantum state exceeds 2 sqrt(2).

Two evaluation routes are kept deliberately separate: ``bell_function``
evaluates the four-exponential closed form, ``bell_from_wigner`` assembles
the same combination from the closed-form Wigner function.  They agree to
1e-12 everywhere, which is the structural check on the closed form's algebra.
The four-Wigner assembly has one home, ``_chsh_from_wigner``, which takes any
Wigner function; ``verify`` feeds it the Fock oracle's.  ``maximize_bell``
seeds one pattern search over (J, theta, phi) from a fixed grid.
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
# grid that seeds maximize_bell: angle steps over [0, 2 pi), J steps over (0, 2]
_THETA_STEPS = 64
_PHI_STEPS = 64
_J_STEPS = 200


@dataclass(frozen=True)
class BellSetting:
    """Displacement magnitude J = |alpha|^2 = |beta|^2 and the two phases.

    Equal magnitudes on both modes are hard-coded; the displaced-parity test
    implemented here is defined with a single J.  Angles are stored as
    given, unwrapped: cos and sin of the given double are more accurate than
    of the double reduced modulo the rounded 2 pi, and the CLI ``bell`` sweep
    evaluates the raw angles too, so both give the same bits.
    """

    j: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.j) and self.j >= 0.0):
            raise ValidationError(f"displacement magnitude J must be >= 0, got {self.j}")

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


def bell_function(params: SqueezeParams, setting: BellSetting) -> BellValue:
    """Closed-form CHSH combination (the four-exponential expression)."""
    c = coefficients(params)
    return BellValue.of(_kernels.bell_values(c.m1, c.m2, c.m3, setting.j, setting.theta, setting.phi))


def bell_from_wigner(params: SqueezeParams, setting: BellSetting) -> BellValue:
    """CHSH combination assembled from four closed-form Wigner evaluations."""
    return BellValue.of(_chsh_from_wigner(lambda point: wigner_closed(params, point), setting))


def _chsh_from_wigner(wigner, setting: BellSetting) -> float:
    """B = pi^2 [W(0,0) + W(alpha,0) + W(0,beta) - W(alpha,beta)] for a
    Wigner function ``wigner`` taking a PhasePoint."""
    alpha, beta = setting.alpha, setting.beta
    zero = 0.0 + 0.0j
    combo = (
        wigner(PhasePoint.from_complex(zero, zero))
        + wigner(PhasePoint.from_complex(alpha, zero))
        + wigner(PhasePoint.from_complex(zero, beta))
        - wigner(PhasePoint.from_complex(alpha, beta))
    )
    return math.pi ** 2 * combo


def _grid_best(c, j_values):
    thetas = np.linspace(0.0, _TWO_PI, _THETA_STEPS, endpoint=False)
    phis = np.linspace(0.0, _TWO_PI, _PHI_STEPS, endpoint=False)
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


def maximize_bell(params: SqueezeParams, j=None):
    """Best CHSH value over the settings, deterministically.

    A fixed grid (64 x 64 over the angles in [0, 2 pi), and 200 points over
    J in (0, 2] when ``j`` is not given) seeds one coordinate pattern search
    over (J, theta, phi), refined to 1e-10 in the CHSH value; a given ``j``
    pins J (bounds [j, j], step 0).  Always returns the best setting found,
    its angles wrapped into [0, 2 pi); absence of violation shows up as
    ``violates=False``.  The search can stop short of the maximum, even for
    lam <= 1.5, |gamma| <= 2: a Nelder-Mead search in (ln J, theta, phi)
    seeded from its result gains up to 5.05e-5 at (0.05, +-2).
    """
    if j is not None and not (math.isfinite(j) and j >= 0.0):
        raise ValidationError(f"fixed J must be >= 0, got {j}")
    j_values = np.linspace(2.0 / _J_STEPS, 2.0, _J_STEPS) if j is None else np.array([j])
    c = coefficients(params)
    j0, th0, ph0, _ = _grid_best(c, j_values)
    if j is None:
        dj, j_lower, j_upper = 2.0 / _J_STEPS, 1e-12, 2.0
    else:
        dj, j_lower, j_upper = 0.0, j0, j0
    x, best = _refine(
        lambda y: float(_kernels.bell_values(c.m1, c.m2, c.m3, y[0], y[1], y[2])),
        [j0, th0, ph0],
        [dj, _TWO_PI / _THETA_STEPS, _TWO_PI / _PHI_STEPS],
        lower=[j_lower, -math.inf, -math.inf],
        upper=[j_upper, math.inf, math.inf],
    )
    setting = BellSetting(j=x[0], theta=x[1] % _TWO_PI, phi=x[2] % _TWO_PI)
    return setting, BellValue.of(best)
