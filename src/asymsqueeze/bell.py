"""Bell-CHSH evaluation through displaced-parity correlations.

The CHSH combination uses four displaced-parity expectations at settings
(0, 0), (alpha, 0), (0, beta), (alpha, beta) with alpha = sqrt(J) e^{i phi}
and beta = sqrt(J) e^{i theta}; |value| > 2 certifies nonlocality and no
quantum state exceeds 2 sqrt(2).

Two evaluation routes are kept deliberately separate: ``bell_function``
evaluates the four-exponential closed form, ``bell_from_wigner`` assembles it
from the closed-form Wigner function; their algebra is proven the same symbolically.
Both take each term as exp(-|G x|^2) from ``_kernels.gaussian_forms``, the first with
sqrt(2J) outside the forms, and both hold 50 digits to 1e-13 across the box.
The four-Wigner assembly has one home, ``_chsh_from_wigner``, which takes any
Wigner function; ``verify`` evaluates the Fock oracle's at ``_chsh_points``
in one batch and feeds it those values.  ``maximize_bell``
takes the best setting in closed form: the maximal CHSH value is a function
of the log-negativity alone.
"""

import math
from dataclasses import dataclass, field

from ._kernels import bell_values
from .errors import ValidationError
from .gaussian import PhasePoint
from .state import SqueezeParams, coefficients, squeezer_entries, wigner_closed

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


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
        for name, angle in (("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(angle):
                raise ValidationError(f"{name} must be finite, got {angle}")

    @property
    def alpha(self):
        return math.sqrt(self.j) * complex(math.cos(self.phi), math.sin(self.phi))

    @property
    def beta(self):
        return math.sqrt(self.j) * complex(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class BellValue:
    """A CHSH value; ``violates`` is |value| > 2, the local bound, derived from it."""

    value: float
    violates: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "violates", abs(self.value) > 2.0)


def bell_function(params: SqueezeParams, setting: BellSetting) -> BellValue:
    """Closed-form CHSH combination (the four-exponential expression) from S's entries."""
    return BellValue(bell_values(*squeezer_entries(params), setting.j, setting.theta, setting.phi))


def bell_from_wigner(params: SqueezeParams, setting: BellSetting) -> BellValue:
    """CHSH combination assembled from four closed-form Wigner evaluations."""
    return BellValue(_chsh_from_wigner(lambda point: wigner_closed(params, point), setting))


def _chsh_points(setting: BellSetting):
    """The four (PhasePoint, sign) terms of the CHSH combination at ``setting``."""
    a, b, zero = setting.alpha, setting.beta, 0.0 + 0.0j
    terms = ((zero, zero, 1.0), (a, zero, 1.0), (zero, b, 1.0), (a, b, -1.0))
    return [(PhasePoint.from_complex(alpha, beta), sign) for alpha, beta, sign in terms]


def _chsh_from_wigner(wigner, setting: BellSetting) -> float:
    """B = pi^2 [W(0,0) + W(alpha,0) + W(0,beta) - W(alpha,beta)] for a Wigner function of a PhasePoint."""
    return math.pi ** 2 * sum(sign * wigner(point) for point, sign in _chsh_points(setting))


def maximize_bell(params: SqueezeParams):
    """Largest CHSH value over (J, theta, phi), in closed form.

    On the line theta = phi + pi/2 both single-displacement exponents equal
    a = m1 cos^2 phi + m2 sin^2 phi and cos(theta + phi) = -sin 2 phi, so
    B = 1 + 2 e^{-2Ja} - e^{-4Ja rho} with rho = 1 + m3 sin(2 phi) / a.
    Over J its one maximum sits at J* = ln rho / (2a (2 rho - 1)), where
    B = 1 + (2 - 1/rho) rho^{-1/(2 rho - 1)}; that grows with rho (proven symbolically),
    which is largest at phi = atan2(sqrt m1, sqrt m2).  There a = 2 m1 m2 / (m1 + m2)
    and, by the purity identity m1 m2 - m3^2 = 1, rho = 1 + m3 / sqrt(m1 m2)
    = 1 + tanh E_N.  So B_max depends on the log-negativity alone: 2 at
    lam = 0 (J* = 0), rising to 1 + 1.5 * 2^{-1/3} = 2.19055 as E_N grows.
    The line is the fixed set of (theta, phi) -> (phi + pi/2, theta - pi/2), an
    involution that keeps B (proven symbolically).  That no setting off it does
    better is checked numerically, not proven; the value is ``bell_function`` there.
    """
    c = coefficients(params)
    tanh_en = c.m3 / math.sqrt(c.m1 * c.m2)
    a = 2.0 * c.m1 * c.m2 / (c.m1 + c.m2)
    phi = math.atan2(math.sqrt(c.m1), math.sqrt(c.m2))
    # ln rho as log1p(tanh E_N) keeps J* accurate where E_N is small
    j = math.log1p(tanh_en) / (2.0 * a * (1.0 + 2.0 * tanh_en))
    setting = BellSetting(j=j, theta=phi + math.pi / 2.0, phi=phi)
    return setting, bell_function(params, setting)
