"""Continuous-variable teleportation in the characteristic-function picture.

With the squeezed vacuum as the shared channel, the output characteristic
function factorizes as chi_out(eta) = chi_in(eta) * chi_E(eta*, eta), and the
fidelity for a pure input is

    F = (1/pi) Int d^2 eta |chi_in(eta)|^2 chi_E(-eta*, -eta).

For this channel chi_E(-eta*, -eta) = exp(f |eta|^2) with the (negative)
channel scalar f from ``coefficients``, which makes the two closed forms

    coherent input:        F = 1 / (1 - f)
    squeezed-vacuum input: F = 1 / sqrt(f^2 - 2 f cosh(2r) + 1)

The quadrature evaluator below does not use that reduction: it integrates the
pointwise product of input CF and channel CF numerically and serves as the
independent check on the closed forms.  It takes the channel CF from the
squeezer's symplectic matrix S alone.  The slot binding of chi_E(-eta*, -eta)
(which argument is mode 1) is pinned by the gamma = 0 reduction
F = (1 + tanh lam)/2; for this channel the two bindings coincide, because
swapping the modes maps S to the S of -gamma, and the form below is even in
gamma.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .errors import QuadratureDomainError, ValidationError
from .state import SqueezeParams, coefficients, squeezer_entries

_AMPLITUDE_MAX = 10.0
_SQUEEZE_MAX = 3.0
_DECAY_FLOOR = 1e-3
_NODES = 31  # odd, so eta = 0 is a node
# (Re eta, Im eta) -> the (q1, p1, q2, p2) vector of (alpha, beta) = (-eta*, -eta), over sqrt(2)
_ETA_TO_PHASE = np.array([[-1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class Coherent:
    """Coherent input state |beta>."""

    amplitude: complex = 0j

    def __post_init__(self):
        if not abs(complex(self.amplitude)) <= _AMPLITUDE_MAX:  # also rejects NaN and inf
            raise ValidationError(f"amplitude must be finite with |amplitude| <= {_AMPLITUDE_MAX}")


@dataclass(frozen=True)
class SqueezedVacuum:
    """Single-mode squeezed vacuum input exp[r/2 (a^2 - a'^2)] |0>."""

    r: float

    def __post_init__(self):
        if not abs(self.r) <= _SQUEEZE_MAX:  # also rejects NaN and inf
            raise ValidationError(f"r must be finite with |r| <= {_SQUEEZE_MAX}, got {self.r}")


InputState = Union[Coherent, SqueezedVacuum]


def _check_fidelity(value):
    """``value``, a fidelity or an array of them, if each lies in (0, 1] (to 1e-9).

    Raises ValidationError naming the first value outside, NaN included.
    """
    values = np.asarray(value)
    outside = values[~((0.0 < values) & (values <= 1.0 + 1e-9))]
    if outside.size:
        raise ValidationError(f"fidelity {outside[0]} outside (0, 1]")
    return value


@dataclass(frozen=True)
class Fidelity:
    value: float

    def __post_init__(self):
        _check_fidelity(self.value)


def cf_input(state: InputState, eta):
    """Characteristic function of the input state at eta, a scalar or an array.

    Written in x = Re eta, y = Im eta, so a scalar and an array element get
    the same floating-point operations:
    coherent  exp[-|eta|^2/2 + eta b* - eta* b],  eta b* - eta* b = 2i (y Re b - x Im b);
    squeezed  exp[-|eta|^2 cosh(2r)/2 - (eta^2 + eta*^2) sinh(2r)/4] = exp[-(e^{2r} x^2 + e^{-2r} y^2)/2],
              the second form free of the first's cancelling terms of size |eta|^2 cosh(2r)/2.
    """
    eta = np.asarray(eta, dtype=complex)
    x2, y2 = eta.real * eta.real, eta.imag * eta.imag
    if isinstance(state, Coherent):
        b = complex(state.amplitude)
        return np.exp(-0.5 * (x2 + y2) + 2j * (eta.imag * b.real - eta.real * b.imag))
    if isinstance(state, SqueezedVacuum):
        return np.exp(-0.5 * (x2 * math.exp(2.0 * state.r) + y2 * math.exp(-2.0 * state.r)))
    raise ValidationError(f"unsupported input state {state!r}")


def fidelity_quadrature(state: InputState, params: SqueezeParams) -> Fidelity:
    """Fidelity by 2D quadrature of the CF overlap integrand.

    chi_E(-eta*, -eta) is the state's CF exp(-|G x|^2 / 4), G x = ``_kernels.gaussian_forms``,
    at x = sqrt(2) P (Re eta, Im eta), P = ``_ETA_TO_PHASE``, so its exponent is
    -|g (Re eta, Im eta)|^2 / 2 with g = G P, the forms at P's columns.
    The real 2x2 form q = g^T g / 2 is built once per call as a Gram product, in which
    no large terms cancel: it holds -f I to about eps e^{2 lam} relative, the rounding
    of g's entries cosh(lam) - e^{+-gamma} sinh(lam).  The integrand
    |chi_in|^2 * chi_E is evaluated point by point on a 31 x 31 grid
    (``_NODES``, ``_kernels.teleport_integrand``).  It is a centered Gaussian,
    and so is |chi_in|^2 alone, with no cross term; each axis decay rate c is
    q's diagonal entry plus -2 ln|chi_in| at unit distance (eta = 1, eta = i),
    which cannot underflow there (|chi_in|^2 >= e^{-e^6} for |r| <= 3).  Each
    axis is scaled to radius R = 6/sqrt(c), where the discarded tail is about
    erfc(6) ~ 2e-17 of the integral.  On a Gaussian the trapezoid rule
    converges geometrically (Trefethen & Weideman, SIAM Review 56, 385, 2014):
    with N nodes over [-R, R] its sampling error on e^{-c x^2} is about
    2 e^{-pi^2 (N-1)^2 / 144} of the integral, 3e-27 at N = 31, so the
    grid's only visible error is rounding.  A cross term x y does not change
    this, because at fixed y the x^2 coefficient is still c.  A decay rate
    below ``_DECAY_FLOOR`` (or NaN) means a non-normalizable integrand and
    raises QuadratureDomainError (cannot happen inside the parameter
    envelopes).
    """
    g = np.array(_kernels.gaussian_forms(*squeezer_entries(params), *_ETA_TO_PHASE))
    q = g.T @ g / 2.0

    def chi_in(eta):
        return cf_input(state, eta)

    rates = np.diag(q) - 2.0 * np.log(np.abs(chi_in(np.array([1.0, 1j]))))
    if not min(rates) >= _DECAY_FLOOR:
        raise QuadratureDomainError(f"integrand decay rate {min(rates):.3e} too small")

    xs, ys = (np.linspace(-6.0 / math.sqrt(c), 6.0 / math.sqrt(c), _NODES) for c in rates)
    integrand = _kernels.teleport_integrand(xs, ys, q, chi_in)
    value = float(_trapezoid_weights(xs) @ integrand @ _trapezoid_weights(ys)) / math.pi
    return Fidelity(value)


def _trapezoid_weights(nodes):
    """Trapezoid-rule weights of an equally spaced node array.

    The step is taken as ``np.linspace`` takes it, (last - first)/(n - 1).
    nodes[1] - nodes[0] would carry the rounding of a node of size (n - 1)/2
    steps, up to about (n - 1)/4 ulps of the step.
    """
    weights = np.full(nodes.size, (nodes[-1] - nodes[0]) / (nodes.size - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def fidelity_values(f, r=0.0, difference=False):
    """The closed fidelity, or F(r) - F(0) with ``difference``, for channel scalar(s) f.

    The one home of both closed forms: 1/(1 - f), the coherent-input value, at
    r = 0, and 1/sqrt(f^2 - 2 f cosh(2r) + 1) otherwise.  The squeezed form at
    r = 0 equals the coherent one only to rounding, so every F(0) comes from
    the first.  f is a scalar or a grid; r is validated as ``SqueezedVacuum``
    validates it, and every fidelity taken, F(r) first, is range-checked as
    ``Fidelity`` checks one.
    """
    SqueezedVacuum(r)
    value = _check_fidelity(1.0 / (1.0 - f) if r == 0.0 else 1.0 / np.sqrt(f * f - 2.0 * f * math.cosh(2.0 * r) + 1.0))
    return value - fidelity_values(f) if difference else value


def fidelity_coherent_closed(params: SqueezeParams) -> Fidelity:
    """Closed-form fidelity 1/(1 - f) for any coherent input (``fidelity_values`` at r = 0).

    Independence of the coherent amplitude is structural: the amplitude enters
    chi_in only through a phase, which |chi_in|^2 removes.
    """
    return Fidelity(fidelity_values(coefficients(params).f))


def fidelity_squeezed_closed(params: SqueezeParams, r: float) -> Fidelity:
    """Closed-form fidelity 1/sqrt(f^2 - 2 f cosh(2r) + 1) for a squeezed input.

    At r = 0 this is the coherent-input value, bit for bit (``fidelity_values``).
    """
    return Fidelity(float(fidelity_values(coefficients(params).f, r)))


def fidelity_difference(params: SqueezeParams, r: float) -> float:
    """F(r) - F(0): how much harder a squeezed input is to teleport.

    Both terms come from ``fidelity_values``, so this is exactly
    ``fidelity_squeezed_closed(params, r).value - fidelity_coherent_closed(params).value``.
    """
    return float(fidelity_values(coefficients(params).f, r, difference=True))
