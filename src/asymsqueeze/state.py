"""The asymmetric two-mode squeezed vacuum and its closed forms.

The state is produced by acting on the two-mode vacuum with

    V = exp[-i (lam * e^{gamma} * Q1 P2  +  lam * e^{-gamma} * Q2 P1)],

a two-parameter generalization of the usual two-mode squeezer (recovered at
gamma = 0).  For gamma != 0 the generator mixes single-mode squeezing of each
mode into the two-mode squeezing, which is what makes the entanglement,
nonlocality and teleportation behaviour richer than the symmetric case.

W, the CF and ``teleport``'s channel CF take G = S^T Omega (S = ``heisenberg_transform``),
pi^2 W(x) = exp(-|G x|^2); the other closed forms take the three coefficients

    m1 = cosh^2(lam) + e^{2 gamma}  sinh^2(lam)
    m2 = cosh^2(lam) + e^{-2 gamma} sinh^2(lam)
    m3 = cosh(gamma) sinh(2 lam)

which satisfy the purity identity m1 m2 - m3^2 = 1; that identity and every closed
form's algebra, from the generator on, are proven in ``tests/test_certificate.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .errors import CutoffTooSmallError, ValidationError
from .fock import _DEFICIT_LIMIT, FockState2
from .gaussian import SYMPLECTIC_FORM, CovarianceMatrix

if TYPE_CHECKING:
    from .gaussian import PhasePoint

#: Numerical-sanity envelope.  The exponent coefficients grow like
#: e^{2 lam + 2|gamma|}; beyond this box double precision degrades and the
#: closed forms stop being trustworthy, so inputs are rejected outright.
LAMBDA_MAX = 5.0
GAMMA_MAX = 5.0


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze magnitude ``lam`` >= 0 and asymmetry ``gamma``.

    The generator weights lam * e^{+-gamma} are exposed as accessors rather
    than stored, so the pair (lam, gamma) stays the single source of truth.
    """

    lam: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.gamma)):
            raise ValidationError("squeeze parameters must be finite")
        if self.lam < 0.0:
            raise ValidationError(f"squeeze magnitude must be >= 0, got {self.lam}")
        if self.lam > LAMBDA_MAX or abs(self.gamma) > GAMMA_MAX:
            raise ValidationError(
                f"parameters ({self.lam}, {self.gamma}) outside the sanity envelope "
                f"lam <= {LAMBDA_MAX}, |gamma| <= {GAMMA_MAX}"
            )

    @property
    def lam1(self):
        """Weight of the Q1 P2 term in the generator."""
        return self.lam * math.exp(self.gamma)

    @property
    def lam2(self):
        """Weight of the Q2 P1 term in the generator."""
        return self.lam * math.exp(-self.gamma)


@dataclass(frozen=True)
class Coefficients:
    """The four scalars of sigma, E_N, the fidelities, the Fock series and the CHSH closed form.

    m1, m2, m3 are twice sigma's entries; f the teleportation
    scalar (always negative, so fidelities stay inside (0, 1]).  From
    ``coefficients_grid`` each field is an array over the grid."""

    m1: float
    m2: float
    m3: float
    f: float


def _lambda_terms(lam):
    """Every function of lam alone that the coefficients use."""
    sh = math.sinh(lam)
    return (
        sh,
        math.cosh(lam) ** 2,
        sh ** 2,
        math.sinh(2.0 * lam),
        math.exp(-2.0 * lam),
        math.exp(-lam),
    )


def _gamma_terms(gamma):
    """Every function of gamma alone that the coefficients use."""
    return (
        math.exp(2.0 * gamma),
        math.exp(-2.0 * gamma),
        math.cosh(gamma),
        4.0 * math.sinh(0.5 * gamma) ** 2,
    )


def _combine(lam_terms, gamma_terms) -> Coefficients:
    """The four coefficients from the terms of each variable.

    Only + - * / appear here, each correctly rounded, so broadcast arrays of
    terms give bit for bit the coefficients that floats give.
    """
    sh, c2, s2, sinh2l, e2l, el = lam_terms
    e2g, em2g, chg, shhalf4 = gamma_terms
    m1 = c2 + e2g * s2
    m2 = c2 + em2g * s2
    m3 = chg * sinh2l
    # f = m3 - c2 - cosh(2 gamma) s2, regrouped so that no large terms cancel
    f = -e2l + shhalf4 * sh * (el - chg * sh)
    return Coefficients(m1=m1, m2=m2, m3=m3, f=f)


def coefficients(params: SqueezeParams) -> Coefficients:
    """m1, m2, m3 and f from hyperbolic functions of (lam, gamma)."""
    return _combine(_lambda_terms(params.lam), _gamma_terms(params.gamma))


def coefficients_grid(lams, gammas) -> Coefficients:
    """``coefficients`` over the grid lams x gammas, each field a (lams, gammas) array.

    The hyperbolic functions are taken once per axis value and only the
    arithmetic runs per grid point; every entry equals the scalar
    ``coefficients`` at its (lam, gamma) bit for bit.  Each axis value is
    validated as ``SqueezeParams`` validates it.
    """
    lam_terms = [_lambda_terms(SqueezeParams(lam).lam) for lam in np.asarray(lams, dtype=float).tolist()]
    gamma_terms = [_gamma_terms(SqueezeParams(0.0, g).gamma) for g in np.asarray(gammas, dtype=float).tolist()]
    return _combine(np.array(lam_terms).T[:, :, None], np.array(gamma_terms).T[:, None, :])


def covariance(params: SqueezeParams) -> CovarianceMatrix:
    """Covariance matrix in (q1, p1, q2, p2) ordering.

    Blocks: mode 1 diag(m2, m1)/2, mode 2 diag(m1, m2)/2, cross
    diag(m3, -m3)/2.  det sigma = 1/16 (pure state).
    """
    c = coefficients(params)
    sig = np.array(
        [
            [c.m2, 0.0, c.m3, 0.0],
            [0.0, c.m1, 0.0, -c.m3],
            [c.m3, 0.0, c.m1, 0.0],
            [0.0, -c.m3, 0.0, c.m2],
        ]
    ) / 2.0
    return CovarianceMatrix(sig)


def _gaussian_form(params):
    """G = S^T Omega (S = ``heisenberg_transform``): pi^2 W(x) = exp(-|G x|^2), CF(x) = exp(-|G x|^2 / 4)."""
    return heisenberg_transform(params).T @ SYMPLECTIC_FORM


def _wigner_exponent(params, point):
    """-|G x|^2 at x = (q1, p1, q2, p2), the exponent of pi^2 W."""
    v = _gaussian_form(params) @ np.array([point.q1, point.p1, point.q2, point.p2])
    return -(v @ v)


def wigner_closed(params: SqueezeParams, point: PhasePoint) -> float:
    """Closed-form Wigner density exp(-|G x|^2) / pi^2 at a phase-space point, G = S^T Omega.

    |G x|^2 = x^T sigma^{-1} x / 2 (proven symbolically) cancels only G x's products, of size
    e^{2 lam + |gamma|} |x|, to |G x|: W holds 1e-9 relative at the state's scale across the box.
    """
    return math.exp(_wigner_exponent(params, point)) / math.pi ** 2


def log_negativity_closed(params: SqueezeParams) -> float:
    """Closed-form logarithmic negativity E_N = asinh(m3).

    For this pure state the smallest partially transposed symplectic
    eigenvalue is n_min = (sqrt(1 + m3^2) - m3)/2, so -ln(2 n_min) =
    ln(m3 + sqrt(1 + m3^2)); m3 >= 0 keeps it non-negative (proven symbolically).
    It holds 50 digits to 1e-14 max(1, E_N), free of the determinant cancellation
    of the generic ``log_negativity(covariance(params))`` at large lam and |gamma|.
    """
    return float(log_negativity_values(coefficients(params).m3))


def log_negativity_values(m3):
    """E_N = asinh(m3) over a scalar m3 or a grid, as an array: libm's asinh (numpy's may differ in the last place)."""
    return np.fromiter(map(math.asinh, np.ravel(m3).tolist()), float).reshape(np.shape(m3))


def cf_closed(params: SqueezeParams, point: PhasePoint) -> float:
    """Closed-form symmetric-order characteristic function exp(-|G x|^2 / 4), pi^2 W = exp(-|G x|^2).

    A pure state has sigma^{-1} = 4 Omega sigma Omega^T, so the CF's kernel Omega^T sigma Omega
    is sigma^{-1}/4 (proven symbolically); it holds as ``wigner_closed`` does.
    """
    return math.exp(_wigner_exponent(params, point) / 4.0)


def variances(params: SqueezeParams) -> tuple[float, float]:
    """Variances of x1 = (Q1 + Q2)/2 and x2 = (P1 + P2)/2.

    var x1 = (m1 + m2 + 2 m3)/8 and var x2 = (m1 + m2 - 2 m3)/8, taken as
    -f/4 because f is computed without the cancellation of large terms.
    """
    c = coefficients(params)
    return (c.m1 + c.m2 + 2.0 * c.m3) / 8.0, -c.f / 4.0


def enhanced_squeezing(params: SqueezeParams) -> bool:
    """Whether the asymmetry improves on the symmetric-state squeezing.

    True iff 0 < tanh(lam) < 1/(1 + cosh(gamma)).  When true (and gamma != 0)
    the x1 variance strictly exceeds e^{2 lam}/4 while the x2 variance drops
    strictly below e^{-2 lam}/4.  Undefined at lam = 0.
    """
    if params.lam <= 0.0:
        raise ValidationError("squeezing-enhancement condition requires lam > 0")
    t = math.tanh(params.lam)
    return 0.0 < t < 1.0 / (1.0 + math.cosh(params.gamma))


def heisenberg_transform(params: SqueezeParams) -> np.ndarray:
    """Symplectic matrix S of the squeezer in (q1, p1, q2, p2) ordering.

    Q1 -> Q1 cosh(lam) + Q2 e^{-gamma} sinh(lam)     (S[::2, ::2], the q block)
    Q2 -> Q2 cosh(lam) + Q1 e^{+gamma} sinh(lam)
    P1 -> P1 cosh(lam) - P2 e^{+gamma} sinh(lam)     (S[1::2, 1::2], the p block)
    P2 -> P2 cosh(lam) - P1 e^{-gamma} sinh(lam)
    Both blocks have unit determinant and the p block is the transpose-inverse
    of the q block, so S Omega S^T = Omega; the transformed vacuum S S^T / 2
    reproduces ``covariance``.  W, the CF and the channel CF take S as G = S^T Omega
    (``_gaussian_form``); the tests take S as the Heisenberg-picture reference.
    """
    ch = math.cosh(params.lam)
    sh = math.sinh(params.lam)
    eg = math.exp(params.gamma)
    return np.array(
        [
            [ch, 0.0, sh / eg, 0.0],
            [0.0, ch, 0.0, -sh * eg],
            [sh * eg, 0.0, ch, 0.0],
            [0.0, -sh / eg, 0.0, ch],
        ]
    )


def fock_amplitudes(params: SqueezeParams, cutoff: int) -> FockState2:
    """Two-mode Fock amplitudes of the state up to ``cutoff`` per mode.

    The state is (2/sqrt(L)) exp[A(b'^2 - a'^2) + B a'b'] |00> (primes denote creation
    operators), with L = m1 + m2 + 2, A = sinh(2 gamma) sinh^2(lam)/L = (m1 - m2)/(2L), a form
    that cannot cancel, and B = 2 m3/L: proven exactly in ``tests/test_certificate.py``.  Its
    table follows the ladder recurrences of ``_kernels.fock_series_table``.  A deficit
    1 - sum |c|^2 above ``fock._DEFICIT_LIMIT`` (1e-6) raises CutoffTooSmallError, and so does a
    table ``FockState2`` refuses: "Fock series at cutoff ... cancels to noise for ...", as the
    two terms of a ladder row do at large cutoffs (from cutoff 130 at (1.2, 1.0); README).
    """
    if cutoff < 2:
        raise ValidationError(f"cutoff must be >= 2, got {cutoff}")
    c = coefficients(params)
    big_l = c.m1 + c.m2 + 2.0
    a_coeff = math.sinh(2.0 * params.gamma) * math.sinh(params.lam) ** 2 / big_l
    b_coeff = 2.0 * c.m3 / big_l
    try:
        state = FockState2(_kernels.fock_series_table(a_coeff, b_coeff, 2.0 / math.sqrt(big_l), int(cutoff)))
    except CutoffTooSmallError as exc:
        noise = f"Fock series at cutoff {cutoff} cancels to noise for {params}"
        raise CutoffTooSmallError(noise, exc.deficit) from None
    if state.norm_deficit > _DEFICIT_LIMIT:
        raise CutoffTooSmallError(f"cutoff {cutoff} leaves too much of the state outside the basis", state.norm_deficit)
    return state
