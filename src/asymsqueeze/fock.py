"""Brute-force verification layer in a truncated two-mode Fock space.

Everything here is deliberately independent of the closed forms in
``state``/``gaussian``: the state is built by the Chebyshev expansion of exp(-i G)
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), summed by Clenshaw's recurrence
on the two parity blocks of the amplitude matrix (``build_state_exponential``), good
to a few 1e-15 per amplitude; covariance, Wigner, characteristic function and
logarithmic negativity are recomputed from raw operator algebra.  Agreement between
the two routes is what certifies the closed forms.

Wigner and characteristic function use the truncated displacements
D(alpha) = exp(alpha a' - alpha* a), unitary on the retained subspace.  With the
quadrature q = O diag(x) O^T, cached per cutoff, and R = e^{i(phi + pi/2) n} for
alpha = |alpha| e^{i phi}, D(alpha) = R O e^{-i sqrt2 |alpha| x} O^T R^dag.  So
``phase_space`` takes Z = O^T R1^dag C R2* O (two real BLAS products) per phase
point, and CF = sum |Z_kl|^2 e_k f_l with e = e^{-i sqrt2 |alpha| x} and
f = e^{-i sqrt2 |beta| x}; O is built so that O^T Pi O is the reversal
k -> k' = cutoff - k, which gives pi^2 W = sum e_k^2 conj(Z_kl) Z_k'l' f_l^2.

The two-mode state is held as its (cutoff+1) x (cutoff+1) amplitude matrix C,
on which an operator A x B acts as A C B^T; no joint-space matrix is ever
formed.  Evaluations are self-contained and reentrant; parallelize across
parameter points rather than inside a single evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CutoffTooSmallError, InvalidCovarianceError, ValidationError
from .gaussian import CovarianceMatrix

if TYPE_CHECKING:
    from .gaussian import PhasePoint
    from .state import SqueezeParams

_DEFICIT_LIMIT = 1e-6
_ORACLE_DEFICIT = 1e-8
_EPS = np.finfo(float).eps


def _quadratures(dim):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # the annihilation operator
    q = (a + a.T) / math.sqrt(2.0)
    p = -1j * (a - a.T) / math.sqrt(2.0)
    return q, p


@functools.cache
def _quadrature_eigh(dim):
    """q = O diag(x) O^T, read-only, with x[::-1] = -x and (-1)^n O = O[:, ::-1].

    The lower half of O is the parity image of the upper half, and an odd dim's
    null vector, even in n, has its odd entries (rounding noise) zeroed."""
    x, o = np.linalg.eigh(_quadratures(dim)[0])
    half = dim // 2
    x[:half] = -x[:-half - 1:-1]
    o[:, :half] = ((-1.0) ** np.arange(dim))[:, None] * o[:, :-half - 1:-1]
    if dim % 2:
        x[half] = o[1::2, half] = 0.0
    x.flags.writeable = o.flags.writeable = False
    return x, o


@dataclass(frozen=True, eq=False)
class FockState2:
    """Truncated two-mode state: amplitude tensor c[m, n], 0 <= m, n <= cutoff.

    ``cutoff`` and ``norm_deficit`` = 1 - sum |c|^2 (truncation loss, never renormalized away)
    are read off the table.  A table that is not square and at least 1 x 1 raises
    ValidationError; a deficit below -(cutoff+1)^2 eps (the sum's rounding), any
    |c| > 1 or a NaN raises CutoffTooSmallError, as no truncated unit vector has one.
    """

    cutoff: int = field(init=False)
    amplitudes: np.ndarray
    norm_deficit: float = field(init=False)

    def __post_init__(self):
        table = np.asarray(self.amplitudes, dtype=complex)
        if table.ndim != 2 or not table.shape[0] == table.shape[1] > 0:
            raise ValidationError(f"amplitudes must be a square table of at least 1 x 1, got shape {table.shape}")
        deficit = float(1.0 - np.sum(np.abs(table) ** 2))
        for name, value in (("cutoff", table.shape[0] - 1), ("amplitudes", table), ("norm_deficit", deficit)):
            object.__setattr__(self, name, value)
        if not (deficit >= -table.size * _EPS and np.max(np.abs(table)) <= 1.0):
            raise CutoffTooSmallError("amplitudes do not form a truncated unit vector", deficit)

    def edge_mass(self) -> float:
        """Probability mass in the outermost two rows/columns.

        The exponential construction conserves the norm (to about 1e-14), so
        the deficit alone cannot flag truncation damage; mass piled up at the
        basis edge can.
        """
        c = np.abs(self.amplitudes) ** 2
        k = self.cutoff - 1
        return float(np.sum(c[k:, :]) + np.sum(c[:k, k:]))

    def overlap(self, other: FockState2) -> float:
        """|<self|other>| of two states on the same cutoff."""
        if self.cutoff != other.cutoff:
            raise ValidationError("overlap requires matching cutoffs")
        return float(abs(np.sum(np.conj(self.amplitudes) * other.amplitudes)))


def _chebyshev_weights(bound):
    """J_0(R), 2 J_1(R), 2 J_2(R), ... up to the first k > R with |J_k(R)| < eps.

    Miller's backward recurrence from far past that k, normalized by
    J_0 + 2 sum J_2k = 1.  Below R = 2 eps that k is 1 and J_0 = 1 - R^2/4
    rounds to 1, which also spares 2k/R its overflow.
    """
    if bound < 2.0 * _EPS:
        return [1.0]
    top = int(bound + 16.0 * bound ** (1.0 / 3.0)) + 12
    p = [0.0, 1.0]
    for k in range(top, 0, -1):
        p.append(2.0 * k / bound * p[-1] - p[-2])
    p = p[:0:-1]
    norm = p[0] + 2.0 * math.fsum(p[2::2])
    stop = next(k for k in range(math.floor(bound) + 1, top) if abs(p[k]) < _EPS * abs(norm))
    return [p[0] / norm] + [2.0 * v / norm for v in p[1:stop]]


def _row_sum_bound(lam1, lam2, dim):
    """max over (m, n) of |lam+|(sqrt(mn) + sqrt((m+1)(n+1))) + |lam-|(sqrt((m+1)n) + sqrt(m(n+1)))."""
    down, up = np.sqrt(np.arange(dim)), np.append(np.sqrt(np.arange(1.0, dim)), 0.0)  # a' kills the top state
    pair, cross = np.outer(down, down) + np.outer(up, up), np.outer(up, down) + np.outer(down, up)
    return float(np.max(abs(lam1 + lam2) / 2.0 * pair + abs(lam1 - lam2) / 2.0 * cross))


def build_state_exponential(params: SqueezeParams, cutoff: int) -> FockState2:
    """Apply exp(-i G) to |00> with G = lam1 Q1 P2 + lam2 Q2 P1 truncated.

    The exponential acts on the amplitude matrix by its Chebyshev expansion
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984)
    exp(-i G) = J_0(R) + 2 sum_k (-i)^k J_k(R) T_k(G/R), with R >= ||G|| the
    smaller of (|lam1| + |lam2|) ||q||^2 (p is unitarily similar to q) and the
    largest row sum of |G|: G = lam+ S + lam- L with lam+- = (lam1 +- lam2)/2,
    S = -i(a a - a'a') and L = -i(a'a - a a'), whose terms take |m, n> to four
    distinct states.  The terms phi_k = (-i)^k T_k(G/R)|00> are real, of norm at
    most 1, and follow phi_{k+1} = M phi_k + phi_{k-1} with M = (2/R)(-i G), so
    none of them cancel.  The series stops at the first k > R with |J_k(R)| < eps,
    after about R + 6 R^(1/3) terms (155 at (0.5, 1.0), cutoff 40, with R = 104;
    72 at (0.45, 0.0), where the row sum takes R from 61 to 36, against 104).
    Clenshaw's recurrence (Math. Tables Aids Comput. 9, 118, 1955) sums it from the
    end, b_k = w_k |00> + M b_{k+1} + b_{k+2} (of norm below 1.3 from cutoff 40 to
    220), and c = w_0 |00> + M b_1 / 2 + b_2, each weight one scalar add.
    G changes each photon number by one, so c[m, n] = 0 for m + n odd, and M takes
    the [even, even] block of C to the [odd, odd] one and back: two batched products
    on the two blocks stacked, a quarter of the flops of d x d products.  The result
    agrees with a dense eigen-decomposition of the joint-space generator to a few
    1e-15 per amplitude and keeps the norm to a few 1e-15, so truncation failure is
    detected through the edge-shell mass instead of the norm deficit.
    """
    if cutoff < 10:
        raise ValidationError(f"exponential construction needs cutoff >= 10, got {cutoff}")
    d, h = cutoff + 1, (cutoff + 2) // 2
    lam1, lam2 = params.lam1, params.lam2
    bound = min((abs(lam1) + abs(lam2)) * _quadrature_eigh(d)[0][-1] ** 2, _row_sum_bound(lam1, lam2, d))
    weights = _chebyshev_weights(bound)
    # p = -i p' with p' real, so -i G C = lam1 q C p' - lam2 p' C q: with X_eo = X[even, odd] padded to
    # h x h, the odd block D goes to the even block lam1 q_eo D p'_oe - lam2 p'_eo D q_oe, and back.
    q, p = _quadratures(d)
    padded = [np.pad(x, (0, 2 * h - d)) for x in (q, (1j * p).real)]
    q_b, p_b = (np.stack([x[0::2, 1::2], x[1::2, 0::2]]) for x in padded)  # [X_eo, X_oe]
    scale = 2.0 / bound if len(weights) > 1 else 0.0
    left = np.concatenate([(scale * lam1) * q_b, (-scale * lam2) * p_b], axis=2)
    right = np.stack([p_b[::-1], q_b[::-1]], axis=1)  # [[p'_oe, q_oe], [p'_eo, q_eo]]

    def apply(blocks):  # M on the stack [even, odd]
        return left @ (blocks[::-1, None] @ right).reshape(2, 2 * h, h)

    b1, b2 = np.zeros((2, h, h)), np.zeros((2, h, h))
    b1[0, 0, 0] = weights[-1]  # b_N; with one weight the scale is 0, and b_N enters only as 0 * b_N
    for weight in weights[-2:0:-1]:
        b1, b2 = apply(b1) + b2, b1
        b1[0, 0, 0] += weight
    blocks = 0.5 * apply(b1) + b2
    blocks[0, 0, 0] += weights[0]
    c = np.zeros((d, d))
    c[0::2, 0::2], c[1::2, 1::2] = blocks[0], blocks[1, : d // 2, : d // 2]
    state = FockState2(c)
    damage, measure = max((state.norm_deficit, "norm deficit"), (state.edge_mass(), "edge mass"))
    if damage > _DEFICIT_LIMIT:
        raise CutoffTooSmallError(
            f"cutoff {cutoff} too small for parameters ({params.lam}, {params.gamma})", damage, measure
        )
    return state


def _require_converged(state):
    if state.norm_deficit > _ORACLE_DEFICIT:
        raise CutoffTooSmallError("oracle requires a state with norm deficit below 1e-8", state.norm_deficit)


def covariance_numeric(state: FockState2) -> CovarianceMatrix:
    """Symmetrized second moments of the truncated quadrature operators; moments that miss the
    uncertainty relation (exact ones never do) raise CutoffTooSmallError with the edge mass."""
    _require_converged(state)
    d = state.cutoff + 1
    q, p = _quadratures(d)
    c = state.amplitudes
    # (A x B)|psi> in amplitude-matrix form is A C B^T; quadratures act on one
    # mode at a time.  <psi|(X_i X_j + X_j X_i)/2|psi> = Re <X_i psi|X_j psi>,
    # the real part of the Gram matrix of the four vectors.
    vecs = np.stack([q @ c, p @ c, c @ q.T, c @ p.T]).reshape(4, -1)  # Q1, P1, Q2, P2 applied to psi
    try:
        return CovarianceMatrix((vecs.conj() @ vecs.T).real)
    except InvalidCovarianceError as exc:
        message = f"cutoff {state.cutoff} truncates the moments: {exc}"
        raise CutoffTooSmallError(message, state.edge_mass(), "edge mass") from None


def phase_space(state: FockState2, points) -> tuple[np.ndarray, np.ndarray]:
    """Wigner function and CF <psi| D1(alpha) D2(beta) |psi> at each of ``points``.

    One transform of the amplitude matrix per point (module docstring); no entry depends
    on the rest of the batch; the state passes the readers' norm-deficit gate first, and
    every point the cutoff/4 guard, NaN failing it.
    """
    _require_converged(state)
    bound = state.cutoff / 4.0
    pairs = [(pt.alpha, pt.beta) for pt in points]
    if not all(abs(z) <= bound for pair in pairs for z in pair):
        raise ValidationError(f"displacement magnitude exceeds cutoff/4 = {bound}; enlarge the basis")
    x, o = _quadrature_eigh(state.cutoff + 1)
    turn, w = -1j * np.arange(state.cutoff + 1), -1j * math.sqrt(2.0) * x
    wigner, cf = np.empty(len(pairs)), np.empty(len(pairs), dtype=complex)
    for i, (alpha, beta) in enumerate(pairs):
        u, v = (np.exp((math.atan2(z.imag, z.real) + math.pi / 2) * turn) for z in (alpha, beta))
        left = (o.T @ (u[:, None] * state.amplitudes * v).view(float)).view(complex)  # O^T R1^dag C R2*
        zt = (o.T @ np.ascontiguousarray(left.T).view(float)).view(complex)  # O^T (O^T X)^T = Z^T
        e, f, zc = np.exp(abs(alpha) * w), np.exp(abs(beta) * w), zt.conj()
        cf[i] = f @ (zc * zt) @ e
        wigner[i] = ((f * f) @ (zc * zt[::-1, ::-1]) @ (e * e)).real / math.pi ** 2
    return wigner, cf


def wigner_numeric(state: FockState2, point: PhasePoint) -> float:
    """Displaced-parity expectation / pi^2 with truncated displacements: ``phase_space`` at one point."""
    return float(phase_space(state, [point])[0][0])


def cf_numeric(state: FockState2, point: PhasePoint) -> complex:
    """<psi| D1(alpha) D2(beta) |psi> with truncated displacements: ``phase_space`` at one point."""
    return complex(phase_space(state, [point])[1][0])


def log_negativity_numeric(state: FockState2) -> float:
    """ln of the trace norm of the partial transpose of |psi><psi|.

    For a pure state that trace norm is (sum_i s_i)^2, with s_i the Schmidt
    coefficients: the singular values of the amplitude matrix.
    """
    _require_converged(state)
    schmidt = np.linalg.svd(state.amplitudes, compute_uv=False)
    return 2.0 * math.log(float(np.sum(schmidt)))
