"""Closed forms against the Fock oracle at one parameter pair.

``oracle_deviations`` builds the oracle state once and measures how far each
closed form lies from its brute-force counterpart; ``TOLERANCES`` and
``breached`` judge them; ``PLANS`` and ``check_points`` give the CLI ``verify`` command's pairs
and points.  ``run`` is the suite over a list of pairs: that command and acceptance criterion 03
both call it.  Every maximum keeps NaN, so a NaN deviation fails wherever it falls.
"""

import math

import numpy as np

from . import fock
from .bell import BellSetting, _chsh_from_wigner, _chsh_points, bell_function
from .errors import CutoffTooSmallError
from .gaussian import PhasePoint
from .state import SqueezeParams, cf_closed, covariance, fock_amplitudes, log_negativity_closed, wigner_closed

#: Settings at which the closed CHSH value is checked against the combination
#: of four oracle Wigner values.
BELL_SETTINGS = (BellSetting(j=0.05, theta=math.pi, phi=0.0), BellSetting(j=0.02, theta=2.1, phi=0.7))

#: Largest deviation each check of ``oracle_deviations`` tolerates.
TOLERANCES = {
    "state-overlap": 1e-8,
    "covariance": 1e-8,
    "wigner": 1e-6,
    "char-fn": 1e-6,
    "log-negativity": 1e-5,
    "bell-combination": 1e-6,
}

#: Parameter pairs and phase-point count of the CLI ``verify`` per ``--grid``.
PLANS = {"coarse": (((0.3, 0.7), (0.5, 1.0)), 6),
         "fine": (((0.3, 0.7), (0.5, 1.0), (0.6, -0.5), (0.45, 0.0)), 20)}


def check_points(grid: str) -> list[PhasePoint]:
    """``PLANS[grid]``'s count of points, Re and Im of alpha and beta uniform in [-0.35, 0.35), seed 20240814."""
    draws = np.random.default_rng(20240814).uniform(-0.35, 0.35, (PLANS[grid][1], 4)).tolist()
    return [PhasePoint.from_complex(complex(ar, ai), complex(br, bi)) for ar, ai, br, bi in draws]


def oracle_deviations(params: SqueezeParams, cutoff: int, points) -> dict[str, float]:
    """Largest absolute deviation per check, keyed by check name.

    state-overlap is |1 - |<oracle|series>||; covariance the largest entry
    difference; wigner and char-fn the largest difference over ``points``;
    log-negativity the difference of the two values; bell-combination the
    largest CHSH difference over ``BELL_SETTINGS``.
    """
    oracle = fock.build_state_exponential(params, cutoff)
    series = fock_amplitudes(params, cutoff)
    # the check points and the Bell points, each distinct point once, in one phase-space call
    batch = list(dict.fromkeys([*points, *(pt for s in BELL_SETTINGS for pt, _ in _chsh_points(s))]))
    wigner, cf = (dict(zip(batch, values.tolist())) for values in fock.phase_space(oracle, batch))
    return {
        "state-overlap": abs(1.0 - oracle.overlap(series)),
        "covariance": float(np.max(np.abs(fock.covariance_numeric(oracle).entries - covariance(params).entries))),
        "wigner": float(np.max([abs(wigner[pt] - wigner_closed(params, pt)) for pt in points])),
        "char-fn": float(np.max([abs(cf[pt] - cf_closed(params, pt)) for pt in points])),
        "log-negativity": abs(fock.log_negativity_numeric(oracle) - log_negativity_closed(params)),
        "bell-combination": float(np.max(
            [abs(bell_function(params, s).value - _chsh_from_wigner(wigner.__getitem__, s)) for s in BELL_SETTINGS]
        )),
    }


def breached(deviations: dict[str, float]) -> list[str]:
    """The checks whose deviation is not within its tolerance (NaN included), in ``TOLERANCES`` order."""
    return [name for name, tol in TOLERANCES.items() if not deviations[name] <= tol]


def run(pairs, cutoff: int, points) -> tuple[dict[str, float], list[str]]:
    """``oracle_deviations`` at each (lambda, gamma) of ``pairs``: the largest deviation per check over the
    pairs (NaN if any is), and per breaching pair a text of its checks, the pair, ``cutoff`` and ``_passing_cutoff``."""
    per_pair = {pair: oracle_deviations(SqueezeParams(*pair), cutoff, points) for pair in pairs}
    worst = {name: float(np.max([devs[name] for devs in per_pair.values()])) for name in TOLERANCES}
    return worst, [f"{', '.join(names)} at {pair}, cutoff {cutoff}; "
                   f"{_passing_cutoff(SqueezeParams(*pair), cutoff, points)}"
                   for pair, devs in per_pair.items() if (names := breached(devs))]


def _passing_cutoff(params, cutoff, points):
    """The smallest of cutoff+5, cutoff+10, ..., 2*cutoff at which every check passes, as text;
    the search stops at the first whose states cannot be built, and names its error."""
    for larger in range(cutoff + 5, 2 * cutoff + 1, 5):
        try:
            if not breached(oracle_deviations(params, larger, points)):
                return f"cutoff {larger} passes"
        except CutoffTooSmallError as exc:
            return f"no cutoff up to {larger - 5} passes, and cutoff {larger} fails: {exc}"
    return f"no cutoff up to {2 * cutoff} passes"
