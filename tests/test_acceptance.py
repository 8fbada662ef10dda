"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here, criterion 03's in ``verify.TOLERANCES``,
which the CLI ``verify`` command shares; none is loosened at runtime: a
criterion that cannot hold fails loudly.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from asymsqueeze import (
    Coherent,
    PhasePoint,
    SqueezedVacuum,
    SqueezeParams,
    bell_from_wigner,
    bell_function,
    BellSetting,
    build_state_exponential,
    cf_closed,
    coefficients,
    covariance,
    covariance_numeric,
    enhanced_squeezing,
    fidelity_coherent_closed,
    fidelity_quadrature,
    fidelity_squeezed_closed,
    log_negativity,
    variances,
    wigner_closed,
)
from asymsqueeze import _kernels
from asymsqueeze.verify import PLANS, TOLERANCES, breached, oracle_deviations


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {detail}  {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_purity_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_rel_identity = 0.0
    worst_rel_det = 0.0
    worst_abs_moderate = 0.0
    for _ in range(1000):
        lam = rng.uniform(0.0, 5.0)
        gamma = rng.uniform(-5.0, 5.0)
        c = coefficients(SqueezeParams(lam, gamma))
        scale = max(1.0, c.m1 * c.m2)
        identity_dev = abs(c.m1 * c.m2 - c.m3 ** 2 - 1.0)
        worst_rel_identity = max(worst_rel_identity, identity_dev / scale)
        det_dev = abs(16.0 * covariance(SqueezeParams(lam, gamma)).determinant - 1.0)
        worst_rel_det = max(worst_rel_det, det_dev / max(1.0, scale ** 2))
        if lam <= 1.0 and abs(gamma) <= 1.0:
            worst_abs_moderate = max(worst_abs_moderate, identity_dev, det_dev)
    elapsed = time.monotonic() - start
    ok = (
        worst_rel_identity <= 1e-12
        and worst_rel_det <= 1e-12
        and worst_abs_moderate <= 1e-12
        and elapsed < 1.0
    )
    report(
        1,
        "purity identity",
        ok,
        f"1000 samples: rel dev identity {worst_rel_identity:.2e}, det {worst_rel_det:.2e}, "
        f"abs (moderate box) {worst_abs_moderate:.2e}, tol 1e-12, {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_02_symmetric_reduction():
    rng = np.random.default_rng(102)
    worst_en = 0.0
    for lam in np.arange(0.1, 1.51, 0.1):
        en = log_negativity(covariance(SqueezeParams(float(lam), 0.0)))
        worst_en = max(worst_en, abs(en - 2.0 * lam))
    lam = 0.65
    params = SqueezeParams(lam, 0.0)
    worst_w = 0.0
    worst_cf = 0.0
    for _ in range(100):
        pt = PhasePoint(*rng.uniform(-1.0, 1.0, size=4))
        w_ref = (1.0 / math.pi ** 2) * math.exp(
            -(pt.q1 ** 2 + pt.p1 ** 2 + pt.q2 ** 2 + pt.p2 ** 2) * math.cosh(2 * lam)
            + 2.0 * (pt.q1 * pt.q2 - pt.p1 * pt.p2) * math.sinh(2 * lam)
        )
        worst_w = max(worst_w, abs(wigner_closed(params, pt) - w_ref))
        alpha, beta = pt.alpha, pt.beta
        cf_ref = math.exp(
            -0.5 * (abs(alpha) ** 2 + abs(beta) ** 2) * math.cosh(2 * lam)
            + (alpha * beta).real * math.sinh(2 * lam)
        )
        worst_cf = max(worst_cf, abs(cf_closed(params, pt) - cf_ref))
    ok = worst_en <= 1e-12 and worst_w <= 1e-12 and worst_cf <= 1e-12
    report(
        2,
        "symmetric-state reduction",
        ok,
        f"E_N dev {worst_en:.2e}, Wigner dev {worst_w:.2e}, CF dev {worst_cf:.2e} (tol 1e-12)",
    )


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(103)
    start = time.monotonic()
    pairs = PLANS["fine"][0]
    points = [
        PhasePoint.from_complex(
            complex(*rng.uniform(-0.35, 0.35, 2)), complex(*rng.uniform(-0.35, 0.35, 2))
        )
        for _ in range(20)
    ]
    worst = {}
    for lam, gamma in pairs:
        for name, dev in oracle_deviations(SqueezeParams(lam, gamma), 40, points).items():
            worst[name] = max(worst.get(name, 0.0), dev)
    elapsed = time.monotonic() - start
    ok = not breached(worst) and elapsed < 60.0
    devs = ", ".join(f"{name} {worst[name]:.2e} ({tol:.0e})" for name, tol in TOLERANCES.items())
    report(3, "Fock-oracle equivalence (cutoff 40)", ok, f"{devs}, {elapsed:.1f}s (< 60 s)")


def test_criterion_04_bell_algebra():
    rng = np.random.default_rng(104)
    worst_combo = 0.0
    for _ in range(1000):
        params = SqueezeParams(rng.uniform(0, 1.5), rng.uniform(-2, 2))
        setting = BellSetting(
            j=rng.uniform(0, 1.0),
            theta=rng.uniform(0, 2 * math.pi),
            phi=rng.uniform(0, 2 * math.pi),
        )
        worst_combo = max(
            worst_combo,
            abs(bell_function(params, setting).value - bell_from_wigner(params, setting).value),
        )
    worst_reduced = 0.0
    for lam in np.linspace(0.05, 1.2, 12):
        for j in np.linspace(0.005, 0.5, 12):
            closed = bell_function(
                SqueezeParams(float(lam), 0.0), BellSetting(j=float(j), theta=math.pi, phi=0.0)
            ).value
            ch2 = math.cosh(2 * lam)
            reduced = (
                1.0
                + 2.0 * math.exp(-2.0 * j * ch2)
                - math.exp(-4.0 * j * math.exp(2.0 * lam))
            )
            worst_reduced = max(worst_reduced, abs(closed - reduced))
    ok = worst_combo <= 1e-12 and worst_reduced <= 1e-12
    report(
        4,
        "CHSH algebraic identities",
        ok,
        f"closed-vs-Wigner-combination {worst_combo:.2e}, opposite-phase reduction "
        f"{worst_reduced:.2e} (tol 1e-12)",
    )


def test_criterion_05_bell_physics():
    # (a) product state never violates on a dense settings grid
    js = np.linspace(0.02, 2.0, 25)
    angles = np.linspace(0.0, 2 * math.pi, 33)
    jj, tt, pp = np.meshgrid(js, angles, angles, indexing="ij")
    product = coefficients(SqueezeParams(0.0, 0.0))
    vals = _kernels.bell_values(product.m1, product.m2, product.m3, jj, tt, pp)
    product_max = float(np.max(np.abs(vals)))
    # (b) the known violation
    violation = bell_function(
        SqueezeParams(1.0, 0.0), BellSetting(j=0.01, theta=math.pi, phi=0.0)
    ).value
    violation_dev = abs(violation - 2.1109213521913222)
    # (c) monotone growth with asymmetry at small squeeze and displacement
    gammas = np.linspace(0.0, 2.0, 81)
    bells = np.array(
        [
            bell_function(SqueezeParams(0.1, float(g)), BellSetting(j=0.0025, theta=math.pi, phi=0.0)).value
            for g in gammas
        ]
    )
    diffs = np.diff(bells)
    ok = (
        product_max <= 2.0 + 1e-9
        and violation > 2.0
        and violation_dev <= 1e-6
        and bool(np.all(diffs >= -1e-9))
    )
    report(
        5,
        "CHSH physics",
        ok,
        f"product-state max |B| {product_max:.12f} (<= 2), violation B {violation:.6f} "
        f"(dev {violation_dev:.2e} from 2.110921), min gamma-increment {np.min(diffs):.2e}",
    )


def test_criterion_06_teleportation():
    start = time.monotonic()
    lams = np.linspace(0.0, 1.5, 10)
    gammas = np.linspace(-1.5, 1.5, 10)
    worst_quad = 0.0
    for lam in lams:
        for gamma in gammas:
            params = SqueezeParams(float(lam), float(gamma))
            closed = fidelity_coherent_closed(params).value
            worst_quad = max(
                worst_quad, abs(fidelity_quadrature(Coherent(0.4 - 0.3j), params).value - closed)
            )
            for r in (0.5, 1.0):
                closed_r = fidelity_squeezed_closed(params, r).value
                worst_quad = max(
                    worst_quad,
                    abs(fidelity_quadrature(SqueezedVacuum(r), params).value - closed_r),
                )
    worst_symmetric = 0.0
    for lam in lams:
        f = fidelity_coherent_closed(SqueezeParams(float(lam), 0.0)).value
        worst_symmetric = max(worst_symmetric, abs(f - (1.0 + math.tanh(lam)) / 2.0))
    spreads = []
    for params in (SqueezeParams(0.5, 0.8), SqueezeParams(1.0, -0.4)):
        values = [
            fidelity_quadrature(Coherent(b), params).value for b in (0j, 1.5 + 0j, -0.8 + 1.2j)
        ]
        spreads.append(max(values) - min(values))
    beta_spread = max(spreads)
    enhanced = (
        fidelity_coherent_closed(SqueezeParams(0.3, 0.5)).value
        > fidelity_coherent_closed(SqueezeParams(0.3, 0.0)).value
    )
    elapsed = time.monotonic() - start
    ok = (
        worst_quad <= 1e-6
        and worst_symmetric <= 1e-12
        and beta_spread <= 1e-9
        and enhanced
        and elapsed < 30.0
    )
    report(
        6,
        "teleportation fidelity",
        ok,
        f"quad-vs-closed {worst_quad:.2e} (1e-6), symmetric row {worst_symmetric:.2e} (1e-12), "
        f"amplitude spread {beta_spread:.2e} (1e-9), enhancement {enhanced}, "
        f"{elapsed:.1f}s (< 30 s)",
    )


def test_criterion_07_variances_and_squeezing_condition():
    worst = 0.0
    for lam, gamma in [(0.2, 1.0), (0.5, 0.8)]:
        params = SqueezeParams(lam, gamma)
        state = build_state_exponential(params, 30)
        sig = covariance_numeric(state).entries
        oracle_v1 = (sig[0, 0] + sig[2, 2] + 2.0 * sig[0, 2]) / 4.0
        oracle_v2 = (sig[1, 1] + sig[3, 3] + 2.0 * sig[1, 3]) / 4.0
        v1, v2 = variances(params)
        worst = max(worst, abs(v1 - oracle_v1), abs(v2 - oracle_v2))
    equivalence = True
    for lam in np.linspace(0.05, 1.5, 12):
        for gamma in np.concatenate([np.linspace(-3.0, -0.25, 8), np.linspace(0.25, 3.0, 8)]):
            params = SqueezeParams(float(lam), float(gamma))
            v1, v2 = variances(params)
            both = v1 > math.exp(2 * lam) / 4.0 and v2 < math.exp(-2 * lam) / 4.0
            if enhanced_squeezing(params) != both:
                equivalence = False
    ok = worst <= 1e-8 and equivalence
    report(
        7,
        "variances and squeezing condition",
        ok,
        f"oracle variance dev {worst:.2e} (1e-8), threshold<->inequalities equivalence {equivalence}",
    )


def test_criterion_08_determinism(tmp_path, child_env):
    pairs = []
    for name, args in (
        (
            "negativity.csv",
            ["negativity", "--lambda", "0:1.2:25", "--gamma", "-1:1:25", "--format", "csv"],
        ),
        (
            "bell.json",
            ["bell", "--lambda", "0:1:10", "--gamma", "0.5", "--j", "0.0025:0.25:10", "--format", "json"],
        ),
    ):
        files = []
        for run in (1, 2):
            out = tmp_path / f"{run}-{name}"
            subprocess.run(
                [sys.executable, "-m", "asymsqueeze.cli", *args, "--output", str(out)],
                check=True,
                env=child_env,
            )
            files.append(out.read_bytes())
        pairs.append(files[0] == files[1])
    ok = all(pairs)
    report(8, "deterministic sweep output", ok, f"byte-identical reruns: csv {pairs[0]}, json {pairs[1]}")
