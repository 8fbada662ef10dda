"""Tests of the benchmark itself: the reference and the checks.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from asymsqueeze import cli  # noqa: E402


def test_reference_reduces_to_the_symmetric_squeezer():
    lam = np.linspace(0.0, 1.5, 16)
    gauss = reference.Gaussian(lam, np.zeros_like(lam))
    np.testing.assert_allclose(gauss.log_negativity(), 2.0 * lam, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gauss.fidelity(0.0), (1.0 + np.tanh(lam)) / 2.0, rtol=0, atol=1e-12)


def test_reference_covariance_is_pure():
    lam, gamma = np.meshgrid(np.linspace(0.0, 1.5, 16), np.linspace(-2.0, 2.0, 17))
    gauss = reference.Gaussian(lam, gamma)
    assert np.all(gauss.det == 1.0 / 16.0)
    moderate = (lam <= 1.0) & (np.abs(gamma) <= 1.0)
    dets = np.linalg.det(gauss.sigma)
    np.testing.assert_allclose(16.0 * dets[moderate], 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gauss.sigma @ gauss.sigma_inv, np.broadcast_to(np.eye(4), gauss.sigma.shape), atol=1e-9)


def _mp_reference(lam, gamma, j, theta, phi, r):
    """The same quantities at 50 digits: sigma by mpmath expm, E_N by mpmath eig."""
    mpmath.mp.dps = 50
    k = mpmath.matrix(reference.hamiltonian_matrix(lam, gamma).tolist())
    om = mpmath.matrix(reference.OMEGA.tolist())
    s = mpmath.expm(om * k)
    sigma = s * s.T / 2
    flip = mpmath.diag([1, 1, 1, -1])
    nu = min(abs(e) for e in mpmath.eig(om * (flip * sigma * flip) * 1j)[0])
    e_n = max(mpmath.mpf(0), -mpmath.log(2 * nu))
    inv = sigma ** -1
    amp = mpmath.sqrt(2 * mpmath.mpf(j))
    a = mpmath.matrix([amp * mpmath.cos(phi), amp * mpmath.sin(phi), 0, 0])
    b = mpmath.matrix([0, 0, amp * mpmath.cos(theta), amp * mpmath.sin(theta)])
    norm = 4 * mpmath.pi ** 2 * mpmath.sqrt(mpmath.det(sigma))
    w = lambda x: mpmath.exp(-(x.T * inv * x)[0] / 2) / norm  # noqa: E731
    chsh = mpmath.pi ** 2 * (w(a * 0) + w(a) + w(b) - w(a + b))
    t = mpmath.matrix([[-1, 0], [0, 1], [-1, 0], [0, -1]])
    form = t.T * (om.T * sigma * om) * t + mpmath.diag([mpmath.exp(2 * r), mpmath.exp(-2 * r)])
    return float(e_n), float(chsh), float(1 / mpmath.sqrt(mpmath.det(form)))


@pytest.mark.parametrize(
    "lam, gamma", [(0.3, 0.7), (1.5, 2.0), (1.5, -2.0), (0.05, -1.3), (1.2, 0.1), (0.6, -5.0)]
)
def test_reference_agrees_with_50_digit_arithmetic(lam, gamma):
    j, theta, phi, r = 0.03, 2.9, 0.4, 1.0
    e_n, chsh, fid = _mp_reference(lam, gamma, j, theta, phi, r)
    gauss = reference.Gaussian(lam, gamma)
    # ten times below the tolerances the checks apply (README.md)
    assert abs(float(gauss.log_negativity()) - e_n) <= 1e-12 * max(1.0, e_n)
    assert abs(float(gauss.chsh(j, theta, phi)) - chsh) <= 1e-13
    assert abs(float(gauss.fidelity(r)) - fid) <= 1e-13


def test_reference_fidelity_in_the_outer_envelope():
    # well defined where the program's quadrature probe underflows today
    assert float(reference.Gaussian(0.6, -5.0).fidelity(0.0)) == pytest.approx(2.3e-4, rel=0.01)


def _negativity_sweep(tmp_path, fmt="csv"):
    lams, gammas = np.linspace(0.0, 1.5, 6), np.linspace(-2.0, 2.0, 5)
    path = str(tmp_path / f"neg.{fmt}")
    code = cli.main(["negativity", "--lambda", "0:1.5:6", "--gamma", "-2:2:5", "--format", fmt, "--output", path])
    lam_g, gam_g = checks.grid_coordinates((lams, gammas))
    ref = reference.Gaussian(lam_g, gam_g).log_negativity()
    columns = ["lambda", "gamma", "log_negativity"]
    check = workloads._sweep_check("neg", path, (lams, gammas), ref, "log_negativity", columns, fmt=fmt)
    return code, path, check


def _nudge(text, old):
    new = repr(float(old) * (1.0 + 1e-9))
    assert new != old
    head, _, tail = text.rpartition(old)
    return head + new + tail


def test_nudged_csv_row_is_rejected(tmp_path):
    code, path, check = _negativity_sweep(tmp_path)
    check(code)
    with open(path) as handle:
        text = handle.read()
    last = text.splitlines()[-1].rsplit(",", 1)[1]  # E_N at lambda = 1.5: large
    with open(path, "w") as handle:
        handle.write(_nudge(text, last))
    with pytest.raises(checks.CheckError, match="row"):
        check(code)


def test_nudged_json_row_is_rejected(tmp_path):
    code, path, check = _negativity_sweep(tmp_path, "json")
    check(code)
    with open(path) as handle:
        doc = json.load(handle)
    value = repr(doc["grid"][-1]["log_negativity"])  # the last record: _nudge edits the last match
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(_nudge(text, value))
    with pytest.raises(checks.CheckError, match="row"):
        check(code)


def test_later_pass_must_write_the_same_bytes(tmp_path):
    lams, gammas = np.linspace(0.0, 1.5, 6), np.linspace(-2.0, 2.0, 5)
    lam_g, gam_g = checks.grid_coordinates((lams, gammas))
    ref = reference.Gaussian(lam_g, gam_g).log_negativity()
    work = workloads.Workload(0, str(tmp_path))
    argv = ["negativity", "--lambda", "0:1.5:6", "--gamma", "-2:2:5"]
    columns = ["lambda", "gamma", "log_negativity"]
    work.cli_sweep("neg", argv, "neg.csv", (lams, gammas), ref, quantity="log_negativity", columns=columns)
    assert work.run_pass().errors == []
    assert work.run_pass().errors == []
    op = work.ops[0]
    call = op.call

    def appended():
        code = call()
        with open(op.output, "a") as handle:
            handle.write("\n")
        return code

    op.call = appended
    result = work.run_pass()
    assert result.points == 0 and "differ from the first pass" in result.errors[0]


def test_clip_blanks_are_checked_against_the_reference(tmp_path):
    lams, js = np.linspace(0.0, 1.2, 7), np.linspace(0.005, 0.5, 6)
    path = str(tmp_path / "clip.csv")
    argv = ["bell", "--lambda", "0:1.2:7", "--j", "0.005:0.5:6", "--clip-at-2", "--output", path]
    code = cli.main(argv)
    lam_g, j_g = checks.grid_coordinates((lams, js))
    ref = reference.Gaussian(lam_g, np.zeros_like(lam_g)).chsh(j_g, math.pi, 0.0)
    assert np.any(ref > 2.0) and np.any(ref <= 2.0)
    columns = ["lambda", "j", "bell"]
    check = workloads._sweep_check("clip", path, (lams, js), ref, "bell", columns, clip=True)
    check(code)
    with open(path) as handle:
        lines = handle.read().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.endswith(","))
    lines[k] += "2.5"
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="blanked wrongly"):
        check(code)


def test_verify_report_with_a_fail_line_is_rejected(capsys):
    code = cli.main(["verify", "--cutoff", "12", "--lambda", "0.1", "--gamma", "0.2"])
    text = capsys.readouterr().out
    checks.check_verify("verify", code, text)
    failed = text.replace("PASS", "FAIL", 1)
    with pytest.raises(checks.CheckError, match="FAIL"):
        checks.check_verify("verify", code, failed)
    with pytest.raises(checks.CheckError, match="exit code"):
        checks.check_verify("verify", 2, text)
    with pytest.raises(checks.CheckError, match="check lines"):
        checks.check_verify("verify", code, text.split("\n", 1)[1])


def test_traced_run_reports_every_layer_metric(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "surfaces", "--seed", "3",
         "--seconds", "0", "--trace", "1", "--outdir", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        layers = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == layers
    assert result["correct"] and result["failed"] == 2 * len(workloads.QUADRATURE_FAILING)
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    # cli imports these by name: nonzero only if the wrappers reached cli's namespace
    assert metrics["gaussian.log_negativity_ms"] > 0 and metrics["teleport.closed_ms"] > 0
    assert metrics["teleport.quadrature_failed"] == len(workloads.QUADRATURE_FAILING)
    assert metrics["fock.build_ms.c40"] == 0
    assert (tmp_path / "trace" / "surfaces-seed3.json").is_file()
