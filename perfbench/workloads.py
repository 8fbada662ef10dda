"""The three workloads: a fixed list of program calls per pass, and its checks.

A pass times only the program's calls; every check runs after the call it
checks, outside the timed interval.  Inputs come from the seed alone, so the
same seed gives the same calls, and every pass of a run repeats them.
"""

import contextlib
import io
import os
import time

import asymsqueeze as aq
import numpy as np
from asymsqueeze import cli
from asymsqueeze.errors import QuadratureDomainError

import checks
import reference
from checks import TOL, CheckError, require

TAU_TEXT = "6.283185307179586"  # float(TAU_TEXT) == 2 pi, the axis bound

# Fine-grid pairs of ``verify``; the cutoff-30 list keeps the pairs that
# cutoff resolves ((0.5, 1.0) breaches the covariance check there).
VERIFY_PAIRS_C40 = ((0.3, 0.7), (0.5, 1.0), (0.6, -0.5), (0.45, 0.0))
VERIFY_PAIRS_C30 = ((0.3, 0.7), (0.6, -0.5), (0.45, 0.0))

# Outer-envelope quadrature points on which fidelity_quadrature raises
# QuadratureDomainError today (its decay probe underflows); fixed, so the
# failed count is the same on every seed.
QUADRATURE_FAILING = (
    (0.6, -5.0, 0.0),
    (1.0, -4.5, 1.0),
    (1.0, 4.5, 0.0),
    (1.5, 4.0, 1.0),
    (2.0, -3.5, 0.0),
    (2.0, 4.0, 1.0),
    (3.0, -3.0, 0.0),
    (3.0, 3.0, 1.0),
)
QUADRATURE_SEEDED = 24


def _spec(lo, hi, steps):
    """CLI range text (ends rounded to 6 digits) and the axis values the CLI must produce from it."""
    lo, hi = float(f"{lo:.6g}"), float(f"{hi:.6g}")
    return f"{lo!r}:{hi!r}:{steps}", np.linspace(lo, hi, steps)


class Op:
    """One program call: ``call`` is timed, ``check`` gets its result afterwards.

    ``expect_error`` names an exception type the call may raise; such a call
    counts as a failed operation instead of an error of the run.
    """

    def __init__(self, label, call, check, points, expect_error=None, output=None):
        self.label = label
        self.call = call
        self.check = check
        self.points = points
        self.expect_error = expect_error
        self.output = output
        self.first_digest = None


class PassResult:
    def __init__(self):
        self.seconds = 0.0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.errors = []


class Workload:
    def __init__(self, seed, outdir):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.ops = []

    def cli_sweep(self, label, argv, filename, axes, ref, **expect):
        """A CLI sweep writing ``filename``, checked row by row against ``ref``."""
        out = os.path.join(self.outdir, filename)
        check = _sweep_check(label, out, axes, ref, **expect)
        self.ops.append(Op(label, lambda: cli.main(argv + ["--output", out]), check, ref.size, output=out))

    def run_pass(self):
        res = PassResult()
        for op in self.ops:
            res.attempted += 1
            start = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # noqa: BLE001 - counted, and reported unless expected
                res.failed += 1
                if op.expect_error is None or not isinstance(exc, op.expect_error):
                    res.errors.append(f"{op.label}: raised {exc!r}")
                continue
            finally:
                res.seconds += time.perf_counter() - start
            try:
                if op.output is None:
                    op.check(value)
                else:
                    res.bytes_written += os.path.getsize(op.output)
                    digest = checks.digest(op.output)
                    if digest == op.first_digest:  # the same bytes were checked row by row
                        require(value == 0, f"{op.label}: exit code {value}")
                    else:
                        require(op.first_digest is None, f"{op.label}: output bytes differ from the first pass")
                        op.check(value)
                        op.first_digest = digest
            except CheckError as exc:
                res.errors.append(str(exc))
                continue
            res.points += op.points
        return res


def _sweep_check(label, path, axes, ref, quantity, columns, fixed=None, clip=False, fmt="csv"):
    tol = TOL[quantity]

    def check(code):
        require(code == 0, f"{label}: exit code {code}")
        if fmt == "csv":
            meta, header, data = checks.read_csv(path)
            require(header == columns, f"{label}: columns {header}")
            require(meta.get("quantity") == quantity, f"{label}: quantity {meta.get('quantity')}")
            for name, value in (fixed or {}).items():
                require(float(meta.get(name, "nan")) == value, f"{label}: fixed {name} = {meta.get(name)}")
        else:
            meta, data = checks.read_json(path, columns)
            require(meta.get("quantity") == quantity, f"{label}: quantity {meta.get('quantity')}")
            require(meta.get("fixed") == (fixed or {}), f"{label}: fixed {meta.get('fixed')}")
        checks.check_grid(label, data, axes)
        values = data[:, -1]
        if clip:
            checks.check_clip(label, values, ref, tol)
        else:
            checks.close(label, values, ref, tol)
        if quantity == "bell":
            finite = values[~np.isnan(values)]
            require(np.all(np.abs(finite) <= reference.TSIRELSON), f"{label}: CHSH above 2 sqrt 2")
        if quantity == "fidelity":
            require(np.all((values > 0.0) & (values <= 1.0)), f"{label}: fidelity outside (0, 1]")

    return check


class BellSweep(Workload):
    """Three ~2e5-point ``bell`` sweeps over lambda x J x theta: CSV, JSON, --clip-at-2."""

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = self.rng
        lam_text, lams = _spec(0.0, rng.uniform(1.1, 1.2), 60)
        j_text, js = _spec(rng.uniform(0.004, 0.006), rng.uniform(0.45, 0.5), 60)
        theta_text, thetas = f"0:{TAU_TEXT}:56", np.linspace(0.0, float(TAU_TEXT), 56)
        gamma = float(f"{rng.uniform(-0.1, 0.1):.6g}")
        phi = float(f"{rng.uniform(0.0, 0.1):.6g}")
        axes = (lams, js, thetas)
        _, j_g, th_g = checks.grid_coordinates(axes)
        index = np.repeat(np.arange(lams.size), js.size * thetas.size)
        ref = reference.Gaussian(lams, np.full(lams.size, gamma)).chsh(j_g, th_g, phi, index)
        base = ["bell", "--lambda", lam_text, "--gamma", repr(gamma), "--j", j_text,
                "--theta", theta_text, "--phi", repr(phi)]
        expect = dict(quantity="bell", columns=["lambda", "j", "theta", "bell"], fixed={"gamma": gamma, "phi": phi})
        self.cli_sweep("bell-csv", base, "bell.csv", axes, ref, **expect)
        self.cli_sweep("bell-json", base + ["--format", "json"], "bell.json", axes, ref, fmt="json", **expect)
        self.cli_sweep("bell-clip", base + ["--clip-at-2"], "bell-clip.csv", axes, ref, clip=True, **expect)


class Surfaces(Workload):
    """Paper region lambda in [0, 1.5], gamma in [-2, 2]: negativity and fidelity
    sweeps on 100 x 100 grids, free-J CHSH maximisation and quadrature fidelities."""

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = self.rng
        lam_text, lams = _spec(0.0, rng.uniform(1.45, 1.5), 100)
        gamma_text, gammas = _spec(-rng.uniform(1.9, 2.0), rng.uniform(1.9, 2.0), 100)
        axes = (lams, gammas)
        lam_g, gam_g = checks.grid_coordinates(axes)
        gauss = reference.Gaussian(lam_g, gam_g)
        f0, f1 = gauss.fidelity(0.0), gauss.fidelity(1.0)
        grid = ["--lambda", lam_text, "--gamma", gamma_text]
        for label, argv, quantity, ref, name in (
            ("negativity", ["negativity"], "log_negativity", gauss.log_negativity(), "negativity.csv"),
            ("fidelity-coherent", ["fidelity"], "fidelity", f0, "fidelity.csv"),
            ("fidelity-r1", ["fidelity", "--r", "1"], "fidelity", f1, "fidelity-r1.csv"),
            ("fidelity-diff", ["fidelity", "--r", "1", "--difference"], "fidelity_difference", f1 - f0, "diff.csv"),
        ):
            self.cli_sweep(label, argv + grid, name, axes, ref, quantity=quantity, columns=["lambda", "gamma", quantity])

        for k in range(3):
            params = aq.SqueezeParams(rng.uniform(0.1, 1.5), rng.uniform(-2.0, 2.0))
            self.ops.append(Op(f"maximize-{k}", lambda p=params: (p, aq.maximize_bell(p)), _check_maximize, 1))

        points = [
            (rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5) if k % 2 else 0.0)
            for k in range(QUADRATURE_SEEDED)
        ]
        amplitudes = rng.uniform(-1.0, 1.0, size=(QUADRATURE_SEEDED, 2))
        for k, (lam, gamma, r) in enumerate(points + list(QUADRATURE_FAILING)):
            params = aq.SqueezeParams(lam, gamma)
            if r == 0.0:
                state = aq.Coherent(complex(*amplitudes[k % QUADRATURE_SEEDED]))
            else:
                state = aq.SqueezedVacuum(r)
            expected = float(reference.Gaussian(lam, gamma).fidelity(r))
            self.ops.append(
                Op(
                    f"quadrature-{k}",
                    lambda s=state, p=params: aq.fidelity_quadrature(s, p).value,
                    lambda v, e=expected, k=k: _check_fidelity(f"quadrature-{k}", v, e),
                    1,
                    expect_error=QuadratureDomainError if k >= QUADRATURE_SEEDED else None,
                )
            )


def _check_maximize(result):
    params, (setting, value) = result
    ref = reference.Gaussian(params.lam, params.gamma).chsh(setting.j, setting.theta, setting.phi)
    checks.close("maximize", value.value, ref, TOL["maximize"])
    require(value.value <= reference.TSIRELSON, f"maximize: CHSH {value.value} above 2 sqrt 2")


def _check_fidelity(label, value, expected):
    require(0.0 < value <= 1.0, f"{label}: fidelity {value} outside (0, 1]")
    checks.close(label, value, expected, TOL["quadrature"])


class OracleVerify(Workload):
    """``verify`` at cutoff 40 and 30 on one pair each, plus one direct oracle build."""

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = self.rng
        for cutoff, pairs in ((40, VERIFY_PAIRS_C40), (30, VERIFY_PAIRS_C30)):
            lam, gamma = pairs[rng.integers(len(pairs))]
            argv = ["verify", "--cutoff", str(cutoff), "--lambda", repr(lam), "--gamma", repr(gamma)]
            label = f"verify-c{cutoff}"
            self.ops.append(
                Op(label, lambda a=argv: _captured(a), lambda r, lb=label: checks.check_verify(lb, *r), 1)
            )
        params = aq.SqueezeParams(rng.uniform(0.2, 0.4), rng.uniform(-0.4, 0.4))
        expected = float(reference.Gaussian(params.lam, params.gamma).log_negativity())

        def direct():
            state = aq.build_state_exponential(params, 30)
            return state, aq.log_negativity_numeric(state)

        self.ops.append(Op("oracle-c30", direct, lambda r: _check_oracle(r, expected), 1))


def _captured(argv):
    """Exit code and standard output of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_oracle(result, expected):
    state, value = result
    amps = state.amplitudes
    norm = float(np.sum(np.abs(amps) ** 2))
    require(abs(norm - 1.0) <= TOL["norm"], f"oracle: norm {norm!r}")
    probs = np.abs(amps) ** 2
    edge = float(np.sum(probs[-2:, :]) + np.sum(probs[:-2, -2:]))
    require(edge < checks.EDGE_MASS_MAX, f"oracle: edge mass {edge:.3e}")
    schmidt = reference.schmidt_log_negativity(amps)
    checks.close("oracle schmidt E_N", schmidt, expected, TOL["schmidt"])
    checks.close("oracle log_negativity_numeric", value, expected, TOL["schmidt"])


WORKLOADS = {"bell-sweep": BellSweep, "surfaces": Surfaces, "oracle-verify": OracleVerify}
