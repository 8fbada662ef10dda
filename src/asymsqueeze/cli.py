"""Command-line front end: parameter sweeps and the oracle verification suite.

Subcommands
-----------
negativity : log-negativity surface over (lambda, gamma)
bell       : CHSH value over any subset of lambda, gamma, J, theta, phi
fidelity   : teleportation fidelity (or fidelity difference) over (lambda, gamma)
verify     : closed-form-versus-Fock-oracle comparison suite

Sweep axes take either a single value (``--gamma 0.5``) or an inclusive range
``min:max:steps`` (``--lambda 0:1.5:50``).  The output grid is the Cartesian
product of all range axes in the fixed order lambda, gamma, j, theta, phi, and
is written deterministically: identical invocations produce byte-identical
files.  CSV uses LF endings, a single ``#``-prefixed metadata line and %.17g
floats.  JSON is a top-level {meta, grid} object with the bytes of
``json.dumps(..., sort_keys=True, indent=1)``, so its floats are Python's
shortest round-trip repr.  Both read back as the same doubles.

Exit codes: 0 ok, 1 validation error, 2 tolerance breach, 3 I/O failure.
"""

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import CutoffTooSmallError, ValidationError, VerificationError
from .gaussian import PhasePoint
from .state import GAMMA_MAX, LAMBDA_MAX, SqueezeParams, coefficients_grid
from . import _kernels
from .teleport import fidelity_values
from .verify import TOLERANCES, breached, oracle_deviations

_AXIS_BOUNDS = {
    "lambda": (0.0, LAMBDA_MAX),
    "gamma": (-GAMMA_MAX, GAMMA_MAX),
    "j": (0.0, 10.0),
    "theta": (-math.tau, math.tau),
    "phi": (-math.tau, math.tau),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # treat tokens like "-1:1:11" (negative range start) as values, not
        # flags; stdlib argparse only recognizes bare negative numbers
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise ValidationError(message)


@dataclass
class Axis:
    name: str
    values: np.ndarray
    swept: bool


def _parse_axis(name, text):
    lo, hi = _AXIS_BOUNDS[name]

    def check(v):
        if not math.isfinite(v) or not (lo <= v <= hi):
            raise ValidationError(f"--{name} value {v} outside [{lo}, {hi}]")
        return v

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"--{name}: range syntax is min:max:steps, got {text!r}")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"--{name}: cannot parse range {text!r}") from None
        if n < 2:
            raise ValidationError(f"--{name}: a range needs at least 2 steps")
        if not a < b:
            raise ValidationError(f"--{name}: range needs min < max, got {a} >= {b}")
        check(a)
        check(b)
        return Axis(name, np.linspace(a, b, n), swept=True)
    try:
        v = float(text)
    except ValueError:
        raise ValidationError(f"--{name}: cannot parse value {text!r}") from None
    return Axis(name, np.array([check(v)]), swept=False)


def _write_output(path, fmt, quantity, source, axes, values):
    swept = [ax for ax in axes if ax.swept]
    fixed = {ax.name: float(ax.values[0]) for ax in axes if not ax.swept}
    columns = {ax.name: ax.values for ax in swept}
    columns[quantity] = values.ravel()
    names = list(columns)
    if fmt == "csv":
        meta_bits = [f"quantity={quantity}", f"source={source}", f"version={__version__}"]
        meta_bits += [f"{k}={v:.17g}" for k, v in sorted(fixed.items())]
        head, tail = "# " + " ".join(meta_bits) + "\n" + ",".join(names) + "\n", "\n"
        cell, special = "%.17g", {"": np.isnan}
        key, field_sep, row_sep = "", ",", "\n"
    else:
        # the bytes of json.dumps({"grid": records, "meta": meta}, sort_keys=True, indent=1)
        meta = {"quantity": quantity, "source": source, "version": __version__, "fixed": fixed}
        head = '{\n "grid": [\n  {\n   '
        tail = "\n  }\n ],\n" + json.dumps({"meta": meta}, sort_keys=True, indent=1)[2:] + "\n"
        cell, special = "%r", {"null": np.isnan, "Infinity": np.isposinf, "-Infinity": np.isneginf}
        key, field_sep, row_sep = '"{}": ', ",\n   ", "\n  },\n  {\n   "
        names.sort()
    # Each axis value and each grid value is formatted once, into the text of its
    # field, by one format string; the values in ``special`` get their fixed text
    # by mask instead.  Broadcasting the fields over the open grid lays the rows
    # out lambda slowest.
    texts = {}
    for name in names:
        pre, post = key.format(name), field_sep if name != names[-1] else row_sep
        texts[name] = _cells(columns[name], pre + cell + post, {pre + t + post: test for t, test in special.items()})
    grid = dict(zip([ax.name for ax in swept], np.ix_(*[texts[ax.name] for ax in swept])))
    grid[quantity] = texts[quantity].reshape([ax.values.size for ax in swept] or [1])
    fields = np.broadcast_arrays(*[grid[name] for name in names])
    text = head + "".join(np.stack(fields, axis=-1).ravel().tolist()).removesuffix(row_sep) + tail

    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cells(values, template, special):
    """An object array of ``template % v`` for each value, or of the text whose mask function in
    ``special`` (text -> function) holds for it; masked values are not formatted.

    The plain values go through one ``%`` of the template repeated once per value, each
    copy ended by a NUL (which no cell contains), and the result is split at the NULs.
    """
    cells = np.empty(values.size, dtype=object)
    plain = np.ones(values.size, dtype=bool)
    for text, test in special.items():
        mask = test(values)
        cells[mask] = text
        plain &= ~mask
    plain_values = tuple(values[plain].tolist())
    cells[plain] = ((template + "\0") * len(plain_values) % plain_values).split("\0")[:-1]
    return cells


def _pair_sweep(args):
    """The lambda and gamma axes, and the coefficients over their grid, lambda along the first axis."""
    axes = [_parse_axis("lambda", args.lam), _parse_axis("gamma", args.gamma)]
    return axes, coefficients_grid(axes[0].values, axes[1].values)


def _cmd_negativity(args):
    axes, coeffs = _pair_sweep(args)
    # libm's asinh, as log_negativity_closed takes it; numpy's may differ in the last place
    vals = np.fromiter(map(math.asinh, coeffs.m3.ravel().tolist()), float)
    _write_output(args.output, args.format, "log_negativity", "asinh-m3-closed-form", axes, vals)
    return 0


def _cmd_bell(args):
    pair_axes, coeffs = _pair_sweep(args)
    setting_axes = [_parse_axis("j", args.j), _parse_axis("theta", args.theta), _parse_axis("phi", args.phi)]
    m1, m2, m3 = (m[:, :, None, None, None] for m in (coeffs.m1, coeffs.m2, coeffs.m3))
    j, theta, phi = np.meshgrid(*[ax.values for ax in setting_axes], indexing="ij", sparse=True)
    vals = _kernels.bell_values(m1, m2, m3, j, theta, phi)
    if args.clip_at_2:
        vals = np.where(vals > 2.0, vals, np.nan)
    _write_output(args.output, args.format, "bell", "displaced-parity-closed-form", pair_axes + setting_axes, vals)
    return 0


def _cmd_fidelity(args):
    axes, coeffs = _pair_sweep(args)
    vals = fidelity_values(coeffs.f, args.r, args.difference)
    quantity = "fidelity_difference" if args.difference else "fidelity"
    _write_output(args.output, args.format, quantity, "cf-overlap-closed-form", axes, vals)
    return 0


def _verify_points(grid, rng):
    count = 6 if grid == "coarse" else 20
    pts = []
    for _ in range(count):
        alpha = rng.uniform(-0.35, 0.35) + 1j * rng.uniform(-0.35, 0.35)
        beta = rng.uniform(-0.35, 0.35) + 1j * rng.uniform(-0.35, 0.35)
        pts.append(PhasePoint.from_complex(alpha, beta))
    return pts


def _cmd_verify(args):
    if args.lam is not None or args.gamma is not None:
        lam = args.lam if args.lam is not None else 0.5
        gamma = args.gamma if args.gamma is not None else 0.0
        pairs = [(lam, gamma)]
    elif args.grid == "coarse":
        pairs = [(0.3, 0.7), (0.5, 1.0)]
    else:
        pairs = [(0.3, 0.7), (0.5, 1.0), (0.6, -0.5), (0.45, 0.0)]
    rng = np.random.default_rng(20240814)
    points = _verify_points(args.grid, rng)
    per_pair = {pair: oracle_deviations(SqueezeParams(*pair), args.cutoff, points) for pair in pairs}

    worst = {name: max(devs[name] for devs in per_pair.values()) for name in TOLERANCES}
    failed = breached(worst)
    for name, tol in TOLERANCES.items():
        status = "FAIL" if name in failed else "PASS"
        print(f"check {name:<16s} max deviation {worst[name]:.3e}  (tolerance {tol:.0e})  {status}")
    if failed:
        reports = []
        for pair, devs in per_pair.items():
            if names := breached(devs):
                passing = _passing_cutoff(SqueezeParams(*pair), args.cutoff, points)
                reports.append(f"{', '.join(names)} at {pair}, cutoff {args.cutoff}; {passing}")
        raise VerificationError(f"tolerance breached by: {' | '.join(reports)}")
    print(f"all {len(TOLERANCES)} oracle checks passed for {len(pairs)} parameter pair(s)")
    return 0


def _passing_cutoff(params, cutoff, points):
    """The smallest of cutoff+5, cutoff+10, ..., 2*cutoff at which every check passes, as text."""
    for larger in range(cutoff + 5, 2 * cutoff + 1, 5):
        if not breached(oracle_deviations(params, larger, points)):
            return f"cutoff {larger} passes"
    return f"no cutoff up to {2 * cutoff} passes"


def build_parser():
    parser = _Parser(prog="asymsqueeze", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_neg = sub.add_parser("negativity", help="log-negativity sweep over lambda/gamma")
    p_neg.add_argument("--lambda", dest="lam", default="0:1.5:50", metavar="SPEC")
    p_neg.add_argument("--gamma", default="-2:2:50", metavar="SPEC")
    add_io(p_neg)
    p_neg.set_defaults(func=_cmd_negativity)

    p_bell = sub.add_parser("bell", help="CHSH sweep over lambda/gamma/J/theta/phi")
    p_bell.add_argument("--lambda", dest="lam", default="0.5", metavar="SPEC")
    p_bell.add_argument("--gamma", default="0", metavar="SPEC")
    p_bell.add_argument("--j", default="0.01", metavar="SPEC")
    p_bell.add_argument("--theta", default=f"{math.pi:.17g}", metavar="SPEC")
    p_bell.add_argument("--phi", default="0", metavar="SPEC")
    p_bell.add_argument("--clip-at-2", action="store_true", help="blank values not exceeding the local bound 2")
    add_io(p_bell)
    p_bell.set_defaults(func=_cmd_bell)

    p_fid = sub.add_parser("fidelity", help="teleportation fidelity sweep over lambda/gamma")
    p_fid.add_argument("--lambda", dest="lam", default="0:1.5:50", metavar="SPEC")
    p_fid.add_argument("--gamma", default="-2:2:50", metavar="SPEC")
    p_fid.add_argument("--r", type=float, default=0.0, help="input squeeze (0 = coherent input)")
    p_fid.add_argument("--difference", action="store_true", help="emit F(r) - F(0) instead of F")
    add_io(p_fid)
    p_fid.set_defaults(func=_cmd_fidelity)

    p_ver = sub.add_parser("verify", help="closed-form vs Fock-oracle checks")
    p_ver.add_argument("--cutoff", type=int, default=40)
    p_ver.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    p_ver.add_argument("--lambda", dest="lam", type=float, default=None)
    p_ver.add_argument("--gamma", type=float, default=None)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CutoffTooSmallError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
