"""Command-line front end: parameter sweeps and the oracle verification suite.

Subcommands
-----------
negativity : log-negativity surface over (lambda, gamma), from state.log_negativity_values
bell       : CHSH value over any subset of lambda, gamma, J, theta, phi, from bell.bell_values on state.squeezer_grid
fidelity   : teleportation fidelity (or its difference) over (lambda, gamma), from teleport.fidelity_values
verify     : closed-form-versus-Fock-oracle suite, verify.run at verify.PLANS's pairs and verify.check_points

Sweep axes take either a single value (``--gamma 0.5``) or an inclusive range
``min:max:steps`` (``--lambda 0:1.5:50``).  The output grid is the Cartesian
product of all range axes in the fixed order lambda, gamma, j, theta, phi, and
is written deterministically: identical invocations produce byte-identical
files.  CSV uses LF endings, a single ``#``-prefixed metadata line and %.17g
floats.  JSON is a top-level {meta, grid} object with the bytes of
``json.dumps(..., sort_keys=True, indent=1)``, so its floats are Python's
shortest round-trip repr.  Both read back as the same doubles.  A file is
written as it is formatted, in blocks of at most ``_BLOCK_ROWS`` grid points:
the calling thread formats each block.  A file of more than one block has one
writer thread, started and joined per file, that opens the output, writes the
blocks before it in order and closes it; an exception on it is raised again in
the caller.  A one-block file is written on the calling thread once formatted.
Floats are formatted exactly in numpy; Python formats the few values it cannot decide.

Exit codes: 0 ok, 1 validation error (or a grid too large to allocate),
2 tolerance breach, 3 I/O failure (including a closed stdout pipe, and a
write that stores nothing).
"""

import argparse
import contextlib
import functools
import json
import math
import queue
import re
import sys
import threading

import numpy as np

from . import __version__
from .bell import bell_values
from .errors import CutoffTooSmallError, ValidationError, VerificationError
from .state import GAMMA_MAX, LAMBDA_MAX, coefficients_grid, log_negativity_values, squeezer_grid
from .teleport import fidelity_values
from .verify import PLANS, TOLERANCES, breached, check_points, run

_AXIS_BOUNDS = {
    "lambda": (0.0, LAMBDA_MAX),
    "gamma": (-GAMMA_MAX, GAMMA_MAX),
    "j": (0.0, 10.0),
    "theta": (-math.tau, math.tau),
    "phi": (-math.tau, math.tau),
}
_BLOCK_ROWS = 2**14  # grid points per block; a multi-block file holds at most four: formatting, queued (2), writing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # treat tokens like "-1:1:11" (negative range start) as values, not
        # flags; stdlib argparse only recognizes bare negative numbers
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise ValidationError(message)


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
        return np.linspace(a, b, n)
    try:
        v = float(text)
    except ValueError:
        raise ValidationError(f"--{name}: cannot parse value {text!r}") from None
    return np.array([check(v)])


def _write_output(path, fmt, quantity, source, axes, values):
    """``values`` over the grid of the ranged ``axes`` (name -> values); single values go to the metadata."""
    swept = {name: axis for name, axis in axes.items() if axis.size > 1}
    fixed = {name: float(axis[0]) for name, axis in axes.items() if axis.size == 1}
    names = [*swept, quantity]
    if fmt == "csv":
        meta_bits = [f"quantity={quantity}", f"source={source}", f"version={__version__}"]
        meta_bits += [f"{k}={v:.17g}" for k, v in sorted(fixed.items())]
        head, tail = "# " + " ".join(meta_bits) + "\n" + ",".join(names) + "\n", "\n"
        shortest, blank = False, ""
        key, field_sep, row_sep = "", ",", "\n"
    else:
        # the bytes of json.dumps({"grid": records, "meta": meta}, sort_keys=True, indent=1)
        meta = {"quantity": quantity, "source": source, "version": __version__, "fixed": fixed}
        head = '{\n "grid": [\n  {\n   '
        tail = "\n  }\n ],\n" + json.dumps({"meta": meta}, sort_keys=True, indent=1)[2:] + "\n"
        shortest, blank = True, "null"
        key, field_sep, row_sep = '"{}": ', ",\n   ", "\n  },\n  {\n   "
        names.sort()
    # Each axis value is formatted once, and each grid value once in its block, into a NUL-padded
    # field of bytes.  A block's rows are one byte matrix of the separators and the fields, axis
    # fields broadcast over the block's open grid (lambda slowest), written less its NULs.
    seps = [key.format(names[0])] + [field_sep + key.format(name) for name in names[1:]] + [row_sep]
    seps = [np.frombuffer(sep.encode(), np.uint8) for sep in seps]
    fields = {name: _field(axis, shortest, blank) for name, axis in swept.items()}
    grid = values.reshape([axis.size for axis in swept.values()] or [1])
    blocks = _blocks(grid.shape)
    if path is None:
        sys.stdout.flush()
    # This thread formats each block and masks its NULs, so block-sized buffers come from its own
    # malloc arena.  With more than one block, a writer thread compacts each block and writes it while
    # the next is formatted; one block has nothing to overlap, so this thread writes it once formatted.
    threaded, failed = len(blocks) > 1, []
    pending = queue.Queue(2 if threaded else 0)
    if threaded:
        writer = threading.Thread(target=_write_blocks, args=(path, pending, failed), name="asymsqueeze-writer")
        writer.start()
    try:
        pending.put((head.encode(), slice(None)))
        for k, block in enumerate(blocks):
            if failed:
                break
            shape = grid[block].shape
            cells = {name: np.expand_dims(fields[name][s], tuple(j for j in range(len(shape)) if j != i))
                     for i, (name, s) in enumerate(zip(swept, block))}
            cells[quantity] = _field(grid[block].ravel(), shortest, blank).reshape(*shape, -1)
            parts = [part for name, sep in zip(names, seps) for part in (sep, cells[name])] + seps[-1:]
            rows = np.concatenate([np.broadcast_to(part, (*shape, part.shape[-1])) for part in parts], axis=-1).ravel()
            keep = rows != 0
            if k == len(blocks) - 1:
                keep[keep.size - len(row_sep):] = False  # the file's last row has no separator
            pending.put((rows, keep))
        else:
            pending.put((tail.encode(), slice(None)))
    finally:
        pending.put(None)
        if threaded:
            writer.join()
    if not threaded:
        _write_blocks(path, pending, failed)
    if failed:
        raise failed[0]


def _write_blocks(path, pending, failed):
    """The writer: opens ``path`` (stdout if None), writes ``data[keep]`` of each pair taken from
    ``pending`` until None, flushes and closes.  Its first exception goes to ``failed``, and it then
    takes what is left up to the None, so the caller's puts never wait for good."""
    item = ()
    try:
        with open(path, "wb") if path is not None else contextlib.nullcontext(sys.stdout.buffer) as handle:
            while (item := pending.get()) is not None:
                _put(handle, item[0][item[1]])
            handle.flush()
    except BaseException as exc:  # noqa: BLE001 - raised again in the caller
        failed.append(exc)
        while item is not None:
            item = pending.get()


def _blocks(shape):
    """Index tuples that cut a grid of ``shape`` into blocks of at most ``_BLOCK_ROWS`` points, in row order:
    the leading axes whose trailing product exceeds it go one index at a time, the next in runs that fit."""
    lead = next(i for i in range(len(shape)) if math.prod(shape[i + 1:]) <= _BLOCK_ROWS)
    run, rest = _BLOCK_ROWS // math.prod(shape[lead + 1:]), (slice(None),) * (len(shape) - lead - 1)
    return [(*(slice(i, i + 1) for i in index), slice(start, start + run), *rest)
            for index in np.ndindex(*shape[:lead]) for start in range(0, shape[lead], run)]


def _put(handle, data):
    """Write the bytes ``data``.  A short write is retried for the rest, so the device's own error
    surfaces; a write that stores nothing raises OSError."""
    view = memoryview(data)
    while view:
        if not (stored := handle.write(view)):
            raise OSError(f"{len(view)} bytes of the output were not written")
        view = view[stored:]


def _field(values, shortest, blank):
    """A (values.size, width) uint8 array of each value's ASCII text, NUL-padded: ``blank`` for NaN,
    else ``"%.17g" % v``, or ``json.dumps(v)`` if ``shortest`` (``repr(v)`` when v is finite).
    One gather lays out the digits of ``_decimal``; Python formats the values it leaves."""
    nan = np.isnan(values)
    plain = np.flatnonzero(~nan)
    x = values[plain]
    n, exp, slow = _decimal(x, shortest)
    words, zeros, layout, lengths = _tables(shortest)
    src = np.empty((9, x.size), np.uint32)  # column-major: per value 3 pad bytes, 17 digits and _CHARS
    src[5:] = np.frombuffer(_CHARS, np.uint32)[:, None]
    trailing = np.zeros(x.size, np.uint8)  # trailing zero digits
    high = n // 10**8
    rest = [(n - high * 10**8).astype(np.uint32), high.astype(np.uint32)]  # the last 8 digits, the first 9
    for k in range(4, 0, -1):  # four digits at a time, from the last
        part = rest[k < 3]
        rest[k < 3] = part // 10**4
        chunk = part - rest[k < 3] * 10**4
        np.take(words, chunk, out=src[k])
        trailing += (trailing == 16 - 4 * k) * zeros[chunk]
    np.take(words, rest[1], out=src[0])
    key = ((x < 0) * 23 + exp + 6) * 17 + 16 - trailing
    texts = {i: (json.dumps if shortest else "%.17g".__mod__)(float(values[i])).encode() for i in plain[slow]}
    blank = blank.encode() if x.size < values.size else b""
    width = max([lengths[key].max(initial=0), *map(len, texts.values()), len(blank)])
    index = ((layout[:, :width] >> 2) * (4 * x.size) + (layout[:, :width] & 3))[key]
    index += np.arange(0, 4 * x.size, 4)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    if x.size < values.size:
        out, plain_out = np.zeros((values.size, width), np.uint8), out
        out[plain] = plain_out
    for rows, text in [*texts.items(), (nan, blank)]:
        out[rows] = np.frombuffer(text.ljust(width, b"\0"), np.uint8)
    return out


def _decimal(x, shortest):
    """Digits n (10**16 <= n < 10**17) and exponent X of ``"%.17g" % x`` (``repr(x)`` if ``shortest``),
    and a mask of the values left to Python: |x| outside (1e-6, 1e17), and for ``repr`` powers of two
    (their gap below is half the gap above) and candidates on the edge of, or tied in, x's interval.
    Dekker's product gives v = |x| 10**(16 - X) exactly as hi + lo.  ``%.17g`` rounds v half-even;
    ``repr`` takes the nearest multiple of 10**q to v for the largest q that keeps it strictly
    within h = 2**(E - 54) 10**(16 - X) of v, half the gap between x and its neighbours."""
    a = np.abs(x)
    slow = ~((a > 1e-6) & (a < 1e17))
    a[slow] = 1.0
    exp = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    pow10 = 10.0 ** np.arange(23)  # exact
    a1 = 134217729.0 * a  # Veltkamp's split into 26-bit halves, a = a1 + a2
    a1 -= a1 - a
    a2 = a - a1
    for _ in range(2):  # log10 may be one off near a power of ten; the exact product corrects it
        p = pow10[16 - exp]
        p1 = 134217729.0 * p
        p1 -= p1 - p
        hi = a * p
        lo = ((a1 * p1 - hi) + a1 * (p - p1) + a2 * p1) + a2 * (p - p1)
        off = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64) - ((hi < 1e16) | (hi == 1e16) & (lo < 0))
        if not off.any():
            break
        exp += off
    slow |= off != 0
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is even, so ties go to even
    if shortest:
        mantissa, e2 = np.frexp(a)
        slow |= mantissa == 0.5
        v, f, h, live = n.copy(), lo - np.rint(lo), np.ldexp(p, e2 - 54), np.arange(n.size)
        for q in range(1, 17):  # v + f is exact; the candidates lie in (n - 10**q / 2, n + 10**q / 2]
            m = 10**q
            rem = v % m
            candidate = v - rem + m * (2 * rem + (f > 0) > m)  # the nearest multiple of m to v + f
            distance = np.abs((v - candidate) + f)  # rounded, but only equality with h is undecided
            slow[live[(distance == h) | (2 * rem == m) & (f == 0) & (distance < h)]] = True
            near = np.flatnonzero(distance < h)
            v, f, h, live = v[near], f[near], h[near], live[near]
            n[live] = candidate[near]
            if not live.size:
                break
    return n, exp, slow


_CHARS = b"0123456789.e+-\0\0"  # the constants a layout may take, after a value's 20 digit bytes


@functools.cache
def _tables(shortest):
    """The ASCII of 0000 to 9999 as uint32s and the trailing zeros of each (4 for 0); per (sign, exponent
    -6 to 16, digit count 1 to 17) the 24 byte indices of the text in a value's 36 bytes (digit i at 3 + i,
    _CHARS from 20) and its length: fixed notation for exponents in [-4, 17) ([-4, 16) and ".0" for repr)."""
    n = np.arange(10**4)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    zeros = np.argmax(np.c_[digits[:, ::-1] != 0, np.ones(n.size, bool)], axis=1).astype(np.uint8)
    const, d = {c: 20 + i for i, c in enumerate(_CHARS.decode())}, list(range(3, 20))
    table = np.full((2, 23, 17, 24), const["\0"])
    for neg, e, c in np.ndindex(2, 23, 17):
        exp, count = e - 6, c + 1
        if not -4 <= exp < 17 - shortest:
            cells = d[:1] + (["."] + d[1:count] if count > 1 else []) + ["e", "-+"[exp >= 0], *f"{abs(exp):02d}"]
        elif exp < 0:
            cells = ["0", "."] + ["0"] * (-exp - 1) + d[:count]
        else:
            frac = d[exp + 1:count] or ["0"] * shortest
            cells = d[:exp + 1] + (["."] + frac if frac else [])
        cells = ["-"] * neg + cells
        table[neg, e, c, : len(cells)] = [const.get(cell, cell) for cell in cells]
    table = table.reshape(-1, 24)
    return (digits + 48).astype(np.uint8).view(np.uint32).ravel(), zeros, table, (table != const["\0"]).sum(axis=1)


def _pair_sweep(args, grid=coefficients_grid):
    """The lambda and gamma axes, and ``grid`` (by default the coefficients) over them, lambda first."""
    axes = {"lambda": _parse_axis("lambda", args.lam), "gamma": _parse_axis("gamma", args.gamma)}
    return axes, grid(axes["lambda"], axes["gamma"])


def _cmd_negativity(args):
    axes, coeffs = _pair_sweep(args)
    vals = log_negativity_values(coeffs.m3)
    _write_output(args.output, args.format, "log_negativity", "asinh-m3-closed-form", axes, vals)
    return 0


def _cmd_bell(args):
    axes, entries = _pair_sweep(args, squeezer_grid)
    axes.update((name, _parse_axis(name, getattr(args, name))) for name in ("j", "theta", "phi"))
    ch, she, shi = (s[:, :, None, None, None] for s in entries)
    j, theta, phi = np.meshgrid(axes["j"], axes["theta"], axes["phi"], indexing="ij", sparse=True)
    vals = bell_values(ch, she, shi, j, theta, phi)
    if args.clip_at_2:
        vals = np.where(vals > 2.0, vals, np.nan)
    _write_output(args.output, args.format, "bell", "displaced-parity-closed-form", axes, vals)
    return 0


def _cmd_fidelity(args):
    axes, coeffs = _pair_sweep(args)
    vals = fidelity_values(coeffs.f, args.r, args.difference)
    quantity = "fidelity_difference" if args.difference else "fidelity"
    _write_output(args.output, args.format, quantity, "cf-overlap-closed-form", axes, vals)
    return 0


def _cmd_verify(args):
    pairs, points = PLANS[args.grid][0], check_points(args.grid)
    if args.lam is not None or args.gamma is not None:
        pairs = [(args.lam if args.lam is not None else 0.5, args.gamma if args.gamma is not None else 0.0)]
    worst, breaches = run(pairs, args.cutoff, points)
    failed = breached(worst)
    for name, tol in TOLERANCES.items():
        status = "FAIL" if name in failed else "PASS"
        print(f"check {name:<16s} max deviation {worst[name]:.3e}  (tolerance {tol:.0e})  {status}")
    if breaches:
        raise VerificationError(f"tolerance breached by: {' | '.join(breaches)}")
    print(f"all {len(TOLERANCES)} oracle checks passed for {len(pairs)} parameter pair(s)")
    return 0


@functools.cache  # one parser per process: parsing does not change it
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

    p_bell = sub.add_parser("bell", help="CHSH sweep over lambda/gamma/J/theta/phi")
    p_bell.add_argument("--lambda", dest="lam", default="0.5", metavar="SPEC")
    p_bell.add_argument("--gamma", default="0", metavar="SPEC")
    p_bell.add_argument("--j", default="0.01", metavar="SPEC")
    p_bell.add_argument("--theta", default=f"{math.pi:.17g}", metavar="SPEC")
    p_bell.add_argument("--phi", default="0", metavar="SPEC")
    p_bell.add_argument("--clip-at-2", action="store_true", help="blank values not exceeding the local bound 2")
    add_io(p_bell)

    p_fid = sub.add_parser("fidelity", help="teleportation fidelity sweep over lambda/gamma")
    p_fid.add_argument("--lambda", dest="lam", default="0:1.5:50", metavar="SPEC")
    p_fid.add_argument("--gamma", default="-2:2:50", metavar="SPEC")
    p_fid.add_argument("--r", type=float, default=0.0, help="input squeeze (0 = coherent input)")
    p_fid.add_argument("--difference", action="store_true", help="emit F(r) - F(0) instead of F")
    add_io(p_fid)

    p_ver = sub.add_parser("verify", help="closed-form vs Fock-oracle checks")
    p_ver.add_argument("--cutoff", type=int, default=40, help="Fock cutoff of the oracle (default: 40)")
    p_ver.add_argument("--grid", choices=PLANS, default="coarse", help="pairs and points; only points with one pair")
    p_ver.add_argument("--lambda", dest="lam", type=float, help="one pair, not the plan's; gamma 0.0 unless given")
    p_ver.add_argument("--gamma", type=float, help="one pair, not the plan's; lambda 0.5 unless given")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()[f"_cmd_{args.command}"](args)  # looked up per call, not held by the parser
    except (ValidationError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (CutoffTooSmallError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
