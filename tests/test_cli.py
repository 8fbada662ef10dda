import ast
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymsqueeze import (
    BellSetting,
    CutoffTooSmallError,
    PhasePoint,
    SqueezeParams,
    ValidationError,
    __version__,
    bell_function,
    cli,
    fidelity_coherent_closed,
    fidelity_difference,
    fidelity_squeezed_closed,
    log_negativity_closed,
    verify,
)
from asymsqueeze.bell import BellValue
from asymsqueeze.cli import main
from asymsqueeze.teleport import _check_fidelity, fidelity_values


def run_cli(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# quantity=")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], columns, rows


class TestSweepOutputs:
    def test_negativity_symmetric_column(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert run_cli(["negativity", "--lambda", "0:1.5:16", "--gamma", "0", "--output", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert "source=asinh-m3-closed-form" in header
        assert columns == ["lambda", "log_negativity"]
        for lam_text, en_text in rows:
            lam, en = float(lam_text), float(en_text)
            assert en == pytest.approx(2.0 * lam, abs=1e-12)

    def test_negativity_grows_with_asymmetry(self, tmp_path):
        out = tmp_path / "neg2.csv"
        assert run_cli(["negativity", "--lambda", "0.5", "--gamma", "0:2:9", "--output", str(out)]) == 0
        _, _, rows = read_csv(out)
        values = [float(r[-1]) for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_full_float_precision_round_trip(self, tmp_path):
        out = tmp_path / "neg3.csv"
        run_cli(["negativity", "--lambda", "0.3337777777777777:1.2:3", "--gamma", "0.1", "--output", str(out)])
        _, _, rows = read_csv(out)
        # %.17g keeps doubles exactly
        assert float(rows[0][0]) == 0.3337777777777777

    def test_bell_clip_flag(self, tmp_path):
        raw = tmp_path / "bell.csv"
        clipped = tmp_path / "bell_clip.csv"
        args = ["bell", "--lambda", "0:1.2:13", "--j", "0.01:0.5:9", "--theta", f"{math.pi}", "--phi", "0"]
        assert run_cli(args + ["--output", str(raw)]) == 0
        assert run_cli(args + ["--clip-at-2", "--output", str(clipped)]) == 0
        _, _, raw_rows = read_csv(raw)
        _, _, clip_rows = read_csv(clipped)
        violations = 0
        for r_raw, r_clip in zip(raw_rows, clip_rows):
            value = float(r_raw[-1])
            if value > 2.0:
                violations += 1
                assert float(r_clip[-1]) == value
            else:
                assert r_clip[-1] == ""
        assert violations > 0  # the swept region does contain violations

    def test_bell_json_schema(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(
            ["bell", "--lambda", "0.5", "--gamma", "1", "--j", "0.005:0.02:4",
             "--format", "json", "--clip-at-2", "--output", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["quantity"] == "bell"
        assert doc["meta"]["fixed"]["lambda"] == 0.5
        assert len(doc["grid"]) == 4
        for rec in doc["grid"]:
            assert set(rec) == {"j", "bell"}
            assert rec["bell"] is None or rec["bell"] > 2.0

    def test_bell_phase_surface_positive(self, tmp_path):
        # theta-phi surface at small displacement: B stays positive everywhere
        out = tmp_path / "phase.csv"
        assert run_cli(
            ["bell", "--lambda", "0.5", "--gamma", "1", "--j", "0.01",
             "--theta", "0:6.28:24", "--phi", "0:6.28:24", "--output", str(out)]
        ) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 24 * 24
        assert all(float(r[-1]) > 0.0 for r in rows)

    def test_fidelity_symmetric_row(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert run_cli(["fidelity", "--lambda", "0:1.5:11", "--gamma", "0", "--output", str(out)]) == 0
        _, _, rows = read_csv(out)
        for lam_text, f_text in rows:
            assert float(f_text) == pytest.approx((1 + math.tanh(float(lam_text))) / 2, abs=1e-12)

    def test_fidelity_zero_squeeze_column(self, tmp_path):
        out = tmp_path / "fid_r.csv"
        assert run_cli(["fidelity", "--lambda", "0", "--gamma", "0:1:5", "--r", "1", "--output", str(out)]) == 0
        _, _, rows = read_csv(out)
        for _, f_text in rows:
            assert float(f_text) == pytest.approx(1.0 / (2.0 * math.cosh(1.0)), abs=1e-12)

    def test_fidelity_difference(self, tmp_path):
        out = tmp_path / "diff.csv"
        assert run_cli(
            ["fidelity", "--lambda", "0:1:6", "--gamma", "0.5", "--r", "1", "--difference", "--output", str(out)]
        ) == 0
        header, columns, rows = read_csv(out)
        assert columns == ["lambda", "fidelity_difference"]
        lam0_row = [r for r in rows if float(r[0]) == 0.0][0]
        # at lam = 0 the channel is classical for either input
        assert float(lam0_row[1]) == pytest.approx(1 / (2 * math.cosh(1.0)) - 0.5, abs=1e-12)


def reference_write(path, fmt, quantity, source, axes, values):
    """The writer's bytes, one row at a time: every coordinate formatted per row, JSON via a list of dicts."""
    swept = {name: axis for name, axis in axes.items() if axis.size > 1}
    fixed = {name: float(axis[0]) for name, axis in axes.items() if axis.size == 1}
    coords = [g.ravel() for g in np.meshgrid(*swept.values(), indexing="ij")] if swept else []
    flat = values.ravel()
    if fmt == "csv":
        meta_bits = [f"quantity={quantity}", f"source={source}", f"version={__version__}"]
        meta_bits += [f"{k}={v:.17g}" for k, v in sorted(fixed.items())]
        lines = ["# " + " ".join(meta_bits), ",".join([*swept, quantity])]
        for i in range(flat.size):
            row = [f"{c[i]:.17g}" for c in coords]
            row.append("" if np.isnan(flat[i]) else f"{float(flat[i]):.17g}")
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    else:
        records = []
        for i in range(flat.size):
            rec = {name: float(c[i]) for name, c in zip(swept, coords)}
            rec[quantity] = None if np.isnan(flat[i]) else float(flat[i])
            records.append(rec)
        meta = {"quantity": quantity, "source": source, "version": __version__, "fixed": fixed}
        text = json.dumps({"meta": meta, "grid": records}, sort_keys=True, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


TAU = "6.283185307179586"
WRITER_CASES = {
    # sorting the keys reorders the axes: bell < gamma < j < lambda < phi < theta
    "bell-five-axes": ["bell", "--lambda", "0:1.2:3", "--gamma", "-1:1:3", "--j", "0.005:0.3:2",
                       "--theta", f"0:{TAU}:3", "--phi", "-0.5:0.5:2"],
    # blank CSV cells and JSON nulls
    "bell-clip": ["bell", "--lambda", "0:1.2:13", "--j", "0.01:0.5:9", "--theta", f"{math.pi}", "--clip-at-2"],
    "bell-no-axis": ["bell"],
    "bell-no-axis-clipped": ["bell", "--lambda", "1.2", "--j", "0.1", "--clip-at-2"],
    # the quantity sorts after the axes
    "negativity": ["negativity", "--lambda", "0:1.5:7", "--gamma", "-2:2:5"],
    # the quantity sorts before the axes
    "fidelity-difference": ["fidelity", "--lambda", "0:1:4", "--gamma", "-1:1:3", "--r", "1", "--difference"],
    # -0.0 (the range's end point) and 0.1, whose repr and %.17g forms differ
    "signed-zero": ["negativity", "--lambda", "0.1:0.3:3", "--gamma", "-1:-0:3"],
    # blanks on the first and last rows of the 5-row blocks that a budget of 7 cuts, and on the last row
    "bell-three-axes-clip": ["bell", "--lambda", "0.3:1.2:3", "--j", "0.005:0.5:4", "--theta", f"0:{math.pi}:5",
                             "--clip-at-2"],
}


@pytest.fixture
def threads_joined():
    """Fails a test that leaves a thread running, such as the sweep writer's own."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture(params=[False, True], ids=["one-block", "multi-block"])
def multi_block(request, monkeypatch):
    """Whether the sweep is cut into blocks of 7 rows, which a writer thread writes; else the sweeps
    of the tests that take it fit in one block, which the calling thread writes."""
    if request.param:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    return request.param


def writes_on(thread, multi_block):
    """Whether ``thread`` is the one that writes a sweep's output: the writer thread for more than one block."""
    return (thread is not threading.main_thread()) is multi_block


@pytest.mark.usefixtures("threads_joined")
class TestWriterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_matches_row_by_row_reference(self, case, fmt, tmp_path, monkeypatch):
        argv = WRITER_CASES[case] + ["--format", fmt]
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert main(argv + ["--output", str(out)]) == 0
        monkeypatch.setattr(cli, "_write_output", reference_write)
        assert main(argv + ["--output", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_cases_reach_the_special_values(self, tmp_path):
        def written(case, fmt):
            path = tmp_path / f"{case}.{fmt}"
            assert main(WRITER_CASES[case] + ["--format", fmt, "--output", str(path)]) == 0
            return path.read_text()

        assert ",\n" in written("bell-clip", "csv") and ": null" in written("bell-clip", "json")
        assert written("bell-no-axis-clipped", "csv").endswith("\nbell\n\n")
        signed_zero = written("signed-zero", "csv"), written("signed-zero", "json")
        assert ",-0," in signed_zero[0] and '"gamma": -0.0,' in signed_zero[1]
        assert "\n0.10000000000000001," in signed_zero[0] and '"lambda": 0.1,' in signed_zero[1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_values_match_reference(self, fmt, tmp_path):
        # no sweep yields an infinity; the writer is handed one directly
        axes = {"lambda": np.array([0.5]), "j": np.linspace(0.0, 0.3, 4)}
        values = np.array([2.5, np.nan, np.inf, -np.inf])
        out, ref = tmp_path / "out", tmp_path / "ref"
        cli._write_output(str(out), fmt, "bell", "test", axes, values)
        reference_write(str(ref), fmt, "bell", "test", axes, values)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_python_formatted_values_match_reference(self, fmt, tmp_path):
        # zeros, subnormals, extremes and powers of two take Python's formatter, beside exact values
        axes = {"lambda": np.array([0.0, 5e-324, 1e-300, 0.3]), "j": np.array([1e300, 2.0**-1074 * 3, 0.5])}
        values = np.array([[1e-300, -1e300, 2.2250738585072014e-308 / 3, 2.0**-20, -0.0, 1e17],
                           [1.0, -2.0, 0.1, 1e-7, 1e-5, 9007199254740993.0]]).reshape(4, 3)
        out, ref = tmp_path / "out", tmp_path / "ref"
        cli._write_output(str(out), fmt, "bell", "test", axes, values)
        reference_write(str(ref), fmt, "bell", "test", axes, values)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_file(self, fmt, tmp_path, capsysbinary):
        argv = WRITER_CASES["bell-clip"] + ["--format", fmt]
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out)]) == 0
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestWriterBlockEdges(TestWriterBytes):
    """The byte checks above with blocks of 1 and of 7 rows; 7 cuts a leading axis's run part-way through."""

    @pytest.fixture(autouse=True, params=[1, 7], ids=lambda rows: f"rows{rows}")
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", request.param)


@pytest.mark.usefixtures("threads_joined")
class TestWriterStreams:
    def test_memory_does_not_grow_with_the_grid(self, monkeypatch, rng):
        # blocks of 1,000 rows: a 4e4-row file may cost more than a 1e4-row one only by its value array
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1000)

        def peak(lambdas):
            axes = {"lambda": np.linspace(0.0, 1.5, lambdas), "j": np.linspace(0.01, 0.5, 100)}
            values = rng.uniform(-2.8, 2.8, (lambdas, 100))
            tracemalloc.start()
            try:
                cli._write_output(os.devnull, "json", "bell", "test", axes, values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = 300 * 100 * 8
        assert peak(400) - peak(100) < growth + 2**20

    def test_closed_stdout_pipe_exits_3(self, child_env):
        # 90,000 rows: the reader takes one line and closes the pipe while the first block is being written
        argv = [sys.executable, "-m", "asymsqueeze", "bell", "--lambda", "0:1:300", "--j", "0.01:0.5:300"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env) as proc:
            assert proc.stdout.readline().startswith(b"# quantity=bell ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 3
        assert err == b"i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("per_write, capacity, code", [(1000, math.inf, 0), (math.inf, 1000, 3)],
                             ids=["short-writes", "full-device"])
    def test_short_writes(self, per_write, capacity, code, multi_block, tmp_path, monkeypatch, capsys):
        # a short write is written again from where it stopped; a write that stores nothing is an i/o error
        argv = WRITER_CASES["bell-clip"] + ["--format", "json", "--output", str(tmp_path / "out")]
        assert main(argv) == 0
        expected = (tmp_path / "out").read_bytes()
        device = ShortWriteFile(per_write, capacity)
        monkeypatch.setattr(cli, "open", device.open, raising=False)
        assert main(argv) == code
        stored = bytes(device.stored)
        if code:
            assert stored == expected[:capacity]
            assert re.fullmatch(r"i/o error: \d+ bytes of the output were not written\n", capsys.readouterr().err)
        else:
            assert stored == expected
        assert device.closed_by is device.opened_by and writes_on(device.opened_by, multi_block)

    def test_closed_pipe_on_the_writer_thread_exits_3(self, multi_block, monkeypatch, capsys):
        # the same failure as test_closed_stdout_pipe_exits_3, in this process
        read, write = os.pipe()
        os.close(read)
        with io.TextIOWrapper(open(write, "wb", buffering=0)) as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["bell", "--lambda", "0:1:30", "--j", "0.01:0.5:30"]) == 3
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("exc, code", [(MemoryError, 1), (KeyboardInterrupt, None)])
    def test_main_thread_failure_stops_the_writer(self, exc, code, tmp_path, monkeypatch, capsys):
        # blocks of 7 rows: the fourth block's values fail to format; the writer writes at most what was
        # handed to it, then closes the file on its own thread
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
        argv = WRITER_CASES["bell-clip"] + ["--format", "json", "--output", str(tmp_path / "out")]
        assert main(argv) == 0
        expected = (tmp_path / "out").read_bytes()
        calls, field, device = [], cli._field, ShortWriteFile(math.inf, math.inf)

        def failing(values, *args):
            calls.append(values.size)
            if len(calls) == 2 + 4:  # the lambda and J axes, then one call per block
                raise exc()
            return field(values, *args)

        monkeypatch.setattr(cli, "_field", failing)
        monkeypatch.setattr(cli, "open", device.open, raising=False)
        if code is None:
            with pytest.raises(exc):
                main(argv)
        else:
            assert main(argv) == code
            assert capsys.readouterr().err == "error: out of memory\n"
        assert len(calls) == 6
        assert expected.startswith(bytes(device.stored)) and len(device.stored) < len(expected)
        assert device.closed_by is device.opened_by is not threading.main_thread()

    def test_open_failure_on_the_writer_thread_exits_3(self, multi_block, tmp_path, monkeypatch, capsys):
        openers = []

        def recording_open(*args, **kwargs):
            openers.append(threading.current_thread())
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        assert main(WRITER_CASES["bell-clip"] + ["--output", str(tmp_path / "missing" / "out")]) == 3
        assert capsys.readouterr().err.startswith("i/o error: [Errno 2] No such file or directory: ")
        assert len(openers) == 1 and writes_on(openers[0], multi_block)


class ShortWriteFile:
    """A file whose text or binary writes store at most ``per_write`` characters each, and nothing
    once ``capacity`` are stored; each write returns the count it stored.  It records the threads
    that open and close it."""

    def __init__(self, per_write, capacity):
        self.per_write, self.capacity, self.stored = per_write, capacity, bytearray()
        self.opened_by = self.closed_by = None

    def open(self, *args, **kwargs):
        self.opened_by = threading.current_thread()
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed_by = threading.current_thread()
        return False

    def write(self, data):
        count = int(min(len(data), self.per_write, self.capacity - len(self.stored)))
        self.stored += data[:count].encode() if isinstance(data, str) else data[:count]
        return count

    def flush(self):
        pass


def formatted(values, shortest):
    """The writer's text of each value: ``"%.17g" % v``, or ``json.dumps(v)`` if ``shortest``."""
    return [bytes(row).rstrip(b"\0").decode() for row in cli._field(np.asarray(values, float), shortest, "")]


def python_formatted(values, shortest):
    # json.dumps(v) is repr(v) for finite v, and Infinity and -Infinity for the infinities
    return [json.dumps(v) if shortest else "%.17g" % v for v in np.asarray(values, float).tolist()]


def powers_of_ten_and_neighbours():
    tens = [10.0**k for k in range(-30, 31)]
    return tens + [np.nextafter(t, s) for t in tens for s in (-np.inf, np.inf)]


def seventeen_digit_ties():
    """Doubles x with x 10**(16 - X) exactly half-way between two integers (X the decimal exponent)."""
    halves = {13: (0.0625, 0.1875), 14: (0.125, 0.375), 15: (0.25, 0.75)}  # 10**(3, 2, 1) f = odd / 2
    ties = [10.0**e + k + f for e, fs in halves.items() for k in (0, 7, 12345, 98765432) for f in fs]
    for x in ties:
        assert (Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))).denominator == 2
    return ties


EDGE_VALUES = {
    "powers-of-ten": powers_of_ten_and_neighbours(),
    "powers-of-two": [2.0**k for k in range(-1074, 1024)],
    "ties": seventeen_digit_ties(),
    # two 16-digit candidates equally far inside the rounding interval: repr takes the even one
    "repr-ties": [70000000000.0 + k / 64 for k in (1, 3, 5, 7)],
    "zeros-and-subnormals": [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 2.2250738585072014e-308 / 3,
                             np.nextafter(2.2250738585072014e-308, 0.0)],
    "around-2**53": [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4, 2.0**54 + 8],
    # the switches between fixed and exponent notation
    "notation": [1e-5, 1e-4, 1e15, 1e16, 1e17, 9.999999999999999e-05, 1.0000000000000001e-4, 9999999999999998.0,
                 99999999999999984.0, 1e-6, 1.0000000000000002e-6, 9.9999999999999995e-7],
    "integral": [2.0, 1e16, 123.0, 1e15, 4e16, 12345678901234567.0, 1.0, 10.0, 100.0],
    "extremes": [1.7976931348623157e308, 1e300, 1e-300, 1e100],
}
# the value ranges of the benchmark's sweeps
BENCH_RANGES = {
    "lambda": (0.0, 1.5), "gamma": (-2.0, 2.0), "j": (0.004, 0.5), "theta": (0.0, 2 * math.pi),
    "bell": (-2 * math.sqrt(2), 2 * math.sqrt(2)), "log_negativity": (0.0, 4.0), "fidelity": (0.0, 1.0),
    "fidelity_difference": (-0.5, 0.5),
}
BITS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))


class TestFormatter:
    """The vectorised formatter against Python's own, bit for bit."""

    @pytest.mark.parametrize("shortest", [False, True], ids=["%.17g", "repr"])
    @pytest.mark.parametrize("case", EDGE_VALUES)
    def test_edge_values(self, case, shortest):
        values = np.array(EDGE_VALUES[case] + [-v for v in EDGE_VALUES[case]])
        assert formatted(values, shortest) == python_formatted(values, shortest)

    @pytest.mark.parametrize("shortest", [False, True], ids=["%.17g", "repr"])
    @pytest.mark.parametrize("name", BENCH_RANGES)
    def test_bench_ranges(self, name, shortest):
        values = np.random.default_rng(sorted(BENCH_RANGES).index(name)).uniform(*BENCH_RANGES[name], 10**5)
        assert formatted(values, shortest) == python_formatted(values, shortest)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | BITS.filter(lambda x: not math.isnan(x)), min_size=1, max_size=50))
    def test_any_double(self, values):
        for shortest in (False, True):
            assert formatted(values, shortest) == python_formatted(values, shortest)

    def test_python_formats_what_the_vector_route_cannot_decide(self):
        def left(values, shortest):
            return cli._decimal(np.array(values), shortest)[2]

        outside = [0.0, -0.0, 5e-324, 1e-6, -1e-7, 1e17, 1e300, math.inf, -math.inf, math.nan]
        assert left(outside, False).all() and left(outside, True).all()
        powers = [2.0**k for k in range(-19, 57)]  # asymmetric rounding intervals
        assert left(powers, True).all() and not left(powers, False).any()
        # a tie of two candidates inside the interval, and a candidate on its edge
        edges = [70000000000.015625, 2.0**54 + 4]
        assert left(edges, True).all() and not left(edges, False).any()
        assert not left([0.1, 1.0000000000000002, 2.5, 1e-5, 9e16, 70000000000.0], True).any()

    def test_ties_round_to_even(self):
        assert formatted([1e14 + 0.125, 1e14 + 0.375], False) == ["100000000000000.12", "100000000000000.38"]

    def test_python_formats_under_one_percent_of_a_bell_sweep(self, monkeypatch):
        # lambda x J x theta as the benchmark's bell sweeps lay them out; Python formats what the
        # vectorised route leaves (here the zeros at the start of the lambda and theta axes)
        captured = {}
        monkeypatch.setattr(cli, "_write_output", lambda *args: captured.update(axes=args[4], values=args[5]))
        assert main(["bell", "--lambda", "0:1.15:60", "--gamma", "0.05", "--j", "0.005:0.48:60",
                     "--theta", f"0:{TAU}:56", "--phi", "0.05"]) == 0
        values = np.concatenate([captured["values"].ravel(), *captured["axes"].values()])
        for shortest in (False, True):
            share = cli._decimal(values, shortest)[2].mean()
            assert 0 < share < 0.01


def per_point_writer(value):
    """A writer that drops the sweep's values and writes value(SqueezeParams, *settings) per
    grid point instead, one library call each, through the row-by-row reference writer."""

    def write(path, fmt, quantity, source, axes, values):
        coords = [g.ravel().tolist() for g in np.meshgrid(*axes.values(), indexing="ij")]
        flat = [value(SqueezeParams(lam, gamma), *rest) for lam, gamma, *rest in zip(*coords)]
        reference_write(path, fmt, quantity, source, axes, np.array(flat, dtype=float))

    return write


def clipped_bell(params, j, theta, phi):
    value = bell_function(params, BellSetting(j, theta, phi)).value
    return value if value > 2.0 else math.nan


REGIONS = {
    "paper": ["--lambda", "0:1.5:13", "--gamma", "-2:2:11"],
    "box": ["--lambda", "0:5:11", "--gamma", "-5:5:13"],
}
# the bell settings stay inside [0, 2 pi), where BellSetting keeps the angles as given
SWEEPS = {
    "negativity": (["negativity"], lambda p: log_negativity_closed(p)),
    "fidelity-coherent": (["fidelity"], lambda p: fidelity_coherent_closed(p).value),
    **{
        f"fidelity-r{r}": (["fidelity", "--r", r], lambda p, r=float(r): fidelity_squeezed_closed(p, r).value)
        for r in ("0", "1", "-2.5", "3")
    },
    **{
        f"difference-r{r}": (["fidelity", "--r", r, "--difference"], lambda p, r=float(r): fidelity_difference(p, r))
        for r in ("0", "1", "-2.5", "3")
    },
    "bell": (["bell", "--j", "0.02", "--theta", "2.1", "--phi", "0.7"],
             lambda p, *setting: bell_function(p, BellSetting(*setting)).value),
    "bell-j-clipped": (["bell", "--j", "0.005:0.5:4", "--theta", f"{math.pi}", "--clip-at-2"], clipped_bell),
}


class TestGridRoute:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("region", REGIONS)
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_matches_per_point_library_calls(self, sweep, region, fmt, tmp_path, monkeypatch):
        command, value = SWEEPS[sweep]
        argv = command + REGIONS[region] + ["--format", fmt]
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert main(argv + ["--output", str(out)]) == 0
        monkeypatch.setattr(cli, "_write_output", per_point_writer(value))
        assert main(argv + ["--output", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("command", [["negativity"], ["fidelity", "--r", "1", "--difference"], ["bell"]])
    @pytest.mark.parametrize("axis, spec, message", [
        ("--lambda", "0:7:5", "--lambda value 7.0 outside [0.0, 5.0]"),
        ("--lambda", "-0.5:1:3", "--lambda value -0.5 outside [0.0, 5.0]"),
        ("--gamma", "-6:1:3", "--gamma value -6.0 outside [-5.0, 5.0]"),
        ("--gamma", "nan", "--gamma value nan outside [-5.0, 5.0]"),
    ])
    def test_out_of_range_axis_exits_1(self, command, axis, spec, message, capsys):
        assert main(command + [axis, spec]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_range_check_covers_the_whole_array(self):
        # f > 0 lies outside the envelope, so only a value handed in directly reaches the check
        good = np.array([[0.5, 1.0]])
        assert _check_fidelity(good) is good
        for values in (np.array([[0.5, 1.0, 1.5]]), np.array([0.2, 0.0]), np.array([0.3, np.nan])):
            with pytest.raises(ValidationError, match="outside"):
                _check_fidelity(values)
        with pytest.raises(ValidationError, match="fidelity 2.0 outside"):
            fidelity_values(np.array([[-0.5, 0.5]]), 0.0, False)
        # 0 < f < e^{-2|r|} gives F(r) > 1
        for r, difference in ((1.0, False), (0.0, True), (1.0, True)):
            with pytest.raises(ValidationError, match="outside"):
                fidelity_values(np.array([[-0.5], [0.1]]), r, difference)


class TestDeterminism:
    def test_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["negativity", "--lambda", "0:1.2:20", "--gamma", "-1:1:11"]
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_byte_identical_subprocess(self, tmp_path, child_env):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [sys.executable, "-m", "asymsqueeze.cli", "bell",
                "--lambda", "0:1:8", "--gamma", "0.7", "--j", "0.02", "--format", "json"]
        subprocess.run(args + ["--output", str(a)], check=True, env=child_env)
        subprocess.run(args + ["--output", str(b)], check=True, env=child_env)
        assert a.read_bytes() == b.read_bytes()

    def test_package_entry_point_matches_cli_module(self, child_env):
        argv = ["negativity", "--lambda", "0:1:4", "--gamma", "-1:1:3"]
        outputs = [
            subprocess.run([sys.executable, "-m", module] + argv, check=True, capture_output=True, env=child_env).stdout
            for module in ("asymsqueeze", "asymsqueeze.cli")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"# quantity=log_negativity")


class TestCachedParser:
    """``main`` reuses one parser per process, so no call may leave anything in it for the next."""

    BELL = ["bell", "--lambda", "0:1:6", "--gamma", "0.4", "--j", "0.01:0.3:5"]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flag_does_not_carry_to_the_next_call(self, tmp_path, child_env):
        clipped, plain, fresh = (tmp_path / name for name in ("clipped.csv", "plain.csv", "fresh.csv"))
        assert main(self.BELL + ["--clip-at-2", "--output", str(clipped)]) == 0
        assert main(self.BELL + ["--output", str(plain)]) == 0
        argv = [sys.executable, "-m", "asymsqueeze", *self.BELL, "--output", str(fresh)]
        subprocess.run(argv, check=True, env=child_env)
        assert plain.read_bytes() == fresh.read_bytes()
        assert b",\n" in clipped.read_bytes() and b",\n" not in plain.read_bytes()

    @pytest.mark.parametrize("bad", [["--theta", "7"], ["--lambda", "1:0:3"], ["--format", "xml"], ["--bogus"]])
    def test_refused_call_leaves_the_next_call_unchanged(self, bad, tmp_path, capsys):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert main(self.BELL + ["--output", str(before)]) == 0
        assert main(self.BELL + bad + ["--output", str(tmp_path / "refused.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(self.BELL + ["--output", str(after)]) == 0
        assert after.read_bytes() == before.read_bytes()
        assert not (tmp_path / "refused.csv").exists()


class TestValidationAndExitCodes:
    def test_bad_range_order(self, capsys):
        assert run_cli(["negativity", "--lambda", "2:1:5"]) == 1
        assert "min < max" in capsys.readouterr().err

    def test_single_step_range(self):
        assert run_cli(["negativity", "--lambda", "0:1:1"]) == 1

    def test_envelope(self):
        assert run_cli(["negativity", "--lambda", "0:7:5"]) == 1
        assert run_cli(["fidelity", "--lambda", "0.5", "--gamma", "0", "--r", "4"]) == 1

    @pytest.mark.parametrize("spec, message", [
        ("0:1", "--lambda: range syntax is min:max:steps, got '0:1'"),
        ("a:1:3", "--lambda: cannot parse range 'a:1:3'"),
        ("abc", "--lambda: cannot parse value 'abc'"),
    ])
    def test_unparsable_axis(self, spec, message, capsys):
        assert run_cli(["negativity", "--lambda", spec]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_flag(self):
        assert run_cli(["negativity", "--bogus", "1"]) == 1

    def test_verify_envelope_validation(self):
        assert run_cli(["verify", "--lambda", "7.0"]) == 1

    def test_verify_cutoff_too_small_surfaces(self, capsys):
        assert run_cli(["verify", "--cutoff", "12", "--lambda", "0.8", "--gamma", "0"]) == 2
        assert "cutoff" in capsys.readouterr().err

    def test_verify_cancelled_series_surfaces(self, capsys):
        # the oracle builds at this pair, but the Fock series cancels to noise and gains norm
        assert run_cli(["verify", "--cutoff", "130", "--lambda", "1.2", "--gamma", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: Fock series at cutoff 130 cancels to noise for SqueezeParams(lam=1.2, gamma=1.0)"
            " (norm deficit -8.934e-07)\n"
        )

    def test_verify_series_tail_surfaces(self, capsys):
        # one step lower the series holds, and its deficit is the state's true tail (2.04e-6)
        assert run_cli(["verify", "--cutoff", "120", "--lambda", "1.2", "--gamma", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: cutoff 120 leaves too much of the state outside the basis (norm deficit 2.014e-06)\n"
        )

    @pytest.mark.parametrize("pair", [["--lambda", "0.3", "--gamma", "0.7", "--cutoff", "12"], ["--cutoff", "10"]])
    def test_verify_truncated_moments_surface(self, pair, capsys):
        # the states build (edge mass 4.9e-9 and 1.5e-7), but their truncated moments miss the uncertainty relation
        assert run_cli(["verify", *pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cutoff {pair[-1]} truncates the moments: uncertainty relation violated")
        assert "(edge mass " in err

    def test_verify_deviations_are_nonnegative(self, capsys):
        # at this pair the oracle's norm exceeds 1 by rounding, so 1 - overlap is about -7e-16
        assert run_cli(["verify", "--cutoff", "40", "--lambda", "0.6", "--gamma", "-0.5"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
        assert len(lines) == len(verify.TOLERANCES)
        assert all(float(line.split()[4]) >= 0.0 for line in lines)

    def test_verify_breach_names_a_cutoff_that_passes(self, capsys):
        argv = ["verify", "--lambda", "0.5", "--gamma", "1"]
        assert run_cli(argv + ["--cutoff", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out.count("FAIL") >= 1
        match = re.search(r"covariance.* at \(0\.5, 1\.0\), cutoff 30; cutoff (\d+) passes", captured.err)
        assert match is not None, captured.err
        larger = int(match.group(1))
        assert 30 < larger <= 60
        assert run_cli(argv + ["--cutoff", str(larger)]) == 0
        assert capsys.readouterr().out.count("PASS") == len(verify.TOLERANCES)

    def test_verify_coarse_grid_by_default(self, capsys):
        assert run_cli(["verify"]) == 0
        checks, pairs = len(verify.TOLERANCES), len(verify.PLANS["coarse"][0])
        assert capsys.readouterr().out.endswith(f"all {checks} oracle checks passed for {pairs} parameter pair(s)\n")

    def test_verify_breach_that_no_cutoff_mends(self, monkeypatch, capsys):
        monkeypatch.setitem(verify.TOLERANCES, "covariance", 0.0)
        assert run_cli(["verify", "--cutoff", "20", "--lambda", "0.3", "--gamma", "0.7"]) == 2
        assert capsys.readouterr().err == (
            "error: tolerance breached by: covariance at (0.3, 0.7), cutoff 20; no cutoff up to 40 passes\n"
        )

    def test_verify_breach_report_names_a_cutoff_that_cannot_be_built(self, monkeypatch, capsys):
        # the search for a passing cutoff ends at the first one whose states cannot be built, and the
        # report keeps the breach (as at (1.0, 1.0), cutoff 80, whose search meets the series' gate at 135)
        monkeypatch.setitem(verify.TOLERANCES, "covariance", 0.0)
        deviations = verify.oracle_deviations

        def unbuildable_from_30(params, cutoff, points):
            if cutoff >= 30:
                raise CutoffTooSmallError(f"Fock series at cutoff {cutoff} cancels to noise", -1e-3)
            return deviations(params, cutoff, points)

        monkeypatch.setattr(verify, "oracle_deviations", unbuildable_from_30)
        assert run_cli(["verify", "--cutoff", "20", "--lambda", "0.3", "--gamma", "0.7"]) == 2
        assert capsys.readouterr().err == (
            "error: tolerance breached by: covariance at (0.3, 0.7), cutoff 20; no cutoff up to 25 passes,"
            " and cutoff 30 fails: Fock series at cutoff 30 cancels to noise (norm deficit -1.000e-03)\n"
        )

    @pytest.mark.parametrize("at", [0, -1], ids=["first-pair", "last-pair"])
    @pytest.mark.parametrize("check", verify.TOLERANCES)
    def test_verify_fails_on_a_nan_at_any_pair(self, check, at, monkeypatch, capsys):
        # the merge over pairs keeps a NaN wherever it falls (the builtin max keeps it only first)
        pair = verify.PLANS["coarse"][0][at]

        def nan_at_one_pair(params, cutoff, points):
            return {name: math.nan if (name, (params.lam, params.gamma)) == (check, pair) else 0.0
                    for name in verify.TOLERANCES}

        monkeypatch.setattr(verify, "oracle_deviations", nan_at_one_pair)
        assert run_cli(["verify"]) == 2
        captured = capsys.readouterr()
        assert f"check {check:<16s} max deviation nan" in captured.out
        assert [line.split()[1] for line in captured.out.splitlines() if line.endswith("FAIL")] == [check]
        report = f"{check} at {pair}, cutoff 40; no cutoff up to 80 passes"
        assert captured.err == f"error: tolerance breached by: {report}\n"

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("check, closed_form", [
        ("wigner", "wigner_closed"), ("char-fn", "cf_closed"), ("bell-combination", "bell_function")])
    def test_verify_fails_on_a_nan_at_any_point(self, check, closed_form, at, monkeypatch, capsys):
        # a check's maximum over points (or Bell settings) keeps a NaN wherever it falls
        closed = getattr(verify, closed_form)
        target = (verify.BELL_SETTINGS if check == "bell-combination" else verify.check_points("coarse"))[at]
        nan = BellValue(math.nan) if check == "bell-combination" else math.nan
        monkeypatch.setattr(verify, closed_form, lambda params, x: nan if x == target else closed(params, x))
        assert run_cli(["verify", "--lambda", "0.3", "--gamma", "0.7"]) == 2
        captured = capsys.readouterr()
        assert f"check {check:<16s} max deviation nan" in captured.out
        assert [line.split()[1] for line in captured.out.splitlines() if line.endswith("FAIL")] == [check]
        assert captured.err.startswith(f"error: tolerance breached by: {check} at (0.3, 0.7), cutoff 40; ")

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 201. GiB for an array with shape (3000, 1, 3000, 3000, 1)"),
         "Unable to allocate 201. GiB for an array with shape (3000, 1, 3000, 3000, 1)"),
        (MemoryError(), "out of memory"),
    ])
    def test_grid_too_large_to_allocate_exits_1(self, exc, message, monkeypatch, capsys):
        def oversized(*args):
            raise exc

        monkeypatch.setattr(cli, "bell_values", oversized)
        assert run_cli(["bell", "--lambda", "0:1:3000", "--j", "0.01:0.5:3000", "--theta", "0:1:3000"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_io_failure(self):
        assert run_cli(["negativity", "--lambda", "0:1:3", "--gamma", "0",
                        "--output", "/nonexistent-dir/x.csv"]) == 3

    def test_verify_passes_on_converged_point(self, capsys):
        assert run_cli(["verify", "--cutoff", "26", "--lambda", "0.3", "--gamma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(verify.TOLERANCES)
        assert "FAIL" not in out


def library_decisions(source):
    """What ``source`` decides that the library should: each package name it imports whose module
    or name is private (dunders aside), each asinh, each random generator, and each list of
    numeric pairs, one text apiece."""
    def number(node):
        node = node.operand if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) else node
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("asymsqueeze")):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
            found += [f"private import {name}" for name in names if name.startswith("_") and not name.endswith("__")]
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "random" or "._" in a.name]
        elif isinstance(node, (ast.Attribute, ast.Name, ast.alias)):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or node.name
            if name in ("asinh", "default_rng", "RandomState", "Generator", "random"):
                found.append(name)
        if isinstance(node, (ast.List, ast.Tuple)) and any(
                isinstance(item, ast.Tuple) and item.elts and all(map(number, item.elts)) for item in node.elts):
            found.append(f"pair list at line {node.lineno}")
    return found


class TestOneHome:
    """``cli.py`` parses, dispatches, formats and writes: E_N, the CHSH kernel and the ``verify``
    plan come from the library, each from one home."""

    def test_cli_makes_no_library_decision(self):
        assert library_decisions(Path(cli.__file__).read_text(encoding="utf-8")) == []

    def test_the_check_sees_each_kind(self):
        source = ("from . import _kernels, __version__\nfrom ._kernels import bell_values\nimport math\n"
                  "e = math.asinh(1.0)\nrng = np.random.default_rng(1)\npairs = [(0.3, 0.7), (0.6, -0.5)]\n"
                  "bounds = {'j': (0.0, 10.0)}\n")
        assert sorted(library_decisions(source)) == [
            "asinh", "default_rng", "pair list at line 6", "private import _kernels", "private import _kernels", "random"]

    @pytest.mark.parametrize("grid", verify.PLANS)
    def test_check_points_are_four_scalar_draws_per_point(self, grid):
        # one (count, 4) draw takes the generator's stream in the order of four scalar draws a point
        rng = np.random.default_rng(20240814)
        expected = []
        for _ in range(verify.PLANS[grid][1]):
            alpha = rng.uniform(-0.35, 0.35) + 1j * rng.uniform(-0.35, 0.35)
            beta = rng.uniform(-0.35, 0.35) + 1j * rng.uniform(-0.35, 0.35)
            expected.append(PhasePoint.from_complex(alpha, beta))
        assert verify.check_points(grid) == expected

    @pytest.mark.parametrize("grid", verify.PLANS)
    def test_verify_runs_the_plan(self, grid, monkeypatch, capsys):
        seen = []

        def deviations(params, cutoff, points):
            seen.append(((params.lam, params.gamma), cutoff, points))
            return dict.fromkeys(verify.TOLERANCES, 0.0)

        monkeypatch.setattr(verify, "oracle_deviations", deviations)
        assert main(["verify", "--grid", grid]) == 0
        pairs, _ = verify.PLANS[grid]
        assert seen == [(pair, 40, verify.check_points(grid)) for pair in pairs]
        assert capsys.readouterr().out.endswith(f"for {len(pairs)} parameter pair(s)\n")
