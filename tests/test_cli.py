import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from asymsqueeze import (
    BellSetting,
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
    swept = [ax for ax in axes if ax.swept]
    fixed = {ax.name: float(ax.values[0]) for ax in axes if not ax.swept}
    coords = [g.ravel() for g in np.meshgrid(*[ax.values for ax in swept], indexing="ij")] if swept else []
    flat = values.ravel()
    if fmt == "csv":
        meta_bits = [f"quantity={quantity}", f"source={source}", f"version={__version__}"]
        meta_bits += [f"{k}={v:.17g}" for k, v in sorted(fixed.items())]
        lines = ["# " + " ".join(meta_bits), ",".join([ax.name for ax in swept] + [quantity])]
        for i in range(flat.size):
            row = [f"{c[i]:.17g}" for c in coords]
            row.append("" if np.isnan(flat[i]) else f"{float(flat[i]):.17g}")
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    else:
        records = []
        for i in range(flat.size):
            rec = {ax.name: float(c[i]) for ax, c in zip(swept, coords)}
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
}


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
        axes = [cli.Axis("lambda", np.array([0.5]), swept=False),
                cli.Axis("j", np.linspace(0.0, 0.3, 4), swept=True)]
        values = np.array([2.5, np.nan, np.inf, -np.inf])
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


def per_point_writer(value):
    """A writer that drops the sweep's values and writes value(SqueezeParams, *settings) per
    grid point instead, one library call each, through the row-by-row reference writer."""

    def write(path, fmt, quantity, source, axes, values):
        coords = [g.ravel().tolist() for g in np.meshgrid(*[ax.values for ax in axes], indexing="ij")]
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

    def test_verify_deviations_are_nonnegative(self, capsys):
        # at this pair the oracle's norm exceeds 1 by rounding, so 1 - overlap is about -7e-16
        assert run_cli(["verify", "--cutoff", "40", "--lambda", "0.6", "--gamma", "-0.5"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
        assert len(lines) == 6
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
        assert capsys.readouterr().out.count("PASS") == 6

    def test_verify_coarse_grid_by_default(self, capsys):
        assert run_cli(["verify"]) == 0
        assert capsys.readouterr().out.endswith("all 6 oracle checks passed for 2 parameter pair(s)\n")

    def test_verify_breach_that_no_cutoff_mends(self, monkeypatch, capsys):
        monkeypatch.setitem(verify.TOLERANCES, "covariance", 0.0)
        assert run_cli(["verify", "--cutoff", "20", "--lambda", "0.3", "--gamma", "0.7"]) == 2
        assert capsys.readouterr().err == (
            "error: tolerance breached by: covariance at (0.3, 0.7), cutoff 20; no cutoff up to 40 passes\n"
        )

    def test_io_failure(self):
        assert run_cli(["negativity", "--lambda", "0:1:3", "--gamma", "0",
                        "--output", "/nonexistent-dir/x.csv"]) == 3

    def test_verify_passes_on_converged_point(self, capsys):
        assert run_cli(["verify", "--cutoff", "26", "--lambda", "0.3", "--gamma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out
