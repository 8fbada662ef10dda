"""Every sweep command in the README's command-line block runs and exits 0,
its verify command passes every check, the library example prints what its
comments say, and the writer's block size is the one the README states."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from asymsqueeze import SqueezeParams, cli, log_negativity_closed, verify

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands(subcommands):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```bash\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "asymsqueeze" and argv[1] in subcommands:
            commands.append(argv[1:])
    return commands


COMMANDS = _readme_commands(("negativity", "bell", "fidelity"))
VERIFY_COMMANDS = _readme_commands(("verify",))


def test_readme_block_has_every_sweep():
    assert {argv[0] for argv in COMMANDS} == {"negativity", "bell", "fidelity"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:1] + a[-1:]) for a in COMMANDS])
def test_readme_command_exits_0(argv, tmp_path):
    argv = list(argv)
    k = argv.index("--output")
    out = tmp_path / argv[k + 1]
    argv[k + 1] = str(out)
    assert cli.main(argv) == 0
    assert out.stat().st_size > 0


def test_readme_block_has_a_verify_command():
    assert VERIFY_COMMANDS


@pytest.mark.parametrize("argv", VERIFY_COMMANDS, ids=[" ".join(a) for a in VERIFY_COMMANDS])
def test_readme_verify_command_passes(argv, capsys):
    # without --lambda and --gamma, verify runs its coarse or fine list of pairs
    assert cli.main(argv) == 0
    pairs = len(verify.PLANS[cli.build_parser().parse_args(argv).grid][0])
    expected = f"all {len(verify.TOLERANCES)} oracle checks passed for {pairs} parameter pair(s)\n"
    assert capsys.readouterr().out.endswith(expected)


def test_readme_states_the_writer_block_size():
    assert f"blocks of at most {cli._BLOCK_ROWS:,} rows" in README.read_text(encoding="utf-8")


def test_library_example_prints_its_comments():
    block = re.search(r"## Library example.*?```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    en, fidelity, bell, oracle_en = out.getvalue().splitlines()
    assert en == "1.3569444900743064"
    assert fidelity == "0.6758136121606705"
    assert bell == (
        "BellSetting(j=0.06111861120511939, theta=2.57814959219417, phi=1.0073532653992736)"
        " BellValue(value=2.167098460980169, violates=True)"
    )
    assert abs(float(oracle_en) - log_negativity_closed(SqueezeParams(0.5, 1.0))) <= 1e-5
