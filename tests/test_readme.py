"""Every sweep command in the README's command-line block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from asymsqueeze import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```bash\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "asymsqueeze" and argv[1] in ("negativity", "bell", "fidelity"):
            commands.append(argv[1:])
    return commands


COMMANDS = _readme_commands()


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
