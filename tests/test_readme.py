"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from pauli_volumes.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first fenced ``lang`` block after the ``## section`` heading."""
    rest = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S)[1]


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("pauli-volumes ")
]


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "ratios", "volume", "classify", "mc", "check-conjectures", "dump-regions", "mub-verify",
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_readme_library_block_runs():
    exec(_block("Library", "python"), {})
