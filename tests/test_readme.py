"""The README's fixed-seed chain runs as written."""

import re
import shlex
from pathlib import Path

from fairhrv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """The argv of each ``fairhrv`` line in the README's sh blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("fairhrv ")]


def test_readme_chain_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[1] for argv in commands] == ["synth", "mitigate", "saliency", "audit", "compare"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
