"""The README's fixed-seed chain runs as written, and its report table lists the report's keys."""

import re
import shlex
from pathlib import Path

from fairhrv.cli import main
from fairhrv.fairness import evaluate_predictions

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


def test_report_table_lists_exactly_the_report_keys():
    section = README.read_text().split("## What `report.json` holds", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert listed == list(evaluate_predictions([1, 0], [1, 0], [1, 0], "group"))
