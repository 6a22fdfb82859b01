"""The README's fixed-seed chain runs as written, and its tables and windows header are what the code writes."""

import json
import re
import shlex
from pathlib import Path

from fairhrv.cli import main
from fairhrv.dataset import WINDOWS_HEADER
from fairhrv.fairness import evaluate_predictions

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """The argv of each ``fairhrv`` line in the README's sh blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("fairhrv ")]


def readme_section(title: str) -> str:
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def out_table() -> dict:
    """{command: the artifact names in its row of the "What `--out` holds" table}."""
    table = {}
    for commands, artifacts in re.findall(r"^\| (`.*?`) \| (.*) \|$", readme_section("What `--out` holds"), re.M):
        for command in re.findall(r"`([\w-]+)`", commands):
            table[command] = re.findall(r"`([^`]+)`", artifacts)
    return table


def test_readme_chain_runs_as_written_and_writes_what_the_out_table_lists(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[1] for argv in commands] == ["synth", "mitigate", "saliency", "audit", "compare"]
    table = out_table()
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        listed = set(table[argv[1]])
        if argv[1] == "mitigate":  # one checkpoint per uncertainty record
            pattern = "checkpoints/ckpt_epoch_<k>.bin"
            epochs = [record["epoch"] for record in json.loads((out / "uncertainties.json").read_text())]
            listed = (listed - {pattern}) | {pattern.replace("<k>", str(k)) for k in epochs}
        assert set(json.loads((out / "manifest.json").read_text())["artifacts"]) == listed, argv[1]


def test_report_table_lists_exactly_the_report_keys():
    listed = re.findall(r"^\| `(\w+)` \|", readme_section("What `report.json` holds"), re.M)
    assert listed == list(evaluate_predictions([1, 0], [1, 0], [1, 0], "group"))


def test_windows_header_is_the_one_the_code_reads_and_writes():
    (header,) = re.findall(r"```csv\n(.*)\n```", readme_section("What a windows CSV holds"))
    assert header == ",".join(WINDOWS_HEADER)
