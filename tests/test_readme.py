"""The README's library quick start runs and its CLI examples parse."""

import re
import shlex
from pathlib import Path

from dicepool import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README has no python code block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_cli_examples_parse():
    # parsed, never run: a flag the parser drops fails here
    block = re.search(r"## CLI\n+```sh\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README has no CLI code block"
    lines = [line.split("#")[0] for line in block.group(1).splitlines()]
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert commands and all(args[0] == "dicepool" for args in commands)
    for args in commands:
        cli.build_parser().parse_args(args[1:])
