"""The package's public surface: every exported name and the README examples."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import cantorprod
from cantorprod import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_readme_library_example_runs():
    assert [name for name in cantorprod.__all__ if not hasattr(cantorprod, name)] == []
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_parse():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words for words in commands if words and words[0] == "cantorprod"]
    assert commands
    parser = cli.build_parser()
    for words in commands:
        argv = words[1 : words.index(">")] if ">" in words else words[1:]
        parser.parse_args(argv)
