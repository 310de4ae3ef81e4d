"""The package's public surface: every exported name and the README examples."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import cantorprod
from cantorprod import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_cli_import_compiles_no_record_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each decorator
    # execs fresh source on every import: too much for a start-up-bound CLI.
    # -S keeps site .pth files from importing either module first.
    probe = "import cantorprod.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
