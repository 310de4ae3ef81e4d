"""The package's public surface: every exported name and the README example."""

from __future__ import annotations

import re
from pathlib import Path

import cantorprod

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_readme_library_example_runs():
    assert [name for name in cantorprod.__all__ if not hasattr(cantorprod, name)] == []
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
