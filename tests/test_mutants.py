"""The mutation gate's runner (tests/mutants.py) on rows whose outcome is known."""

from __future__ import annotations

import pytest

import mutants


def test_identity_row_survives_and_missing_snippet_raises(capsys):
    # every row's snippet is in its file exactly once, so each row applies
    for row in mutants.MUTANTS:
        assert (mutants.ROOT / row.path).read_text(encoding="utf-8").count(row.snippet) == 1, row
    # a row that changes nothing leaves its tests passing: a survivor
    row = mutants.MUTANTS[0]
    identity = row._replace(name="identity", replacement=row.snippet)
    assert mutants.survivors([identity]) == ["identity"]
    assert capsys.readouterr().out.startswith("SURVIVED  identity  (")
    # a snippet that is not there raises before any test runs
    missing = row._replace(name="missing", snippet="no such snippet")
    with pytest.raises(mutants.MutantError, match="missing: snippet occurs 0 times"):
        mutants.killed(missing)
