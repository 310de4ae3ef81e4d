"""The package's public surface: every exported name, the README examples, and
which modules each entry point loads, row by row of tests/command_lines.py."""

from __future__ import annotations

import ast
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import cantorprod
from cantorprod import cli, gaps
from command_lines import FORBIDDEN, IMPORTS, LOADS, ROWS, every_choice
from test_cli import masked, run_cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


# Each public name and the reader that keeps it.  A name stays public while
# one of these reads it: a command, the README's library example, an
# acceptance criterion (by number), a perfbench hook (by file), or the paper,
# whose object it is.  A record class or helper that another public name
# returns or calls is kept by that name.  A value some other public name
# already hands out is not a reason to stay, so a face added or dropped
# changes this table, and each reader is checked below.
PUBLIC = {
    "CertificationError": ("command", "certify"),
    "Certificate": ("kept name", "certify"),
    "EstimateResult": ("kept name", "standard_estimate"),
    "FastBounds": ("kept name", "fast_bounds"),
    "FastNode": ("kept name", "node_child"),
    "FastSubdivision": ("kept name", "fast_subdivision"),
    "Interval": ("kept name", "IntervalSet"),
    "IntervalSet": ("perfbench", "tracing.py"),
    "Membership": ("criterion", 8),
    "ROOT": ("readme", "the root cell [2/3, 1] of R"),
    "TernaryExpansion": ("kept name", "classify_ternary"),
    "certify": ("perfbench", "tracing.py"),
    "classify_ternary": ("perfbench", "tracing.py"),
    "convergence_tail": ("paper", "the standard estimate's tail (1/63)(2/9)^(n-1)"),
    "decimal_string": ("perfbench", "tracing.py"),
    "fast_bounds": ("perfbench", "tracing.py"),
    "fast_subdivision": ("perfbench", "tracing.py"),
    "format_rational": ("kept name", "Interval"),
    "full_enclosure": ("readme", "the certified enclosure of measure(P(C x C))"),
    "g_interval": ("paper", "the diagonal gap G of the gap calculus"),
    "gap_set": ("paper", "the gap family B"),
    "level3_enclosure": ("criterion", 5),
    "node_child": ("criterion", 3),
    "p_interval": ("readme", "the band P of the gap calculus"),
    "q_interval": ("paper", "the child square Q of the gap calculus"),
    "rat": ("kept name", "Interval"),
    "removed_gaps": ("criterion", 8),
    "render_svg": ("perfbench", "tracing.py"),
    "right_half_subdivision": ("perfbench", "tracing.py"),
    "squared_length_sum": ("paper", "the squared-length sum and its limit (1/9)(1/36)^n"),
    "standard_estimate": ("perfbench", "tracing.py"),
    "standard_subdivision": ("paper", "the level-n cover K_n"),
    "verify_order_chain": ("criterion", 6),
}


def readme_library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_resolve_and_readme_library_example_runs():
    assert [name for name in cantorprod.__all__ if not hasattr(cantorprod, name)] == []
    assert cantorprod.__all__ == sorted(PUBLIC)
    exec(compile(readme_library_example(), str(README), "exec"), {})


def criterion_names(number: int) -> set[str]:
    """The names the acceptance test of criterion `number` reads."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    [test] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith(f"test_criterion_{number}_")]
    return {node.id for node in ast.walk(test) if isinstance(node, ast.Name)}


def reads(source: str, name: str) -> bool:
    return re.search(rf"\b{name}\b", source) is not None


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_is_read_by_its_reader(name):
    reader, detail = PUBLIC[name]
    if reader == "command":
        assert reads(inspect.getsource(cli.COMMANDS[detail][0]), name)
    elif reader == "readme":
        assert reads(readme_library_example(), name)
    elif reader == "criterion":
        assert name in criterion_names(detail)
    elif reader == "perfbench":
        assert reads((ROOT / "perfbench" / detail).read_text(encoding="utf-8"), name)
    elif reader == "kept name":
        assert reads(inspect.getsource(getattr(cantorprod, detail)), name)
        chain = [name, detail]
        while PUBLIC[chain[-1]][0] == "kept name":  # it ends at a reader, not in a loop
            chain.append(PUBLIC[chain[-1]][1])
            assert len(set(chain)) == len(chain), chain
    else:
        assert (reader, bool(detail)) == ("paper", True)


def test_readme_command_lines_parse():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words for words in commands if words and words[0] == "cantorprod"]
    assert commands
    for words in commands:
        argv = words[1 : words.index(">")] if ">" in words else words[1:]
        cli.parse_args(argv)


def run_probe(*args: str) -> subprocess.CompletedProcess:
    """A fresh `python -S` on this checkout's sources; -S keeps site .pth files
    from importing anything first."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                          encoding="utf-8")


def probe_output(source: str, *argv: str) -> str:
    result = run_probe("-c", source, *argv)
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED = "sorted(m.split('.')[1] for m in sys.modules if m.startswith('cantorprod.'))"

# the child's sys.modules, written by an atexit handler, which cli.run runs
# before os._exit; registered before anything but builtins is imported
DUMP = """\
import atexit, sys
def dump():
    names = " ".join(sys.modules)
    with open({path!r}, "w", encoding="utf-8") as handle:
        handle.write(names)
atexit.register(dump)
"""


def probe_modules(tmp_path, source: str, *argv: str) -> tuple[subprocess.CompletedProcess, set]:
    """Run source after DUMP in a `python -S -W error` child; (the run, its sys.modules)."""
    path = tmp_path / "modules"
    result = run_probe("-W", "error", "-c", DUMP.format(path=str(path)) + source, *argv)
    return result, set(path.read_text(encoding="utf-8").split())


def package(modules: set) -> set:
    return {name.split(".", 1)[1] for name in modules if name.startswith("cantorprod.")}


# line -> (the child's exit code, stdout, stderr, sys.modules), so the per-command
# checks below start no second child for a row already probed
PROBED: dict[str, tuple[int, str, str, set]] = {}


def check_line(capsys, tmp_path, line: str) -> None:
    """Row `line` of ROWS: the child's output is main's, and it loads its modules alone."""
    argv = line.split()
    if line not in PROBED:
        # the process entry with only builtins before it: what the command itself loads
        result, modules = probe_modules(tmp_path, "from cantorprod.cli import run; run()", *argv)
        PROBED[line] = (result.returncode, result.stdout, result.stderr, modules)
    returncode, stdout, stderr, modules = PROBED[line]
    code, out, err = run_cli(capsys, *argv)
    assert (returncode, masked(stdout), stderr) == (code, masked(out), err)
    assert package(modules) == ROWS[line]
    assert sorted(modules & FORBIDDEN) == []


@pytest.mark.parametrize("line", ROWS)
def test_command_line_loads_its_modules(capsys, tmp_path, line):
    check_line(capsys, tmp_path, line)


def check_import(tmp_path, statement: str) -> None:
    package_modules, shown = IMPORTS[statement]
    result, modules = probe_modules(tmp_path, statement)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert package(modules) == package_modules
    assert modules & FORBIDDEN >= shown
    assert bool(modules & FORBIDDEN) == bool(shown)


@pytest.mark.parametrize("statement", IMPORTS)
def test_import_loads_its_modules(tmp_path, statement):
    # the bare cli import loads no forbidden module, and the library's records
    # and set face load theirs: the probe sees them
    check_import(tmp_path, statement)


# The per-command checks by name, each on its rows of the same table: a base
# line, or the base line under each of its --target and --format values.
BASE = {"member": "member --x 1/4", "art": "art --n 3", "fast": "fast --n 1 --K 2",
        "certify": "certify", "render": "render --n 0 --K 1", "selftest": "selftest"}


def choices(command: str) -> list[str]:
    return [" ".join(argv) for argv in every_choice(BASE[command].split())]


def test_cli_import_compiles_no_record_machinery(tmp_path):
    check_import(tmp_path, "import cantorprod.cli")  # neither dataclasses nor inspect


def test_cli_import_loads_no_computation_module(tmp_path):
    check_import(tmp_path, "import cantorprod.cli")  # `cli` alone


@pytest.mark.parametrize("command", BASE)
def test_each_command_loads_only_the_modules_it_runs(capsys, tmp_path, command):
    check_line(capsys, tmp_path, BASE[command])


@pytest.mark.parametrize("command", [None, *BASE], ids=["import", *BASE])
def test_no_command_loads_argparse(capsys, tmp_path, command):
    if command is None:
        check_import(tmp_path, "import cantorprod.cli")
    else:
        check_line(capsys, tmp_path, BASE[command])


@pytest.mark.parametrize("command", BASE)
def test_no_command_loads_json(capsys, tmp_path, command):
    for line in choices(command):
        check_line(capsys, tmp_path, line)


@pytest.mark.parametrize("command", BASE)
def test_every_command_loads_no_record_machinery(capsys, tmp_path, command):
    for line in choices(command):
        check_line(capsys, tmp_path, line)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_member_runs_on_ints_alone(capsys, tmp_path, fmt):
    check_line(capsys, tmp_path, f"member --x 1/4 --format {fmt}")
    check_import(tmp_path, "import cantorprod.cli")


def test_member_loads_no_record_machinery(capsys, tmp_path):
    for fmt in ("json", "text"):
        check_line(capsys, tmp_path, f"member --x 1/4 --format {fmt}")
    check_import(tmp_path, "import cantorprod.cli")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["art", "fast"])
def test_art_and_fast_run_on_ints_alone(capsys, tmp_path, command, fmt):
    check_line(capsys, tmp_path, f"{BASE[command]} --format {fmt}")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("target", ["prop3", "theorem"])
def test_certify_runs_on_ints_alone(capsys, tmp_path, target, fmt):
    check_line(capsys, tmp_path, f"certify --target {target} --format {fmt}")


def test_selftest_runs_on_ints_alone(capsys, tmp_path):
    check_line(capsys, tmp_path, "selftest")


def named(text: str) -> set:
    return set(re.findall(r"`(\w+)`", text))


def test_docs_name_the_modules_each_command_loads():
    # cli's docstring and README's note on each command restate LOADS: each
    # names the command's modules, and what a note says it does not load is a
    # forbidden module or a package module it does not load
    bullet = r"^\* `(\w+)`:? (.*?)(?=\n\* |\n\n)"
    docstring = dict(re.findall(bullet, cli.__doc__, re.M | re.S))
    assert {command: named(text.split("(")[0]) for command, text in docstring.items()} == {
        command: set(loads) for command, loads in LOADS.items()}
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    notes = dict(re.findall(bullet, section.split("\n## ", 1)[0], re.M | re.S))
    assert set(notes) == set(LOADS)
    modules = {path.stem for path in (ROOT / "src" / "cantorprod").glob("*.py")}
    for command, text in notes.items():
        loads, neither = re.search(r"it loads (?:only )?(.*?), and neither (.*? nor `\w+`)",
                                   " ".join(text.split())).groups()
        assert named(loads) == set(LOADS[command]), command
        assert named(neither) <= (FORBIDDEN | modules) - {"cli", *LOADS[command]}, command


LIBRARY_ROUTES = """
import sys
from cantorprod import (
    ROOT, certify, fast_bounds, full_enclosure, level3_enclosure, p_interval,
    squared_length_sum, standard_estimate,
)

def leaves(value):
    if hasattr(value, "_fields"):  # a record: every field, by name
        for name in value._fields:
            yield from leaves(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value

est = standard_estimate(20)
cert = certify("theorem")
values = (est, est.full_bounds(), fast_bounds(2, 4), cert, cert.ok, level3_enclosure(),
          full_enclosure(), squared_length_sum(2, 3), p_interval(ROOT, 0, False))
heavy = {"fractions", "decimal", "numbers", "json", "__future__"}
print(sorted({type(leaf).__name__ for leaf in leaves(values)}), sorted(heavy & set(sys.modules)))
"""


def test_library_routes_run_on_ints_alone():
    # the records, enclosures and pairs the library hands out hold ints (and
    # a record's name and relation texts and match flags), and none of the
    # calls loads `fractions`
    assert probe_output(LIBRARY_ROUTES) == "['bool', 'int', 'str'] []\n"


@pytest.mark.parametrize("line", ROWS)
def test_module_run_is_clean_under_warnings_as_errors(capsys, line):
    # runpy warns when the package import has already loaded the module it runs
    argv = line.split()
    result = run_probe("-W", "error", "-m", "cantorprod.cli", *argv)
    code, out, err = run_cli(capsys, *argv)
    assert (result.returncode, masked(result.stdout), result.stderr) == (code, masked(out), err)
    if code == 0 and "--help" not in argv:  # what a JSON or SVG reader takes whole
        fmt = getattr(cli.parse_args(argv), "format", None)
        if fmt == "json":
            json.loads(result.stdout)
        elif fmt == "svg":
            ET.fromstring(result.stdout)


def test_dir_lists_exports_and_unknown_names_raise():
    probe = (
        "import cantorprod, sys\n"
        "print(sorted(set(cantorprod.__all__) - set(dir(cantorprod))), hasattr(cantorprod, 'nope'))\n"
        f"print({LOADED})\n"
    )
    # dir() needs no module loaded, and an unknown name is an AttributeError
    assert probe_output(probe) == "[] False\n[]\n"
    with pytest.raises(AttributeError, match="'nope'"):
        cantorprod.nope


def test_exports_follow_a_rebound_name(monkeypatch):
    # nothing is cached in the package: a name rebound in its module (a test
    # double, a tracing wrapper) is what the package hands out, until restored
    original = cantorprod.certify
    monkeypatch.setattr(gaps, "certify", lambda target="prop3": target)
    assert cantorprod.certify("theorem") == "theorem"
    monkeypatch.undo()
    assert cantorprod.certify is original
