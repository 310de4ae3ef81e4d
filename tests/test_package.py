"""The package's public surface: every exported name, the README examples, and
which modules each entry point loads."""

from __future__ import annotations

import ast
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cantorprod
from cantorprod import cli, gaps

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
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True, text=True)


def probe_output(source: str, *argv: str) -> str:
    result = run_probe("-c", source, *argv)
    assert result.returncode == 0, result.stderr
    return result.stdout


RUN_MAIN = (
    "import contextlib, io, sys\n"
    "from cantorprod import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
)
LOADED = "sorted(m.split('.')[1] for m in sys.modules if m.startswith('cantorprod.'))"


def test_cli_import_compiles_no_record_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each decorator
    # execs fresh source on every import: too much for a start-up-bound CLI.
    probe = "import cantorprod.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert probe_output(probe) == "[]\n"


def test_cli_import_loads_no_computation_module():
    assert probe_output(f"import cantorprod.cli, sys; print({LOADED})") == "['cli']\n"


COMMANDS = {
    "member": (["member", "--x", "1/4"], ["ternary"]),
    "art": (["art", "--n", "3"], ["standard", "ternary"]),
    "fast": (["fast", "--n", "1", "--K", "2"], ["products", "subdivision", "ternary"]),
    "certify": (["certify"], ["gaps", "subdivision", "ternary"]),
    "render": (["render", "--n", "0", "--K", "1"], ["render", "subdivision", "ternary"]),
    "selftest": (["selftest"],
                 ["gaps", "products", "render", "standard", "subdivision", "ternary"]),
}


@pytest.mark.parametrize("argv, modules", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # nor `__future__`: `from __future__ import annotations` is a real import,
    # about 0.3 ms of a short-lived process
    probe = RUN_MAIN + f"print(code, {LOADED}, '__future__' in sys.modules)\n"
    assert probe_output(probe, *argv) == f"0 {['cli', *modules]} False\n"


@pytest.mark.parametrize("argv", [None, *(argv for argv, _ in COMMANDS.values())],
                         ids=["import", *COMMANDS])
def test_no_command_loads_argparse(argv):
    # argparse and the gettext and locale imports its messages trigger cost
    # about 5 ms of every short-lived CLI process
    heavy = "sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))"
    if argv is None:
        assert probe_output(f"import cantorprod.cli, sys; print({heavy})") == "[]\n"
    else:
        assert probe_output(RUN_MAIN + f"print(code, {heavy})\n", *argv) == "0 []\n"


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS.values()], ids=COMMANDS)
def test_no_command_loads_json(argv):
    # cli writes JSON itself: json costs about 2 ms of every short-lived process
    options = {name: kind for name, kind, _ in cli.COMMANDS[argv[0]][2]}
    extras = [["--format", fmt] for fmt in options["format"]] if "format" in options else [[]]
    probe = ("import contextlib, io, sys\n"
             "from cantorprod import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [cli.main(sys.argv[1:] + extra) for extra in {extras!r}]\n"
             "print(codes, 'json' in sys.modules)\n")
    assert probe_output(probe, *argv) == f"{[0] * len(extras)} False\n"


# fractions brings decimal and numbers with it, about 3 ms of a short-lived
# process, and `from __future__ import annotations` is a real import
INT_ONLY_HEAVY = ("sorted({'fractions', 'decimal', 'numbers', 'json', '__future__'}"
                  " & set(sys.modules))")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_member_runs_on_ints_alone(fmt):
    probe = RUN_MAIN + f"print(code, {INT_ONLY_HEAVY})\n"
    assert probe_output(probe, "member", "--x", "1/4", "--format", fmt) == "0 []\n"
    probe = "import cantorprod.cli, sys; print('fractions' in sys.modules)"
    assert probe_output(probe) == "False\n"


# typing brings re, functools and collections with it, and enum is what the
# Membership class is built on: together about 7 ms of `member` on a 2-core
# x86 host when no site hook preloads them
RECORD_MACHINERY = "sorted({'typing', 'enum', 're', 'functools', 'collections'} & set(sys.modules))"


def test_member_loads_no_record_machinery():
    # io.StringIO directly: contextlib imports functools and collections itself
    probe = ("import io, sys\n"
             "from cantorprod import cli\n"
             "for fmt in ('json', 'text'):\n"
             "    sys.stdout = io.StringIO()\n"
             "    code = cli.main(['member', '--x', '1/4', '--format', fmt])\n"
             "    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
             "    print(code, out.splitlines()[-1])\n"
             f"print({RECORD_MACHINERY})\n")
    assert probe_output(probe) == "0 }\n0 expansion = 0.(02)*\n[]\n"
    assert probe_output(f"import cantorprod.cli, sys; print({RECORD_MACHINERY})") == "[]\n"


def test_art_loads_no_record_machinery():
    # art prints the standard route's payload straight from its int kernel:
    # no record class, so none of what typing and enum bring with them
    probe = ("import io, sys\n"
             "from cantorprod import cli\n"
             "for fmt in ('json', 'text'):\n"
             "    sys.stdout = io.StringIO()\n"
             "    code = cli.main(['art', '--n', '13', '--format', fmt])\n"
             "    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
             "    print(code, out.splitlines()[-1])\n"
             f"print({RECORD_MACHINERY})\n")
    assert probe_output(probe) == "0 }\n0 tail_bound = 4096/17793060798303\n[]\n"
    # and the probe sees them: the records module loads all five
    face = "import cantorprod.records, sys; print(%s)" % RECORD_MACHINERY
    assert probe_output(face) == "['collections', 'enum', 'functools', 're', 'typing']\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_loads_no_record_machinery(command):
    # every command runs on its int kernel: under each of its targets and
    # formats it loads neither `records` nor what typing and enum bring
    argvs = [COMMANDS[command][0]]
    options = {name: kind for name, kind, _ in cli.COMMANDS[command][2]}
    for name in ("target", "format"):
        if name in options:
            argvs = [[*argv, f"--{name}", value] for argv in argvs for value in options[name]]
    probe = ("import io, sys\n"
             "from cantorprod import cli\n"
             f"for argv in {argvs!r}:\n"
             "    sys.stdout = io.StringIO()\n"
             "    code = cli.main(argv)\n"
             "    sys.stdout = sys.__stdout__\n"
             "    print(code, end=' ')\n"
             f"print({RECORD_MACHINERY}, 'cantorprod.records' in sys.modules)\n")
    assert probe_output(probe) == "0 " * len(argvs) + "[] False\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["art", "fast"])
def test_art_and_fast_run_on_ints_alone(command, fmt):
    probe = RUN_MAIN + f"print(code, {INT_ONLY_HEAVY})\n"
    assert probe_output(probe, *COMMANDS[command][0], "--format", fmt) == "0 []\n"


@pytest.mark.parametrize("fmt", ["svg", "json", "text"])
def test_render_runs_on_ints_alone(fmt):
    probe = RUN_MAIN + f"print(code, {INT_ONLY_HEAVY})\n"
    argv = ["render", "--n", "2", "--K", "6", "--format", fmt]
    assert probe_output(probe, *argv) == "0 []\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("target", ["prop3", "theorem"])
def test_certify_runs_on_ints_alone(target, fmt):
    probe = RUN_MAIN + f"print(code, {INT_ONLY_HEAVY})\n"
    argv = ["certify", "--target", target, "--format", fmt]
    assert probe_output(probe, *argv) == "0 []\n"


def test_selftest_runs_on_ints_alone():
    probe = RUN_MAIN + f"print(code, {INT_ONLY_HEAVY})\n"
    assert probe_output(probe, "selftest") == "0 []\n"


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
print(sorted({type(leaf).__name__ for leaf in leaves(values)}), %s)
""" % INT_ONLY_HEAVY


def test_library_routes_run_on_ints_alone():
    # the records, enclosures and pairs the library hands out hold ints (and
    # a record's name and relation texts and match flags), and none of the
    # calls loads `fractions`
    assert probe_output(LIBRARY_ROUTES) == "['bool', 'int', 'str'] []\n"


def test_module_run_is_clean_under_warnings_as_errors():
    # runpy warns when the package import has already loaded the module it runs
    result = run_probe("-W", "error", "-m", "cantorprod.cli", "member", "--x", "1/4")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "member\nexpansion = 0.(02)*\n"


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
