"""The command-line parser against the argparse parser it replaced.

`build_parser` below is the argparse front end the package used to ship. It
stays here as the reference: `cli.parse_args` must accept exactly the argv it
accepts, with the same value in every field.
"""

from __future__ import annotations

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorprod import _CERTIFY_TARGETS, cli


def _add_common(sub, *, n=None, K=None, formats=("json", "text"), default_format="json",
                digits=True, target=False, x=False):
    if n is not None:
        sub.add_argument("--n", type=int, default=n)
    if K is not None:
        sub.add_argument("--K", type=int, default=K)
    if target:
        sub.add_argument("--target", choices=sorted(_CERTIFY_TARGETS), default="prop3")
    if x:
        sub.add_argument("--x", required=True)
    if digits:
        sub.add_argument("--digits", type=int, default=12)
    sub.add_argument("--format", choices=formats, default=default_format)
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorprod",
        description="Exact arithmetic for the measure of the Cantor product set",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("art"), n=11)
    _add_common(subs.add_parser("fast"), n=3, K=8)
    _add_common(subs.add_parser("certify"), target=True)
    _add_common(subs.add_parser("render"), n=1, K=3, formats=("svg", "json", "text"),
                default_format="svg", digits=False)
    _add_common(subs.add_parser("member"), x=True, formats=("json", "text"),
                default_format="text", digits=False)
    subs.add_parser("selftest")
    return parser


ORACLE = build_parser()


def outcome(parse, argv: list[str]):
    """("ok", fields) or ("exit", code, stdout, stderr) for one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    return "ok", vars(namespace)


def assert_same_as_oracle(argv: list[str]) -> None:
    want, got = outcome(ORACLE.parse_args, argv), outcome(cli.parse_args, argv)
    assert got[:2] == want[:2], argv
    if got[:2] == ("exit", 2):
        assert got[2] == ""
        assert got[3].splitlines()[-1].startswith("cantorprod: error: ")


# A token grammar for argv. It leaves out "-h" and "--": help ends the parse
# wherever it comes, and argparse's reading of "--" differs between versions.
OPTIONS = ["--n", "--K", "--digits", "--format", "--out", "--target", "--x"]
PREFIXES = ["--d", "--dig", "--f", "--form", "--o", "--ou", "--t", "--targ"]
UNKNOWN = ["--threads", "--N", "--k", "--nn", "--digitsx", "--X", "-n", "-K", "-x"]
VALUES = [
    "0", "1", "2", "3", "12", "50", "99", " 7 ", "1_0", "+4",  # int
    "-1", "-3", "-20",  # negative int
    "x", "1.5", "", "1/4", "2/3", "five",  # junk
    "json", "text", "svg", "prop3", "theorem",  # choices
    "xml", "JSON", "prop",  # not a choice
    "-", "-x", "-1.5", "-.5", "-x y", "-1/4", "--bogus", "--n", "--fo", "--out=a b",  # dash-led
]
COMMAND_WORDS = ["orbit", "", "ar", "Art", "-1", "art ", "selftests"]

names = st.sampled_from(OPTIONS + PREFIXES + UNKNOWN)
values = st.sampled_from(VALUES)
groups = st.one_of(
    st.tuples(names, values).map(list),  # --opt VALUE
    st.tuples(names, values).map(lambda pair: ["=".join(pair)]),  # --opt=VALUE
    values.map(lambda value: ["--=" + value]),  # a prefix of every long option
    names.map(lambda name: [name]),  # a value missing, unless the next token is one
    values.map(lambda value: [value]),  # a stray value
)
argvs = st.tuples(
    st.lists(st.sampled_from(["--bogus", "-x", "--n=3"]), max_size=1),
    st.sampled_from([*cli.COMMANDS] * 3 + COMMAND_WORDS),
    st.lists(groups, max_size=5),
).map(lambda parts: [*parts[0], parts[1], *(token for group in parts[2] for token in group)])


@settings(max_examples=600, deadline=None)
@given(argvs)
def test_parser_accepts_what_argparse_accepts(argv):
    assert_same_as_oracle(argv)


@pytest.mark.parametrize("argv", [
    ["art", "--n", "-1"],
    ["art", "--n=-1", "--n", "4"],
    ["art", "--dig", "7", "--fo=text"],
    ["fast", "--K", "-2", "--n", "٣"],
    ["member", "--x=", "--format", "json"],
    ["member", "--x", "-x y"],
    ["member", "--x", "--x=5"],
    ["certify", "--t", "theorem", "--o", "-"],
    ["selftest", "--=3"],
    ["art", "--=3"],
    ["--bogus", "art"],
    [],
    ["art", "--n", "-1\n"],
])
def test_parser_edge_cases_match_argparse(argv):
    assert_same_as_oracle(argv)


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_shows_usage_built_from_the_table(command):
    words = [] if command is None else [command]
    for flag in ("-h", "--help", "--he"):
        assert outcome(ORACLE.parse_args, [*words, flag])[:2] == ("exit", 0)
        kind, code, out, err = outcome(cli.parse_args, [*words, flag])
        assert (kind, code, err) == ("exit", 0, "")
    usage, *rest = out.splitlines()
    assert "--opt VALUE or --opt=VALUE" in rest[-1]
    if command is None:
        assert usage == "usage: cantorprod [-h] {art,fast,certify,render,member,selftest} ..."
        for name, (_, line, _) in cli.COMMANDS.items():
            assert rest.index(f"      {line}") == rest.index(f"  {cli._usage(name)}") + 1
        return
    assert usage.startswith(f"usage: cantorprod {command} [-h]")
    assert cli.COMMANDS[command][1] in rest
    defaults = next(line for line in rest if line.startswith("defaults: "))
    for name, kind, default in cli.COMMANDS[command][2]:
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()
        if default is cli.REQUIRED:
            assert f" --{name} {metavar}" in usage
        else:
            assert f" [--{name} {metavar}]" in usage
        if default not in (None, cli.REQUIRED):
            assert f"--{name} {default}" in defaults
