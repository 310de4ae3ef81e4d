"""The command lines the probes run, and the package modules each one loads.

ROWS maps each command line (the argv of `cli.main`, joined by spaces) to the
exact set of `cantorprod.*` modules it loads, `cli` included:

* each base line below as it stands and under each value of its command's
  --target and --format options, read off `cli.COMMANDS`;
* the edges: the longest art, a rational with a long period, the help texts
  and, last, a usage error.

The reachability probe runs every row in one interpreter, the last through
`cli.run`; tests/test_cli.py and tests/test_package.py run each row in a
child of its own and compare it with `cli.main` in process.  So a new command,
target or format is one row here, and its loads are pinned with it.

No row loads a module of FORBIDDEN: each costs a short-lived process start-up
time, with what it imports in turn, when no site hook has loaded it first.
IMPORTS gives what an import statement loads: the bare `cantorprod.cli`, and
two library modules that show the probe does see forbidden modules.
"""

from cantorprod import cli

FORBIDDEN = frozenset({
    # argparse and the gettext and locale imports its messages trigger: cli
    # parses argv itself
    "argparse", "gettext", "locale",
    # cli writes JSON itself
    "json",
    # fractions brings decimal and numbers; only the set face holds Fractions
    "fractions", "decimal", "numbers",
    # `from __future__ import annotations` is a real import
    "__future__",
    # the record machinery: typing brings re, functools and collections, and
    # enum is what Membership is built on; no command builds a record
    "typing", "enum", "re", "functools", "collections",
    # dataclasses brings inspect, ast, dis and tokenize, and execs fresh
    # source for each decorated class on every import
    "dataclasses", "inspect",
})

# the package modules each command loads besides `cli`
LOADS = {
    "member": ("ternary",),
    "art": ("standard", "ternary"),
    "fast": ("products", "subdivision", "ternary"),
    "certify": ("gaps", "subdivision", "ternary"),
    "render": ("render", "subdivision", "ternary"),
    "selftest": ("gaps", "products", "render", "standard", "subdivision", "ternary"),
}

BASES = [
    ["member", "--x", "1/4"],
    ["art", "--n", "0"], ["art", "--n", "3"], ["art", "--n", "13"],
    ["fast", "--n", "1", "--K", "2"], ["fast", "--n", "2", "--K", "4"],
    ["certify"],
    ["render", "--n", "0", "--K", "1"], ["render", "--n", "2", "--K", "6"],
    ["selftest"],
]


def every_choice(argv: list[str]) -> list[list[str]]:
    """argv as it stands and under each value of its --target and --format options."""
    options = {name: kind for name, kind, _ in cli.COMMANDS[argv[0]][2]}
    choices = [argv]
    for name in ("target", "format"):
        if name in options:
            choices = [[*a, f"--{name}", value] for a in choices for value in options[name]]
    return [argv, *choices]  # an option-free command twice: ROWS keeps one


def _row(argv: list[str]) -> tuple[str, frozenset]:
    loads = () if "--help" in argv else LOADS[argv[0]]
    return " ".join(argv), frozenset({"cli", *loads})


ROWS = dict(_row(argv) for argv in [
    *(argv for base in BASES for argv in every_choice(base)),
    ["art", "--n", "20"], ["member", "--x", "4477/19440"],
    ["--help"], ["certify", "--help"],
    ["art", "--n", "99"],  # range checked in `standard`, which it loads
])

COMMAND_LINES = [line.split() for line in ROWS]

# import statement -> (package modules it loads, forbidden modules it must show).
# `re` is shown through fractions: since Python 3.13 typing does not import it.
IMPORTS = {
    "import cantorprod.cli": (frozenset({"cli"}), frozenset()),
    "import cantorprod.records": (frozenset({"records", "ternary"}),
                                  frozenset({"typing", "enum", "functools", "collections"})),
    "import cantorprod.intervals": (frozenset({"intervals", "ternary"}),
                                    frozenset({"fractions", "decimal", "numbers", "re"})),
}
