"""Command-line front end.

``COMMANDS`` maps each subcommand (art, fast, certify, render, member,
selftest) to its handler, help line and options; ``parse_args`` reads argv
against it as argparse would, without importing argparse.  JSON is the
machine format; text output is derived from it.  ``_dump_json`` writes it
byte for byte as ``json.dumps(payload, sort_keys=True, indent=2)`` would,
without importing json.  Exit codes: 0 success, 1 verification failure or
failed write, 2 usage.

Only the standard library is imported up front, and neither `fractions` nor
`json`.  Each handler imports the modules it runs and calls through them, so
a command loads no computation module it does not use, and a function
rebound in its module is the one that runs.  `member` loads only `ternary`,
which decides membership on ints.  `art` and `fast` load `products`,
`subdivision` and `ternary`, `render` loads `render`, `subdivision` and
`ternary`, and `certify` loads `gaps`, `subdivision` and `ternary`; all four
run on ints from argv to stdout.  `selftest` loads `gaps`, `products`,
`render`, `subdivision` and `ternary` and runs its checks on their int
routes: the gap calculus' public values (`gaps.beta`,
`gaps.verify_order_chain`, ...) are lowest-terms int pairs, so no command
loads `fractions` or `intervals`.  `_emit` writes its output chunk by chunk:
`render` streams the figure line by line as it is built.

`run()` is the process entry, for `python -m cantorprod.cli` and the
`cantorprod` console script alike; `main(argv)` is the in-process API and
returns the exit code.  `run` calls `main`, runs the `atexit` handlers,
flushes stdout and stderr and ends with `os._exit`, skipping interpreter
teardown: on a 2-core x86 host a command does its own work in 2-10 ms, while
freeing the ~100 modules that site-packages `.pth` hooks load before it takes
6-15 ms at exit.  Under a profiler or tracer, `run` ends with `sys.exit`
instead, so `python -m cProfile -m cantorprod.cli ...` prints its profile.
"""

import atexit
import functools
import os
import sys
from types import SimpleNamespace
from typing import Iterable, NoReturn, Optional, Sequence

from . import _CERTIFY_TARGETS

MAX_DIGITS = 50


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}


def _escape(char: str) -> str:
    code = ord(char)
    if code > 0xFFFF:  # an astral character: its UTF-16 surrogate pair
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return _ESCAPES.get(char) or "\\u%04x" % code


def _quote(text: str) -> str:
    """A JSON string with only printable ASCII inside, as json's ensure_ascii writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(
        c if " " <= c <= "~" and c not in '"\\' else _escape(c) for c in text) + '"'


def _json(value, indent: str) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)  # as json writes an int subclass too
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = [f"{_quote(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, list):
        items, brackets = [_json(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _dump_json(payload: dict) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)` plus a newline, without importing json.

    Values are str, int, bool, None, lists and str-keyed dicts; anything else
    (a float too) is a TypeError.
    """
    return _json(payload, "") + "\n"


def _text_lines(payload: dict, indent: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_lines(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.extend(_text_lines(item, indent + "  "))
                    lines.append("")
                else:
                    lines.append(f"{indent}  {item}")
        else:
            lines.append(f"{indent}{key} = {value}")
    return lines


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the chunks one by one as UTF-8, whatever the locale or stdout encoding:
    to the --out file, to stdout's binary buffer, or to a text-only stream."""
    if out is not None:
        try:
            handle = open(out, "w", encoding="utf-8")
        except OSError as exc:  # main turns this into a usage error, exit 2
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc
        with handle:
            handle.writelines(chunks)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        write = sys.stdout.buffer.write
        for chunk in chunks:
            write(chunk.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:  # a text-only stream such as io.StringIO
        sys.stdout.writelines(chunks)


def _render_payload(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit([_dump_json(payload)], out)
    else:
        body = "\n".join(_text_lines(payload))
        _emit([body.rstrip("\n") + "\n"], out)


def _cmd_art(args) -> int:
    from . import products

    result = products.standard_estimate(args.n)
    _render_payload(result.to_json(args.digits), args.format, args.out)
    return 0


def _cmd_fast(args) -> int:
    from . import products

    bounds = products.fast_bounds(args.n, args.K)
    _render_payload(bounds.to_json(args.digits), args.format, args.out)
    return 0


def _cmd_certify(args) -> int:
    from . import gaps

    try:
        cert = gaps.certify(args.target)
    except gaps.CertificationError as exc:  # a threshold broke its pattern mid-derivation
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    _render_payload(cert.to_json(args.digits), args.format, args.out)
    if not cert.ok:
        first = cert.failures()[0]
        print(f"verification failed: {first.name}", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args) -> int:
    from . import render, ternary

    if args.format == "svg":
        _emit(render._svg(args.n, args.K), args.out)
        return 0
    node, families = render.cell_families(args.n, args.K)
    lo, hi = render.cell_text(node)

    def ends(pair) -> list[str]:
        return [ternary.format_ratio(*end) for end in pair]

    payload = {
        "depth": args.n,
        "k_max": args.K,
        "cell": {"lo": lo, "hi": hi, "q": node.m},
        "families": [
            {"k": k, "side": side, "p": ends(p), "g": ends(g)} for k, side, p, g in families
        ],
    }
    _render_payload(payload, args.format, args.out)
    return 0


def _cmd_member(args) -> int:
    from . import ternary

    p, q = ternary.parse_ratio(args.x)
    verdict, expansion = ternary.classify_ternary(args.x)
    payload = {
        "x": ternary.format_ratio(p, q),
        "verdict": verdict.value,
        "expansion": str(expansion),
        "preperiod_digits": expansion.preperiod,
        "period_length": expansion.period,
    }
    if args.format == "json":
        _emit([_dump_json(payload)], args.out)
    else:
        _emit([f"{verdict.value}\nexpansion = {expansion}\n"], args.out)
    return 0


def _selftest_checks():
    from . import gaps, products, render, subdivision

    root = subdivision.ROOT
    full = functools.cache(functools.partial(gaps.certify, "theorem"))  # shared by three checks

    def encloses(bounds, x) -> bool:  # bounds: a (lo, hi) pair of (p, q) pairs
        return gaps._holds("le", bounds[0], x) and gaps._holds("le", x, bounds[1])

    def base_product():  # measure(P([2/3, 1]^2)) from the root's ends in thirds, over 9
        measure, _ = products._self_product(*subdivision._ends([root], root.k))
        return measure, 9**root.k

    def after_two_rounds():  # 5/9 less the gap measure the first two rounds remove
        mu = gaps._sum(gaps.first_level_gap_total(), gaps.second_level_increment())
        return gaps._sum((5, 9), gaps._prod((-1, 1), mu))

    def fast_bracket():
        bounds = products.fast_bounds(2, 4)
        return (bounds.scaled_lower, bounds.scale), (bounds.scaled_upper, bounds.scale)

    def figure_renders():  # read line by line, as the render command streams it
        lines = render._svg(0, 1)
        first = last = next(lines, "")
        for last in lines:
            pass
        return first.startswith("<svg") and last == "</svg>\n"

    yield "base product 5/9", lambda: gaps._holds("eq", base_product(), (5, 9))
    yield "level-3 certificate", lambda: gaps.certify("prop3").ok
    yield "full certificate", lambda: full().ok
    yield "full radius below 1e-6", lambda: gaps._holds("lt", full().radius_ratio, (1, 10**6))
    yield "standard bounds enclose the certified center", (
        lambda: encloses(products.standard_estimate(3).full_bounds(), full().center_ratio))
    yield "fast bracket catches the removed measure", (
        lambda: encloses(fast_bracket(), after_two_rounds()))
    yield "order chain holds at the root", (
        lambda: gaps.chain_holds(gaps.verify_order_chain(root, 4)))
    yield "degenerate scale is flagged", (
        lambda: not gaps.chain_holds(gaps.verify_order_chain(root._replace(m=0), 3)))
    yield "membership spot checks", lambda: [
        subdivision.classify_ternary(text)[0].value
        for text in ("1/4", "1/2", "2/3", "1")] == ["member", "non_member", "member", "member"]
    yield "series closed forms", (
        lambda: gaps.beta(1) == gaps.beta_series(1) and gaps.alpha(2) == gaps.alpha_series(2))
    yield "figure renders", figure_renders


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            passed = check()
        except Exception as exc:  # one raising check fails alone; the rest still run
            import traceback

            print(f"FAIL - {name} ({exc})")
            traceback.print_exc()  # to stderr: stdout keeps one line per check
            failures += 1
            continue
        if passed:
            print(f"ok - {name}")
        else:
            print(f"FAIL - {name}")
            failures += 1
    return 1 if failures else 0


_FORMATS, _DIGITS, _OUT = ("json", "text"), ("digits", int, 12), ("out", str, None)
REQUIRED = ...  # the default of an option that must be given
# command -> (handler, help line, options); an option is (name, kind, default),
# where kind is int, str or a tuple of the allowed values
COMMANDS = {
    "art": (_cmd_art, "standard-route estimate at level n",
            (("n", int, 11), _DIGITS, ("format", _FORMATS, "json"), _OUT)),
    "fast": (_cmd_fast, "fast-subdivision bracket at (n, K)",
             (("n", int, 3), ("K", int, 8), _DIGITS, ("format", _FORMATS, "json"), _OUT)),
    "certify": (_cmd_certify, "verify the enclosure chain", (("target", _CERTIFY_TARGETS, "prop3"),
                _DIGITS, ("format", _FORMATS, "json"), _OUT)),
    "render": (_cmd_render, "subdivision figure",
               (("n", int, 1), ("K", int, 3), ("format", ("svg", *_FORMATS), "svg"), _OUT)),
    "member": (_cmd_member, "Cantor membership oracle",
               (("x", str, REQUIRED), ("format", _FORMATS, "text"), _OUT)),
    "selftest": (_cmd_selftest, "curated fast cross-checks", ()),
}
_HELP = ("-h", "--help")


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "cantorprod [-h] {" + ",".join(COMMANDS) + "} ..."
    words = [command, "[-h]"]
    for name, kind, default in COMMANDS[command][2]:
        word = f"--{name} " + ("{%s}" % ",".join(kind) if isinstance(kind, tuple) else name.upper())
        words.append(word if default is REQUIRED else f"[{word}]")
    return "cantorprod " + " ".join(words)


def _fail(message: str, command: Optional[str] = None) -> NoReturn:
    sys.stderr.write(f"usage: {_usage(command)}\ncantorprod: error: {message}\n")
    raise SystemExit(2)


def _help(value: Optional[str], command: Optional[str]) -> NoReturn:
    if value is not None:
        _fail(f"argument -h/--help: ignored explicit argument {value!r}", command)
    if command is None:
        body = "".join(f"  {_usage(name)}\n      {spec[1]}\n" for name, spec in COMMANDS.items())
    else:
        defaults = [f"--{n} {d}" for n, _, d in COMMANDS[command][2] if d not in (None, REQUIRED)]
        body = f"{COMMANDS[command][1]}\n\ndefaults: {' '.join(defaults) or 'none'}\n"
    sys.stdout.write(f"usage: {_usage(command)}\n\n{body}\nWrite --opt VALUE or --opt=VALUE.\n")
    sys.stdout.flush()  # a failed write to stdout raises here, inside main
    raise SystemExit(0)


def _read(token: str, names: Sequence[str], command: Optional[str]):
    """None for a value, else (option or None if unknown, text after `=` or None)."""
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token.startswith("--"):  # a unique prefix names a long option
        found = [(name, tail if eq else None) for name in names if name.startswith(head)]
    else:  # a short option runs straight into its value
        found = [(token[:2], token[2:])] if token[:2] in names else []
    if len(found) > 1:
        _fail(f"ambiguous option: {token} could match {', '.join(n for n, _ in found)}", command)
    if found:
        return found[0]
    if " " in token:
        return None
    import re  # only an unknown dash token needs it: argparse reads negative numbers as values

    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) else (None, None)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read argv as argparse reads it: `--opt VALUE`, `--opt=VALUE`, a unique prefix,
    the last of repeats, negative numbers as values. Returns `command` and each of
    its options; a usage error exits 2, and -h or --help prints help and exits 0."""
    unknown = []
    for index, token in enumerate(argv):  # the first value names the command
        read = None if token == "--" else _read(token, _HELP, None)
        if read is None:
            break
        if read[0] in _HELP:
            _help(read[1], None)
        unknown.append(token)
    else:
        _fail("the following arguments are required: command")
    command, tokens = argv[index], list(argv[index + 1 :])
    if command not in COMMANDS:
        _fail(f"argument command: invalid choice: {command!r}")
    kinds = {f"--{name}": kind for name, kind, _ in COMMANDS[command][2]}
    values = {name: default for name, _, default in COMMANDS[command][2]}
    # argparse reads every token before it acts on one, and none after "--"
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    reads = [_read(token, [*_HELP, *kinds], command) for token in tokens[:cut]] + ["--"]
    index = 0
    while index < cut:
        option, text = reads[index] or (None, None)
        if option in _HELP:
            _help(text, command)
        if option is None:
            unknown.append(tokens[index])
        elif text is None and reads[index + 1] is not None:
            _fail(f"argument {option}: expected one argument", command)
        else:
            if text is None:
                index, text = index + 1, tokens[index + 1]
            if kinds[option] is int:
                try:
                    text = int(text)
                except ValueError:
                    _fail(f"argument {option}: invalid int value: {text!r}", command)
            elif isinstance(kinds[option], tuple) and text not in kinds[option]:
                _fail(f"argument {option}: invalid choice: {text!r}", command)
            values[option[2:]] = text
        index += 1
    for name in (name for name, value in values.items() if value is REQUIRED):
        _fail(f"the following arguments are required: --{name}", command)
    if unknown or cut < len(tokens):
        _fail(f"unrecognized arguments: {' '.join(unknown + tokens[cut:])}", command)
    return SimpleNamespace(command=command, **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = None
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)  # --help writes to stdout
        if not 1 <= getattr(args, "digits", 1) <= MAX_DIGITS:
            _fail(f"digits must be in 1..{MAX_DIGITS}", args.command)
        code = COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a failed write to stdout raises here, not at exit
    except ValueError as exc:  # a rejected argument value: usage error, exit 2
        _fail(str(exc), args.command)
    except OSError as exc:  # a failed write to stdout, or to an --out file once open
        if getattr(args, "out", None) is None:  # leave nothing for a failing flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a closed pipe ends quietly
            print(f"cantorprod: error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 1
    return code


def run() -> NoReturn:
    """Run `main` on sys.argv and end the process with its exit code.

    A usage error or --help ends `main` with SystemExit; its code is read as
    `sys.exit` reads it.  The `atexit` handlers run and stdout and stderr are
    flushed, as at a normal exit; then `os._exit` skips module teardown and the
    final collection, which free nothing the exiting process needs.  Under a
    profiler or tracer it ends with `sys.exit` instead, so that what runs it
    (`python -m cProfile`, say) can still report.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile's hook
    if sys.getprofile() or sys.gettrace() or (
        monitoring and any(monitoring.get_tool(tool) for tool in range(6))
    ):
        sys.exit(code)
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
