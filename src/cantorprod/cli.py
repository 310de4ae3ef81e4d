"""Command-line front end.

Subcommands: ``art`` (standard-route estimate), ``fast`` (truncated
brute-force bracket), ``certify`` (exact verification chain), ``render``
(subdivision figure), ``member`` (ternary membership oracle) and
``selftest`` (curated cross-checks).  JSON is the machine format; text
output is derived from it.  Exit codes: 0 success, 1 verification
failure, 2 usage.

Only the standard library is imported up front.  Each handler imports the
modules it runs and calls through them, so a command loads no computation
module it does not use, and a function rebound in its module is the one
that runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import _CERTIFY_TARGETS

MAX_DIGITS = 50


def _dump_json(payload: dict) -> str:
    import json  # only JSON output loads it: an SVG render or selftest never does

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def _emit(text: str, out: Optional[str]) -> None:
    """Write text as UTF-8, whatever the locale or stdout encoding."""
    if out is not None:
        try:
            handle = open(out, "w", encoding="utf-8")
        except OSError as exc:  # main turns this into a usage error, exit 2
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc
        with handle:
            handle.write(text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:  # a text-only stream such as io.StringIO
        sys.stdout.write(text)


def _render_payload(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit(_dump_json(payload), out)
    else:
        body = "\n".join(_text_lines(payload))
        _emit(body.rstrip("\n") + "\n", out)


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

    cert = gaps.certify(args.target)
    _render_payload(cert.to_json(args.digits), args.format, args.out)
    if not cert.ok:
        first = cert.failures()[0]
        print(f"verification failed: {first.name}", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args) -> int:
    from . import intervals, render

    if args.format == "svg":
        _emit(render.render_svg(args.n, args.K), args.out)
        return 0
    node, families = render.cell_families(args.n, args.K)
    payload = {
        "depth": args.n,
        "k_max": args.K,
        "cell": {
            "lo": intervals.format_rational(node.cell.lo),
            "hi": intervals.format_rational(node.cell.hi),
            "q": node.q,
        },
        "families": [
            {"k": k, "side": side, "p": p.to_json(), "g": g.to_json()} for k, side, p, g in families
        ],
    }
    _render_payload(payload, args.format, args.out)
    return 0


def _cmd_member(args) -> int:
    from . import intervals, subdivision

    x = intervals.parse_rational(args.x)
    verdict, expansion = subdivision.classify_ternary(x)
    payload = {
        "x": intervals.format_rational(x),
        "verdict": verdict.value,
        "expansion": str(expansion),
        "preperiod_digits": expansion.preperiod,
        "period_length": expansion.period,
    }
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    else:
        _emit(f"{verdict.value}\nexpansion = {expansion}\n", args.out)
    return 0


def _base_product() -> bool:
    from . import products, subdivision

    return products.self_product_measure(subdivision.right_half_subdivision(0)) == Fraction(5, 9)


def _zero_q_flagged() -> bool:
    from . import gaps, subdivision

    return not gaps.chain_holds(gaps.verify_order_chain(subdivision.ROOT._replace(m=0), 3))


def _selftest_checks():
    from . import gaps, render, subdivision

    root = subdivision.ROOT
    full = functools.cache(functools.partial(gaps.certify, "theorem"))  # shared by three checks
    yield "base product 5/9", _base_product
    yield "level-3 certificate", lambda: gaps.certify("prop3").ok
    yield "full certificate", lambda: full().ok
    yield "full radius below 1e-6", lambda: full().radius < Fraction(1, 10**6)
    yield "standard bounds enclose the certified center", lambda: _standard_encloses(full().center)
    yield "fast bracket catches the removed measure", _fast_brackets
    yield "order chain holds at the root", lambda: gaps.chain_holds(gaps.verify_order_chain(root, 4))
    yield "degenerate scale is flagged", _zero_q_flagged
    yield "membership spot checks", _member_spots
    yield "series closed forms", _series_spots
    yield "figure renders", lambda: render.render_svg(0, 1).startswith("<svg")


def _standard_encloses(center: Fraction) -> bool:
    from . import products

    bounds = products.standard_estimate(3).full_bounds()
    return bounds.lo <= center <= bounds.hi


def _fast_brackets() -> bool:
    from . import gaps, products

    bounds = products.fast_bounds(2, 4)
    target = Fraction(5, 9) - gaps.first_level_gap_total() - gaps.second_level_increment()
    return bounds.lower <= target <= bounds.upper


def _member_spots() -> bool:
    from . import intervals, subdivision

    member, non_member = subdivision.Membership.MEMBER, subdivision.Membership.NON_MEMBER
    cases = [("1/4", member), ("1/2", non_member), ("2/3", member), ("1", member)]
    for text, want in cases:
        verdict, _ = subdivision.classify_ternary(intervals.parse_rational(text))
        if verdict is not want:
            return False
    return True


def _series_spots() -> bool:
    from . import gaps

    return gaps.beta(1) == gaps.beta_series(1) and gaps.alpha(2) == gaps.alpha_series(2)


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

    art = subs.add_parser("art", help="standard-route estimate at level n")
    _add_common(art, n=11)
    art.set_defaults(func=_cmd_art)

    fast = subs.add_parser("fast", help="fast-subdivision bracket at (n, K)")
    _add_common(fast, n=3, K=8)
    fast.set_defaults(func=_cmd_fast)

    cert = subs.add_parser("certify", help="verify the enclosure chain")
    _add_common(cert, target=True)
    cert.set_defaults(func=_cmd_certify)

    rend = subs.add_parser("render", help="subdivision figure")
    _add_common(rend, n=1, K=3, formats=("svg", "json", "text"), default_format="svg", digits=False)
    rend.set_defaults(func=_cmd_render)

    member = subs.add_parser("member", help="Cantor membership oracle")
    _add_common(member, x=True, formats=("json", "text"), default_format="text", digits=False)
    member.set_defaults(func=_cmd_member)

    self_test = subs.add_parser("selftest", help="curated fast cross-checks")
    self_test.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digits = getattr(args, "digits", None)
    if digits is not None and not 1 <= digits <= MAX_DIGITS:
        parser.error(f"digits must be in 1..{MAX_DIGITS}")
    try:
        return args.func(args)
    except ValueError as exc:  # a rejected argument value: usage error, exit 2
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
