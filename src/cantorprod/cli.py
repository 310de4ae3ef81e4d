"""Command-line front end.

Subcommands: ``art`` (standard-route estimate), ``fast`` (truncated
brute-force bracket), ``certify`` (exact verification chain), ``render``
(subdivision figure), ``member`` (ternary membership oracle) and
``selftest`` (curated cross-checks).  JSON is the machine format; text
output is derived from it.  Exit codes: 0 success, 1 verification
failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import products, render
from .gaps import TARGETS, certify, verify_order_chain, chain_holds
from .intervals import format_rational, parse_rational
from .subdivision import ROOT, TruncationPolicy, classify_ternary
from fractions import Fraction

MAX_DIGITS = 50


def _dump_json(payload: dict) -> str:
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
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _render_payload(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit(_dump_json(payload), out)
    else:
        body = "\n".join(line for line in _text_lines(payload) if line is not None)
        _emit(body.rstrip("\n") + "\n", out)


def _cmd_art(args, parser) -> int:
    try:
        result = products.standard_estimate(args.n)
    except ValueError as exc:
        parser.error(str(exc))
    _render_payload(result.to_json(args.digits), args.format, args.out)
    return 0


def _cmd_fast(args, parser) -> int:
    try:
        bounds = products.fast_bounds(args.n, TruncationPolicy(args.K))
    except ValueError as exc:
        parser.error(str(exc))
    _render_payload(bounds.to_json(args.digits), args.format, args.out)
    return 0


def _cmd_certify(args, parser) -> int:
    cert = certify(args.target)
    _render_payload(cert.to_json(args.digits), args.format, args.out)
    if not cert.ok:
        first = cert.failures()[0]
        print(f"verification failed: {first.name}", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args, parser) -> int:
    if args.format == "svg":
        try:
            document = render.render_svg(args.n, args.K)
        except ValueError as exc:
            parser.error(str(exc))
        _emit(document, args.out)
        return 0
    try:
        node, families = render.cell_families(args.n, args.K)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "depth": args.n,
        "k_max": args.K,
        "cell": {"lo": format_rational(node.cell.lo), "hi": format_rational(node.cell.hi), "q": node.q},
        "families": [
            {"k": k, "side": side, "p": p.to_json(), "g": g.to_json()} for k, side, p, g in families
        ],
    }
    _render_payload(payload, args.format, args.out)
    return 0


def _cmd_member(args, parser) -> int:
    try:
        x = parse_rational(args.x)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        verdict, expansion = classify_ternary(x)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "x": format_rational(x),
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
    from .subdivision import right_half_subdivision

    return products.self_product_measure(right_half_subdivision(0)) == Fraction(5, 9)


def _zero_q_flagged() -> bool:
    from dataclasses import replace

    return not chain_holds(verify_order_chain(replace(ROOT, q=0), 3))


def _selftest_checks():
    yield "base product 5/9", _base_product
    yield "level-3 certificate", lambda: certify("prop3").ok
    yield "full certificate", lambda: certify("theorem").ok
    yield "full radius below 1e-6", lambda: certify("theorem").radius < Fraction(1, 10**6)
    yield "standard bounds enclose the certified center", _standard_encloses
    yield "fast bracket catches the removed measure", _fast_brackets
    yield "order chain holds at the root", lambda: chain_holds(verify_order_chain(ROOT, 4))
    yield "degenerate scale is flagged", _zero_q_flagged
    yield "membership spot checks", _member_spots
    yield "series closed forms", _series_spots
    yield "figure renders", lambda: render.render_svg(0, 1).startswith("<svg")


def _standard_encloses() -> bool:
    bounds = products.full_measure_bounds(3)
    center = certify("theorem").center
    return bounds.lo <= center <= bounds.hi


def _fast_brackets() -> bool:
    from .gaps import removed_measure_chain

    chain = removed_measure_chain()
    bounds = products.fast_bounds(2, TruncationPolicy(4))
    target = Fraction(5, 9) - chain.mu2
    return bounds.lower <= target <= bounds.upper


def _member_spots() -> bool:
    from .subdivision import Membership

    cases = [("1/4", Membership.MEMBER), ("1/2", Membership.NON_MEMBER),
             ("2/3", Membership.MEMBER), ("1", Membership.MEMBER)]
    for text, want in cases:
        verdict, _ = classify_ternary(parse_rational(text))
        if verdict is not want:
            return False
    return True


def _series_spots() -> bool:
    from .gaps import alpha, alpha_series, beta, beta_series

    return beta(1) == beta_series(1) and alpha(2) == alpha_series(2)


def _cmd_selftest(args, parser) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            passed = check()
        except Exception as exc:  # pragma: no cover - defensive
            passed = False
            print(f"FAIL - {name} ({exc})")
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
        sub.add_argument("--target", choices=sorted(TARGETS), default="prop3")
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
    return args.func(args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
