"""The benchmark's workloads: the exact CLI argv of one pass, made from a seed.

A workload is a list of `Command`s.  Each carries the argv handed to
`python -m cantorprod.cli`, a kind that selects the verifier's checks, and
the expected `member` verdict where the input was built to have one.  Only
`light` uses the seed: it fixes the `member` inputs and the command order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("standard", "light")

# the full-measure bracket width that fixes `standard`'s key level
TARGET_WIDTH = Fraction(1, 10**9)

MEMBERS = 13
NON_MEMBERS = 13
EDGE_MEMBERS = ("1/4", "3/4", "2/3", "1/1")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # art, certify, selftest, render_svg, render_json, member
    expect: Optional[str] = None  # member verdict built into the input

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def bracket_width(n: int) -> Fraction:
    """Width (3/2)(1/63)(2/9)^(n-1) of `art --n n`'s certified full-measure bracket."""
    return Fraction(3, 2) * Fraction(1, 63) * Fraction(2, 9) ** max(n - 1, 0)


def target_level() -> int:
    """Smallest standard level whose certified bracket is at most TARGET_WIDTH wide."""
    n = 0
    while bracket_width(n) > TARGET_WIDTH:
        n += 1
    return n


def _ternary(digits: list[int], cycle: list[int]) -> Fraction:
    """0.d1 d2 ... (c1 ... cP)* in base 3; an empty cycle terminates."""
    head = Fraction(int("".join(map(str, digits)) or "0", 3), 3 ** len(digits))
    if not cycle:
        return head
    period = int("".join(map(str, cycle)), 3)
    return head + Fraction(period, (3 ** len(cycle) - 1) * 3 ** len(digits))


def _member(rng: random.Random) -> Fraction:
    digits = [rng.choice((0, 2)) for _ in range(rng.randint(1, 10))]
    cycle = []
    if rng.random() < 0.5:
        cycle = [rng.choice((0, 2)) for _ in range(rng.randint(1, 6))]
        if not any(cycle):
            cycle[-1] = 2
    return _ternary(digits, cycle)


def _non_member(rng: random.Random) -> Fraction:
    """A digit 1 followed later by a nonzero digit puts x strictly inside a gap."""
    head = [rng.choice((0, 2)) for _ in range(rng.randint(0, 6))]
    tail = [rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        # a terminating tail ending in a nonzero digit
        tail[-1] = rng.choice((1, 2))
        return _ternary(head + [1] + tail, [])
    # a repeating tail that is neither all 0 (terminates) nor all 2 (= 0.h2)
    if all(d == 0 for d in tail) or all(d == 2 for d in tail):
        tail[0] = 1
    return _ternary(head + [1], tail)


def member_inputs(seed: int) -> list[tuple[Fraction, str]]:
    """(x, expected verdict) pairs: seeded members and non-members plus fixed edges."""
    rng = random.Random(seed)
    cases = [(_member(rng), "member") for _ in range(MEMBERS)]
    cases += [(_non_member(rng), "non_member") for _ in range(NON_MEMBERS)]
    cases += [(Fraction(text), "member") for text in EDGE_MEMBERS]
    return cases


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of `workload`, in the order they run."""
    if workload == "standard":
        return [Command(("art", "--n", str(n)), "art") for n in (11, 12, target_level())]
    if workload == "light":
        cmds = [
            Command(("certify", "--target", "prop3"), "certify"),
            Command(("certify", "--target", "theorem"), "certify"),
            Command(("selftest",), "selftest"),
            *(Command(("render", "--n", str(n), "--K", "3"), "render_svg") for n in (0, 1, 2)),
            Command(("render", "--n", "0", "--K", "2", "--format", "json"), "render_json"),
        ]
        cmds += [
            Command(("member", "--x", f"{x.numerator}/{x.denominator}", "--format", "json"), "member", verdict)
            for x, verdict in member_inputs(seed)
        ]
        random.Random(seed).shuffle(cmds)
        return cmds
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def key_command(workload: str) -> tuple[str, ...]:
    """argv of the command timed as `key_cmd_s`.

    On `standard` it is the art run at `target_level()`, so there `key_cmd_s`
    is the time to a certified full-measure bracket at most 1e-9 wide.
    """
    return {
        "standard": ("art", "--n", str(target_level())),
        "light": ("certify", "--target", "theorem"),
    }[workload]
