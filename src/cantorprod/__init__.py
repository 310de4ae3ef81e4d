"""Exact arithmetic for the measure of the Cantor product set.

The package computes the Lebesgue measure of {x*y : x, y in the
middle-third Cantor set} three independent ways: the standard route's
estimate over a level-n cover, the fast subdivision's inner/outer bracket,
and a certified enclosure assembled from the gap calculus along the
diagonal.  Every value is exact: the records and enclosures hand out ints
over a scale or lowest-terms (p, q) int pairs, and only the interval-set
face (`intervals` and the covers built on it) holds `fractions.Fraction`s.
Floats appear only in rendered output.

Every command runs on an int kernel with no record class.  The records the
library hands out (`FastNode`, `Certificate`, `FastBounds`, ...) all live in
`records`, the one module that imports `typing` or `enum`; each function
that returns one wraps its kernel's tuples and imports `records` where it
runs, so no command loads it.

Imports are lazy: `import cantorprod` loads none of the computation
modules, and each exported name loads its module on first access (PEP 562).
A short-lived CLI command then pays only for the modules it runs.
"""

import sys

__version__ = "0.1.0"

# certify's target tokens, level-3 then full; here so that the CLI can offer
# them as choices without importing gaps
_CERTIFY_TARGETS = ("prop3", "theorem")

_SUBMODULES = (
    "ternary", "standard", "intervals", "subdivision", "products", "gaps", "render", "records",
    "cli",
)

_EXPORTS = {
    "intervals": (
        "Interval", "IntervalSet", "decimal_string", "format_rational", "rat",
    ),
    "subdivision": (
        "classify_ternary", "fast_subdivision", "g_interval", "gap_set", "node_child",
        "p_interval", "q_interval", "removed_gaps", "right_half_subdivision",
        "squared_length_sum", "standard_subdivision",
    ),
    "standard": ("convergence_tail",),
    "products": ("fast_bounds", "standard_estimate"),
    "gaps": (
        "CertificationError", "certify", "full_enclosure", "level3_enclosure",
        "verify_order_chain",
    ),
    "render": ("render_svg",),
    "records": (
        "Certificate", "EstimateResult", "FastBounds", "FastNode", "FastSubdivision",
        "Membership", "ROOT", "TernaryExpansion",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load a submodule, or the module an exported name lives in, on first access.

    Exported names are not cached here: every access reads the name from its
    module, so a name rebound there (a test double, a tracing wrapper) is
    what callers get, and restoring it there is enough.
    """
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name: str):
    # the builtin __import__, unlike importlib.import_module, is what
    # `python -X importtime` times
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
