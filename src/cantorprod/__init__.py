"""Exact arithmetic for the measure of the Cantor product set.

The package computes the Lebesgue measure of {x*y : x, y in the
middle-third Cantor set} two independent ways: a brute-force product of
subdivision covers, and a certified enclosure assembled from the gap
calculus along the diagonal.  Everything on the certified path is a
`fractions.Fraction`; floats appear only in rendered output.
"""

from .intervals import (
    Interval,
    IntervalSet,
    Rational,
    decimal_string,
    format_rational,
    parse_rational,
    rat,
)
from .subdivision import (
    FastNode,
    FastSubdivision,
    Membership,
    ROOT,
    TernaryExpansion,
    cantor_membership,
    classify_ternary,
    fast_subdivision,
    gap_set,
    node_child,
    node_children,
    removed_gaps,
    right_half_subdivision,
    squared_length_sum,
    standard_subdivision,
    ternary_expansion,
)
from .products import (
    EstimateResult,
    FastBounds,
    convergence_tail,
    fast_bounds,
    product_image,
    self_product_measure,
    standard_estimate,
)
from .gaps import (
    Certificate,
    CertificationError,
    certify,
    diagonal_gap,
    full_enclosure,
    g_interval,
    level3_enclosure,
    p_interval,
    q_interval,
    verify_order_chain,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificationError",
    "EstimateResult",
    "FastBounds",
    "FastNode",
    "FastSubdivision",
    "Interval",
    "IntervalSet",
    "Membership",
    "ROOT",
    "Rational",
    "TernaryExpansion",
    "cantor_membership",
    "certify",
    "classify_ternary",
    "convergence_tail",
    "decimal_string",
    "diagonal_gap",
    "fast_bounds",
    "fast_subdivision",
    "format_rational",
    "full_enclosure",
    "g_interval",
    "gap_set",
    "level3_enclosure",
    "node_child",
    "node_children",
    "p_interval",
    "parse_rational",
    "product_image",
    "q_interval",
    "rat",
    "removed_gaps",
    "render_svg",
    "right_half_subdivision",
    "self_product_measure",
    "squared_length_sum",
    "standard_estimate",
    "standard_subdivision",
    "ternary_expansion",
    "verify_order_chain",
]
