"""Poncelet pairs of a unit circle and parabolas from a confocal family:
exact Cayley-style locus polynomials, root classification, a numeric
closure oracle, and algebraic Painleve VI solution verification."""

from .cayley import LocusPolynomial, hankel_raw, locus, locus_at_p, pencil_coeffs
from .classify import (
    Center,
    PairClassification,
    QuarticShape,
    isoperiodic_n,
    p_polynomial,
    pair_classify,
    rees_classify,
)
from .geometry import Circle, Parabola, closes_after, poncelet_trace
from .painleve import PVIParams, okamoto, pvi_residual, solution_n3, solution_n4
from .polycore import (
    LaurentPoly3,
    RootList,
    UniPolyR,
    canonicalize,
    discriminant,
    format_poly,
    parse_poly,
    poly_div_exact,
    specialize,
    sturm_real_roots,
)

__all__ = [
    "Center",
    "Circle",
    "LaurentPoly3",
    "LocusPolynomial",
    "PVIParams",
    "PairClassification",
    "Parabola",
    "QuarticShape",
    "RootList",
    "UniPolyR",
    "canonicalize",
    "closes_after",
    "discriminant",
    "format_poly",
    "hankel_raw",
    "isoperiodic_n",
    "locus",
    "locus_at_p",
    "okamoto",
    "p_polynomial",
    "pair_classify",
    "parse_poly",
    "pencil_coeffs",
    "poly_div_exact",
    "poncelet_trace",
    "pvi_residual",
    "rees_classify",
    "solution_n3",
    "solution_n4",
    "specialize",
    "sturm_real_roots",
]
__version__ = "0.1.0"
