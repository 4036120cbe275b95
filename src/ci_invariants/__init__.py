"""Exact topological invariants of smooth complete intersections in
projective space, and the classification of the convex, rationally
connected ones among them.

All arithmetic is exact (arbitrary-precision integers, integer
polynomials, Gaussian integers); there is no floating point anywhere.
"""

from .exact import GaussianInteger, IntPolynomial
from .topology import (
    CIType,
    InternalCheckError,
    InvariantReport,
    chi22,
    compute_invariants,
    euler_characteristic,
    verify_expansion_identities,
)
from .lines import (
    LineGeometry,
    ProductObstruction,
    fiber_type,
    line_geometry,
    product_obstruction,
)
from .classify import (
    LemmaCase,
    LemmaRecord,
    ScanReport,
    Verdict,
    VerdictKind,
    iter_types,
    lemma_classify,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
    write_scans,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianInteger",
    "IntPolynomial",
    "CIType",
    "InternalCheckError",
    "InvariantReport",
    "chi22",
    "compute_invariants",
    "euler_characteristic",
    "verify_expansion_identities",
    "LineGeometry",
    "ProductObstruction",
    "fiber_type",
    "line_geometry",
    "product_obstruction",
    "LemmaCase",
    "LemmaRecord",
    "ScanReport",
    "Verdict",
    "VerdictKind",
    "iter_types",
    "lemma_classify",
    "scan_lemma",
    "scan_theorem",
    "theorem_verdict",
    "write_scans",
    "__version__",
]
