"""Exact topological invariants of smooth complete intersections in
projective space, and the classification of the convex, rationally
connected ones among them.

All arithmetic is exact (arbitrary-precision integers and Gaussian
integers); there is no floating point anywhere.

Each public name is imported from its module on first use (PEP 562), so
a command line call loads only the modules that its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The module that defines each public name.
_MODULES = {
    "GaussianInteger": "topology",
    "CIType": "topology",
    "InternalCheckError": "topology",
    "InvariantReport": "topology",
    "chi22": "topology",
    "compute_invariants": "topology",
    "euler_characteristic": "topology",
    "verify_expansion_identities": "topology",
    "LineGeometry": "lines",
    "fiber_type": "lines",
    "line_geometry": "lines",
    "LemmaCase": "classify",
    "LemmaRecord": "writer",
    "ScanReport": "scan",
    "Verdict": "classify",
    "VerdictKind": "classify",
    "iter_types": "scan",
    "lemma_classify": "classify",
    "scan_lemma": "scan",
    "scan_theorem": "scan",
    "theorem_verdict": "classify",
    "write_scans": "writer",
}

__all__ = [*_MODULES, "__version__"]


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
