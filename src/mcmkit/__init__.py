"""mcmkit: exact computation with maximal Cohen-Macaulay modules.

Resolutions, syzygies, duals, transpose and horizontal linkage, MCM
approximations, matrix factorizations, cohomology operators over
complete intersections, and Auslander-Reiten quivers for finite-type
catalogs -- all over GF(p) or the rationals, degreewise and exact.

Submodules load on first use (PEP 562): ``import mcmkit`` imports only
``mcmkit.errors``, and ``mcmkit.resolve`` or ``mcmkit.resolution`` loads
the layer that defines it.
"""

import importlib

from .errors import DegreeBoundExceeded, Inconclusive, MCMError, UsageError

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("MCMError", "UsageError", "Inconclusive", "DegreeBoundExceeded"),
    "linalg": ("GF", "QQ", "DenseMatrix"),
    "rings": ("WeightedPolyRing", "QuotientRing"),
    "modules": ("GradedModule", "free_module", "residue_field_module",
                "maximal_ideal_module", "invariants"),
    "homs": ("hom_space", "is_isomorphic", "decompose"),
    "resolution": ("resolve", "syzygy", "detect_period", "growth_report", "mcm_test",
                   "ulrich_test"),
    "mf": ("MatrixFactorization", "coker_module", "mf_shift", "mf_transpose",
           "from_resolution_tail"),
    "catalog": ("load_catalog", "catalog_names"),
    "functors": ("dual", "transpose", "link", "cosyzygy", "tau", "mcm_approx", "stable_part"),
    "quiver": ("build_quiver", "middle_term", "reverse_iso_check", "component_classify"),
    "cisupport": ("CIPresentation", "eisenbud_operators", "support_annihilator_window"),
    "cli": (),
}
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN) + ["__version__"]


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
