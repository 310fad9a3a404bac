"""Iterated circle bundles over nilmanifolds, exactly and numerically.

The exact layer (`algebra`, `bch`, `coords`, `tower`) models nilpotent
lattices over the rationals: validated structure constants, truncated
Baker–Campbell–Hausdorff products, Mal'cev coordinates, peeling a lattice
into a tower of central circle extensions, and deciding when two extension
cocycles give the same bundle.

The numerical layer (`metric`, `submersion`, `scan`, `certify`) puts
left-invariant metrics on the same data: curvature in an orthonormal frame
(`metric.rescaled_curvature`: one Koszul formula, one curvature formula and
one change of frame, all in `metric`),
the split of a metric along a central circle direction (`submersion`),
scans of the canonical variation g^t that shrinks that circle, certifying
the |K^t| <= |K_base| + C*sqrt(t) bound (C from the O'Neill tensors of the
submersion, all read off one orthonormal split frame), and a per-level
collapse schedule driving sup|K| below a requested epsilon with an explicit
diameter bound. The numerical layer, and numpy with it, loads on first
access to one of its names, so the exact layer and the `validate`, `peel`
and `extend` commands run without importing numpy.

`fileio` defines the JSON formats and `cli` the command-line front end.
"""

import importlib

from .errors import (BasisNotAdapted, BoundViolated, BudgetNotMet,
                     DimensionMismatch, JacobiViolated, NilflatError,
                     NotClosed, NotIntegral, NotNilpotent,
                     NotPositiveDefinite, SchemaError, ValidationReport)
from .algebra import (NilAlgebra, basis_vec, check_adapted, check_class,
                      check_integer_constants, check_jacobi,
                      lower_central_series, validate_algebra, vec)
from .bch import bch_product
from .coords import (MalcevWord, first_to_second, lattice_closed,
                     second_to_first, word_multiply)
from .tower import (BundleTower, CentralCocycle, CohomologyVerdict,
                    NilLattice, TowerStep, check_closed, check_integral,
                    cocycles_cohomologous, extend_by_cocycle, peel_step,
                    peel_tower)
from . import catalog, fileio

__version__ = "0.1.0"

# The numerical layer: each name, submodules included, maps to the module
# that defines it and is imported by `__getattr__` on first access.
_NUMERICAL = {
    "metric": "metric", "LeftInvariantMetric": "metric",
    "structure_array": "metric", "submersion": "submersion",
    "SubmersionSplit": "submersion", "build_split": "submersion",
    "scan": "scan", "DecayReport": "scan", "lemma_scan": "scan",
    "diameter_bound": "scan", "report_csv": "scan", "report_summary": "scan",
    "polished_sup": "scan", "polished_sups": "scan",
    "certify": "certify", "CertificateReport": "certify",
    "certify_almost_flat": "certify", "certificate_summary": "certify",
}

__all__ = [
    "__version__",
    # errors
    "NilflatError", "SchemaError", "DimensionMismatch", "NotNilpotent",
    "JacobiViolated", "BasisNotAdapted", "NotClosed",
    "NotIntegral", "NotPositiveDefinite",
    "BoundViolated", "BudgetNotMet", "ValidationReport",
    # exact layer
    "NilAlgebra", "vec", "basis_vec", "check_jacobi", "check_adapted",
    "check_class", "check_integer_constants", "lower_central_series",
    "validate_algebra", "bch_product",
    "MalcevWord", "first_to_second", "second_to_first", "word_multiply",
    "lattice_closed", "NilLattice", "CentralCocycle", "TowerStep",
    "BundleTower", "check_closed", "check_integral",
    "peel_step", "peel_tower", "extend_by_cocycle", "CohomologyVerdict",
    "cocycles_cohomologous",
    # numerical layer
    *(name for name, module in _NUMERICAL.items() if name != module),
    # submodules
    "catalog", "fileio",
]


def __getattr__(name):
    try:
        module = _NUMERICAL[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _NUMERICAL.keys())
