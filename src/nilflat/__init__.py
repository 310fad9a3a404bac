"""Iterated circle bundles over nilmanifolds, exactly and numerically.

The exact layer (`algebra`, `bch`, `coords`, `tower`) models nilpotent
lattices over the rationals: validated structure constants, truncated
Baker–Campbell–Hausdorff products, Mal'cev coordinates, peeling a lattice
into a tower of central circle extensions, and deciding when two extension
cocycles give the same bundle. Jacobi and the cocycle condition (the
Jacobi sums of the central extension on its new e_{n+1}) share one sparse
loop, `algebra._triple_sums`. The Mal'cev layer (`bch`, `coords`) loads on
first access to one of its names: of the commands, only `validate` uses it.

The numerical layer (`metric`, `submersion`, `scan`, `certify`) puts
left-invariant metrics on the same data: curvature in an orthonormal frame
(`metric.rescaled_curvature`: one Koszul formula, one curvature formula and
one change of frame, all in `metric`),
the split of a metric along e_n, the top circle of an adapted basis, in
the frame of the reversed Cholesky factor that is also the metric's one
positive-definiteness gate (`submersion`),
scans of the canonical variation g^t that shrinks that circle, certifying
the |K^t| <= |K_base| + C*sqrt(t) bound (C from the O'Neill tensors of the
submersion, all read off one orthonormal split frame), and a per-level
collapse schedule driving sup|K| below a requested epsilon with an explicit
diameter bound. The numerical layer, and numpy with it, loads on first
access to one of its names, so the exact layer and the `validate`, `peel`
and `extend` commands run without importing numpy.

`fileio` defines the JSON formats and `cli` the command-line front end.
`catalog`, the named examples, loads on first access too: no command uses
it.
"""

import importlib

from .errors import (BasisNotAdapted, BoundViolated, BudgetNotMet,
                     DimensionMismatch, JacobiViolated, NilflatError,
                     NotClosed, NotIntegral, NotNilpotent,
                     NotPositiveDefinite, SchemaError, ValidationReport)
from .algebra import (NilAlgebra, basis_vec, check_adapted, check_class,
                      check_integer_constants, check_jacobi,
                      lower_central_series, validate_algebra, vec)
from .tower import (BundleTower, CentralCocycle, CohomologyVerdict,
                    NilLattice, TowerStep, check_closed, check_integral,
                    cocycles_cohomologous, extend_by_cocycle, peel_step,
                    peel_tower)
from . import fileio

__version__ = "0.1.0"

# The Mal'cev layer, the numerical layer and `catalog`: each name, submodules
# included, maps to the module that defines it and is imported by
# `__getattr__` on first access.
_LAZY = {
    "bch": "bch", "bch_product": "bch",
    "coords": "coords", "MalcevWord": "coords", "first_to_second": "coords",
    "lattice_closed": "coords", "second_to_first": "coords",
    "word_multiply": "coords",
    "catalog": "catalog",
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
    "validate_algebra", "NilLattice", "CentralCocycle", "TowerStep",
    "BundleTower", "check_closed", "check_integral",
    "peel_step", "peel_tower", "extend_by_cocycle", "CohomologyVerdict",
    "cocycles_cohomologous",
    # Mal'cev and numerical layers
    *(name for name, module in _LAZY.items() if name != module),
    # submodules
    "catalog", "fileio",
]


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
