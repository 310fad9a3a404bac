"""Iterated circle bundles over nilmanifolds, exactly and numerically.

The exact layer (`algebra`, `bch`, `coords`, `tower`) models nilpotent
lattices over the rationals: validated structure constants, truncated
Baker–Campbell–Hausdorff products, Mal'cev coordinates, peeling a lattice
into a tower of central circle extensions, and deciding when two extension
cocycles give the same bundle.

The numerical layer (`metric`, `submersion`, `scan`, `certify`) puts
left-invariant metrics on the same data: sectional curvature (one Koszul
formula, one curvature formula and one change of frame, all in `metric`),
the split of a metric along a central circle direction (`submersion`),
scans of the canonical variation g^t that shrinks that circle, certifying
the |K^t| <= |K_base| + C*sqrt(t) bound (C from the O'Neill tensors of the
submersion, all read off one orthonormal split frame), and a per-level
collapse schedule driving sup|K| below a requested epsilon with an explicit
diameter bound.

`fileio` defines the JSON formats and `cli` the command-line front end.
"""

from .errors import (BasisNotAdapted, BoundViolated, BudgetNotMet,
                     DegeneratePlane, DimensionMismatch, JacobiViolated,
                     NilflatError, NotClosed, NotIntegral, NotNilpotent,
                     NotPositiveDefinite, SchemaError, ValidationReport)
from .algebra import (NilAlgebra, algebra_center, basis_vec, check_adapted,
                      check_class, check_integer_constants, check_jacobi,
                      lower_central_series, validate_algebra, vec)
from .bch import bch_product
from .coords import (MalcevWord, first_to_second, lattice_closed,
                     second_to_first, word_multiply)
from .tower import (BundleTower, CentralCocycle, CohomologyVerdict,
                    NilLattice, TowerStep, check_closed, check_integral,
                    cocycles_cohomologous, extend_by_cocycle, peel_step,
                    peel_tower)
from .metric import (LeftInvariantMetric, connection_coeffs,
                     curvature_tensor, sectional_curvature, structure_array)
from .submersion import SubmersionSplit, build_split
from .scan import (DecayReport, diameter_bound, lemma_scan, polished_sup,
                   polished_sups, report_csv, report_summary)
from .certify import (CertificateReport, certificate_summary,
                      certify_almost_flat)
from . import catalog, fileio

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NilflatError", "SchemaError", "DimensionMismatch", "NotNilpotent",
    "JacobiViolated", "BasisNotAdapted", "NotClosed",
    "NotIntegral", "NotPositiveDefinite", "DegeneratePlane",
    "BoundViolated", "BudgetNotMet", "ValidationReport",
    # exact layer
    "NilAlgebra", "vec", "basis_vec", "check_jacobi", "check_adapted",
    "check_class", "check_integer_constants", "lower_central_series",
    "algebra_center", "validate_algebra", "bch_product",
    "MalcevWord", "first_to_second", "second_to_first", "word_multiply",
    "lattice_closed", "NilLattice", "CentralCocycle", "TowerStep",
    "BundleTower", "check_closed", "check_integral",
    "peel_step", "peel_tower", "extend_by_cocycle", "CohomologyVerdict",
    "cocycles_cohomologous",
    # numerical layer
    "LeftInvariantMetric", "structure_array", "connection_coeffs",
    "curvature_tensor", "sectional_curvature", "SubmersionSplit",
    "build_split", "DecayReport", "lemma_scan", "diameter_bound", "report_csv",
    "report_summary", "polished_sup", "polished_sups", "CertificateReport",
    "certify_almost_flat", "certificate_summary",
    # submodules
    "catalog", "fileio",
]
